"""In-memory spans recorded around the benchmark's calls into each layer.

A span has a name ``"<layer>:<stage>"``, a start, an end and a parent.  The
benchmark opens one around every call it makes into a layer's public
functions; the stages a call runs inside (plan, integrate, extract, solve,
...) are read from the :class:`~repro.runtime.accounting.RunLedger` the call
already fills and recorded as derived child spans, laid end to end inside
their parent.  ``fused:integrate`` runs inside ``fused:simulate``, so it is
recorded as a child of the simulate span and is never counted twice.

A layer's self time is the duration of its spans minus the part their child
spans cover; the root span's self time is the uninstrumented remainder, so
layer self times plus the remainder add up to the root exactly.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Dict, List, Optional

#: Ledger stages of one fused or historical characterization call, mapped
#: to their span names.  Entries name their parent stage when they run
#: inside another stage of the same call.
LEDGER_STAGES = (
    ("fused:plan", "core.simulation_plan:plan", None),
    ("fused:simulate", "core.simulation_plan:simulate", None),
    ("fused:integrate", "spice:integrate", "fused:simulate"),
    ("fused:extract", "core.statistical_flow:extract", None),
    ("fused:solve", "core.batch_map:solve", None),
    ("priors:plan", "core.simulation_plan:plan", None),
    ("priors:simulate", "core.simulation_plan:simulate", None),
    ("priors:integrate", "spice:integrate", "priors:simulate"),
    ("priors:fit", "core.prior_learning:fit", None),
    ("priors:bp", "bayes:bp", None),
)


def layer_of(name: str) -> str:
    return name.split(":", 1)[0]


class Tracer:
    """Thread-aware span recorder; spans are kept in memory."""

    enabled = True

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _add(self, name: str, start: float, end: Optional[float],
             parent: Optional[int], derived: bool = False) -> dict:
        with self._lock:
            record = {"id": len(self.spans), "name": name, "start": start,
                      "end": end, "parent": parent, "derived": derived}
            self.spans.append(record)
        return record

    @contextmanager
    def span(self, name: str, parent: Optional[int] = None):
        """Time a block as one span (parent: innermost open span)."""
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        record = self._add(name, time.perf_counter(), None, parent)
        stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()

    def add_span(self, name: str, start: float, end: float,
                 parent: Optional[int] = None) -> dict:
        """Record an interval measured elsewhere (e.g. on another thread)."""
        return self._add(name, start, end, parent)

    def add_ledger_stages(self, parent: dict, ledger) -> None:
        """Derived child spans of ``parent`` from its call's ledger stages."""
        stages = ledger.stages()
        cursor = {None: parent["start"]}
        ids = {None: parent["id"]}
        for stage, name, within in LEDGER_STAGES:
            entry = stages.get(stage)
            if entry is None or within not in ids:
                continue
            start = cursor[within]
            end = start + entry["wall_s"]
            record = self._add(name, start, end, ids[within], derived=True)
            cursor[within] = end
            cursor[stage] = start
            ids[stage] = record["id"]


class NullTracer:
    """Stand-in used by untraced operations: records nothing."""

    enabled = False

    @contextmanager
    def span(self, name: str, parent: Optional[int] = None):
        yield {"id": None, "start": 0.0, "end": 0.0}

    def add_span(self, name: str, start: float, end: float,
                 parent: Optional[int] = None) -> dict:
        return {"id": None}

    def add_ledger_stages(self, parent: dict, ledger) -> None:
        pass


def summarize_root(spans: List[dict], root_id: int) -> Dict[str, float]:
    """Per-root totals: inclusive seconds per span name, self per layer.

    Keys are ``"<layer>:<stage>"`` (inclusive), ``"self:<layer>"`` and
    ``"trace:root"`` / ``"trace:remainder"``.  The spans under one root are
    walked once; children are found by parent id.
    """
    children: Dict[int, List[dict]] = {}
    for record in spans:
        if record["parent"] is not None:
            children.setdefault(record["parent"], []).append(record)
    out: Dict[str, float] = {}
    by_id = {record["id"]: record for record in spans}
    root = by_id[root_id]
    pending = [root]
    while pending:
        record = pending.pop()
        duration = record["end"] - record["start"]
        kids = children.get(record["id"], [])
        covered = sum(kid["end"] - kid["start"] for kid in kids)
        self_s = duration - covered
        if record is root:
            out["trace:root"] = duration
            out["trace:remainder"] = self_s
        else:
            out[record["name"]] = out.get(record["name"], 0.0) + duration
            key = "self:" + layer_of(record["name"])
            out[key] = out.get(key, 0.0) + self_s
        pending.extend(kids)
    return out
