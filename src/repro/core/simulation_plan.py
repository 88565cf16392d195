"""Signature-grouped global simulation planning (the fused pipelines' front half).

PR 5 introduced a library-wide fused characterization pipeline: flatten every
``(cell, arc, condition)`` of a workload into one global plan, consult the
simulation cache per row, group the remaining rows by *equivalent-inverter
simulation signature* (footprint-equivalent cells reduce to bit-identical
inverters), dedup physically identical rows, and integrate each group in a
handful of mega-batched RK4 passes.  That planning logic is useful beyond
library characterization -- historical-library characterization for prior
learning (:mod:`repro.core.prior_learning`) runs the same row shape -- so it
lives here, importable by both flows without creating an import cycle
(:mod:`repro.core.library_flow` imports :mod:`repro.core.prior_learning`
for :class:`~repro.core.prior_learning.TimingPrior`).

The :class:`SimulationPlan` protocol is three phases, with the caller owning
the :class:`~repro.runtime.accounting.RunLedger` stage windows (stage names
differ per flow -- ``fused:*`` for the library pipeline, ``priors:*`` for
historical characterization):

1. :meth:`SimulationPlan.add_job` per (cell, arc) with its operating points
   (consults the reduction and simulation caches row by row), then
   :meth:`SimulationPlan.record_metrics`;
2. :meth:`SimulationPlan.simulate` -- each signature group split on the flat
   row axis by the memory budget and the executor's shard hint, one
   :func:`simulate_rows_job` per chunk through
   ``executor.map_accounted`` (process-safe);
3. :meth:`SimulationPlan.finalize` -- scatter group results to every
   ``(job, condition)`` row and fill the simulation cache.

After ``finalize``, ``plan.job_delays[job][cond]`` / ``job_slews`` hold one
``(n_seeds,)`` array per row (cached rows are filled during planning).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cells.equivalent_inverter import reduce_cell_cached
from repro.cells.library import Cell, TimingArc
from repro.runtime import resolve_max_bytes
from repro.runtime.accounting import RunLedger
from repro.runtime.chunking import plan_chunks
from repro.spice.stepper import StepperSpec
from repro.spice.sweep import record_integration_stats
from repro.spice.testbench import SimulationCache, get_simulation_cache
from repro.spice.transient import (
    DEFAULT_STEPS,
    simulate_arc_transitions,
    transient_item_bytes,
)
from repro.technology.node import TechnologyNode
from repro.technology.variation import VariationSample


def simulate_rows_job(payload: tuple):
    """Integrate one chunk of flat simulation rows; module-level for pickling.

    The payload carries a *representative* (cell, arc) of the chunk's
    signature group -- every row in the chunk reduces to a bit-identical
    equivalent inverter, so one reduction serves all rows whatever cell
    they came from -- and the :class:`~repro.spice.stepper.StepperSpec`
    selecting the integration scheme (RK4 fixed grid or adaptive RK45).
    Returns the per-row delay/slew matrices plus the chunk's
    :class:`RunLedger` (integration wall time under the flow's own stage
    label and the chunk's step/RHS-evaluation metrics, merged back in
    payload order by the executor).
    """
    (technology, cell, arc, variation, triples, stepper, stage,
     on_failure) = payload
    ledger = RunLedger()
    with ledger.caches():
        inverter = reduce_cell_cached(cell, technology, arc=arc,
                                      variation=variation)
        with ledger.stage(stage):
            result = simulate_arc_transitions(
                inverter, triples[:, 0], triples[:, 1], triples[:, 2],
                on_failure=on_failure, stepper=stepper)
            record_integration_stats(ledger, result.stats)
            delay = np.asarray(result.delay(), dtype=float)
            slew = np.asarray(result.output_slew(), dtype=float)
    return (delay, slew, result.quarantined), ledger


@dataclass
class SignatureGroup:
    """Simulation rows sharing one equivalent-inverter signature.

    ``cell``/``arc`` are the representative reduction (first job that hit
    the signature); ``rows`` are ``(job, cond, key, slot)`` tuples in
    deterministic (job, condition) order, where ``slot`` indexes into
    ``triples`` -- the group's *unique* operating points.  Rows of
    footprint-twin arcs at the same operating point are physically the same
    simulation, so they share a slot and are integrated exactly once (a
    dedup the per-arc simulation cache cannot see: its keys carry the cell
    identity).
    """

    cell: Cell
    arc: TimingArc
    rows: List[tuple] = field(default_factory=list)
    triples: List[tuple] = field(default_factory=list)
    slot_index: Dict[tuple, int] = field(default_factory=dict)
    delays: List[Optional[np.ndarray]] = field(default_factory=list)
    slews: List[Optional[np.ndarray]] = field(default_factory=list)
    quarantined: List[bool] = field(default_factory=list)

    def add_row(self, job: int, cond: int, key: tuple,
                triple: tuple) -> None:
        slot = self.slot_index.get(triple)
        if slot is None:
            slot = len(self.triples)
            self.slot_index[triple] = slot
            self.triples.append(triple)
            self.delays.append(None)
            self.slews.append(None)
            self.quarantined.append(False)
        self.rows.append((job, cond, key, slot))


class SimulationPlan:
    """One cache-aware, signature-grouped plan over flat (job, condition) rows."""

    def __init__(self, technology: TechnologyNode,
                 variation: Optional[VariationSample] = None,
                 n_steps: int = DEFAULT_STEPS,
                 integrate_stage: str = "fused:integrate",
                 on_failure: str = "raise",
                 stepper: Optional[StepperSpec] = None) -> None:
        if on_failure not in ("raise", "quarantine"):
            raise ValueError(f"on_failure must be 'raise' or 'quarantine', "
                             f"got {on_failure!r}")
        self.technology = technology
        self.variation = variation
        self.n_steps = int(n_steps)
        #: Integration scheme of every batched call (and the engine part of
        #: every simulation-cache key); defaults to fixed-step RK4 at
        #: ``n_steps``, the historical behaviour.
        self.stepper = (stepper if stepper is not None
                        else StepperSpec(method="rk4", n_steps=self.n_steps))
        self.n_seeds = variation.n_seeds if variation is not None else 1
        self.integrate_stage = integrate_stage
        #: Fault handling forwarded to every batched transient call; with
        #: ``"quarantine"``, broken rows land in :attr:`quarantined_rows`
        #: instead of aborting the plan.
        self.on_failure = on_failure
        #: After ``finalize``: job index -> sorted condition indices whose
        #: simulation was quarantined (NaN delay/slew, not cached).
        self.quarantined_rows: Dict[int, List[int]] = {}
        self._cache = get_simulation_cache()
        self._variation_fp = (variation.fingerprint() if variation is not None
                              else "nominal")
        #: Equivalent-inverter reduction per job, in job order.
        self.inverters: List = []
        #: Per-job, per-condition ``(n_seeds,)`` delay/slew rows.
        self.job_delays: List[List[Optional[np.ndarray]]] = []
        self.job_slews: List[List[Optional[np.ndarray]]] = []
        self.groups: Dict[tuple, SignatureGroup] = {}
        self._n_rows_total = 0
        self._payload_slots: List[Tuple[SignatureGroup, slice]] = []
        self._results: Optional[list] = None

    # ------------------------------------------------------------------
    # Phase 1: planning
    # ------------------------------------------------------------------
    def add_job(self, cell: Cell, arc: TimingArc,
                triples: Sequence[Sequence[float]]) -> int:
        """Register one (cell, arc) with its operating points.

        Resolves the equivalent-inverter reduction, consults the simulation
        cache per condition, and files the remaining rows into signature
        groups.  Returns the job index.
        """
        job = len(self.inverters)
        inverter = reduce_cell_cached(cell, self.technology, arc=arc,
                                      variation=self.variation)
        self.inverters.append(inverter)
        prefix = SimulationCache.arc_prefix(cell, self.technology, arc,
                                            self._variation_fp)
        signature = inverter.simulation_signature()
        triples = [tuple(float(value) for value in triple)
                   for triple in triples]
        delays: List[Optional[np.ndarray]] = [None] * len(triples)
        slews: List[Optional[np.ndarray]] = [None] * len(triples)
        for cond, triple in enumerate(triples):
            key = SimulationCache.condition_key(prefix, *triple, self.stepper)
            cached = self._cache.get(key)
            if cached is not None:
                delays[cond], slews[cond] = cached
                continue
            group = self.groups.get(signature)
            if group is None:
                group = SignatureGroup(cell=cell, arc=arc)
                self.groups[signature] = group
            group.add_row(job, cond, key, triple)
        self.job_delays.append(delays)
        self.job_slews.append(slews)
        self._n_rows_total += len(triples)
        return job

    def record_metrics(self, ledger: RunLedger,
                       prefix: str = "fused") -> None:
        """Dedup/cache accounting under the flow's metric prefix."""
        planned_rows = sum(len(group.rows) for group in self.groups.values())
        unique_rows = sum(len(group.triples) for group in self.groups.values())
        ledger.add_metric(f"{prefix}_rows_total", self._n_rows_total)
        ledger.add_metric(f"{prefix}_rows_simulated", unique_rows)
        ledger.add_metric(f"{prefix}_rows_deduplicated",
                          planned_rows - unique_rows)
        ledger.add_metric(f"{prefix}_rows_cached",
                          self._n_rows_total - planned_rows)
        ledger.add_metric(f"{prefix}_signature_groups", len(self.groups))
        ledger.add_metric(f"{prefix}_rows_cross_job_shared",
                          sum(self.shared_row_counts().values()))
        if self.groups:
            ledger.add_group_sizes(
                f"{prefix}:signature_rows",
                [len(group.triples) for group in self.groups.values()])

    def shared_row_counts(self) -> Dict[int, int]:
        """Per-job count of planned rows whose slot serves another job too.

        This is the plan's request-attribution view: for each job, how many
        of its cache-missing rows are physically identical to a row some
        *other* job planned (same signature group, same operating-point
        slot) and therefore integrate exactly once for all of them.  The
        serving front door reports these counts as its coalescing metric --
        a row shared across jobs is work one request did for another.  Jobs
        whose rows all hit the cache (or that never missed) are absent.
        """
        slot_jobs: Dict[tuple, set] = {}
        for signature, group in self.groups.items():
            for job, cond, key, slot in group.rows:
                slot_jobs.setdefault((signature, slot), set()).add(job)
        counts: Dict[int, int] = {}
        for signature, group in self.groups.items():
            for job, cond, key, slot in group.rows:
                if len(slot_jobs[(signature, slot)]) > 1:
                    counts[job] = counts.get(job, 0) + 1
        return counts

    @property
    def needs_simulation(self) -> bool:
        """Whether any row missed the cache (phases 2/3 have work to do)."""
        return bool(self.groups)

    # ------------------------------------------------------------------
    # Phase 2: mega-batched integration
    # ------------------------------------------------------------------
    def simulate(self, executor, ledger: RunLedger,
                 max_bytes: Optional[int] = None,
                 on_chunk=None) -> None:
        """Integrate every signature group, split on the flat row axis.

        Chunks honor the ``runtime`` memory budget and the executor's shard
        hint (rows are independent, so any split reproduces the one-pass
        results).  Worker-side cache activity arrives in the per-job ledgers
        merged by ``map_accounted``.

        ``on_chunk(payload_index, result)``, when given, fires as each
        chunk's result becomes available -- pair it with
        :meth:`commit_chunk` to persist completed rows mid-run (the
        checkpoint layer's crash-safety window is one chunk, not the whole
        simulate phase).
        """
        budget = resolve_max_bytes(max_bytes)
        item_bytes = transient_item_bytes(self.n_seeds, self.n_steps)
        payloads = []
        self._payload_slots = []
        for group in self.groups.values():
            n_unique = len(group.triples)
            for chunk in plan_chunks(n_unique, item_bytes, budget,
                                     min_chunks=executor.shard_hint(n_unique)):
                triples = np.array(group.triples[chunk], dtype=float)
                payloads.append((self.technology, group.cell, group.arc,
                                 self.variation, triples, self.stepper,
                                 self.integrate_stage, self.on_failure))
                self._payload_slots.append((group, chunk))
        self._results = executor.map_accounted(simulate_rows_job, payloads,
                                               ledger=ledger,
                                               on_result=on_chunk)

    def commit_chunk(self, payload_index: int, result, sink) -> int:
        """Write one completed chunk's clean rows through ``sink``.

        ``result`` is the chunk's bare map result (``(delay, slew,
        quarantined)``); ``sink(key, delay_row, slew_row)`` receives every
        non-quarantined row under its simulation-cache condition key --
        footprint twins sharing a slot each get their own key, exactly the
        entries :meth:`finalize` would put in the cache at the end of the
        phase.  Returns the number of rows written.  Quarantined rows are
        deliberately skipped: a resumed run must re-simulate them, not
        replay the failure.
        """
        group, chunk = self._payload_slots[payload_index]
        delay, slew, quarantined = result
        written = 0
        for job, cond, key, slot in group.rows:
            if not (chunk.start <= slot < chunk.stop):
                continue
            offset = slot - chunk.start
            if quarantined is not None and quarantined[offset]:
                continue
            sink(key, np.asarray(delay[offset], dtype=float),
                 np.asarray(slew[offset], dtype=float))
            written += 1
        return written

    # ------------------------------------------------------------------
    # Phase 3: scatter + cache fill
    # ------------------------------------------------------------------
    def finalize(self) -> None:
        """Scatter group results to every row and fill the simulation cache.

        Call inside ``ledger.caches()`` so the cache *puts* are attributed
        to the parent (worker windows are merged separately and must not be
        double-counted).
        """
        if self._results is None:
            raise RuntimeError("finalize() requires a prior simulate() call")
        for (group, chunk), (delay, slew, quarantined) in zip(
                self._payload_slots, self._results):
            for index, slot in enumerate(range(chunk.start, chunk.stop)):
                group.delays[slot] = np.asarray(delay[index], dtype=float)
                group.slews[slot] = np.asarray(slew[index], dtype=float)
                if quarantined is not None and quarantined[index]:
                    group.quarantined[slot] = True
        for group in self.groups.values():
            for job, cond, key, slot in group.rows:
                delay_row = group.delays[slot]
                slew_row = group.slews[slot]
                self.job_delays[job][cond] = delay_row
                self.job_slews[job][cond] = slew_row
                if group.quarantined[slot]:
                    # A quarantined row is a failed measurement: record it
                    # against every job that shares the slot and keep it out
                    # of the simulation cache (a retry must re-simulate, not
                    # replay the failure).
                    self.quarantined_rows.setdefault(job, []).append(cond)
                    continue
                self._cache.put(key, delay_row, slew_row)
        for conds in self.quarantined_rows.values():
            conds.sort()
