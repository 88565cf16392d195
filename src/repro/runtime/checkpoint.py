"""Journaled checkpoint/resume for the fused library characterization.

The durable tier (:mod:`repro.runtime.persist`) makes individual cache
entries survive process death; this module makes a whole *run* resumable.
A checkpointed ``characterize_library`` call owns a checkpoint directory::

    <dir>/journal.jsonl            # append-only record of completed units
    <dir>/store/simulation/        # DiskStore of committed simulation rows
    <dir>/store/solved_models/     # DiskStore of per-arc solved models

During the run, every completed simulation chunk commits its rows to the
simulation store *as it finishes* (the crash window is one chunk, not the
whole simulate phase), and every solved arc lands in the solved-model store
together with a ``solve`` journal record.  Structured
:class:`~repro.runtime.resilience.FailureReport` records of degraded work
are persisted too, and surfaced on resume through :meth:`Checkpointer.failures`.

On ``characterize_library(resume=True)`` the journal is replayed: arcs with
a journaled solve load their models straight from the store, rows committed
by the killed run are disk hits during planning, and only the genuinely
missing (or quarantined-on-disk) rows are re-integrated.  The stacked MAP
solve is block-independent per arc, so the resumed run's entries are
bit-identical to an uninterrupted run's.

Integrity over trust: every journal line carries a SHA-256 of its record,
so a torn tail (the line being appended when the process died) is dropped
instead of parsed; a wrong run *signature* -- the
:func:`~repro.runtime.persist.stable_key_digest` of everything that shapes
the run (technology and variation fingerprints, the job list and its
conditions, the prior fingerprints, the transient stepper) -- raises
:class:`CheckpointMismatch` rather than resuming into different inputs.
Journal and store writes degrade, never abort: an unwritable journal counts
``journal_errors`` and the run continues as a plain (non-durable) run.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.runtime.persist import DiskStore
from repro.runtime.resilience import FailureReport

__all__ = [
    "CHECKPOINT_SCHEMA",
    "CheckpointMismatch",
    "Checkpointer",
    "load_checkpoint",
]

#: Journal schema version; a mismatch invalidates the journal (the stores
#: are still readable -- their entries carry their own versioned headers).
CHECKPOINT_SCHEMA = 1

_JOURNAL_NAME = "journal.jsonl"


class CheckpointMismatch(ValueError):
    """A resume was attempted against a journal from different run inputs."""


def _record_sha(record: Dict[str, Any]) -> str:
    return hashlib.sha256(
        json.dumps(record, sort_keys=True).encode("utf-8")).hexdigest()


def _load_journal(path: Path) -> List[Dict[str, Any]]:
    """Replay a journal, dropping the torn tail.

    Journal lines are appended with flush+fsync, so at most the last line
    can be incomplete after a crash; any line that fails to parse or whose
    SHA-256 does not match its record ends the replay -- the units it (and
    anything after it) described are simply recomputed.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    except OSError:
        return []
    records: List[Dict[str, Any]] = []
    for line in lines:
        if not line.strip():
            continue
        try:
            entry = json.loads(line)
            record = entry["record"]
            if entry.get("sha") != _record_sha(record):
                break
        except (ValueError, KeyError, TypeError):
            break
        records.append(record)
    return records


class Checkpointer:
    """One run's durable progress: journal plus simulation/solved stores.

    Parameters
    ----------
    directory:
        Checkpoint directory (created on demand).
    signature:
        The run signature -- a stable digest of every input that shapes the
        run's results.  A fresh checkpoint records it in the journal header;
        a resume verifies it.
    resume:
        ``False`` starts a fresh journal (an existing one, whatever its
        signature, is truncated; the content-addressed stores are kept --
        matching entries warm-start, stale ones are just unread).  ``True``
        replays an existing journal; a signature mismatch raises
        :class:`CheckpointMismatch`, a missing/empty journal degrades to a
        fresh start.
    """

    def __init__(self, directory, signature: str, resume: bool = False):
        self._dir = Path(directory)
        self._dir.mkdir(parents=True, exist_ok=True)
        self._journal_path = self._dir / _JOURNAL_NAME
        self._signature = str(signature)
        self.sim_store = DiskStore(self._dir / "store" / "simulation",
                                   name="checkpoint:simulation")
        self.solved_store = DiskStore(self._dir / "store" / "solved_models",
                                      name="checkpoint:solved_models")
        #: Swallowed journal-append failures (full disk etc.); the run
        #: continues, it just checkpoints less.
        self.journal_errors = 0
        #: Simulation rows committed through :meth:`row_sink` this run.
        self.rows_committed = 0
        self._solved_units: Dict[int, str] = {}
        self._failure_indices: List[int] = []
        self._completed = False

        records = _load_journal(self._journal_path)
        header = records[0] if records else None
        header_valid = (isinstance(header, dict)
                        and header.get("kind") == "run"
                        and header.get("schema") == CHECKPOINT_SCHEMA)
        if resume and header_valid:
            if header.get("signature") != self._signature:
                raise CheckpointMismatch(
                    f"checkpoint at {self._dir} was written by a run with "
                    f"signature {header.get('signature')!r}; this run's "
                    f"signature is {self._signature!r} -- the inputs "
                    f"(technology, library, conditions, seeds, priors or "
                    f"stepper) differ, so its units cannot be reused")
            for record in records[1:]:
                kind = record.get("kind")
                if kind == "solve":
                    self._solved_units[int(record["job"])] = str(
                        record.get("unit", ""))
                elif kind == "failure":
                    self._failure_indices.append(int(record["index"]))
                elif kind == "complete":
                    self._completed = True
        else:
            self._write_header()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def directory(self) -> Path:
        """The checkpoint directory."""
        return self._dir

    @property
    def signature(self) -> str:
        """The run signature this checkpoint belongs to."""
        return self._signature

    @property
    def completed(self) -> bool:
        """Whether the journal records a completed run."""
        return self._completed

    def solved_jobs(self) -> List[int]:
        """Job indices with a journaled solve, ascending."""
        return sorted(self._solved_units)

    def solved_units(self) -> Dict[int, str]:
        """Journaled job index -> ``cell:arc`` unit labels."""
        return dict(self._solved_units)

    def failures(self) -> List[FailureReport]:
        """Persisted :class:`FailureReport` records, in journal order.

        Reports whose store entry was lost or quarantined are skipped --
        the failure already cost its recompute; its description is not
        worth an exception.
        """
        reports: List[FailureReport] = []
        for index in self._failure_indices:
            payload = self.solved_store.get(
                (self._signature, "failure", int(index)))
            if payload is not None:
                reports.append(FailureReport.from_dict(payload))
        return reports

    # ------------------------------------------------------------------
    # Journaling (all writes degrade, never raise)
    # ------------------------------------------------------------------
    def _write_header(self) -> None:
        try:
            self._journal_path.unlink()
        except OSError:
            pass
        self._append({"kind": "run", "schema": CHECKPOINT_SCHEMA,
                      "signature": self._signature})

    def _append(self, record: Dict[str, Any]) -> None:
        line = json.dumps({"record": record, "sha": _record_sha(record)},
                          sort_keys=True)
        try:
            with open(self._journal_path, "a", encoding="utf-8") as handle:
                handle.write(line + "\n")
                handle.flush()
                os.fsync(handle.fileno())
        except OSError:
            self.journal_errors += 1

    def row_sink(self, key, delay_row, slew_row) -> None:
        """Persist one completed simulation row (the ``commit_chunk`` sink)."""
        self.sim_store.put(key, (delay_row, slew_row))
        self.rows_committed += 1

    def journal_rows(self, written: int) -> None:
        """Record one committed chunk (row-group unit) in the journal."""
        self._append({"kind": "rows", "n": int(written)})

    def commit_solve(self, job: int, unit: str,
                     payload: Dict[str, Any]) -> None:
        """Persist one arc's solved model and journal the solve unit.

        The store entry is written (and fsynced) *before* the journal line:
        a crash between the two leaves an unreferenced entry, never a
        journal record pointing at nothing.
        """
        self.solved_store.put((self._signature, "solve", int(job)), payload)
        self._append({"kind": "solve", "job": int(job), "unit": str(unit)})
        self._solved_units[int(job)] = str(unit)

    def load_solved(self, job: int) -> Optional[Dict[str, Any]]:
        """A journaled job's solved-model payload, or ``None`` to recompute.

        ``None`` covers both "never solved" and "stored entry lost or
        quarantined" -- either way the caller re-characterizes the arc.
        """
        if int(job) not in self._solved_units:
            return None
        return self.solved_store.get((self._signature, "solve", int(job)))

    def record_failure(self, report: FailureReport) -> None:
        """Persist one :class:`FailureReport` into the store and journal."""
        index = (max(self._failure_indices) + 1) if self._failure_indices else 0
        self.solved_store.put((self._signature, "failure", index),
                              report.as_dict())
        self._append({"kind": "failure", "index": index})
        self._failure_indices.append(index)

    def mark_complete(self) -> None:
        """Journal that the run finished (resume becomes a pure replay)."""
        self._append({"kind": "complete"})
        self._completed = True


def load_checkpoint(directory) -> Checkpointer:
    """Open an existing checkpoint read-mostly, without knowing its signature.

    Replays the journal under whatever signature its header carries --
    the accessor for inspecting a dead run's progress and persisted
    failures (``load_checkpoint(dir).failures()``).
    """
    records = _load_journal(Path(directory) / _JOURNAL_NAME)
    header = records[0] if records else None
    if (not isinstance(header, dict) or header.get("kind") != "run"
            or "signature" not in header):
        raise FileNotFoundError(
            f"no checkpoint journal found under {directory}")
    return Checkpointer(directory, header["signature"], resume=True)
