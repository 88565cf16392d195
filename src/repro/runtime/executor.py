"""Pluggable job execution with deterministic splitting and merged accounting.

Every fan-out in the library used to hand-roll its execution: the library
orchestrator had a private ``concurrency=`` if/else around a
``ProcessPoolExecutor``, the condition sweep ran its batches inline, and
nothing shared accounting.  This module is the one execution substrate they
now run on:

* ``serial`` -- in-process, one job at a time (the default, and the only
  mode that shares the process-wide runtime caches with the caller);
* ``process`` -- fan-out over a ``ProcessPoolExecutor``; workers get
  pickled payloads, run the same batched engines, and return their results
  (and ledgers) for in-order merging.

Whatever the mode, ``map`` preserves payload order and
``map_accounted`` merges per-job :class:`~repro.runtime.accounting.RunLedger`
records into the caller's ledger **in payload order**, so accounting is
bit-identical across execution modes (the property the library-flow test
suite pins).

Fault tolerance (opt-in, default behavior unchanged): every executor can
carry a :class:`~repro.runtime.resilience.RetryPolicy` that re-attempts
failed jobs, and :class:`ProcessExecutor` survives worker crashes -- a
``BrokenProcessPool`` no longer loses the batch; payloads without results
are re-run through a serial fallback in the parent process.  Retries and
fallbacks are counted on the executor (``last_retries``/``last_fallbacks``)
and recorded as ``executor_retries``/``executor_fallbacks`` ledger metrics
by ``map_accounted`` -- only when nonzero, so clean-run accounting stays
bit-identical across modes.  Fault sites ``executor.job`` (per-payload) and
``executor.process.map`` (pool construction) let the fault-injection
harness exercise both paths deterministically.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, List, Optional, Sequence, Tuple

from repro.runtime import faultinject
from repro.runtime.accounting import RunLedger
from repro.runtime.resilience import RetryPolicy, run_with_retry

#: Execution modes selectable in :func:`get_executor`.
EXECUTOR_MODES = ("serial", "process")

SITE_PROCESS_MAP = faultinject.register_fault_site(
    "executor.process.map",
    "ProcessExecutor.map pool dispatch (crash -> BrokenProcessPool path)")
SITE_JOB = faultinject.register_fault_site(
    "executor.job",
    "one executor payload about to run (any executor mode)")

#: Sentinel distinguishing "no result yet" from a legitimate ``None`` result.
_MISSING = object()


def _annotate_payload_index(error: BaseException, index: int) -> None:
    """Stamp the failing payload index into ``error``'s message in place.

    Mutating ``args`` (rather than wrapping) preserves the exception type,
    so callers' ``except SomeError`` clauses keep working.
    """
    note = f"(payload index {index})"
    if note in "".join(str(a) for a in error.args):
        return
    if error.args and isinstance(error.args[0], str):
        error.args = (f"{error.args[0]} {note}",) + error.args[1:]
    else:
        error.args = error.args + (note,)


class SerialExecutor:
    """In-process, in-order execution (the reference semantics)."""

    mode = "serial"

    def __init__(self, retry_policy: Optional[RetryPolicy] = None):
        self._retry_policy = retry_policy
        #: Job re-attempts during the most recent ``map`` call.
        self.last_retries = 0
        #: Payloads recovered through a serial fallback in the most recent
        #: ``map`` call (only the process executor can fall back).
        self.last_fallbacks = 0

    @property
    def retry_policy(self) -> Optional[RetryPolicy]:
        """Retry policy applied to each job (``None`` = fail fast)."""
        return self._retry_policy

    def _reset_counters(self) -> None:
        self.last_retries = 0
        self.last_fallbacks = 0

    def _count_retry(self, attempt: int, error: BaseException) -> None:
        self.last_retries += 1

    def _run_one(self, fn: Callable, payload, index: int):
        """Run one payload through the ``executor.job`` fault site and,
        when a retry policy is set, under :func:`run_with_retry`."""
        def attempt():
            faultinject.fire(SITE_JOB)
            return fn(payload)

        policy = self._retry_policy
        if policy is None or policy.is_noop:
            return attempt()
        return run_with_retry(attempt, policy, site=f"job[{index}]",
                              on_retry=self._count_retry)

    def map(self, fn: Callable, payloads: Sequence,
            on_result: Optional[Callable] = None) -> List:
        """Apply ``fn`` to every payload, returning results in order.

        ``on_result(index, result)``, when given, is invoked as each
        payload's result becomes available (in payload order, as soon as
        a contiguous prefix of results is in) --
        the hook the checkpoint layer uses to commit completed work units
        *during* a long map instead of after it.
        """
        self._reset_counters()
        results: List = []
        for index, payload in enumerate(payloads):
            result = self._run_one(fn, payload, index)
            if on_result is not None:
                on_result(index, result)
            results.append(result)
        return results

    def shard_hint(self, n_items: int) -> int:
        """How many shards ``n_items`` work items should split into.

        Serial execution gains nothing from splitting, so the hint is 1;
        the process executor overrides this with its worker count.  Callers
        that fan a flat work axis out through :meth:`map` (the fused
        library pipeline's simulation rows) combine this hint with their
        memory-budget chunk count -- splitting is always safe because chunk
        rows are computed independently in every batched engine.
        """
        return 1 if n_items > 0 else 0

    def map_accounted(self, fn: Callable, payloads: Sequence,
                      ledger: Optional[RunLedger] = None,
                      on_result: Optional[Callable] = None) -> List:
        """Run jobs that return ``(result, RunLedger)`` pairs.

        Per-job ledgers merge into ``ledger`` in payload order (independent
        of which worker or chunk ran the job); the bare results are
        returned, in order.  Retries and serial fallbacks from this map are
        recorded as ``executor_retries``/``executor_fallbacks`` metrics --
        only when nonzero, keeping clean-run accounting identical across
        execution modes.

        ``on_result(index, result)`` receives each *bare* result (ledger
        already stripped) as it becomes available; see :meth:`map`.
        """
        hook: Optional[Callable] = None
        if on_result is not None:
            def hook(index: int, outcome) -> None:
                on_result(index, outcome[0])
        outcomes: List[Tuple[object, RunLedger]] = self.map(
            fn, payloads, on_result=hook)
        results = []
        for result, job_ledger in outcomes:
            if ledger is not None and job_ledger is not None:
                ledger.merge(job_ledger)
            results.append(result)
        if ledger is not None:
            if self.last_retries:
                ledger.add_metric("executor_retries", self.last_retries)
            if self.last_fallbacks:
                ledger.add_metric("executor_fallbacks", self.last_fallbacks)
        return results


class ProcessExecutor(SerialExecutor):
    """Process-pool fan-out (results still returned in payload order).

    Workers are separate processes: they build their own runtime caches and
    fill their own ledgers, which :meth:`map_accounted` merges back in
    payload order.  Payloads and results must be picklable.

    Crash recovery: a worker dying (segfault, OOM kill, ``os._exit``)
    breaks the whole pool -- ``BrokenProcessPool`` -- and loses every
    not-yet-collected result.  Instead of propagating, the payloads without
    results are re-run through the serial path in the parent process
    (counted in ``last_fallbacks``).  Ordinary worker exceptions are
    retried serially when a retry policy is set; a final failure propagates
    with its original type, annotated with the failing payload index.
    """

    mode = "process"

    def __init__(self, max_workers: Optional[int] = None,
                 retry_policy: Optional[RetryPolicy] = None):
        super().__init__(retry_policy=retry_policy)
        if max_workers is not None and max_workers < 1:
            raise ValueError(f"max_workers must be at least 1, "
                             f"got {max_workers}")
        self._max_workers = max_workers

    @property
    def max_workers(self) -> Optional[int]:
        """Pool size cap (``None`` = executor default)."""
        return self._max_workers

    def shard_hint(self, n_items: int) -> int:
        """At least one shard per pool worker (capped at one item each)."""
        if n_items <= 0:
            return 0
        workers = self._max_workers or os.cpu_count() or 1
        return max(1, min(int(n_items), int(workers)))

    def _serial_fallback(self, fn: Callable, payload, index: int):
        """Recover one payload in the parent after a pool failure."""
        self.last_fallbacks += 1
        try:
            return self._run_one(fn, payload, index)
        except Exception as error:
            _annotate_payload_index(error, index)
            raise

    def map(self, fn: Callable, payloads: Sequence,
            on_result: Optional[Callable] = None) -> List:
        payloads = list(payloads)
        self._reset_counters()
        if not payloads:
            return []
        results: List = [_MISSING] * len(payloads)
        delivered = 0

        def deliver() -> None:
            # Results are handed to on_result in payload order, as soon as
            # a contiguous prefix has been collected.
            nonlocal delivered
            while delivered < len(results) and results[delivered] is not _MISSING:
                if on_result is not None:
                    on_result(delivered, results[delivered])
                delivered += 1

        try:
            faultinject.fire(SITE_PROCESS_MAP)
            with ProcessPoolExecutor(max_workers=self._max_workers) as pool:
                futures = [pool.submit(fn, payload) for payload in payloads]
                for index, future in enumerate(futures):
                    try:
                        results[index] = future.result()
                    except BrokenProcessPool:
                        raise
                    except Exception as error:
                        # An ordinary worker exception leaves the pool
                        # healthy; retry serially under the policy, else
                        # propagate with the payload index stamped in.
                        policy = self._retry_policy
                        if policy is not None and not policy.is_noop:
                            results[index] = self._serial_fallback(
                                fn, payloads[index], index)
                        else:
                            _annotate_payload_index(error, index)
                            raise
                    deliver()
        except BrokenProcessPool:
            # The pool is unusable; every payload without a collected
            # result re-runs serially in the parent.
            for index, result in enumerate(results):
                if result is _MISSING:
                    results[index] = self._serial_fallback(
                        fn, payloads[index], index)
                deliver()
        return results


def get_executor(mode: str, max_workers: Optional[int] = None,
                 retry_policy: Optional[RetryPolicy] = None) -> SerialExecutor:
    """Build an executor by mode name.

    Parameters
    ----------
    mode:
        One of :data:`EXECUTOR_MODES`.
    max_workers:
        Pool size for ``"process"`` (ignored otherwise).
    retry_policy:
        Optional :class:`~repro.runtime.resilience.RetryPolicy` applied to
        each job in any mode (``None`` = historical fail-fast behavior).
    """
    if mode == "serial":
        return SerialExecutor(retry_policy=retry_policy)
    if mode == "process":
        return ProcessExecutor(max_workers=max_workers,
                               retry_policy=retry_policy)
    raise ValueError(f"mode must be one of {EXECUTOR_MODES}, got {mode!r}")
