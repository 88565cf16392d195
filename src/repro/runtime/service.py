"""The characterization serving front door: coalescing, deadlines, shedding.

The ROADMAP's north star is characterization-as-a-service: many concurrent
callers asking for overlapping ``(cell, arc, condition)`` work against one
shared simulation substrate.  PRs 5-9 built that substrate -- the fused
:class:`~repro.core.simulation_plan.SimulationPlan`, the fault-tolerant
runtime, the durable cache tier, the adaptive integrator -- and this module
adds the layer that keeps it correct and responsive under concurrent load:
a long-lived :class:`CharacterizationService` whose scheduler thread drains
a bounded request queue into coalesced fused-pipeline batches.

Four disciplines, one per failure mode of a naive serving loop:

* **Single-flight coalescing.**  Every requested ``(cell, arc)`` at a fixed
  condition set is keyed by a content digest over everything that shapes
  its numbers (technology and variation fingerprints, both priors, the
  transient stepper signature, the conditions).  Within a
  batch, N requests for the same key become ONE fused-pipeline job whose
  solved model is delivered to all of them; across batches, solved models
  land in a service-level LRU so repeat requests never re-enter the
  pipeline.  Below the job level the fused plan dedups further: physically
  identical rows of *different* jobs (footprint twins on shared operating
  points) integrate exactly once (see
  :meth:`~repro.core.simulation_plan.SimulationPlan.shared_row_counts`).
* **Deadlines with cooperative cancellation.**  ``submit(...,
  deadline_s=...)`` bounds how long the caller is willing to wait, on
  ``time.monotonic()``.  Python cannot preempt a running batch, so
  expiry is enforced at the yield points: a request past its deadline is
  dropped when the next batch is built (and rechecked at delivery), and
  its ticket fails with :class:`~repro.runtime.resilience.DeadlineExceeded`
  -- but rows its batch already integrated still land in the simulation
  cache and solved-model LRU for the next caller.  An expired request
  never poisons the shared batch it rode in.
* **Admission control and load-shedding.**  The queue is bounded
  (``queue_depth``); beyond it the service sheds instead of building
  unbounded backlog.  Policy ``"reject"`` raises
  :class:`ServiceOverloaded` at ``submit``; policy ``"degrade"`` serves an
  immediate cache-only partial result (solved-model LRU hits only, missing
  arcs ``None``) -- the serving-layer analogue of the library flows'
  ``strict=False`` degradation.
* **Disk circuit breaker.**  The durable tier (PR 8) is wrapped in a
  :class:`~repro.runtime.resilience.CircuitBreaker`: a batch that observes
  new disk write errors or quarantined payloads records failures, and a
  tripped breaker detaches every registered cache's disk store so the
  service degrades to memory-only instead of paying (or failing on) a
  broken disk per request.  After the cooldown one batch re-attaches the
  stores as a half-open probe; a clean probe closes the breaker for good.

Fault sites (``service.*`` family; see :mod:`repro.runtime.faultinject`):

* ``service.slow_worker`` -- ``slow`` faults stall the scheduler for
  ``delay_s`` before a batch integrates (a slow or wedged worker);
* ``service.queue_full`` -- raising faults force the admission check to
  treat the queue as full (deterministic shedding without real backlog);
* ``service.stuck_request`` -- ``slow`` faults hold one request out of
  batches for ``delay_s`` after admission (a request stuck behind a lost
  callback); its peers batch normally around it.

Environment knobs (constructor arguments win; all ``REPRO_SERVICE_*``):

* ``REPRO_SERVICE_QUEUE_DEPTH`` -- admission bound (default 64);
* ``REPRO_SERVICE_BATCH_WINDOW_S`` -- how long the scheduler waits after
  waking before building a batch, letting concurrent submitters coalesce
  (default 0.05);
* ``REPRO_SERVICE_SHED_POLICY`` -- ``reject`` or ``degrade`` (default
  ``reject``);
* ``REPRO_SERVICE_BREAKER_THRESHOLD`` / ``REPRO_SERVICE_BREAKER_COOLDOWN_S``
  -- disk circuit-breaker tuning (defaults 3 and 5.0).

This module is deliberately NOT imported by :mod:`repro.runtime`'s package
``__init__`` -- the service drives :func:`repro.core.library_flow.
characterize_fused_jobs`, which itself imports the runtime package; import
the service directly::

    from repro.runtime.service import CharacterizationService
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.runtime import faultinject
from repro.runtime.accounting import RunLedger
from repro.runtime.cache import LruCache, registered_caches
from repro.runtime.executor import get_executor
from repro.runtime.persist import stable_key_digest
from repro.runtime.resilience import (
    CircuitBreaker,
    DeadlineExceeded,
    FailureReport,
)

__all__ = [
    "CharacterizationService",
    "ServiceClosed",
    "ServiceOverloaded",
    "ServiceResult",
    "ServiceStats",
    "ServiceTicket",
    "SHED_POLICIES",
]

SITE_SLOW_WORKER = faultinject.register_fault_site(
    "service.slow_worker",
    "scheduler-side stall before a service batch integrates (slow kind)")
SITE_QUEUE_FULL = faultinject.register_fault_site(
    "service.queue_full",
    "admission check of the service queue (raising kinds force shedding)")
SITE_STUCK_REQUEST = faultinject.register_fault_site(
    "service.stuck_request",
    "per-request hold-out after admission (slow kind sticks one request)")

SHED_POLICIES = ("reject", "degrade")

ENV_QUEUE_DEPTH = "REPRO_SERVICE_QUEUE_DEPTH"
ENV_BATCH_WINDOW = "REPRO_SERVICE_BATCH_WINDOW_S"
ENV_SHED_POLICY = "REPRO_SERVICE_SHED_POLICY"
ENV_BREAKER_THRESHOLD = "REPRO_SERVICE_BREAKER_THRESHOLD"
ENV_BREAKER_COOLDOWN = "REPRO_SERVICE_BREAKER_COOLDOWN_S"


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name, "").strip()
    return int(raw) if raw else default


def _env_float(name: str, default: float) -> float:
    raw = os.environ.get(name, "").strip()
    return float(raw) if raw else default


class ServiceClosed(RuntimeError):
    """Submitted to a service that has been closed."""


class ServiceOverloaded(RuntimeError):
    """Admission rejected: the request queue is at ``queue_depth``.

    Raised by ``submit`` under the ``reject`` shedding policy; the caller
    should back off and retry.  Under ``degrade`` the service answers with
    a cache-only partial :class:`ServiceResult` instead.
    """


class ServiceTicket:
    """A claim on one submitted request's eventual result.

    The scheduler thread completes it; callers block in :meth:`result`.
    Deliberately minimal (no cancellation: the cooperative-cancellation
    path is the request's own ``deadline_s``).
    """

    def __init__(self) -> None:
        self._done = threading.Event()
        self._result: Optional["ServiceResult"] = None
        self._error: Optional[BaseException] = None

    def done(self) -> bool:
        """Whether the request has completed (successfully or not)."""
        return self._done.is_set()

    def result(self, timeout: Optional[float] = None) -> "ServiceResult":
        """Block for the result; re-raises the request's failure if any."""
        if not self._done.wait(timeout):
            raise TimeoutError("ticket not completed within timeout")
        if self._error is not None:
            raise self._error
        assert self._result is not None
        return self._result

    def exception(self, timeout: Optional[float] = None
                  ) -> Optional[BaseException]:
        """Block for completion and return the failure (``None`` if ok)."""
        if not self._done.wait(timeout):
            raise TimeoutError("ticket not completed within timeout")
        return self._error

    def _complete(self, result: "ServiceResult") -> None:
        self._result = result
        self._done.set()

    def _fail(self, error: BaseException) -> None:
        self._error = error
        self._done.set()


@dataclass(frozen=True)
class ServiceResult:
    """What one request got back.

    Attributes
    ----------
    characterizations:
        Arc name -> :class:`~repro.core.statistical_flow.
        StatisticalCharacterization` (``None`` for an arc that failed or,
        under degraded shedding, missed the solved-model cache).
    coalesced:
        Whether any of the request's arcs was served by work it did not
        trigger itself -- a solved-cache hit or a job shared with another
        request in the same batch.
    degraded:
        Whether this is a cache-only partial result (load-shedding under
        the ``degrade`` policy) or carries per-arc failures.
    failures:
        Structured reports for arcs that degraded or failed.
    wall_s:
        Seconds from admission to delivery.
    """

    characterizations: Dict[str, Optional[object]]
    coalesced: bool = False
    degraded: bool = False
    failures: Tuple[FailureReport, ...] = ()
    wall_s: float = 0.0

    @property
    def complete(self) -> bool:
        """Whether every requested arc came back characterized."""
        return all(value is not None
                   for value in self.characterizations.values())


@dataclass(frozen=True)
class ServiceStats:
    """Monitoring snapshot of one service (see :meth:`
    CharacterizationService.stats`)."""

    submitted: int
    completed: int
    deadline_misses: int
    shed: int
    coalesced_arcs: int
    batches: int
    queue_depth: int
    queue_peak: int
    solved_hits: int
    solved_misses: int
    breaker_state: str
    breaker_trips: int


@dataclass
class _Request:
    """Internal queued unit: one submit() call."""

    cell: object
    arcs: Tuple[object, ...]
    conditions: Tuple[object, ...]
    ticket: ServiceTicket
    keys: Tuple[str, ...]
    enqueued_at: float
    deadline_at: Optional[float] = None
    #: Monotonic instant before which the stuck-request fault holds this
    #: request out of batches (0.0 = never stuck).
    not_before: float = 0.0
    served_by_peer: bool = field(default=False)


class CharacterizationService:
    """Long-lived serving front door over the fused characterization pipeline.

    One scheduler thread drains a bounded queue of ``submit`` requests into
    coalesced :func:`~repro.core.library_flow.characterize_fused_jobs`
    batches (see the module docstring for the serving disciplines).  All
    public methods are thread-safe; many submitter threads may share one
    service.

    Parameters
    ----------
    technology, delay_prior, slew_prior, variation:
        The shared characterization context every request is served
        against (one service = one context; the single-flight digests
        include its fingerprints, so distinct contexts never alias).
    solver:
        Accepts only ``"batched"``, the fused pipeline's one extraction
        solver (the keyword stays for callers that spell it out).
    executor:
        A runtime executor instance, or ``None`` for the serial executor
        (the scheduler thread is already the concurrency boundary).
    stepper:
        Optional :class:`~repro.spice.stepper.StepperSpec`; ``None`` keeps
        the fused pipeline's fixed-step default.
    queue_depth, batch_window_s, shed_policy:
        Admission bound, coalescing window, and shedding policy
        (``None`` defers to the ``REPRO_SERVICE_*`` environment knobs).
    breaker:
        Disk circuit breaker; ``None`` builds one from the env knobs.
    solved_cache_entries:
        Bound of the service-level solved-model LRU.
    max_bytes:
        Memory budget forwarded to the fused pipeline (``None`` = the
        configured runtime default).
    start:
        Start the scheduler thread immediately; pass ``False`` in tests
        that want to enqueue a controlled set of requests first and call
        :meth:`start` themselves.
    """

    def __init__(self, technology, delay_prior, slew_prior, variation,
                 solver: str = "batched", executor=None, stepper=None,
                 queue_depth: Optional[int] = None,
                 batch_window_s: Optional[float] = None,
                 shed_policy: Optional[str] = None,
                 breaker: Optional[CircuitBreaker] = None,
                 solved_cache_entries: int = 4096,
                 max_bytes: Optional[int] = None,
                 start: bool = True) -> None:
        if solver != "batched":
            raise ValueError(f"solver must be 'batched', got {solver!r}")
        self.technology = technology
        self.delay_prior = delay_prior
        self.slew_prior = slew_prior
        self.variation = variation
        self.stepper = stepper
        self.executor = executor if executor is not None else get_executor("serial")
        self.max_bytes = max_bytes
        self.queue_depth = (queue_depth if queue_depth is not None
                            else _env_int(ENV_QUEUE_DEPTH, 64))
        if self.queue_depth < 1:
            raise ValueError(f"queue_depth must be >= 1, got {self.queue_depth}")
        self.batch_window_s = (batch_window_s if batch_window_s is not None
                               else _env_float(ENV_BATCH_WINDOW, 0.05))
        if self.batch_window_s < 0.0:
            raise ValueError("batch_window_s must be >= 0")
        self.shed_policy = (shed_policy if shed_policy is not None
                            else os.environ.get(ENV_SHED_POLICY, "reject")
                            .strip().lower() or "reject")
        if self.shed_policy not in SHED_POLICIES:
            raise ValueError(f"shed_policy must be one of {SHED_POLICIES}, "
                             f"got {self.shed_policy!r}")
        self.breaker = breaker if breaker is not None else CircuitBreaker(
            failure_threshold=_env_int(ENV_BREAKER_THRESHOLD, 3),
            cooldown_s=_env_float(ENV_BREAKER_COOLDOWN, 5.0))
        #: Cross-batch single-flight memory: digest -> solved
        #: StatisticalCharacterization.  Values hold live inverter objects
        #: (process-local), so the cache is deliberately non-durable.
        self._solved = LruCache("service_solved",
                                max_entries=int(solved_cache_entries))
        self.ledger = RunLedger()
        self._context_fp = (technology.fingerprint(),
                            variation.fingerprint(),
                            delay_prior.fingerprint(),
                            slew_prior.fingerprint(),
                            stepper.signature() if stepper is not None
                            else "default")
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self._queue: List[_Request] = []
        self._closing = False
        self._submitted = 0
        self._completed = 0
        self._batches = 0
        self._queue_peak = 0
        #: Disk stores detached by a tripped breaker, kept for the
        #: half-open re-attach probe: list of (cache, store).
        self._tripped_stores: List[tuple] = []
        self._disk_baseline: Dict[str, Tuple[int, int, int]] = {}
        self._thread: Optional[threading.Thread] = None
        if start:
            self.start()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "CharacterizationService":
        """Start the scheduler thread (idempotent)."""
        with self._lock:
            if self._closing:
                raise ServiceClosed("service already closed")
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._run, name="characterization-service",
                    daemon=True)
                self._thread.start()
        return self

    def close(self, wait: bool = True) -> None:
        """Stop accepting requests; drain the queue, then stop the scheduler.

        Requests already admitted are still served (their deadlines still
        apply).  ``wait=False`` returns immediately after signalling.
        """
        with self._lock:
            self._closing = True
            self._wake.notify_all()
            thread = self._thread
        if wait and thread is not None:
            thread.join()

    def __enter__(self) -> "CharacterizationService":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def job_key(self, cell, arc, conditions) -> str:
        """The single-flight digest of one (cell, arc, conditions) job.

        Content-addressed over everything that shapes the solved numbers;
        two requests agree on the key iff their solved models are
        interchangeable.  Cell identity enters via ``cell.name`` -- names
        identify cells within one service's library universe.
        """
        return stable_key_digest((
            "service_job", self._context_fp, cell.name, arc.name,
            tuple(condition.as_tuple() for condition in conditions)))

    def submit(self, cell, arcs: Sequence, conditions: Sequence,
               deadline_s: Optional[float] = None) -> ServiceTicket:
        """Enqueue one characterization request; returns immediately.

        Parameters
        ----------
        cell:
            The cell to characterize.
        arcs:
            Its timing arcs to serve (one fused-pipeline job each, subject
            to coalescing).
        conditions:
            The fitting :class:`~repro.characterization.input_space.
            InputCondition` points, shared by every arc of the request.
        deadline_s:
            Seconds (on ``time.monotonic()``, from now) the caller is
            willing to wait; ``None`` waits indefinitely.  Expiry completes
            the ticket with :class:`DeadlineExceeded` at the next batch
            boundary -- see the module docstring's cancellation contract.

        Raises
        ------
        ServiceClosed
            After :meth:`close`.
        ServiceOverloaded
            Queue at ``queue_depth`` under the ``reject`` policy.
        """
        if deadline_s is not None and deadline_s <= 0.0:
            raise ValueError(f"deadline_s must be > 0, got {deadline_s}")
        arcs = tuple(arcs)
        conditions = tuple(conditions)
        if not arcs:
            raise ValueError("arcs must be non-empty")
        if not conditions:
            raise ValueError("conditions must be non-empty")
        now = time.monotonic()
        keys = tuple(self.job_key(cell, arc, conditions) for arc in arcs)
        ticket = ServiceTicket()
        request = _Request(
            cell=cell, arcs=arcs, conditions=conditions, ticket=ticket,
            keys=keys, enqueued_at=now,
            deadline_at=(now + deadline_s) if deadline_s is not None else None)
        # A stuck-request fault holds this submission out of batches.
        stuck_for = faultinject.induced_delay(SITE_STUCK_REQUEST)
        if stuck_for > 0.0:
            request.not_before = now + stuck_for
        with self._lock:
            if self._closing:
                raise ServiceClosed("service is closed")
            full = len(self._queue) >= self.queue_depth
            try:
                faultinject.fire(SITE_QUEUE_FULL)
            except Exception:
                full = True
            if full:
                return self._shed(request)
            self._submitted += 1
            self._queue.append(request)
            self._queue_peak = max(self._queue_peak, len(self._queue))
            self.ledger.set_gauge("service_queue_peak", self._queue_peak)
            self._wake.notify_all()
        return ticket

    def request(self, cell, arcs: Sequence, conditions: Sequence,
                deadline_s: Optional[float] = None) -> ServiceResult:
        """Blocking convenience: ``submit(...).result()``."""
        return self.submit(cell, arcs, conditions,
                           deadline_s=deadline_s).result()

    def _shed(self, request: _Request) -> ServiceTicket:
        """Apply the shedding policy to an inadmissible request.

        Caller holds the lock.  ``reject`` raises; ``degrade`` completes
        the ticket immediately with whatever the solved-model LRU already
        holds (missing arcs ``None``) -- bounded work, no queue growth.
        """
        self._submitted += 1
        self.ledger.add_metric("service_shed", 1)
        if self.shed_policy == "reject":
            raise ServiceOverloaded(
                f"queue at depth {self.queue_depth}; request rejected "
                f"(policy 'reject')")
        served: Dict[str, Optional[object]] = {}
        hits = 0
        for arc, key in zip(request.arcs, request.keys):
            solved = self._solved.get(key)
            served[arc.name] = solved
            hits += solved is not None
        failures = tuple(
            FailureReport(unit=f"{request.cell.name}:{arc.name}",
                          stage="admission",
                          error="load shed at full queue; cache-only result",
                          error_type="ServiceOverloaded")
            for arc in request.arcs if served[arc.name] is None)
        self._completed += 1
        request.ticket._complete(ServiceResult(
            characterizations=served, coalesced=hits > 0, degraded=True,
            failures=failures,
            wall_s=time.monotonic() - request.enqueued_at))
        return request.ticket

    # ------------------------------------------------------------------
    # Monitoring
    # ------------------------------------------------------------------
    def stats(self) -> ServiceStats:
        """Consistent monitoring snapshot (counters, queue, breaker)."""
        with self._lock:
            metrics = self.ledger.metrics()
            return ServiceStats(
                submitted=self._submitted,
                completed=self._completed,
                deadline_misses=metrics.get("service_deadline_misses", 0),
                shed=metrics.get("service_shed", 0),
                coalesced_arcs=metrics.get("service_arcs_coalesced", 0),
                batches=self._batches,
                queue_depth=len(self._queue),
                queue_peak=self._queue_peak,
                solved_hits=self._solved.hits,
                solved_misses=self._solved.misses,
                breaker_state=self.breaker.state,
                breaker_trips=self.breaker.trips,
            )

    # ------------------------------------------------------------------
    # Scheduler
    # ------------------------------------------------------------------
    def _run(self) -> None:
        while True:
            with self._lock:
                while not self._queue and not self._closing:
                    self._wake.wait()
                if self._closing and not self._queue:
                    return
                draining = self._closing
            # Coalescing window: let concurrent submitters pile into the
            # same batch.  Skipped when draining -- latency no longer buys
            # coalescing once no new requests can arrive.
            if self.batch_window_s > 0.0 and not draining:
                time.sleep(self.batch_window_s)
            batch = self._drain_batch()
            if batch:
                self._serve_batch(batch)
                continue
            # Nothing serveable (only stuck requests remain): park until
            # the earliest hold-out expiry or deadline instead of spinning.
            with self._lock:
                if not self._queue:
                    continue
                now = time.monotonic()
                horizons = [request.not_before for request in self._queue
                            if request.not_before > now]
                horizons += [request.deadline_at for request in self._queue
                             if request.deadline_at is not None]
                timeout = (max(min(horizons) - now, 0.001) if horizons
                           else None)
                self._wake.wait(timeout)

    def _drain_batch(self) -> List[_Request]:
        """Pull every currently serveable request off the queue.

        Expired requests fail fast with :class:`DeadlineExceeded` here --
        the batch boundary of the cancellation contract.  Stuck requests
        (``not_before`` in the future) stay queued; their peers batch
        around them.
        """
        now = time.monotonic()
        batch: List[_Request] = []
        with self._lock:
            remaining: List[_Request] = []
            for request in self._queue:
                if (request.deadline_at is not None
                        and now >= request.deadline_at):
                    self.ledger.add_metric("service_deadline_misses", 1)
                    self._completed += 1
                    request.ticket._fail(DeadlineExceeded(
                        f"deadline passed after "
                        f"{now - request.enqueued_at:.3f}s in queue"))
                elif request.not_before > now:
                    remaining.append(request)
                else:
                    batch.append(request)
            self._queue = remaining
        return batch

    def _serve_batch(self, batch: List[_Request]) -> None:
        """One coalesced pass: single-flight keying -> fused pipeline ->
        per-request delivery with a delivery-time deadline recheck."""
        # Slow-worker fault: the scheduler stalls before integrating, so
        # deadlines expire exactly where the contract says they may.
        stall = faultinject.induced_delay(SITE_SLOW_WORKER)
        if stall > 0.0:
            time.sleep(stall)

        # Single-flight keying: one fused job per distinct digest; solved
        # LRU hits skip the pipeline entirely.
        jobs: List[tuple] = []
        job_conditions: List[list] = []
        job_of_key: Dict[str, int] = {}
        solved_of_key: Dict[str, object] = {}
        arcs_coalesced = 0
        for request in batch:
            for arc, key in zip(request.arcs, request.keys):
                if key in solved_of_key:
                    arcs_coalesced += 1
                    request.served_by_peer = True
                    continue
                solved = self._solved.get(key)
                if solved is not None:
                    solved_of_key[key] = solved
                    arcs_coalesced += 1
                    request.served_by_peer = True
                    continue
                if key in job_of_key:
                    arcs_coalesced += 1
                    request.served_by_peer = True
                    continue
                job_of_key[key] = len(jobs)
                jobs.append((request.cell, arc))
                job_conditions.append(list(request.conditions))

        failures: List[FailureReport] = []
        if jobs:
            ledger = RunLedger()
            results, failures = self._characterize(jobs, job_conditions,
                                                   ledger)
            for key, job in job_of_key.items():
                result = results[job]
                if result is not None:
                    solved_of_key[key] = result
                    self._solved.put(key, result)
            self._after_batch(ledger)
        else:
            ledger = None

        failures_by_unit: Dict[str, List[FailureReport]] = {}
        for report in failures:
            failures_by_unit.setdefault(report.unit, []).append(report)

        # Delivery, with the second deadline check of the contract: the
        # batch may have outlived a request's patience, but its solved
        # models are already cached for the next caller.
        now = time.monotonic()
        with self._lock:
            self._batches += 1
            self.ledger.add_metric("service_batches", 1)
            self.ledger.add_metric("service_requests", len(batch))
            self.ledger.add_metric("service_arcs_coalesced", arcs_coalesced)
            if ledger is not None:
                self.ledger.merge(ledger)
                self.ledger.add_metric(
                    "service_rows_shared",
                    ledger.metrics().get("fused_rows_cross_job_shared", 0))
            for request in batch:
                self._completed += 1
                if (request.deadline_at is not None
                        and now >= request.deadline_at):
                    self.ledger.add_metric("service_deadline_misses", 1)
                    request.ticket._fail(DeadlineExceeded(
                        f"deadline passed while the batch integrated "
                        f"({now - request.enqueued_at:.3f}s since submit)"))
                    continue
                served: Dict[str, Optional[object]] = {}
                request_failures: List[FailureReport] = []
                for arc, key in zip(request.arcs, request.keys):
                    served[arc.name] = solved_of_key.get(key)
                    if served[arc.name] is None:
                        unit = f"{request.cell.name}:{arc.name}"
                        request_failures.extend(failures_by_unit.get(unit, []))
                request.ticket._complete(ServiceResult(
                    characterizations=served,
                    coalesced=request.served_by_peer,
                    degraded=any(value is None for value in served.values()),
                    failures=tuple(request_failures),
                    wall_s=now - request.enqueued_at))

    def _characterize(self, jobs, job_conditions, ledger):
        """Run the coalesced fused pass (non-strict: degrade, don't abort)."""
        from repro.core.library_flow import characterize_fused_jobs
        return characterize_fused_jobs(
            self.technology, jobs, job_conditions, self.delay_prior,
            self.slew_prior, self.variation, "batched", self.executor,
            ledger, self.max_bytes, strict=False, stepper=self.stepper)

    # ------------------------------------------------------------------
    # Disk circuit breaker
    # ------------------------------------------------------------------
    def _attached_stores(self) -> List[tuple]:
        return [(cache, cache.disk_store)
                for cache in registered_caches().values()
                if cache.disk_store is not None]

    def _after_batch(self, ledger: RunLedger) -> None:
        """Feed the disk breaker from this batch's store-counter deltas.

        A tripped breaker detaches every registered cache's disk tier
        (memory-only degradation); once the cooldown admits a half-open
        probe, the stores are re-attached so the *next* batch exercises
        them -- success closes the breaker, new errors re-trip it.  Trip
        detection is edge-based (the ``trips`` counter) rather than
        state-based, so a zero cooldown cannot race the open state past
        the detach.
        """
        trips_before = self.breaker.trips
        new_errors = 0
        wrote = False
        for cache, store in self._attached_stores():
            stats = store.stats()
            prev = self._disk_baseline.get(stats.name, (0, 0, 0))
            errors = stats.write_errors + stats.quarantined
            new_errors += max(errors - (prev[0] + prev[1]), 0)
            wrote = wrote or stats.writes > prev[2]
            self._disk_baseline[stats.name] = (
                stats.write_errors, stats.quarantined, stats.writes)
        if new_errors:
            self.breaker.record_failure(new_errors)
            with self._lock:
                self.ledger.add_metric("service_disk_errors", new_errors)
        elif wrote:
            self.breaker.record_success()
        if self.breaker.trips > trips_before:
            detached = 0
            for cache, store in self._attached_stores():
                cache.detach_disk_store()
                self._tripped_stores.append((cache, store))
                detached += 1
            if detached:
                with self._lock:
                    self.ledger.add_metric("service_breaker_detached",
                                           detached)
        elif self._tripped_stores and self.breaker.allow():
            for cache, store in self._tripped_stores:
                cache.attach_disk_store(store)
            with self._lock:
                self.ledger.add_metric("service_breaker_probes", 1)
            self._tripped_stores = []
