"""``repro.runtime`` -- the execution/caching/accounting substrate.

One package underneath all three batched engines (transient, MAP
extraction, timing graph):

* :mod:`repro.runtime.cache` -- a generic, capacity-bounded, stats-reporting
  LRU plus a process-wide registry (:func:`cache_stats`);
* :mod:`repro.runtime.chunking` -- deterministic, memory-budgeted chunk
  planning over the engines' work axes;
* :mod:`repro.runtime.executor` -- pluggable ``serial`` / ``process``
  job execution with order-preserving results and merged accounting;
* :mod:`repro.runtime.accounting` -- the unified :class:`RunLedger`;
* :mod:`repro.runtime.resilience` -- retry policies, structured failure
  reports, and the ``strict=`` resolution of the library flows;
* :mod:`repro.runtime.faultinject` -- deterministic seeded fault injection
  at named sites (worker crashes, NaN payloads, exceptions, timeouts,
  torn writes, bit flips, full disks, stale locks);
* :mod:`repro.runtime.persist` -- the crash-safe on-disk
  :class:`~repro.runtime.persist.DiskStore` behind the durable caches;
* :mod:`repro.runtime.checkpoint` -- journaled checkpoint/resume of the
  fused library characterization.

Process-wide knobs live in :func:`configure`::

    import repro.runtime as runtime

    runtime.configure(max_bytes=256 * 2**20)   # chunk every batched engine
    runtime.configure(cache_bytes=64 * 2**20)  # re-bound every cache
    runtime.configure(disk_cache_dir="~/.cache/repro")  # durable tier
    runtime.cache_stats()                      # {'simulation': CacheStats(...)}

``configure`` applies to the current process only; process-pool workers
start from defaults, so flows that must honor a budget everywhere thread
``max_bytes`` explicitly (the library orchestrator does).  The durable
tier can also be enabled from the environment: ``REPRO_DISK_CACHE=<dir>``
attaches a :class:`~repro.runtime.persist.DiskStore` under ``<dir>`` to
every durable registered cache, and ``REPRO_DISK_CACHE_BYTES`` budgets it.
``REPRO_TRANSIENT_ENGINE=<batched|adaptive>`` selects the default
transient integration engine (any other value raises ``ValueError``), and
``REPRO_TRANSIENT_RTOL`` / ``REPRO_TRANSIENT_ATOL`` override the adaptive
engine's default tolerances (relative, and absolute as a fraction of the
supply).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

from repro.runtime.accounting import RunLedger
from repro.runtime.cache import (
    CacheStats,
    LruCache,
    cache_stats,
    clear_all_caches,
    default_sizeof,
    get_registered_cache,
    register_cache,
    registered_caches,
)
from repro.runtime.chunking import chunk_count, plan_chunks
from repro.runtime.executor import (
    EXECUTOR_MODES,
    ProcessExecutor,
    SerialExecutor,
    get_executor,
)
from repro.runtime.faultinject import (
    FaultInjector,
    FaultSpec,
    InjectedFault,
    InjectedTimeout,
    fault_sites,
    inject,
    register_fault_site,
)
from repro.runtime.persist import DiskStore, DiskStoreStats, stable_key_digest
from repro.runtime.checkpoint import (
    CheckpointMismatch,
    Checkpointer,
    load_checkpoint,
)
from repro.runtime.resilience import (
    CircuitBreaker,
    DeadlineExceeded,
    FailureReport,
    RetryError,
    RetryPolicy,
    resolve_strict,
    run_with_retry,
)

#: Sentinel distinguishing "keep current" from an explicit ``None``.
_KEEP = object()

#: Transient integration engines selectable process-wide.  The names are
#: owned here (not in ``repro.spice``) so the runtime layer never imports
#: the engines it configures: ``batched`` runs the lockstep integrator on
#: the fixed-step RK4 grid and ``adaptive`` runs it with error-controlled
#: Dormand-Prince RK45 steps.
TRANSIENT_ENGINES = ("batched", "adaptive")


@dataclass
class RuntimeConfig:
    """Process-wide runtime settings (mutate through :func:`configure`).

    Attributes
    ----------
    max_bytes:
        Default chunking budget (bytes) consulted by every batched engine
        whose ``max_bytes`` argument is left at ``None``.  ``None`` disables
        chunking by default.
    cache_bytes:
        Byte bound applied to every registered runtime cache (current and
        future).  ``None`` keeps each cache's own default bound.
    disk_cache_dir:
        Root directory of the durable on-disk tier.  When set, every
        *durable* registered cache (current and future) gets a
        :class:`~repro.runtime.persist.DiskStore` attached under
        ``<disk_cache_dir>/<cache name>``.  ``None`` disables the tier.
    disk_cache_bytes:
        Byte budget applied to each attached disk store (eviction is
        oldest-first).  ``None`` leaves the stores unbounded.
    transient_engine:
        Default transient integration engine consulted by
        :func:`resolve_transient_engine` wherever an ``engine`` argument is
        left at ``None`` (sweeps, characterizers, the fused library
        pipeline).  ``None`` means the historical default (``"batched"``).
    transient_rtol, transient_atol_frac:
        Default tolerances of the adaptive engine (relative tolerance and
        absolute tolerance as a fraction of the supply), consulted by
        :func:`repro.spice.stepper.resolve_stepper` wherever no explicit
        :class:`~repro.spice.stepper.StepperSpec` is given.  ``None`` keeps
        the engine's own defaults (1e-9 each).  Ignored by the fixed-step
        engines.
    """

    max_bytes: Optional[int] = None
    cache_bytes: Optional[int] = None
    disk_cache_dir: Optional[str] = None
    disk_cache_bytes: Optional[int] = None
    transient_engine: Optional[str] = None
    transient_rtol: Optional[float] = None
    transient_atol_frac: Optional[float] = None


_CONFIG = RuntimeConfig()


def runtime_config() -> RuntimeConfig:
    """The live process-wide :class:`RuntimeConfig`."""
    return _CONFIG


def configure(max_bytes=_KEEP, cache_bytes=_KEEP,
              disk_cache_dir=_KEEP, disk_cache_bytes=_KEEP,
              transient_engine=_KEEP, transient_rtol=_KEEP,
              transient_atol_frac=_KEEP) -> RuntimeConfig:
    """Update process-wide runtime settings; returns the live config.

    Parameters
    ----------
    max_bytes:
        Default chunk budget in bytes for all batched engines; ``None``
        disables default chunking.  Omit to keep the current value.
    cache_bytes:
        Byte bound re-applied to **every** registered cache immediately (and
        to caches registered later); ``None`` restores each registered
        cache's original default bound.  Omit to keep the current value.
    disk_cache_dir:
        Root directory for the durable tier: attaches a
        :class:`~repro.runtime.persist.DiskStore` under
        ``<dir>/<cache name>`` to every durable registered cache, current
        and future.  ``None`` detaches the tier (disk contents are kept).
        Omit to keep the current value.
    disk_cache_bytes:
        Byte budget for each attached disk store; ``None`` removes the
        budget.  Omit to keep the current value.
    transient_engine:
        Process-wide default transient integration engine (one of
        ``TRANSIENT_ENGINES``); ``None`` restores the historical default
        (``"batched"``).  Omit to keep the current value.
    transient_rtol, transient_atol_frac:
        Process-wide default tolerances of the adaptive engine; ``None``
        restores the engine defaults (1e-9).  Omit to keep the current
        values.
    """
    for name, value in (("transient_rtol", transient_rtol),
                        ("transient_atol_frac", transient_atol_frac)):
        if value is _KEEP:
            continue
        if value is not None and not float(value) > 0.0:
            raise ValueError(f"{name} must be positive (or None)")
        setattr(_CONFIG, name, None if value is None else float(value))
    if transient_engine is not _KEEP:
        if (transient_engine is not None
                and transient_engine not in TRANSIENT_ENGINES):
            raise ValueError(
                f"transient_engine must be one of {TRANSIENT_ENGINES} or "
                f"None, got {transient_engine!r}")
        _CONFIG.transient_engine = transient_engine
    if max_bytes is not _KEEP:
        if max_bytes is not None and int(max_bytes) < 1:
            raise ValueError("max_bytes must be positive (or None)")
        _CONFIG.max_bytes = None if max_bytes is None else int(max_bytes)
    if cache_bytes is not _KEEP:
        if cache_bytes is not None and int(cache_bytes) < 1:
            raise ValueError("cache_bytes must be positive (or None)")
        _CONFIG.cache_bytes = None if cache_bytes is None else int(cache_bytes)
        for cache in registered_caches().values():
            bound = (_CONFIG.cache_bytes if _CONFIG.cache_bytes is not None
                     else _default_cache_bound(cache))
            cache.set_bounds(max_bytes=bound)
    disk_changed = False
    if disk_cache_bytes is not _KEEP:
        if disk_cache_bytes is not None and int(disk_cache_bytes) < 1:
            raise ValueError("disk_cache_bytes must be positive (or None)")
        _CONFIG.disk_cache_bytes = (None if disk_cache_bytes is None
                                    else int(disk_cache_bytes))
        disk_changed = True
    if disk_cache_dir is not _KEEP:
        _CONFIG.disk_cache_dir = (None if disk_cache_dir is None
                                  else os.path.expanduser(str(disk_cache_dir)))
        disk_changed = True
    if disk_changed:
        for cache in registered_caches().values():
            _apply_disk_tier(cache)
    return _CONFIG


def _apply_disk_tier(cache: LruCache) -> None:
    """(Re)attach or detach a cache's disk store per the live config.

    Only durable caches participate; the rest (token reissuers, anything
    keyed by process-local identity) are left memory-only.  Attachment is
    idempotent: a store already rooted at the configured directory is kept,
    with only its byte budget refreshed.
    """
    if not getattr(cache, "durable", False):
        return
    root = _CONFIG.disk_cache_dir
    if root is None:
        cache.detach_disk_store()
        return
    target = os.path.join(root, cache.name)
    current = cache.disk_store
    if current is not None and str(current.root) == str(target):
        current.set_max_bytes(_CONFIG.disk_cache_bytes)
        return
    cache.attach_disk_store(DiskStore(target, name=cache.name,
                                      max_bytes=_CONFIG.disk_cache_bytes))


_DEFAULT_CACHE_BOUNDS: dict = {}


def _default_cache_bound(cache: LruCache) -> Optional[int]:
    """The byte bound a cache was registered with (for configure(None))."""
    return _DEFAULT_CACHE_BOUNDS.get(cache.name)


def register_runtime_cache(cache: LruCache) -> LruCache:
    """Register a cache and apply the configured ``cache_bytes`` override.

    The cache's own ``max_bytes`` is remembered as its default, so a later
    ``configure(cache_bytes=None)`` restores it.
    """
    _DEFAULT_CACHE_BOUNDS[cache.name] = cache.max_bytes
    register_cache(cache)
    if _CONFIG.cache_bytes is not None:
        cache.set_bounds(max_bytes=_CONFIG.cache_bytes)
    _apply_disk_tier(cache)
    return cache


def resolve_max_bytes(max_bytes: Optional[int]) -> Optional[int]:
    """An engine's effective chunk budget: explicit value or configured default."""
    return _CONFIG.max_bytes if max_bytes is None else int(max_bytes)


def resolve_transient_engine(engine: Optional[str]) -> str:
    """A flow's effective transient engine: explicit, configured, or batched."""
    if engine is not None:
        if engine not in TRANSIENT_ENGINES:
            raise ValueError(f"engine must be one of {TRANSIENT_ENGINES}, "
                             f"got {engine!r}")
        return engine
    if _CONFIG.transient_engine is not None:
        return _CONFIG.transient_engine
    return "batched"


def _bootstrap_from_env() -> None:
    """Pick up ``REPRO_DISK_CACHE`` / ``REPRO_DISK_CACHE_BYTES`` at import.

    Lets scripts and CI enable the durable tier without code changes.  A
    malformed byte budget is ignored rather than failing the import of the
    whole runtime package; an unknown ``REPRO_TRANSIENT_ENGINE`` raises
    ``ValueError`` instead of silently running a different engine than
    the one asked for.
    """
    engine = os.environ.get("REPRO_TRANSIENT_ENGINE", "").strip()
    if engine:
        configure(transient_engine=engine)
    for env_name, knob in (("REPRO_TRANSIENT_RTOL", "transient_rtol"),
                           ("REPRO_TRANSIENT_ATOL", "transient_atol_frac")):
        raw = os.environ.get(env_name, "").strip()
        if raw:
            try:
                configure(**{knob: float(raw)})
            except ValueError:
                pass
    root = os.environ.get("REPRO_DISK_CACHE", "").strip()
    if not root:
        return
    budget = None
    raw = os.environ.get("REPRO_DISK_CACHE_BYTES", "").strip()
    if raw:
        try:
            budget = max(int(raw), 1)
        except ValueError:
            budget = None
    configure(disk_cache_dir=root, disk_cache_bytes=budget)


_bootstrap_from_env()


__all__ = [
    "CacheStats",
    "CheckpointMismatch",
    "Checkpointer",
    "CircuitBreaker",
    "DeadlineExceeded",
    "DiskStore",
    "DiskStoreStats",
    "EXECUTOR_MODES",
    "FailureReport",
    "FaultInjector",
    "FaultSpec",
    "InjectedFault",
    "InjectedTimeout",
    "LruCache",
    "ProcessExecutor",
    "RetryError",
    "RetryPolicy",
    "RunLedger",
    "RuntimeConfig",
    "SerialExecutor",
    "TRANSIENT_ENGINES",
    "cache_stats",
    "chunk_count",
    "clear_all_caches",
    "configure",
    "default_sizeof",
    "fault_sites",
    "get_executor",
    "get_registered_cache",
    "inject",
    "load_checkpoint",
    "plan_chunks",
    "register_cache",
    "register_fault_site",
    "register_runtime_cache",
    "registered_caches",
    "resolve_max_bytes",
    "resolve_strict",
    "resolve_transient_engine",
    "run_with_retry",
    "runtime_config",
    "stable_key_digest",
]
