"""Deterministic seeded fault injection for the characterization runtime.

Every recovery path in the resilience layer (worker-crash fallback, per-row
quarantine, the LM repair chain, graceful library degradation) needs to be
exercised reproducibly in tests and CI -- waiting for real crashes does not
make a test suite.  This module plants named *fault sites* inside the
engines; each site is a no-op until a :class:`FaultInjector` is activated
via the :func:`inject` context manager, at which point the injector decides
-- deterministically, from its seed and per-site call counters -- whether a
given call fires a fault.

Two primitives cover every fault shape the engines need:

* :func:`fire` -- raise at a site (``exception`` -> :class:`InjectedFault`,
  ``timeout`` -> :class:`InjectedTimeout`, ``crash`` -> the same
  ``BrokenProcessPool`` a dead worker produces);
* :func:`corrupt_rows` -- poison selected rows of a payload array with NaN
  and hand it back (the ``nan`` kind), modeling silent data corruption.

PR 8 adds the filesystem fault shapes the durable store
(:mod:`repro.runtime.persist`) recovers from:

* the ``enospc`` kind makes :func:`fire` raise ``OSError(ENOSPC)`` -- a
  full disk at a write site;
* :func:`damage_file` -- truncate a just-committed file (``torn``, a torn
  write the next reader sees) or flip one of its payload bits
  (``bitflip``, silent on-disk corruption);
* :func:`plant_stale_lock` -- drop an abandoned lock file (dead pid, old
  timestamp) in front of a lock acquisition (``stale_lock``).

PR 10 adds the latency fault shape the serving front door
(:mod:`repro.runtime.service`) must stay responsive under:

* :func:`induced_delay` -- the ``slow`` kind returns ``FaultSpec.delay_s``
  seconds at a site (0.0 when nothing fires); the caller sleeps that long,
  modeling a slow worker or stuck request without the harness itself
  blocking.  Keeping the sleep on the caller's side preserves the
  determinism contract: the injector never consults a clock.

Determinism: a :class:`FaultSpec` either pins explicit call indices
(``at_calls``) or draws per call from :func:`deterministic_uniform` keyed by
``(seed, site, call_index)`` -- no global RNG, no wall clock, so the same
specs and seed always produce the same fault schedule (asserted by the
harness tests).  The injector is process-global and in-process only: it does
not cross a ``ProcessPoolExecutor`` boundary, which is why worker-crash
coverage injects ``BrokenProcessPool`` at the parent-side
``executor.process.map`` site.
"""

from __future__ import annotations

import errno
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.runtime.resilience import deterministic_uniform

__all__ = [
    "FaultEvent",
    "FaultInjector",
    "FaultSpec",
    "InjectedFault",
    "InjectedTimeout",
    "corrupt_rows",
    "damage_file",
    "fault_sites",
    "fire",
    "induced_delay",
    "inject",
    "plant_stale_lock",
    "register_fault_site",
]

FAULT_KINDS = ("exception", "timeout", "crash", "nan",
               "torn", "bitflip", "enospc", "stale_lock", "slow")

#: Kinds handled by the raising hook (:func:`fire` / ``check``).
_RAISING_KINDS = ("exception", "timeout", "crash", "enospc")

#: Kinds handled by the file-corruption hook (:func:`damage_file`).
_FILE_KINDS = ("torn", "bitflip")


class InjectedFault(RuntimeError):
    """A transient exception raised by the harness (kind ``exception``)."""


class InjectedTimeout(TimeoutError):
    """A timeout raised by the harness (kind ``timeout``)."""


def _broken_pool_error():
    from concurrent.futures.process import BrokenProcessPool
    return BrokenProcessPool("injected worker crash")


# ---------------------------------------------------------------------------
# Fault-site registry

_SITES: Dict[str, str] = {}


def register_fault_site(name: str, description: str) -> str:
    """Declare a named fault site (idempotent; module import time).

    Registration gives the harness a closed universe to validate specs
    against -- a typo in a test's site name fails loudly instead of
    silently injecting nothing.
    """
    if not name:
        raise ValueError("fault site name must be non-empty")
    existing = _SITES.get(name)
    if existing is not None and existing != description:
        raise ValueError(f"fault site {name!r} already registered with a "
                         f"different description")
    _SITES[name] = description
    return name


def fault_sites() -> Dict[str, str]:
    """All registered fault sites (name -> description)."""
    return dict(_SITES)


# ---------------------------------------------------------------------------
# Specs, events, injector

@dataclass(frozen=True)
class FaultSpec:
    """Where, what kind, and how often to inject.

    Attributes
    ----------
    site:
        A registered fault-site name.
    kind:
        One of ``exception``, ``timeout``, ``crash``, ``nan``.
    at_calls:
        Explicit 0-based call indices at which to fire (exact schedule).
        ``None`` defers to ``rate``.
    rate:
        Probability per call of firing, drawn deterministically from the
        injector seed.  Ignored when ``at_calls`` is given.
    rows:
        For ``nan`` faults: which rows of the payload array to poison.
    delay_s:
        For ``slow`` faults: seconds of latency :func:`induced_delay`
        reports to the caller when the fault fires.
    """

    site: str
    kind: str
    at_calls: Optional[Tuple[int, ...]] = None
    rate: float = 0.0
    rows: Tuple[int, ...] = (0,)
    delay_s: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; "
                             f"expected one of {FAULT_KINDS}")
        if not (0.0 <= self.rate <= 1.0):
            raise ValueError("rate must be in [0, 1]")
        if self.delay_s < 0.0:
            raise ValueError(f"delay_s must be >= 0, got {self.delay_s}")
        if self.at_calls is not None:
            calls = tuple(int(c) for c in self.at_calls)
            if any(c < 0 for c in calls):
                raise ValueError("at_calls indices must be non-negative")
            object.__setattr__(self, "at_calls", calls)
        object.__setattr__(self, "rows", tuple(int(r) for r in self.rows))

    def active_at(self, seed: int, call: int) -> bool:
        """Whether this spec fires at per-site call index ``call``."""
        if self.at_calls is not None:
            return call in self.at_calls
        if self.rate <= 0.0:
            return False
        return deterministic_uniform(seed, self.site, call) < self.rate


@dataclass(frozen=True)
class FaultEvent:
    """One fault actually fired (the injector's replayable trace)."""

    site: str
    call: int
    kind: str


@dataclass
class FaultInjector:
    """Holds fault specs and the per-site call counters that schedule them.

    Thread-safe (the process executor's serial fallbacks run in the parent
    thread, but threads sharing a store or service may interleave);
    activate with :func:`inject`.
    """

    specs: Sequence[FaultSpec] = ()
    seed: int = 0
    events: List[FaultEvent] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.specs = tuple(self.specs)
        unknown = sorted({s.site for s in self.specs} - set(_SITES))
        if unknown:
            raise ValueError(f"unknown fault site(s) {unknown}; "
                             f"registered: {sorted(_SITES)}")
        self._calls: Dict[str, int] = {}
        self._lock = threading.Lock()

    def _next_call(self, site: str) -> int:
        with self._lock:
            call = self._calls.get(site, 0)
            self._calls[site] = call + 1
            return call

    def _matches(self, site: str, call: int,
                 kinds: Tuple[str, ...]) -> Optional[FaultSpec]:
        for spec in self.specs:
            if (spec.site == site and spec.kind in kinds
                    and spec.active_at(self.seed, call)):
                return spec
        return None

    def check(self, site: str) -> None:
        """Raise if a raising fault (exception/timeout/crash/enospc) fires here."""
        call = self._next_call(site)
        spec = self._matches(site, call, _RAISING_KINDS)
        if spec is None:
            return
        with self._lock:
            self.events.append(FaultEvent(site, call, spec.kind))
        if spec.kind == "timeout":
            raise InjectedTimeout(f"injected timeout at {site} (call {call})")
        if spec.kind == "crash":
            raise _broken_pool_error()
        if spec.kind == "enospc":
            raise OSError(errno.ENOSPC,
                          f"injected: no space left on device at {site} "
                          f"(call {call})")
        raise InjectedFault(f"injected fault at {site} (call {call})")

    def corrupt(self, site: str, array: np.ndarray) -> np.ndarray:
        """Poison rows of ``array`` with NaN if a ``nan`` fault fires here.

        Returns the input array unchanged (same object) when no fault
        fires, so clean runs stay bit-identical with the sites in place.
        """
        call = self._next_call(site)
        spec = self._matches(site, call, ("nan",))
        if spec is None:
            return array
        with self._lock:
            self.events.append(FaultEvent(site, call, "nan"))
        poisoned = np.array(array, dtype=float, copy=True)
        rows = [r for r in spec.rows if -poisoned.shape[0] <= r < poisoned.shape[0]]
        if rows:
            poisoned[np.asarray(rows, dtype=int)] = np.nan
        return poisoned

    def damage(self, site: str, path) -> bool:
        """Corrupt the file at ``path`` if a ``torn``/``bitflip`` fault fires.

        ``torn`` truncates the file to half its length (the committed-then-
        torn sector shape); ``bitflip`` XORs one bit of the last payload
        byte (silent bit-rot).  Returns whether the file was damaged; a
        clean run's files are never touched.
        """
        call = self._next_call(site)
        spec = self._matches(site, call, _FILE_KINDS)
        if spec is None:
            return False
        with self._lock:
            self.events.append(FaultEvent(site, call, spec.kind))
        try:
            size = os.path.getsize(path)
            if spec.kind == "torn":
                with open(path, "r+b") as handle:
                    handle.truncate(size // 2)
            else:
                with open(path, "r+b") as handle:
                    handle.seek(max(size - 1, 0))
                    last = handle.read(1)
                    handle.seek(max(size - 1, 0))
                    handle.write(bytes([(last[0] if last else 0) ^ 0x01]))
        except OSError:
            return False
        return True

    def delay(self, site: str) -> float:
        """Seconds of injected latency if a ``slow`` fault fires here.

        Returns 0.0 when nothing fires.  The *caller* sleeps -- the
        injector stays clock-free so fault schedules remain replayable.
        """
        call = self._next_call(site)
        spec = self._matches(site, call, ("slow",))
        if spec is None:
            return 0.0
        with self._lock:
            self.events.append(FaultEvent(site, call, "slow"))
        return float(spec.delay_s)

    def plant_lock(self, site: str, path) -> bool:
        """Drop an abandoned lock file at ``path`` if ``stale_lock`` fires.

        The planted lock names a pid that cannot be alive and a timestamp
        far in the past, so a correct store breaks it instead of deadlocking
        (or skipping its maintenance forever).
        """
        call = self._next_call(site)
        spec = self._matches(site, call, ("stale_lock",))
        if spec is None:
            return False
        with self._lock:
            self.events.append(FaultEvent(site, call, "stale_lock"))
        try:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write("999999999:0.0")
        except OSError:
            return False
        return True


# ---------------------------------------------------------------------------
# Process-global activation

_ACTIVE: Optional[FaultInjector] = None


def active_injector() -> Optional[FaultInjector]:
    """The currently activated injector, or ``None``."""
    return _ACTIVE


def fire(site: str) -> None:
    """Fault-site hook for raising faults; no-op without an active injector.

    Engines call this at their named sites; the site must be registered.
    """
    if site not in _SITES:
        raise ValueError(f"unregistered fault site {site!r}")
    injector = _ACTIVE
    if injector is not None:
        injector.check(site)


def corrupt_rows(site: str, array: np.ndarray) -> np.ndarray:
    """Fault-site hook for NaN payload corruption; identity without injector."""
    if site not in _SITES:
        raise ValueError(f"unregistered fault site {site!r}")
    injector = _ACTIVE
    if injector is None:
        return array
    return injector.corrupt(site, array)


def damage_file(site: str, path) -> bool:
    """Fault-site hook for on-disk corruption; no-op without an injector."""
    if site not in _SITES:
        raise ValueError(f"unregistered fault site {site!r}")
    injector = _ACTIVE
    if injector is None:
        return False
    return injector.damage(site, path)


def induced_delay(site: str) -> float:
    """Fault-site hook for injected latency; 0.0 without an active injector.

    The caller is responsible for sleeping the returned duration at its
    own yield point (typically via ``time.sleep``).
    """
    if site not in _SITES:
        raise ValueError(f"unregistered fault site {site!r}")
    injector = _ACTIVE
    if injector is None:
        return 0.0
    return injector.delay(site)


def plant_stale_lock(site: str, path) -> bool:
    """Fault-site hook planting a stale lock file; no-op without an injector."""
    if site not in _SITES:
        raise ValueError(f"unregistered fault site {site!r}")
    injector = _ACTIVE
    if injector is None:
        return False
    return injector.plant_lock(site, path)


@contextmanager
def inject(specs: Sequence[FaultSpec], seed: int = 0):
    """Activate a :class:`FaultInjector` for the duration of the block.

    Yields the injector (inspect ``.events`` afterwards for the fired
    schedule).  Nesting is rejected: two overlapping injectors would share
    call counters ambiguously and break replay.
    """
    global _ACTIVE
    if _ACTIVE is not None:
        raise RuntimeError("fault injection is already active; "
                           "nested inject() is not supported")
    injector = FaultInjector(specs=specs, seed=seed)
    _ACTIVE = injector
    try:
        yield injector
    finally:
        _ACTIVE = None
