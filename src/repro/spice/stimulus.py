"""Input stimulus generation.

Characterization drives each cell input with a saturated linear ramp whose
transition time equals the requested input slew ``Sin``.  Following the slew
convention of :mod:`repro.spice.waveform` (20 %-80 % measurement, 0.6 derate),
a requested ``Sin`` maps to a 0-to-100 % ramp duration of exactly ``Sin``:
measuring the generated ramp with the library's own convention returns the
requested value, which keeps ``Sin`` and ``Sout`` consistent end to end.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.spice.waveform import Waveform


@dataclass(frozen=True)
class RampStimulus:
    """A saturated linear voltage ramp.

    Attributes
    ----------
    vdd:
        Supply voltage (final value of a rising ramp), in volts.
    slew:
        Full-swing transition time of the ramp, in seconds.
    rising:
        ``True`` for a 0-to-Vdd ramp, ``False`` for a Vdd-to-0 ramp.
    start_time:
        Time at which the ramp begins, in seconds.
    """

    vdd: float
    slew: float
    rising: bool = True
    start_time: float = 0.0

    def __post_init__(self) -> None:
        if self.vdd <= 0.0:
            raise ValueError("vdd must be positive")
        if self.slew <= 0.0:
            raise ValueError("slew must be positive")
        if self.start_time < 0.0:
            raise ValueError("start_time must be non-negative")

    @property
    def end_time(self) -> float:
        """Time at which the ramp reaches its final value."""
        return self.start_time + self.slew

    def voltage(self, time) -> np.ndarray:
        """Ramp voltage at the given times (vectorized, with a scalar fast path).

        A one-condition integrator calls this once per RK4 stage with a plain
        float; the scalar branch avoids the ``np.asarray``/``float()``
        round-trip that would otherwise dominate its per-step cost.
        """
        if isinstance(time, (float, int)):
            fraction = (time - self.start_time) / self.slew
            if fraction < 0.0:
                fraction = 0.0
            elif fraction > 1.0:
                fraction = 1.0
            if self.rising:
                return self.vdd * fraction
            return self.vdd * (1.0 - fraction)
        time = np.asarray(time, dtype=float)
        fraction = np.clip((time - self.start_time) / self.slew, 0.0, 1.0)
        if self.rising:
            return self.vdd * fraction
        return self.vdd * (1.0 - fraction)

    def slope(self, time) -> np.ndarray:
        """Time derivative of the ramp voltage (for Miller-coupling injection).

        Scalar inputs take a pure-Python fast path (see :meth:`voltage`).
        """
        if isinstance(time, (float, int)):
            if self.start_time <= time <= self.end_time:
                magnitude = self.vdd / self.slew
                return magnitude if self.rising else -magnitude
            return 0.0
        time = np.asarray(time, dtype=float)
        active = (time >= self.start_time) & (time <= self.end_time)
        magnitude = self.vdd / self.slew
        signed = magnitude if self.rising else -magnitude
        return np.where(active, signed, 0.0)

    def waveform(self, time: np.ndarray) -> Waveform:
        """Sample the ramp onto a time axis as a :class:`Waveform`."""
        return Waveform(np.asarray(time, dtype=float), self.voltage(time))
