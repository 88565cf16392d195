"""Lockstep transient simulation of equivalent-inverter transitions.

The simulator integrates the single-node output differential equation

.. math::

    C_{tot} \\frac{dV_{out}}{dt} = I_{pull\\text{-}up}(V_{in}, V_{out})
        - I_{pull\\text{-}down}(V_{in}, V_{out})
        + C_{M} \\frac{dV_{in}}{dt}

for every requested ``(Sin, Cload, Vdd)`` condition of one arc at once, in a
2-D state of shape ``(rows, seeds)`` -- the software analogue of batching
SPICE runs with ``.ALTER`` statements.  Each loop iteration advances every
active row by one step of its own size, so the interpreted overhead is paid
once per step for the whole batch.  Completed or failed rows retire from
the loop; failures abort the call or, under ``on_failure="quarantine"``,
come back as NaN rows.

Two explicit Runge-Kutta schemes run over the loop as Butcher tableaus,
and the step policy follows from the tableau.  Classical RK4 (no embedded
error row) walks a fixed grid: each row's ramp ends exactly on a chunk
boundary, then post-ramp windows sized from the driving device's effective
current grow geometrically until the output completes its transition.
Dormand-Prince 5(4) (embedded error row) takes row-local PI-controlled
steps that land on the ramp end, and keeps its FSAL stage as the
dense-output derivative of every sample.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.cells.equivalent_inverter import EquivalentInverter
from repro.cells.library import Transition
from repro.devices.alpha_power import AlphaPowerMOSFET
from repro.runtime import faultinject
from repro.spice.stepper import DEFAULT_STEPS, IntegrationStats, StepperSpec
from repro.spice.waveform import (
    SLEW_HIGH_THRESHOLD,
    SLEW_LOW_THRESHOLD,
    Waveform,
    WaveformBatch,
)

#: Safety factor applied to the estimated transition time when sizing the window.
_WINDOW_MARGIN = 8.0
#: Maximum number of post-ramp windows (the first plus its extensions).
_MAX_EXTENSIONS = 6
#: Geometric growth of each successive window.
_WINDOW_GROWTH = 1.8

#: Initial adaptive step: a fixed fraction of each row's ramp, so adaptive
#: results do not depend on the fixed-step ``n_steps`` hint at all.
_H0_RAMP_FRACTION = 1.0 / 16.0
#: Error floor applied before controller exponentiation (an exactly-zero
#: error estimate must still produce a bounded growth factor).
_ERR_FLOOR = 1e-10
#: Step-size underflow threshold as a fraction of the row's horizon.
_H_UNDERFLOW_FRACTION = 1e-14

SITE_INTEGRATE = faultinject.register_fault_site(
    "transient.integrate",
    "one batched transient call about to integrate (exception faults)")
SITE_STATE = faultinject.register_fault_site(
    "transient.state",
    "post-ramp RK4 state of a batched transient call (NaN row faults)")
SITE_REJECT = faultinject.register_fault_site(
    "adaptive.reject",
    "per-iteration error norms of the adaptive stepper (NaN row faults "
    "force step rejections; a sustained schedule is a rejection storm)")


@dataclass(frozen=True)
class Tableau:
    """Butcher tableau of one explicit Runge-Kutta scheme.

    ``a`` holds the rows of stages ``1..len(a)`` (stage 0 is the derivative
    at the step start).  The solution is ``y + h / b_divisor * sum(b_j
    k_j)``: keeping RK4's weights as the integers ``(1, 2, 2, 1)`` over 6
    makes it round exactly like the textbook update.  ``fsal`` schemes
    evaluate one more stage at the new solution, which seeds the next step
    and serves as the dense-output derivative.  ``error`` weights the
    embedded error estimate (over every stage, FSAL included); a tableau
    without one runs on the fixed grid.
    """

    c: Tuple[float, ...]
    a: Tuple[Tuple[float, ...], ...]
    b: Tuple[float, ...]
    b_divisor: float = 1.0
    fsal: bool = False
    error: Optional[Tuple[float, ...]] = None

    @property
    def n_stages(self) -> int:
        """Stage evaluations per attempted step (FSAL stage included)."""
        return len(self.a) + 1 + int(self.fsal)


RK4 = Tableau(
    c=(0.0, 0.5, 0.5, 1.0),
    a=((0.5,), (0.0, 0.5), (0.0, 0.0, 1.0)),
    b=(1.0, 2.0, 2.0, 1.0),
    b_divisor=6.0,
)

DORMAND_PRINCE = Tableau(
    c=(0.0, 1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0, 1.0),
    a=(
        (1.0 / 5.0,),
        (3.0 / 40.0, 9.0 / 40.0),
        (44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0),
        (19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0,
         -212.0 / 729.0),
        (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0,
         -5103.0 / 18656.0),
    ),
    b=(35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0,
       11.0 / 84.0),
    fsal=True,
    error=(71.0 / 57600.0, 0.0, -71.0 / 16695.0, 71.0 / 1920.0,
           -17253.0 / 339200.0, 22.0 / 525.0, -1.0 / 40.0),
)

#: Tableau of each :class:`~repro.spice.stepper.StepperSpec` method.
TABLEAUS = {"rk4": RK4, "rk45": DORMAND_PRINCE}


def _phase_steps(n_steps: int) -> tuple:
    """Split ``n_steps`` into the fixed grid's (ramp, tail) step counts."""
    ramp_steps = max(n_steps // 3, 48)
    tail_steps = max(n_steps - ramp_steps, 64)
    return ramp_steps, tail_steps


def _extension_steps(tail_steps: int) -> int:
    """Step count of each geometric window-extension chunk."""
    return max(tail_steps // 2, 64)


@dataclass(frozen=True)
class TransientResult:
    """Waveforms produced by one arc transition simulation."""

    input_waveform: Waveform
    output_waveform: Waveform
    vdd: float

    def delay(self) -> np.ndarray:
        """Propagation delay per seed, in seconds."""
        return self.output_waveform.propagation_delay(self.input_waveform, self.vdd)

    def output_slew(self) -> np.ndarray:
        """Output transition time per seed, in seconds."""
        return self.output_waveform.transition_time(self.vdd)


@dataclass(frozen=True)
class BatchTransientResult:
    """Waveforms of a batched multi-condition arc simulation.

    ``input_waveforms`` / ``output_waveforms`` hold the input ramps and
    output responses of every condition; ``sin``, ``cload`` and ``vdd`` are
    the simulated conditions, each of shape ``(n_conditions,)``.
    """

    input_waveforms: WaveformBatch
    output_waveforms: WaveformBatch
    sin: np.ndarray
    cload: np.ndarray
    vdd: np.ndarray
    #: Boolean mask of shape ``(n_conditions,)`` marking rows retired by
    #: per-row quarantine (``on_failure="quarantine"``): their integration
    #: went non-finite or never completed, and their delay/slew values are
    #: NaN.  ``None`` when the simulation ran fail-fast (the default).
    quarantined: Optional[np.ndarray] = None
    #: Integration-cost accounting of this batch (steps taken/rejected and
    #: scalar RHS evaluations); ``None`` on results restored from caches
    #: predating the stepper signature.
    stats: Optional[IntegrationStats] = None

    @property
    def n_conditions(self) -> int:
        """Number of simulated conditions."""
        return self.sin.size

    @property
    def n_seeds(self) -> int:
        """Number of Monte Carlo seeds per condition."""
        return self.output_waveforms.n_seeds

    def quarantined_indices(self) -> np.ndarray:
        """Condition indices retired by quarantine (empty when none were)."""
        if self.quarantined is None:
            return np.empty(0, dtype=int)
        return np.nonzero(self.quarantined)[0]

    def delay(self) -> np.ndarray:
        """Propagation delay, shape ``(n_conditions, n_seeds)``, in seconds."""
        return self.output_waveforms.propagation_delay(self.input_waveforms,
                                                       self.vdd)

    def output_slew(self) -> np.ndarray:
        """Output transition time, shape ``(n_conditions, n_seeds)``, in seconds."""
        return self.output_waveforms.transition_time(self.vdd)

    def condition(self, index: int) -> TransientResult:
        """Extract one condition as a single-condition result."""
        return TransientResult(
            input_waveform=self.input_waveforms.condition(index),
            output_waveform=self.output_waveforms.condition(index),
            vdd=float(self.vdd[index]),
        )


def transient_item_bytes(n_seeds: int, n_steps: int = DEFAULT_STEPS) -> int:
    """Peak bytes one condition row costs inside the lockstep integrator.

    The shared time matrix plus the ``(len, n_seeds)`` voltage and input
    matrices and the stage/derivative buffers.  Both
    :func:`repro.spice.sweep.sweep_conditions` and the fused library
    pipeline plan their flat-axis chunks from this single estimate, so a
    ``runtime.configure(max_bytes=...)`` budget means the same thing at
    every batching level.
    """
    ramp_steps, tail_steps = _phase_steps(n_steps)
    base_len = ramp_steps + 1 + tail_steps
    return 8 * base_len * (4 * max(int(n_seeds), 1) + 2)


def _scalarize(value) -> object:
    """Collapse size-1 parameter arrays to Python floats.

    Scalar operands keep NumPy on its fast ufunc paths (notably ``pow`` with
    a scalar exponent) and skip broadcasting machinery in the hot loop.
    """
    array = np.asarray(value, dtype=float)
    return float(array.reshape(-1)[0]) if array.size == 1 else array


class _AlphaPowerKernel:
    """Fused alpha-power drain currents evaluated in caller-owned buffers.

    Computes the same smooth model as
    :meth:`repro.devices.alpha_power.AlphaPowerMOSFET.current` (softplus
    overdrive, one half-exponent pow, tanh saturation) restructured for
    throughput: device parameters are folded once per simulation
    (``k_drive * width`` into one gain, the subthreshold swing into the
    softplus smoothing and its negated reciprocal, ``alpha`` into the half
    exponent), size-1 parameters collapse to Python scalars, and every
    temporary lives in three scratch matrices owned by the integrator.
    The reassociated arithmetic differs from the reference model only at
    the last-ulp level.
    """

    def __init__(self, nmos, pmos):
        self._params = (self._fold(nmos.params), self._fold(pmos.params))

    @staticmethod
    def _fold(p) -> dict:
        smoothing = _scalarize(np.asarray(p.subthreshold_swing, dtype=float) / 2.3)
        return {
            "vth0": _scalarize(p.vth0),
            "dibl": _scalarize(p.dibl),
            "kw": _scalarize(np.asarray(p.k_drive, dtype=float)
                             * np.asarray(p.width_um, dtype=float)),
            "lam": _scalarize(p.lambda_clm),
            "coeff": _scalarize(p.vdsat_coeff),
            "alpha_half": _scalarize(np.asarray(p.alpha, dtype=float) * 0.5),
            "smoothing": smoothing,
            "neg_inv_smoothing": -1.0 / smoothing,
        }

    def currents(self, vgs_n, vds_n, vgs_p, vds_p, out_down, out_up,
                 scratch) -> None:
        """Pull-down and pull-up currents into ``out_down`` / ``out_up``."""
        self._one(self._params[0], vgs_n, vds_n, out_down, scratch)
        self._one(self._params[1], vgs_p, vds_p, out_up, scratch)

    @staticmethod
    def _one(p, vgs, vds_raw, out, scratch) -> None:
        vds, x, aux = scratch
        np.maximum(vds_raw, 0.0, out=vds)
        np.multiply(vds, p["dibl"], out=x)
        x += vgs
        x -= p["vth0"]
        # softplus(x, smoothing) in the overflow-stable form
        np.abs(x, out=aux)
        aux *= p["neg_inv_smoothing"]
        np.exp(aux, out=aux)
        np.log1p(aux, out=aux)
        aux *= p["smoothing"]
        np.maximum(x, 0.0, out=x)
        x += aux                                   # overdrive
        np.power(x, p["alpha_half"], out=aux)      # half-power
        np.multiply(aux, aux, out=out)
        out *= p["kw"]
        np.multiply(vds, p["lam"], out=x)
        x += 1.0
        out *= x                                   # channel-length modulation
        np.multiply(aux, p["coeff"], out=x)
        np.maximum(x, 1e-3, out=x)
        np.divide(vds, x, out=x)
        np.tanh(x, out=x)
        out *= x                                   # saturation


def _estimate_windows(inverter: EquivalentInverter, sin: np.ndarray,
                      cload: np.ndarray, vdd: np.ndarray) -> np.ndarray:
    """Per-condition post-ramp window long enough for the output to settle."""
    ieff = np.atleast_2d(np.asarray(inverter.effective_current(vdd[:, np.newaxis]),
                                    dtype=float))
    ieff_floor = np.maximum(np.min(ieff, axis=1), 1e-9)
    total_cap = cload + float(np.max(np.asarray(inverter.parasitic_cap)))
    intrinsic = total_cap * vdd / ieff_floor
    return 0.5 * sin + _WINDOW_MARGIN * np.maximum(intrinsic, 1e-13)


def _condition_arrays(sin, cload, vdd) -> tuple:
    """Validated 1-D float arrays of the requested conditions."""
    sin = np.atleast_1d(np.asarray(sin, dtype=float))
    cload = np.atleast_1d(np.asarray(cload, dtype=float))
    vdd = np.atleast_1d(np.asarray(vdd, dtype=float))
    if not (sin.shape == cload.shape == vdd.shape) or sin.ndim != 1:
        raise ValueError("sin, cload and vdd must be 1-D arrays of equal length")
    if sin.size == 0:
        raise ValueError("at least one condition is required")
    for name, values in (("sin", sin), ("cload", cload), ("vdd", vdd)):
        bad = np.nonzero(~np.isfinite(values))[0]
        if bad.size:
            raise ValueError(
                f"{name} contains a non-finite value at condition index "
                f"{int(bad[0])} ({bad.size} of {values.size} non-finite)")
    if np.any(sin <= 0.0) or np.any(cload <= 0.0) or np.any(vdd <= 0.0):
        raise ValueError("sin, cload and vdd must all be positive")
    return sin, cload, vdd


class _Samples:
    """Per-condition sample stores (time, voltage[, derivative]).

    Indexed by original condition row; each store grows along its sample
    axis as rows commit samples.
    """

    def __init__(self, n_cond: int, n_seeds: int, capacity: int, dense: bool):
        shapes = [(), (n_seeds,)] + ([(n_seeds,)] if dense else [])
        self.arrays = [np.zeros((n_cond, capacity) + shape) for shape in shapes]
        self.counts = np.zeros(n_cond, dtype=int)

    @property
    def capacity(self) -> int:
        return self.arrays[0].shape[1]

    def reserve(self, capacity: int) -> None:
        """Grow every store to hold ``capacity`` samples per row."""
        for index, old in enumerate(self.arrays):
            if capacity > old.shape[1]:
                grown = np.zeros(old.shape[:1] + (capacity,) + old.shape[2:])
                grown[:, :old.shape[1]] = old
                self.arrays[index] = grown

    def commit(self, rows: Optional[np.ndarray], *values) -> None:
        """Append one ``(t, y[, dydt])`` sample to each of ``rows``.

        ``rows=None`` means every row, in order, all holding equally many
        samples (the common lockstep case, committed by plain slicing).
        """
        if rows is None:
            rows, pos = slice(None), int(self.counts[0])
        else:
            pos = self.counts[rows]
        for array, value in zip(self.arrays, values):
            array[rows, pos] = value
        self.counts[rows] += 1

    def assemble(self, sin: np.ndarray, vdd: np.ndarray, falling: bool,
                 quarantined: np.ndarray) -> tuple:
        """Padded ``(input, output)`` waveform batches of every row.

        Rows shorter than the longest hold their last sample (so direction
        and final-value logic carries over); quarantined rows read NaN.
        """
        lengths = np.maximum(self.counts, 2)
        n_max = int(lengths.max())
        time, *values = [np.ascontiguousarray(array[:, :n_max])
                         for array in self.arrays]
        for index in np.nonzero(self.counts < n_max)[0]:
            length = int(self.counts[index])
            if length < 2:
                # A row quarantined before its first step still needs two
                # samples with distinct times; its values are NaN below.
                time[index, 1] = time[index, 0] + float(sin[index])
                length = 2
            for array in (time, *values):
                array[index, length:] = array[index, length - 1]
        # Poison quarantined rows uniformly: an exhausted row can still have
        # crossed the 50% threshold and would otherwise yield a
        # plausible-looking delay.
        for array in values:
            array[quarantined] = np.nan
        # The input ramps on the same time axes, with the exact expression
        # of RampStimulus.voltage (piecewise linear: no derivative needed).
        fraction = np.clip(time / sin[:, np.newaxis], 0.0, 1.0)
        if falling:
            vin = vdd[:, np.newaxis] * fraction
        else:
            vin = vdd[:, np.newaxis] * (1.0 - fraction)
        volt, *deriv = values
        return (WaveformBatch(time, vin, valid_len=lengths),
                WaveformBatch(time, volt, valid_len=lengths,
                              derivative=deriv[0] if deriv else None))


class _Work:
    """Stage and evaluation buffers sized for the active rows."""

    def __init__(self, rows: int, n_seeds: int, n_stages: int):
        shape = (rows, n_seeds)
        self.k = [np.empty(shape) for _ in range(n_stages)]
        self.stage = np.empty(shape)
        self.new = np.empty(shape)
        self.tmp = np.empty(shape)
        self.vclamp = np.empty(shape)
        self.vds_p = np.empty(shape)
        self.down = np.empty(shape)
        self.up = np.empty(shape)
        self.kernel = tuple(np.empty(shape) for _ in range(3))


def _terms(weights) -> tuple:
    """The nonzero ``(stage, weight)`` pairs of one tableau row."""
    return tuple((j, w) for j, w in enumerate(weights) if w != 0.0)


def _combine(terms, k, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """``out = sum(w * k[j])`` over one tableau row's nonzero terms."""
    (j, w), rest = terms[0], terms[1:]
    np.multiply(k[j], w, out=out)
    for j, w in rest:
        np.multiply(k[j], w, out=tmp)
        out += tmp
    return out


def simulate_arc_transitions(
    inverter: EquivalentInverter,
    sin,
    cload,
    vdd,
    n_steps: int = DEFAULT_STEPS,
    on_failure: str = "raise",
    stepper: Optional[StepperSpec] = None,
) -> BatchTransientResult:
    """Simulate every requested condition of one arc in a single lockstep pass.

    Parameters
    ----------
    inverter:
        Equivalent inverter produced by :func:`repro.cells.reduce_cell`
        (possibly carrying per-seed parameter arrays).
    sin, cload, vdd:
        Input transition times (seconds), load capacitances (farads) and
        supply voltages (volts); arrays or sequences of equal length.
    n_steps:
        RK4 steps in each condition's initial window; used only when
        ``stepper`` is ``None``.
    on_failure:
        ``"raise"`` (default) aborts the whole call when any condition
        fails to complete its transition.  ``"quarantine"`` instead retires
        such conditions per row: they are marked in
        ``BatchTransientResult.quarantined`` and their delay/slew evaluate
        to NaN, while every healthy row is computed bit-identically to a
        fail-fast run.
    stepper:
        The :class:`~repro.spice.stepper.StepperSpec` selecting the scheme
        (``"rk4"`` fixed grid or ``"rk45"`` adaptive) and its constants;
        ``None`` is fixed-step RK4 at ``n_steps``.

    Returns
    -------
    BatchTransientResult
        Input and output waveform batches, vectorized over
        ``(n_conditions, n_seeds)``, with an
        :class:`~repro.spice.stepper.IntegrationStats` record in
        ``result.stats``.  Adaptive output waveforms carry dense-output
        derivatives on per-condition non-uniform grids.

    Raises
    ------
    ValueError
        For empty, mismatched, non-finite or non-positive condition
        arrays, ``n_steps < 16``, or an unknown ``on_failure``.
    RuntimeError
        Only with ``on_failure="raise"``: if a condition fails to complete
        its transition (window extensions exhausted, non-finite state, or
        adaptive step-size underflow / rejection storm) -- typically a
        cell that is non-functional at that operating point.
    """
    if stepper is None:
        stepper = StepperSpec(method="rk4", n_steps=n_steps)
    if on_failure not in ("raise", "quarantine"):
        raise ValueError(f"on_failure must be 'raise' or 'quarantine', "
                         f"got {on_failure!r}")
    sin, cload, vdd = _condition_arrays(sin, cload, vdd)
    faultinject.fire(SITE_INTEGRATE)

    tableau = TABLEAUS[stepper.method]
    adaptive = tableau.error is not None
    stage_terms = [_terms(row) for row in tableau.a]
    b_terms = _terms(tableau.b)

    n_cond = sin.size
    falling = inverter.arc.output_transition is Transition.FALL
    parasitic = np.asarray(inverter.parasitic_cap, dtype=float)
    miller = np.asarray(inverter.miller_cap, dtype=float)
    n_seeds = max(parasitic.size, miller.size, 1)
    parasitic = np.broadcast_to(parasitic, (n_seeds,))
    miller = np.broadcast_to(miller, (n_seeds,))
    nmos, pmos = inverter.nmos, inverter.pmos
    # Other device models (the virtual-source FinFET) evaluate through
    # their own ``current``.
    fused = type(nmos) is AlphaPowerMOSFET and type(pmos) is AlphaPowerMOSFET
    kernel = _AlphaPowerKernel(nmos, pmos) if fused else None
    stats = IntegrationStats(method=stepper.method)

    # Per-row run state.  Retiring rows are dropped by re-indexing every
    # per-row array (and reallocating the work buffers), so the hot loop
    # always operates on whole arrays of the active rows.
    ids = np.arange(n_cond)
    ramp, supply = sin, vdd
    slope = supply / ramp if falling else -(supply / ramp)
    if falling:
        far = 0.5 * SLEW_LOW_THRESHOLD * supply
    else:
        far = supply - 0.5 * (1.0 - SLEW_HIGH_THRESHOLD) * supply
    caps = cload[:, np.newaxis] + parasitic[np.newaxis, :]
    window = _estimate_windows(inverter, sin, cload, vdd)
    t = np.zeros(n_cond)
    y = np.broadcast_to(supply[:, np.newaxis] if falling else 0.0,
                        (n_cond, n_seeds)).copy()
    supply_col = supply[:, np.newaxis]
    clamp_low, clamp_high = -0.2 * supply_col, 1.2 * supply_col
    w = _Work(n_cond, n_seeds, tableau.n_stages)

    def rhs(t_stage: np.ndarray, state: np.ndarray, out: np.ndarray,
            on_ramp: Optional[np.ndarray]) -> None:
        """Derivative of every active row into ``out``.

        The Miller term applies where ``on_ramp`` holds; ``None`` evaluates
        it per stage time (a stage exactly at the ramp end still sees the
        ramp slope).
        """
        stats.rhs_evals += out.size
        # Stage times are never negative: only the upper clip can bind.
        fraction = np.minimum(t_stage / ramp, 1.0)
        vin = supply * fraction if falling else supply * (1.0 - fraction)
        vin_col = vin[:, np.newaxis]
        vc = w.vclamp
        np.maximum(state, clamp_low, out=vc)
        np.minimum(vc, clamp_high, out=vc)
        np.subtract(supply_col, vc, out=w.vds_p)
        if kernel is not None:
            kernel.currents(vin_col, vc, supply_col - vin_col, w.vds_p,
                            w.down, w.up, w.kernel)
            np.subtract(w.up, w.down, out=out)
        else:
            np.subtract(pmos.current(supply_col - vin_col, w.vds_p),
                        nmos.current(vin_col, vc), out=out)
        if on_ramp is None:
            on_ramp = t_stage <= ramp
        # The Miller term is exactly zero off the ramp, so it is skipped
        # once every active ramp has finished.
        if on_ramp.any():
            np.multiply(miller, np.where(on_ramp, slope, 0.0)[:, np.newaxis],
                        out=w.tmp)
            out += w.tmp
        out /= caps

    quarantined = np.zeros(n_cond, dtype=bool)
    if adaptive:
        # Initial step, PI memory and failure guards; the adaptive horizon
        # equals the fixed grid's fully extended window, so both policies
        # declare a condition non-functional at the same point.
        horizon = window * ((_WINDOW_GROWTH ** _MAX_EXTENSIONS - 1.0)
                            / (_WINDOW_GROWTH - 1.0))
        tmax = sin + horizon
        atol = stepper.atol_frac * supply
        h_floor = _H_UNDERFLOW_FRACTION * tmax
        h = ramp * _H0_RAMP_FRACTION
        errold = np.full(n_cond, 1e-4)
        rejects = np.zeros(n_cond, dtype=int)
        error_terms = _terms(tableau.error)
        samples = _Samples(n_cond, n_seeds, 64, dense=True)
        rhs(t, y, w.k[0], np.ones(n_cond, dtype=bool))
    else:
        # Fixed grid: the ramp chunk, then post-ramp windows.
        ramp_steps, tail_steps = _phase_steps(stepper.n_steps)
        samples = _Samples(n_cond, n_seeds, ramp_steps + 1 + tail_steps,
                           dense=False)
        windows_done = -1            # -1 while on the ramp chunk
        chunk_steps = ramp_steps
        grid = np.linspace(t, t + ramp, chunk_steps + 1, axis=1)
        grid_dt = grid[:, 1] - grid[:, 0]
        pos = 0
    samples.commit(None, t, y, w.k[0])

    # Every row retires in finitely many iterations: the fixed grid has a
    # bounded number of windows, and an adaptive row either advances by at
    # least its underflow floor or fails a guard.
    na = n_cond
    while na:
        # -- Step sizes (policy) -------------------------------------------
        if adaptive:
            on_ramp = t < ramp
            remaining = ramp - t
            hits_ramp_end = on_ramp & (h >= remaining)
            step = np.where(on_ramp, np.minimum(h, remaining), h)
            t_step = t
        else:
            on_ramp = None
            step = grid_dt
            t_step = grid[:, pos]
        h_col = step[:, np.newaxis]

        # -- Stages (shared) -----------------------------------------------
        k = w.k
        if not tableau.fsal:
            rhs(t_step, y, k[0], on_ramp)
        for stage, terms in enumerate(stage_terms, start=1):
            acc = _combine(terms, k, w.stage, w.tmp)
            acc *= h_col
            acc += y
            rhs(t_step + tableau.c[stage] * step, acc, k[stage], on_ramp)
        yn = _combine(b_terms, k, w.new, w.tmp)
        yn *= (step / tableau.b_divisor)[:, np.newaxis]
        yn += y
        if tableau.fsal:
            rhs(t_step + step, yn, k[-1], on_ramp)

        # -- Acceptance and commit -------------------------------------------
        if adaptive:
            # Scaled embedded error, RMS over seeds, one scalar per row.
            ev = _combine(error_terms, k, w.stage, w.tmp)
            ev *= h_col
            scale = w.tmp
            np.abs(yn, out=scale)
            np.maximum(scale, np.abs(y), out=scale)
            scale *= stepper.rtol
            scale += atol[:, np.newaxis]
            ev /= scale
            np.square(ev, out=ev)
            err = np.sqrt(np.mean(ev, axis=1))
            # Identity without an active injector; under injection, poisoned
            # rows read as non-finite error -> forced rejection (storms).
            err = faultinject.corrupt_rows(SITE_REJECT, err)
            finite = np.isfinite(err)
            accept = finite & (err <= 1.0)
            n_accept = int(np.count_nonzero(accept))
            stats.steps_taken += n_accept
            stats.steps_rejected += na - n_accept

            # PI controller: grow accepted steps from the error history,
            # shrink rejected ones from the current error alone (never
            # above 1).
            err_fl = np.maximum(err, _ERR_FLOOR)
            factor = (stepper.safety * err_fl ** (-stepper.pi_alpha)
                      * np.maximum(errold, _ERR_FLOOR) ** stepper.pi_beta)
            np.clip(factor, stepper.min_factor, stepper.max_factor, out=factor)
            shrink = np.clip(stepper.safety * err_fl ** -0.2,
                             stepper.min_factor, 1.0)
            factor = np.where(accept, factor, shrink)
            factor = np.where(finite, factor, stepper.min_factor)
            # A ramp-end clamp is not the controller's doing: accepted
            # clamped rows grow from the *unclamped* h so no memory is lost.
            h = np.where(hits_ramp_end & accept, h, step) * factor
            t = np.where(accept, np.where(hits_ramp_end, ramp, t + step), t)
            rejects = np.where(accept, 0, rejects + 1)
            errold = np.where(accept, np.maximum(err, 1e-4), errold)

            acc_idx = np.nonzero(accept)[0]
            if acc_idx.size:
                y[acc_idx] = yn[acc_idx]
                k[0][acc_idx] = k[-1][acc_idx]
                # Rows that just landed on their ramp end: the two one-sided
                # derivatives differ by exactly the Miller term, so the FSAL
                # stage is corrected in place of a fresh evaluation (it is
                # also the boundary sample's dense-output derivative).
                crossed = np.nonzero(accept & hits_ramp_end)[0]
                if crossed.size:
                    k[0][crossed] -= (miller[np.newaxis, :]
                                      * slope[crossed, np.newaxis]
                                      / caps[crossed])
                if int(samples.counts.max()) + 1 > samples.capacity:
                    samples.reserve(2 * samples.capacity)
                samples.commit(ids[acc_idx], t[acc_idx], y[acc_idx],
                               k[0][acc_idx])
        else:
            y, w.new = yn, y
            pos += 1
            t = grid[:, pos]
            stats.steps_taken += na
            samples.commit(None if na == n_cond else ids, t, y)
            if pos < chunk_steps:
                continue
            if windows_done < 0:
                # Identity without an active injector; under injection,
                # NaN-poisoned rows are caught at the first window's end.
                y = faultinject.corrupt_rows(SITE_STATE, y)

        # -- Retirement (shared) -------------------------------------------
        # Completion: every seed safely past the far slew threshold.
        if falling:
            done = np.all(y <= far[:, np.newaxis], axis=1)
        else:
            done = np.all(y >= far[:, np.newaxis], axis=1)
        if adaptive:
            done &= t >= ramp
            failures = (("rejection storm", rejects >= stepper.max_rejects),
                        ("step-size underflow", h < h_floor),
                        ("window exhausted", t >= tmax))
        elif windows_done < 0:
            done[:] = False
            failures = ()
        else:
            exhausted = windows_done + 1 >= _MAX_EXTENSIONS
            failures = (("non-finite state", ~np.all(np.isfinite(y), axis=1)),
                        ("window exhausted", ~done & exhausted))
        failed = np.zeros(na, dtype=bool)
        for _reason, mask in failures:
            failed |= mask & ~done
        if np.any(failed):
            if on_failure == "quarantine":
                quarantined[ids[failed]] = True
            else:
                first = int(np.nonzero(failed)[0][0])
                reason = next(name for name, mask in failures if mask[first])
                index = int(ids[first])
                raise RuntimeError(
                    f"output of {inverter.cell_name} did not complete its "
                    f"transition (sin={sin[index]:.3g}s, "
                    f"cload={cload[index]:.3g}F, vdd={vdd[index]:.3g}V); the "
                    f"cell is likely non-functional at this operating point "
                    f"({reason}; {int(np.count_nonzero(failed))} of {n_cond} "
                    f"conditions failed)")
        retire = done | failed
        if np.any(retire):
            keep = np.nonzero(~retire)[0]
            na = keep.size
            ids, ramp, supply, slope, far, window, t, caps, y = (
                a[keep] for a in (ids, ramp, supply, slope, far, window, t,
                                  caps, y))
            if adaptive:
                tmax, atol, h_floor, h, errold, rejects = (
                    a[keep] for a in (tmax, atol, h_floor, h, errold, rejects))
            carried = w.k[0][keep]
            w = _Work(na, n_seeds, tableau.n_stages)
            w.k[0] = carried
            supply_col = supply[:, np.newaxis]
            clamp_low, clamp_high = -0.2 * supply_col, 1.2 * supply_col

        if not adaptive and na:
            # Next post-ramp window for the rows still transitioning.
            if windows_done >= 0:
                window = window * _WINDOW_GROWTH
                chunk_steps = _extension_steps(tail_steps)
            else:
                chunk_steps = tail_steps
            windows_done += 1
            samples.reserve(int(samples.counts.max()) + chunk_steps)
            grid = np.linspace(t, t + window, chunk_steps + 1, axis=1)
            grid_dt = grid[:, 1] - grid[:, 0]
            pos = 0

    input_batch, output_batch = samples.assemble(sin, vdd, falling,
                                                 quarantined)
    return BatchTransientResult(
        input_waveforms=input_batch,
        output_waveforms=output_batch,
        sin=sin,
        cload=cload,
        vdd=vdd,
        quarantined=quarantined if on_failure == "quarantine" else None,
        stats=stats,
    )
