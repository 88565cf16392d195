"""Serial one-condition transient integrator: the test oracle of the engine.

Integrates one ``(sin, cload, vdd)`` condition at a time with textbook
fixed-step RK4, evaluating each device through its readable model
(:meth:`repro.devices.alpha_power.AlphaPowerMOSFET.current` and friends)
and the input through :class:`~repro.spice.stimulus.RampStimulus`.  None of
the lockstep integrator's machinery -- the fused alpha-power kernel, the
Butcher-tableau stage loop, row retirement and compaction, waveform
assembly -- is shared, so agreement at ``rtol <= 1e-9`` checks that
machinery against independent math.

What *is* shared is the step policy: the ramp/tail split, the window
heuristic and its geometric extensions are read from
:mod:`repro.spice.transient` at call time, so tests that monkeypatch
``_WINDOW_MARGIN`` / ``_MAX_EXTENSIONS`` there move both integrators in
lockstep.
"""

from __future__ import annotations

import numpy as np

from repro.cells.equivalent_inverter import EquivalentInverter
from repro.cells.library import Transition
from repro.spice import transient
from repro.spice.stimulus import RampStimulus
from repro.spice.transient import (
    DEFAULT_STEPS,
    TransientResult,
    _extension_steps,
    _phase_steps,
)
from repro.spice.waveform import SLEW_HIGH_THRESHOLD, SLEW_LOW_THRESHOLD, Waveform


def _estimate_window(inverter: EquivalentInverter, sin: float, cload: float,
                     vdd: float) -> float:
    """Heuristic post-ramp window long enough for the output to settle."""
    ieff = np.asarray(inverter.effective_current(vdd), dtype=float)
    ieff_floor = max(float(np.min(ieff)), 1e-9)
    total_cap = cload + float(np.max(np.asarray(inverter.parasitic_cap)))
    intrinsic = total_cap * vdd / ieff_floor
    return 0.5 * sin + transient._WINDOW_MARGIN * max(intrinsic, 1e-13)


def simulate_arc_transition(
    inverter: EquivalentInverter,
    sin: float,
    cload: float,
    vdd: float,
    n_steps: int = DEFAULT_STEPS,
) -> TransientResult:
    """Simulate one switching event of an equivalent inverter.

    Parameters
    ----------
    inverter:
        Equivalent inverter produced by :func:`repro.cells.reduce_cell`
        (possibly carrying per-seed parameter arrays).
    sin, cload, vdd:
        Input transition time (s), external load (F) and supply (V).
    n_steps:
        Number of RK4 steps in the initial window.

    Raises
    ------
    ValueError
        For non-positive ``sin``, ``cload`` or ``vdd``, or ``n_steps < 16``.
    RuntimeError
        If the output fails to complete its transition even after the
        maximum number of window extensions.
    """
    if sin <= 0.0 or cload <= 0.0 or vdd <= 0.0:
        raise ValueError("sin, cload and vdd must all be positive")
    if n_steps < 16:
        raise ValueError("n_steps must be at least 16")

    falling_output = inverter.arc.output_transition is Transition.FALL
    stimulus = RampStimulus(vdd=vdd, slew=sin, rising=falling_output)

    parasitic = np.asarray(inverter.parasitic_cap, dtype=float)
    miller = np.asarray(inverter.miller_cap, dtype=float)
    n_seeds = max(parasitic.size, miller.size, 1)
    parasitic = np.broadcast_to(parasitic, (n_seeds,))
    miller = np.broadcast_to(miller, (n_seeds,))
    total_cap = cload + parasitic

    nmos = inverter.nmos
    pmos = inverter.pmos

    def derivative(t: float, vout: np.ndarray) -> np.ndarray:
        vin = stimulus.voltage(t)
        dvin = stimulus.slope(t)
        vout_clamped = np.clip(vout, -0.2 * vdd, 1.2 * vdd)
        pull_down = nmos.current(vin, vout_clamped)
        pull_up = pmos.current(vdd - vin, vdd - vout_clamped)
        return (pull_up - pull_down + miller * dvin) / total_cap

    initial_value = vdd if falling_output else 0.0
    vout = np.full(n_seeds, initial_value, dtype=float)

    def integrate_chunk(t_begin: float, t_end: float, steps: int,
                        state: np.ndarray) -> tuple:
        """Classical RK4 over [t_begin, t_end]; returns (times, voltages, state)."""
        times = np.linspace(t_begin, t_end, steps + 1)
        dt = times[1] - times[0]
        voltages = np.empty((times.size, n_seeds))
        voltages[0] = state
        for index in range(times.size - 1):
            t = times[index]
            k1 = derivative(t, state)
            k2 = derivative(t + dt / 2.0, state + dt / 2.0 * k1)
            k3 = derivative(t + dt / 2.0, state + dt / 2.0 * k2)
            k4 = derivative(t + dt, state + dt * k3)
            state = state + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            voltages[index + 1] = state
        return times, voltages, state

    # Phase A: the input ramp, ending exactly on a step boundary.
    ramp_steps, tail_steps = _phase_steps(n_steps)
    times, voltages, vout = integrate_chunk(0.0, sin, ramp_steps, vout)
    time_chunks = [times]
    volt_chunks = [voltages]
    t_start = sin

    # Phase B: integrate until every seed completes its transition,
    # extending the window geometrically if needed.
    window = _estimate_window(inverter, sin, cload, vdd)
    for extension in range(transient._MAX_EXTENSIONS):
        chunk_steps = tail_steps if extension == 0 else _extension_steps(tail_steps)
        times, voltages, vout = integrate_chunk(t_start, t_start + window,
                                                chunk_steps, vout)
        time_chunks.append(times[1:])
        volt_chunks.append(voltages[1:])
        if falling_output:
            done = bool(np.all(vout <= 0.5 * SLEW_LOW_THRESHOLD * vdd))
        else:
            done = bool(np.all(vout >= vdd - 0.5 * (1.0 - SLEW_HIGH_THRESHOLD) * vdd))
        t_start = times[-1]
        if done:
            break
        window *= transient._WINDOW_GROWTH
    else:
        raise RuntimeError(
            f"output of {inverter.cell_name} did not complete its transition "
            f"(sin={sin:.3g}s, cload={cload:.3g}F, vdd={vdd:.3g}V); the cell is "
            "likely non-functional at this operating point"
        )

    time_axis = np.concatenate(time_chunks)
    voltage_matrix = np.concatenate(volt_chunks, axis=0)
    return TransientResult(input_waveform=stimulus.waveform(time_axis),
                           output_waveform=Waveform(time_axis, voltage_matrix),
                           vdd=vdd)
