"""Transistor-level transient circuit simulation.

This package is the reproduction's stand-in for the HSPICE + BSIM design-kit
simulations of the paper.  It integrates the output-node differential
equation of an equivalent inverter driven by a voltage ramp, vectorized over
Monte Carlo process seeds, and measures propagation delay and output
transition time from the resulting waveforms.

Layering note: this package sits *below* :mod:`repro.characterization`; it
speaks plain ``(sin, cload, vdd)`` floats rather than the higher-level
``InputCondition`` objects.
"""

from repro.spice.waveform import (
    DELAY_THRESHOLD,
    SLEW_DERATE,
    SLEW_HIGH_THRESHOLD,
    SLEW_LOW_THRESHOLD,
    Waveform,
    WaveformBatch,
)
from repro.spice.stimulus import RampStimulus
from repro.spice.transient import (
    BatchTransientResult,
    TransientResult,
    simulate_arc_transitions,
)
from repro.spice.stepper import (
    DEFAULT_ATOL_FRAC,
    DEFAULT_RTOL,
    IntegrationStats,
    StepperSpec,
)
from repro.spice.testbench import (
    SimulationCache,
    SimulationCounter,
    TimingMeasurement,
    characterize_arc,
    characterize_cell_nominal,
    get_simulation_cache,
)
from repro.spice.sweep import sweep_conditions

__all__ = [
    "BatchTransientResult",
    "DEFAULT_ATOL_FRAC",
    "DEFAULT_RTOL",
    "DELAY_THRESHOLD",
    "IntegrationStats",
    "RampStimulus",
    "StepperSpec",
    "SLEW_DERATE",
    "SLEW_HIGH_THRESHOLD",
    "SLEW_LOW_THRESHOLD",
    "SimulationCache",
    "SimulationCounter",
    "TimingMeasurement",
    "TransientResult",
    "Waveform",
    "WaveformBatch",
    "characterize_arc",
    "characterize_cell_nominal",
    "get_simulation_cache",
    "simulate_arc_transitions",
    "sweep_conditions",
]
