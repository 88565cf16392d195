"""Integration-core microbenchmark: fixed-step RK4 versus adaptive RK45.

Times the same statistical sweep -- ``REPRO_BENCH_INTEG_CONDITIONS``
operating points x ``REPRO_BENCH_INTEG_SEEDS`` Monte Carlo seeds of one
NAND2 arc -- through the lockstep integrator's fixed-step RK4 and
error-controlled RK45 tableaus (:mod:`repro.spice.transient`) at the default
``rtol = 1e-9``, and writes ``BENCH_integrator.json`` (wall-clock seconds,
step/rejection/RHS-evaluation counts from each engine's
:class:`~repro.spice.stepper.IntegrationStats`, speedup and RHS-cost ratio).

Accuracy is asserted against a fine fixed-step reference (the fixed engine
converges monotonically to the adaptive answer as steps increase, so direct
adaptive-versus-RK4-at-400-steps comparison would measure the *fixed*
engine's discretization error): on a subset of conditions the adaptive
result must be at least as close to a 64x-refined reference as the nominal
fixed-step result is.

Both engines are timed best-of-N (``REPRO_BENCH_INTEG_REPEATS``) so the
recorded ratio measures the integrators, not background machine load.
"""

from __future__ import annotations

import platform
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))

from bench_utils import env_float, env_int  # noqa: E402
from bench_utils import write_json_result  # noqa: E402

from repro import get_technology, make_cell
from repro.cells import reduce_cell_cached
from repro.characterization.input_space import InputSpace
from repro.spice import StepperSpec, simulate_arc_transitions
from repro.spice.transient import DEFAULT_STEPS


def test_adaptive_integrator_throughput(results_dir):
    n_conditions = env_int("REPRO_BENCH_INTEG_CONDITIONS", 50)
    n_seeds = env_int("REPRO_BENCH_INTEG_SEEDS", 200)
    repeats = env_int("REPRO_BENCH_INTEG_REPEATS", 3)
    # Floors are regression tripwires.  The RHS-evaluation ratio is a
    # deterministic property of the two schemes on this workload (~4x), so
    # its floor is tight; the wall-clock ratio is noisier.
    min_rhs_ratio = env_float("REPRO_BENCH_INTEG_MIN_RHS_RATIO", 3.0)
    min_speedup = env_float("REPRO_BENCH_INTEG_MIN_SPEEDUP", 2.0)

    technology = get_technology("n28_bulk")
    cell = make_cell("NAND2_X1")
    variation = technology.variation.sample(n_seeds, rng=42)
    inverter = reduce_cell_cached(cell, technology, variation=variation)

    space = InputSpace(technology)
    conditions = space.sample_lhs(n_conditions, np.random.default_rng(17))
    sin = np.array([c.sin for c in conditions])
    cload = np.array([c.cload for c in conditions])
    vdd = np.array([c.vdd for c in conditions])

    stepper = StepperSpec.for_engine("adaptive")

    # Warm-up outside the timed regions (first-call numpy/python overheads).
    simulate_arc_transitions(inverter, sin[:2], cload[:2], vdd[:2])
    simulate_arc_transitions(inverter, sin[:2], cload[:2], vdd[:2],
                             stepper=stepper)

    fixed_seconds = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fixed = simulate_arc_transitions(inverter, sin, cload, vdd)
        fixed_delay = fixed.delay()
        fixed_slew = fixed.output_slew()
        fixed_seconds = min(fixed_seconds, time.perf_counter() - start)

    adaptive_seconds = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        adaptive = simulate_arc_transitions(inverter, sin, cload, vdd,
                                            stepper=stepper)
        adaptive_delay = adaptive.delay()
        adaptive_slew = adaptive.output_slew()
        adaptive_seconds = min(adaptive_seconds, time.perf_counter() - start)

    # ------------------------------------------------------------------
    # Accuracy: both engines against a 64x-refined fixed-step reference on
    # a subset of conditions (the reference is the expensive part).
    # ------------------------------------------------------------------
    n_acc = min(env_int("REPRO_BENCH_INTEG_ACC_CONDITIONS", 8), n_conditions)
    n_acc_seeds = min(env_int("REPRO_BENCH_INTEG_ACC_SEEDS", 25), n_seeds)
    acc_variation = technology.variation.sample(n_acc_seeds, rng=42)
    acc_inverter = reduce_cell_cached(cell, technology,
                                      variation=acc_variation)
    reference = simulate_arc_transitions(
        acc_inverter, sin[:n_acc], cload[:n_acc], vdd[:n_acc],
        n_steps=64 * DEFAULT_STEPS)
    ref_delay = reference.delay()

    acc_fixed = simulate_arc_transitions(
        acc_inverter, sin[:n_acc], cload[:n_acc], vdd[:n_acc])
    acc_adaptive = simulate_arc_transitions(
        acc_inverter, sin[:n_acc], cload[:n_acc], vdd[:n_acc],
        stepper=stepper)
    fixed_error = float(np.max(np.abs(acc_fixed.delay() / ref_delay - 1.0)))
    adaptive_error = float(
        np.max(np.abs(acc_adaptive.delay() / ref_delay - 1.0)))

    speedup = fixed_seconds / adaptive_seconds
    rhs_ratio = fixed.stats.rhs_evals / adaptive.stats.rhs_evals
    payload = {
        "benchmark": "integrator",
        "n_conditions": n_conditions,
        "n_seeds": n_seeds,
        "timing_repeats": repeats,
        "timing_methodology": "best-of-N per engine",
        "fixed_seconds": round(fixed_seconds, 4),
        "adaptive_seconds": round(adaptive_seconds, 4),
        "speedup": round(speedup, 2),
        "fixed_steps": fixed.stats.steps_taken,
        "adaptive_steps": adaptive.stats.steps_taken,
        "adaptive_steps_rejected": adaptive.stats.steps_rejected,
        "fixed_rhs_evals": fixed.stats.rhs_evals,
        "adaptive_rhs_evals": adaptive.stats.rhs_evals,
        "rhs_eval_ratio": round(rhs_ratio, 2),
        "rtol": stepper.rtol,
        "atol_fraction": stepper.atol_frac,
        "reference_steps": 64 * DEFAULT_STEPS,
        "fixed_max_rel_delay_error": fixed_error,
        "adaptive_max_rel_delay_error": adaptive_error,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }
    write_json_result(results_dir / "BENCH_integrator.json", payload)

    # The crossing-time extraction differs between the engines (dense Hermite
    # output versus linear interpolation on the fine fixed grid), so the
    # adaptive error carries a small extraction-level floor; the margin
    # accepts that while still failing if step control ever loses accuracy.
    assert adaptive_error <= fixed_error * 1.05 + 1e-6, (
        f"adaptive delay error {adaptive_error:.2e} worse than fixed-step "
        f"error {fixed_error:.2e} against the refined reference")
    assert rhs_ratio >= min_rhs_ratio, (
        f"adaptive engine only saves {rhs_ratio:.2f}x RHS evaluations "
        f"(floor {min_rhs_ratio}x)")
    assert speedup >= min_speedup, (
        f"adaptive engine only {speedup:.2f}x faster than fixed-step "
        f"(floor {min_speedup}x)")
