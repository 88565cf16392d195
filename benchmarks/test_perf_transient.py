"""Throughput microbenchmark: serial versus batched transient sweeps.

Times the same statistical sweep -- ``REPRO_BENCH_PERF_CONDITIONS`` operating
points x ``REPRO_BENCH_PERF_SEEDS`` Monte Carlo seeds of one NAND2 arc --
through the serial per-condition oracle (``tests/oracles``) and the batched
``(conditions x seeds)`` engine, verifies the two agree to ``rtol <= 1e-9``,
and writes ``BENCH_transient.json`` (wall-clock seconds, conditions/sec,
seeds*steps/sec, speedup) so the performance trajectory is tracked across
PRs.  The simulation cache is bypassed for both timings: this benchmark
measures the integrators, not the memoization.

Runs with plain pytest (no pytest-benchmark fixture) so CI can execute it in
isolation and upload the JSON artifact.
"""

from __future__ import annotations

import platform
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))

from bench_utils import RESULTS_DIR, env_float, env_int  # noqa: E402
from bench_utils import write_json_result  # noqa: E402

from repro import get_technology, make_cell
from repro.cells import reduce_cell_cached
from repro.characterization.input_space import InputSpace
from repro.spice import simulate_arc_transitions
from repro.spice.transient import DEFAULT_STEPS
from tests.oracles.serial_transient import simulate_arc_transition


def test_batched_sweep_throughput(results_dir):
    n_conditions = env_int("REPRO_BENCH_PERF_CONDITIONS", 50)
    n_seeds = env_int("REPRO_BENCH_PERF_SEEDS", 200)
    # The floor is a regression tripwire, not the headline number: wall-clock
    # ratios are noisy on loaded/shared machines, so the default is set well
    # below the ~5x measured on dedicated hardware (see BENCH_transient.json).
    min_speedup = env_float("REPRO_BENCH_PERF_MIN_SPEEDUP", 2.0)
    # Each engine is timed ``repeats`` times and the fastest pass is kept:
    # a single-shot timing under full-suite load once recorded a 2.37x ratio
    # for a sweep that reproduces at ~5x on an idle machine, purely because
    # the serial pass landed on a busy scheduling window.  min-of-N measures
    # the code, not the machine's background load.
    repeats = env_int("REPRO_BENCH_PERF_REPEATS", 3)

    technology = get_technology("n28_bulk")
    cell = make_cell("NAND2_X1")
    variation = technology.variation.sample(n_seeds, rng=42)
    inverter = reduce_cell_cached(cell, technology, variation=variation)

    space = InputSpace(technology)
    conditions = space.sample_lhs(n_conditions, np.random.default_rng(17))
    sin = np.array([c.sin for c in conditions])
    cload = np.array([c.cload for c in conditions])
    vdd = np.array([c.vdd for c in conditions])

    # Warm-up outside the timed regions (first-call numpy/python overheads),
    # for both engines.
    simulate_arc_transitions(inverter, sin[:2], cload[:2], vdd[:2])
    simulate_arc_transition(inverter, sin=float(sin[0]), cload=float(cload[0]),
                            vdd=float(vdd[0]))

    batched_seconds = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        batch = simulate_arc_transitions(inverter, sin, cload, vdd)
        batched_delay = batch.delay()
        batched_slew = batch.output_slew()
        batched_seconds = min(batched_seconds, time.perf_counter() - start)

    serial_seconds = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        serial_delay = np.empty_like(batched_delay)
        serial_slew = np.empty_like(batched_slew)
        for index in range(n_conditions):
            result = simulate_arc_transition(inverter, sin=float(sin[index]),
                                             cload=float(cload[index]),
                                             vdd=float(vdd[index]))
            serial_delay[index] = result.delay()
            serial_slew[index] = result.output_slew()
        serial_seconds = min(serial_seconds, time.perf_counter() - start)

    np.testing.assert_allclose(batched_delay, serial_delay, rtol=1e-9, atol=0.0)
    np.testing.assert_allclose(batched_slew, serial_slew, rtol=1e-9, atol=0.0)

    speedup = serial_seconds / batched_seconds
    payload = {
        "benchmark": "transient_sweep",
        "n_conditions": n_conditions,
        "n_seeds": n_seeds,
        "n_steps_nominal": DEFAULT_STEPS,
        "timing_repeats": repeats,
        "timing_methodology": "best-of-N per engine",
        "serial_seconds": round(serial_seconds, 4),
        "batched_seconds": round(batched_seconds, 4),
        "speedup": round(speedup, 2),
        "batched_conditions_per_sec": round(n_conditions / batched_seconds, 2),
        "serial_conditions_per_sec": round(n_conditions / serial_seconds, 2),
        # Throughput proxy based on the nominal per-condition step count
        # (window extensions add steps, so this undercounts slightly).
        "batched_seed_steps_per_sec": round(
            n_conditions * n_seeds * DEFAULT_STEPS / batched_seconds),
        "serial_seed_steps_per_sec": round(
            n_conditions * n_seeds * DEFAULT_STEPS / serial_seconds),
        "equivalence_rtol": 1e-9,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }
    write_json_result(results_dir / "BENCH_transient.json", payload)

    assert speedup >= min_speedup, (
        f"batched engine only {speedup:.2f}x faster than serial "
        f"(floor {min_speedup}x)"
    )
