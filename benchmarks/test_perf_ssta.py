"""Throughput microbenchmark: loop oracle versus the level-batched SSTA engine.

After the batched transient engine (``BENCH_transient.json``) and the
batched MAP solver (``BENCH_map.json``) removed the characterization
bottlenecks, the downstream consumer -- Monte Carlo SSTA over a gate-level
netlist -- became the dominant wall-clock term at library scale.  This
benchmark isolates the timing-graph traversal on a seeded random layered DAG
of ``REPRO_BENCH_SSTA_WIDTH x REPRO_BENCH_SSTA_DEPTH`` gates with
``REPRO_BENCH_SSTA_SEEDS`` Monte Carlo seeds and times

* the loop oracle: one Python iteration and one per-seed timing query per
  gate (``LoopMonteCarloSsta`` in ``tests/oracles/loop_timing.py``);
* the batched engine: compiled netlist, per-level segmented
  ``np.maximum.reduceat`` reductions, one ``(gates x seeds)`` vectorized
  compact-model query per (level, cell type) group.

The timing view is backed by real per-seed
:class:`~repro.core.statistical_flow.StatisticalCharacterization` objects
(seed-vectorized equivalent inverters of the 28 nm node with synthetic
parameter ensembles -- no simulations, so the benchmark measures graph
traversal, not characterization).  Engine equivalence is asserted at
``rtol <= 1e-9`` and the result lands in ``BENCH_ssta.json`` next to the
other two stage benchmarks, so all three layers of the flow are tracked
across PRs.
"""

from __future__ import annotations

import platform
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))

from bench_utils import env_float, env_int, write_json_result  # noqa: E402

from repro import get_technology, make_cell
from repro.cells import reduce_cell_cached
from repro.characterization.input_space import InputCondition
from repro.core.statistical_flow import StatisticalCharacterization
from repro.sta import MonteCarloSsta, random_layered_dag, timing_view_from_statistical
from tests.oracles.loop_timing import LoopMonteCarloSsta

#: Plausible 28 nm compact-model parameters (kd, Cpar fF, V', alpha fF/ps)
#: per cell, jittered per seed below.
_BASE_PARAMETERS = {
    "INV_X1": np.array([0.42, 1.0, -0.22, 0.12]),
    "NAND2_X1": np.array([0.48, 1.3, -0.20, 0.15]),
    "NOR2_X1": np.array([0.55, 1.5, -0.18, 0.17]),
}


def _synthetic_library_view(n_seeds: int, vdd: float):
    technology = get_technology("n28_bulk")
    variation = technology.variation.sample(n_seeds, rng=42)
    rng = np.random.default_rng(7)
    characterizations = {}
    input_caps = {}
    for cell_name, base in _BASE_PARAMETERS.items():
        cell = make_cell(cell_name)
        inverter = reduce_cell_cached(cell, technology, variation=variation)
        spread = np.array([0.02, 0.06, 0.01, 0.015])
        characterizations[cell_name] = StatisticalCharacterization(
            cell_name=cell_name, arc_name="bench_arc",
            delay_parameters=base + rng.normal(0.0, 1.0, (n_seeds, 4)) * spread,
            slew_parameters=(base * 0.8
                             + rng.normal(0.0, 1.0, (n_seeds, 4)) * spread),
            inverter=inverter,
            fitting_conditions=(InputCondition(5e-12, 2e-15, vdd),),
            simulation_runs=0)
        input_caps[cell_name] = float(np.mean(np.asarray(inverter.input_cap)))
    return timing_view_from_statistical(characterizations, input_caps, vdd=vdd)


def test_batched_ssta_graph_throughput(results_dir):
    width = env_int("REPRO_BENCH_SSTA_WIDTH", 100)
    depth = env_int("REPRO_BENCH_SSTA_DEPTH", 50)
    n_seeds = env_int("REPRO_BENCH_SSTA_SEEDS", 200)
    # Regression tripwire below the dedicated-hardware numbers recorded in
    # BENCH_ssta.json (shared CI runners are noisy).
    min_speedup = env_float("REPRO_BENCH_SSTA_MIN_SPEEDUP", 5.0)

    view = _synthetic_library_view(n_seeds, vdd=0.9)
    netlist = random_layered_dag(width=width, depth=depth, window=2, rng=17)
    n_gates = len(netlist.gates)

    # Warm-up: compile cache, numpy first-call overheads, engine and oracle.
    small = random_layered_dag(width=8, depth=4, rng=1)
    LoopMonteCarloSsta(small, view).run()
    MonteCarloSsta(small, view).run()
    netlist.compile()

    # Best-of-N wall clock each (min filters scheduler noise; the loop
    # oracle gets fewer repetitions because each one is long).
    loop_seconds = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        loop_report = LoopMonteCarloSsta(netlist, view).run()
        loop_seconds = min(loop_seconds, time.perf_counter() - start)

    batched_seconds = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        batched_report = MonteCarloSsta(netlist, view).run()
        batched_seconds = min(batched_seconds, time.perf_counter() - start)

    # Engine and oracle must produce the same distribution, path ranking and
    # criticality (the tight grid lives in tests/test_batch_sta.py).
    assert batched_report.critical_output == loop_report.critical_output
    np.testing.assert_allclose(batched_report.delay_samples,
                               loop_report.delay_samples, rtol=1e-9)
    # Criticality fractions are quantized to 1/n_seeds; allow one near-tie
    # argmax flip within the delay tolerance above.
    for net, probability in loop_report.criticality.items():
        assert abs(batched_report.criticality[net] - probability) <= 1.0 / n_seeds

    speedup = loop_seconds / batched_seconds
    compiled = netlist.compile()
    payload = {
        "benchmark": "ssta_graph",
        "n_gates": n_gates,
        "n_levels": int(compiled.n_levels),
        "n_seeds": n_seeds,
        "width": width,
        "depth": depth,
        "loop_seconds": round(loop_seconds, 4),
        "batched_seconds": round(batched_seconds, 4),
        "speedup": round(speedup, 2),
        "loop_gate_evals_per_sec": round(n_gates / loop_seconds, 1),
        "batched_gate_evals_per_sec": round(n_gates / batched_seconds, 1),
        "critical_output": batched_report.critical_output,
        "critical_delay_mean_ps": round(batched_report.summary.mean * 1e12, 3),
        "critical_delay_sigma_ps": round(batched_report.summary.std * 1e12, 3),
        "equivalence_rtol": 1e-9,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }
    write_json_result(results_dir / "BENCH_ssta.json", payload)

    assert speedup >= min_speedup, (
        f"batched SSTA graph engine only {speedup:.2f}x faster than the loop "
        f"oracle (floor {min_speedup}x)"
    )
