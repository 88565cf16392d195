"""Fleet-scale prior-learning benchmark: batched Gaussian BP versus the loop oracle.

Cross-node prior learning runs one technology-star belief propagation per
(response x arc class).  A realistic multi-node library fleet stacks
hundreds of such graphs -- ``REPRO_BENCH_PRIORS_CLASSES`` arc classes x 2
responses, each a star over ``REPRO_BENCH_PRIORS_NODES`` historical nodes
-- and this benchmark times on exactly that workload

* the loop oracle (``run_loop`` in ``tests/oracles/scalar_bp.py``): the
  scalar message loop once per stacked graph (the pre-batching cost model
  -- B Python sweeps of small dense solves);
* :class:`repro.bayes.factor_graph.BatchedFactorGraph`: all B graphs
  advanced together, one batched ``np.linalg.solve`` per message update.

Both run the identical message schedule, so their beliefs are compared at
``rtol <= 1e-9`` before any timing is trusted.  A second, smaller section
runs the fused historical-characterization engine on a footprint-twin cell
set against the per-arc oracle and records the planner's dedup/cache
accounting,
tying the ``BENCH_priors.json`` record to the same
:class:`~repro.core.simulation_plan.SimulationPlan` the library pipeline
uses.  Results land in ``BENCH_priors.json`` and are folded into
``speedup_summary.txt``.
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
from repro.bayes import BatchedFactorGraph, GaussianDensity
from repro.cells.library import Transition
from repro.core.prior_learning import (
    characterize_historical_library,
    shared_reference_conditions,
)
from repro.core.timing_model import N_PARAMETERS
from repro.runtime.accounting import RunLedger
from repro.spice.testbench import get_simulation_cache
from tests.oracles.per_arc import characterize_historical_per_arc
from tests.oracles.scalar_bp import run_loop


def fleet_star(n_nodes: int, n_graphs: int, rng: np.random.Generator
               ) -> BatchedFactorGraph:
    """One stacked technology star per (arc class, response).

    Evidence mimics learned per-class parameter means: small per-node
    scatter around a plausible four-parameter vector, standard-error-of-
    the-mean covariances, and a per-graph technology-drift link.
    """
    anchor = np.array([0.4, 1.4, -0.3, 0.08])
    leaves = {}
    for node in range(n_nodes):
        densities = []
        for _graph in range(n_graphs):
            mean = anchor + rng.normal(scale=0.05, size=N_PARAMETERS)
            root = rng.normal(scale=0.02, size=(N_PARAMETERS, N_PARAMETERS))
            covariance = root @ root.T + 1e-4 * np.eye(N_PARAMETERS)
            densities.append(GaussianDensity(mean, covariance))
        leaves[f"node{node}"] = densities
    drift_root = rng.normal(scale=0.03,
                            size=(n_graphs, N_PARAMETERS, N_PARAMETERS))
    drift = (np.matmul(drift_root, drift_root.swapaxes(1, 2))
             + 1e-4 * np.eye(N_PARAMETERS))
    return BatchedFactorGraph.star("global", leaves, drift)


def test_batched_prior_bp_throughput(results_dir):
    n_nodes = env_int("REPRO_BENCH_PRIORS_NODES", 8)
    n_classes = env_int("REPRO_BENCH_PRIORS_CLASSES", 50)
    min_speedup = env_float("REPRO_BENCH_PRIORS_MIN_SPEEDUP", 3.0)
    n_graphs = 2 * n_classes  # delay + slew per arc class

    rng = np.random.default_rng(77)
    graph = fleet_star(n_nodes, n_graphs, rng)

    # Warm-up engine and oracle outside the timed regions (first-call numpy
    # overheads, BLAS thread spin-up).
    warm = fleet_star(n_nodes, 4, np.random.default_rng(5))
    warm.run_belief_propagation()
    run_loop(warm)

    start = time.perf_counter()
    loop_beliefs = run_loop(graph)
    loop_seconds = time.perf_counter() - start

    start = time.perf_counter()
    batched_beliefs, info = graph.run_belief_propagation(return_info=True)
    batched_seconds = time.perf_counter() - start

    # Equivalence gate: identical message schedule, rtol <= 1e-9.
    for name in graph.variables():
        np.testing.assert_allclose(batched_beliefs[name].mean,
                                   loop_beliefs[name].mean, rtol=1e-9)
        np.testing.assert_allclose(batched_beliefs[name].covariance,
                                   loop_beliefs[name].covariance, rtol=1e-9)
    assert bool(np.all(info.converged))

    # Fused historical characterization on footprint twins: the PR-5
    # simulation planner dedups twin rows and fills the shared cache.
    import dataclasses

    conditions = shared_reference_conditions(8, rng=3)
    base = make_cell("INV_X1")
    twins = [dataclasses.replace(base, name=f"INV_X1_C{index}")
             for index in range(4)]
    technology = get_technology("n28_bulk")

    get_simulation_cache().clear()
    start = time.perf_counter()
    legacy = characterize_historical_per_arc(
        technology, twins, conditions, transitions=(Transition.FALL,))
    legacy_seconds = time.perf_counter() - start

    get_simulation_cache().clear()
    ledger = RunLedger()
    start = time.perf_counter()
    fused = characterize_historical_library(
        technology, twins, unit_conditions=conditions,
        transitions=(Transition.FALL,), ledger=ledger)
    fused_seconds = time.perf_counter() - start
    get_simulation_cache().clear()

    metrics = ledger.metrics()
    assert metrics["priors_rows_deduplicated"] > 0
    assert fused.simulation_runs == legacy.simulation_runs
    for a, b in zip(legacy.arc_fits, fused.arc_fits):
        np.testing.assert_allclose(b.delay_fit.params.as_array(),
                                   a.delay_fit.params.as_array(),
                                   rtol=1e-4, atol=1e-9)

    speedup = loop_seconds / batched_seconds
    payload = {
        "benchmark": "prior_learning_bp",
        "n_nodes": n_nodes,
        "n_arc_classes": n_classes,
        "n_responses": 2,
        "n_stacked_graphs": n_graphs,
        "loop_seconds": round(loop_seconds, 4),
        "batched_seconds": round(batched_seconds, 4),
        "speedup": round(speedup, 2),
        "loop_graphs_per_sec": round(n_graphs / loop_seconds, 1),
        "batched_graphs_per_sec": round(n_graphs / batched_seconds, 1),
        "bp_sweeps_max": int(info.iterations.max()),
        "equivalence_rtol": 1e-9,
        "fused_historical": {
            "n_cells": len(twins),
            "n_conditions": int(conditions.shape[0]),
            "legacy_seconds": round(legacy_seconds, 4),
            "fused_seconds": round(fused_seconds, 4),
            "rows_total": metrics["priors_rows_total"],
            "rows_simulated": metrics["priors_rows_simulated"],
            "rows_deduplicated": metrics["priors_rows_deduplicated"],
            "signature_groups": metrics["priors_signature_groups"],
        },
        "python": platform.python_version(),
        "machine": platform.machine(),
    }
    write_json_result(results_dir / "BENCH_priors.json", payload)

    assert speedup >= min_speedup, (
        f"batched prior-learning BP only {speedup:.2f}x faster than the "
        f"scalar loop (floor {min_speedup}x)"
    )
