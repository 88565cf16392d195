"""Library-scale throughput benchmark: fused pipeline versus the per-arc oracle.

The fused pipeline of :func:`repro.core.library_flow.characterize_library`
is the last big per-Python-loop consolidation of the flow: instead of one
RK4 pass and two MAP solves *per arc*, the whole library runs a handful of
signature-grouped mega-batched RK4 passes and exactly two stacked MAP
solves.  This benchmark measures that consolidation on a realistic workload:

* a synthetic library of ``REPRO_BENCH_LIB_CELLS`` cells (cycling over
  catalog templates and renamed per index, the footprint-twin shape of real
  libraries) x 2 output transitions per cell;
* ``REPRO_BENCH_LIB_SEEDS`` Monte Carlo seeds and one shared grid of
  ``REPRO_BENCH_LIB_CONDITIONS`` fitting conditions (the standard NLDM
  setup: every arc is characterized on the same slew/load/supply points,
  which is exactly where the fused planner's physical-row dedup pays off --
  footprint twins on a shared grid are the same simulation);
* the fused pipeline and the per-arc oracle
  (``tests/oracles/per_arc.py``, the pre-fusion flow) both run on a cold
  simulation cache (so both genuinely simulate), equivalence asserted at
  ``rtol <= 1e-9`` together with identical simulation accounting.

The wall-clock ratio must clear ``REPRO_BENCH_LIB_MIN_SPEEDUP`` and the
record lands in ``BENCH_library.json`` (full-size numbers on dedicated
hardware; CI runs this shrunken with a conservative floor).
"""

from __future__ import annotations

import dataclasses
import platform
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))

from bench_utils import env_float, env_int, write_json_result  # noqa: E402

import repro.runtime as runtime
from repro import RunLedger, SimulationCounter, get_technology, make_cell
from repro.analysis import format_ledger
from repro.cells.library import StandardCellLibrary
from repro.characterization.input_space import InputSpace
from repro.core.library_flow import characterize_library
from repro.core.prior_learning import (
    characterize_historical_library,
    learn_prior,
)
from repro.spice.testbench import get_simulation_cache
from tests.oracles.per_arc import characterize_library_per_arc

#: Catalog templates the synthetic library cycles over; drive-strength
#: variants keep several distinct device signatures in the mix.
_TEMPLATES = ("INV_X1", "NAND2_X1", "NOR2_X1", "INV_X2", "NAND2_X2",
              "NOR2_X2")


def synthetic_library(n_cells: int) -> StandardCellLibrary:
    """``n_cells`` renamed template copies (footprint twins at library scale)."""
    cells = []
    for index in range(n_cells):
        base = make_cell(_TEMPLATES[index % len(_TEMPLATES)])
        cells.append(dataclasses.replace(base, name=f"{base.name}_C{index:03d}"))
    return StandardCellLibrary(f"bench_{n_cells}cells", cells)


def test_fused_library_throughput(results_dir):
    n_cells = env_int("REPRO_BENCH_LIB_CELLS", 20)
    n_seeds = env_int("REPRO_BENCH_LIB_SEEDS", 200)
    conditions = env_int("REPRO_BENCH_LIB_CONDITIONS", 4)
    # Regression tripwire; dedicated-hardware numbers are recorded in
    # BENCH_library.json and are substantially higher.
    min_speedup = env_float("REPRO_BENCH_LIB_MIN_SPEEDUP", 3.0)

    technology = get_technology("n28_bulk")
    library = synthetic_library(n_cells)
    historical = [characterize_historical_library(
        get_technology("n45_bulk"),
        [make_cell(name) for name in ("INV_X1", "NAND2_X1", "NOR2_X1")])]
    delay_prior = learn_prior(historical, response="delay")
    slew_prior = learn_prior(historical, response="slew")
    get_simulation_cache()  # instantiate so clear_all_caches covers it
    # One shared fitting grid for the whole library (the NLDM convention).
    condition_grid = InputSpace(technology).sample_lhs(
        conditions, np.random.default_rng(23))

    def run(flow):
        # Every registered cache (simulation, reduction, ieff, ...) starts
        # cold for both flows, so neither inherits state the other paid to
        # build.
        runtime.clear_all_caches()
        counter = SimulationCounter()
        ledger = RunLedger()
        start = time.perf_counter()
        result = flow(
            technology, library, delay_prior, slew_prior,
            conditions=condition_grid, n_seeds=n_seeds, rng=17,
            counter=counter, ledger=ledger)
        return result, counter, ledger, time.perf_counter() - start

    per_arc, per_arc_counter, _, per_arc_seconds = run(
        characterize_library_per_arc)
    fused, fused_counter, fused_ledger, fused_seconds = run(
        characterize_library)

    # ------------------------------------------------------------------
    # Equivalence and identical accounting.
    # ------------------------------------------------------------------
    assert len(fused.entries) == len(per_arc.entries)
    for a, b in zip(per_arc.entries, fused.entries):
        assert a.arc.name == b.arc.name
        np.testing.assert_allclose(b.statistical.delay_parameters,
                                   a.statistical.delay_parameters, rtol=1e-9)
        np.testing.assert_allclose(b.statistical.slew_parameters,
                                   a.statistical.slew_parameters, rtol=1e-9)
    assert fused.simulation_runs == per_arc.simulation_runs
    assert fused_counter.total == per_arc_counter.total
    assert fused_counter.by_label() == per_arc_counter.by_label()

    speedup = per_arc_seconds / max(fused_seconds, 1e-12)
    n_arcs = len(fused.entries)
    metrics = fused_ledger.metrics()
    group_sizes = fused_ledger.group_sizes().get("fused:signature_rows", [])

    print(f"\nLibrary: {n_cells} cells / {n_arcs} arcs x {n_seeds} seeds x "
          f"{conditions} conditions")
    print(f"per-arc oracle  : {per_arc_seconds:.3f} s")
    print(f"fused pipeline  : {fused_seconds:.3f} s  ({speedup:.1f}x, "
          f"{metrics.get('fused_signature_groups', 0)} signature groups)")
    print("\n" + format_ledger(fused_ledger, title="Fused run ledger"))

    payload = {
        "benchmark": "library_fused_pipeline",
        "n_cells": n_cells,
        "n_arcs": n_arcs,
        "n_seeds": n_seeds,
        "n_conditions": conditions,
        "per_arc_seconds": round(per_arc_seconds, 4),
        "fused_seconds": round(fused_seconds, 4),
        "speedup": round(speedup, 3),
        "signature_groups": int(metrics.get("fused_signature_groups", 0)),
        "group_rows_max": int(max(group_sizes)) if group_sizes else 0,
        "simulated_rows": int(metrics.get("fused_rows_simulated", 0)),
        "deduplicated_rows": int(metrics.get("fused_rows_deduplicated", 0)),
        "simulation_runs": int(fused.simulation_runs),
        "stage_seconds": {
            name: round(entry["wall_s"], 4)
            for name, entry in fused_ledger.stages().items()
            if name.startswith("fused:")
        },
        "equivalence_rtol": 1e-9,
        "min_speedup_asserted": min_speedup,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }
    write_json_result(results_dir / "BENCH_library.json", payload)

    assert speedup >= min_speedup, (
        f"fused pipeline speedup {speedup:.2f}x below the "
        f"{min_speedup:.1f}x floor")
