"""Whole-library statistical characterization in one call.

The library-scale view of the paper's flow: learn the cross-technology
priors once, then characterize *every* arc of a standard-cell library --
cells x input pins x output transitions -- through
:func:`repro.core.library_flow.characterize_library`.  The fused pipeline
flattens the whole library into one simulation plan (grouped by
equivalent-inverter signature, deduplicated per operating point) and one
stacked MAP solve per response; the unified ledger shows exactly where the
library's time goes (plan / simulate / extract / solve stages, rows per
signature group).  The resulting :class:`LibraryCharacterization` is
consumed directly:

1. Liberty (.lib) export with NLDM mean tables and LVF-style sigma tables;
2. a per-seed statistical timing view driving deterministic STA and Monte
   Carlo SSTA on the ISCAS-85 C17 benchmark;
3. identical results (and identical simulation-run accounting) whether the
   library runs serially or fanned out over a process pool.

Run with::

    python examples/library_characterization.py [--engine batched|adaptive]

``--engine`` selects the transient integration engine of the simulate
phase (default: the runtime-configured engine, i.e. the fixed-step batched
RK4 unless ``REPRO_TRANSIENT_ENGINE`` says otherwise); the run prints the
engine's step/rejection/RHS-evaluation counts from the unified ledger.
"""

from __future__ import annotations

import argparse
import os
import tempfile
import time

import numpy as np

import repro.runtime as runtime
from repro import (
    RunLedger,
    SimulationCounter,
    characterize_historical_library,
    characterize_library,
    get_technology,
    historical_technologies,
    learn_prior,
    make_cell,
)
from repro.analysis import format_cache_stats, format_ledger, format_table
from repro.cells import StandardCellLibrary, Transition
from repro.liberty import parse_liberty
from repro.sta import MonteCarloSsta, StaticTimingAnalyzer, c17_benchmark, nand_nor_tree


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--engine", choices=runtime.TRANSIENT_ENGINES, default=None,
        help="transient integration engine for the simulate phase: "
             "batched (fixed-step RK4) or adaptive (error-controlled RK45); "
             "default: the runtime-configured engine, else batched")
    args = parser.parse_args()

    start = time.time()
    counter = SimulationCounter()
    target = get_technology("n28_bulk")
    library = StandardCellLibrary(
        "repro_demo", [make_cell(name) for name in ("INV_X1", "NAND2_X1",
                                                    "NOR2_X1")])
    n_seeds = 150

    # ------------------------------------------------------------------
    # Priors from one historical node (kept small so the example is quick).
    # ------------------------------------------------------------------
    historical = [characterize_historical_library(
        historical_technologies(exclude=target.name)[0], list(library),
        counter=counter)]
    delay_prior = learn_prior(historical, response="delay")
    slew_prior = learn_prior(historical, response="slew")
    print(f"Priors learned with {counter.total} simulations")

    # ------------------------------------------------------------------
    # One call characterizes the whole library: every cell, both output
    # transitions, shared seeds, one fused simulation plan, one stacked
    # MAP solve per response.
    # ------------------------------------------------------------------
    t_char = time.time()
    ledger = RunLedger()
    result = characterize_library(
        target, library, delay_prior, slew_prior,
        conditions=4, n_seeds=n_seeds, rng=17, counter=counter,
        ledger=ledger, transient_engine=args.engine)
    fused_seconds = time.time() - t_char
    metrics = ledger.metrics()
    print(f"\nCharacterized {len(result.entries)} arcs of "
          f"{len(result.cell_names())} cells x {result.n_seeds} seeds in "
          f"{fused_seconds:.1f} s "
          f"({result.simulation_runs} simulation runs)")
    print(f"  simulation plan: {metrics.get('fused_rows_simulated', 0)} rows "
          f"in {metrics.get('fused_signature_groups', 0)} signature groups "
          f"({metrics.get('fused_rows_deduplicated', 0)} deduplicated, "
          f"{metrics.get('fused_rows_cached', 0)} cache hits)")
    engine_label = args.engine or runtime.resolve_transient_engine(None)
    print(f"  integration ({engine_label}): "
          f"{metrics.get('transient_steps', 0)} steps taken, "
          f"{metrics.get('transient_steps_rejected', 0)} rejected, "
          f"{metrics.get('transient_rhs_evals', 0)} RHS evaluations")
    if result.unconverged_arcs():
        print(f"  WARNING: unconverged extractions on {result.unconverged_arcs()}")

    # Same fused job fanned out across processes, split on the flat
    # simulation axis: bit-identical results.
    t_par = time.time()
    parallel = characterize_library(
        target, library, delay_prior, slew_prior,
        conditions=4, n_seeds=n_seeds, rng=17, concurrency="process",
        transient_engine=args.engine)
    agree = all(
        np.array_equal(a.statistical.delay_parameters,
                       b.statistical.delay_parameters)
        for a, b in zip(result.entries, parallel.entries))
    print(f"Process fan-out finished in {time.time() - t_par:.1f} s; "
          f"results identical to serial: {agree}")

    # ------------------------------------------------------------------
    # Durable tier: the same run warm-started from disk.  Attaching a
    # DiskStore keeps simulated rows across processes and days; clearing
    # the memory caches models a fresh process, which then refills from
    # the on-disk store instead of re-simulating.
    # ------------------------------------------------------------------
    with tempfile.TemporaryDirectory(prefix="repro_disk_cache_") as disk_dir:
        runtime.configure(disk_cache_dir=disk_dir)
        runtime.clear_all_caches()  # force the seed run to write through
        characterize_library(target, library, delay_prior, slew_prior,
                             conditions=4, n_seeds=n_seeds, rng=17,
                             transient_engine=args.engine)
        runtime.clear_all_caches()  # memory gone; the disk tier survives
        t_warm = time.time()
        warm = characterize_library(target, library, delay_prior, slew_prior,
                                    conditions=4, n_seeds=n_seeds, rng=17,
                                    transient_engine=args.engine)
        warm_seconds = time.time() - t_warm
        agree = all(
            np.array_equal(a.statistical.delay_parameters,
                           b.statistical.delay_parameters)
            for a, b in zip(result.entries, warm.entries))
        stats = runtime.cache_stats()
        print(f"Disk-tier warm start finished in {warm_seconds:.1f} s; "
              f"results identical: {agree} "
              f"({stats['simulation'].disk_hits} disk hits, "
              f"{stats['simulation'].disk_quarantined} quarantined)")
        print("\n" + format_cache_stats(stats, title="Cache tiers after warm start"))
        runtime.configure(disk_cache_dir=None)

    # ------------------------------------------------------------------
    # Liberty export (mean + sigma tables) and round trip.
    # ------------------------------------------------------------------
    liberty_path = os.path.join(tempfile.gettempdir(),
                                f"repro_{target.name}_library.lib")
    result.liberty_writer().write(liberty_path)
    parsed = parse_liberty(open(liberty_path, encoding="utf-8").read())
    arcs = sum(len(cell.arcs) for cell in parsed.cells.values())
    print(f"\nLiberty library written to {liberty_path} "
          f"({len(parsed.cells)} cells / {arcs} timing arcs parsed back)")

    # ------------------------------------------------------------------
    # STA + SSTA straight off the library characterization.
    # ------------------------------------------------------------------
    view = result.timing_view(transition=Transition.FALL)
    rows = []
    for netlist in (c17_benchmark(), nand_nor_tree(8)):
        sta = StaticTimingAnalyzer(netlist, view, primary_input_slew=5e-12,
                                   ledger=ledger).run()
        ssta = MonteCarloSsta(netlist, view, primary_input_slew=5e-12,
                              ledger=ledger).run()
        rows.append([
            netlist.name,
            len(netlist.gates),
            sta.critical_delay * 1e12,
            ssta.summary.mean * 1e12,
            ssta.summary.std * 1e12,
            ssta.summary.quantiles[2] * 1e12,
        ])
    print("\n" + format_table(
        ["circuit", "gates", "STA delay (ps)", "SSTA mean (ps)",
         "SSTA sigma (ps)", "SSTA 99% (ps)"],
        rows,
        title=f"Library-characterized timing at {result.vdd_nominal:.2f} V, 28 nm",
    ))
    # ------------------------------------------------------------------
    # The unified run ledger: stage wall time, simulation runs, solver
    # iterations and runtime-cache activity across everything above.
    # ------------------------------------------------------------------
    print("\n" + format_ledger(ledger, title="Unified run ledger"))
    print(f"\nTotal simulations: {counter.total}")
    print(f"Elapsed          : {time.time() - start:.1f} s")


if __name__ == "__main__":
    main()
