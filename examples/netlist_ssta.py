"""Library characterization to batched SSTA on a 5000-gate netlist.

The full production path of the reproduced flow, at scale:

1. learn delay/slew priors from one historical node;
2. statistically characterize the INV/NAND2/NOR2 library at 28 nm with the
   library orchestrator (shared seed batch, batched transient engine,
   batched MAP extraction);
3. export the Liberty view (NLDM mean + LVF sigma tables) and build the
   per-seed statistical timing view;
4. generate a seeded 5000-gate random layered DAG and run deterministic STA
   and Monte Carlo SSTA on it with the level-batched graph engine.

Run with::

    python examples/netlist_ssta.py
"""

from __future__ import annotations

import os
import tempfile
import time

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
from repro.analysis import format_ledger, format_table
from repro.sta import MonteCarloSsta, StaticTimingAnalyzer, random_layered_dag


def main() -> None:
    start = time.time()
    counter = SimulationCounter()
    target = get_technology("n28_bulk")
    cells = [make_cell(name) for name in ("INV_X1", "NAND2_X1", "NOR2_X1")]
    n_seeds = 200

    # ------------------------------------------------------------------
    # Priors and library-scale statistical characterization.
    # ------------------------------------------------------------------
    historical = [characterize_historical_library(
        historical_technologies(exclude=target.name)[0], cells,
        counter=counter)]
    delay_prior = learn_prior(historical, response="delay")
    slew_prior = learn_prior(historical, response="slew")

    ledger = RunLedger()
    library = characterize_library(target, cells, delay_prior, slew_prior,
                                   conditions=4, n_seeds=n_seeds, rng=7,
                                   counter=counter, ledger=ledger)
    print(f"Characterized {len(library.entries)} arcs with "
          f"{library.simulation_runs} simulations ({n_seeds} seeds each)")

    liberty_path = os.path.join(tempfile.gettempdir(),
                                f"repro_{target.name}_ssta.lib")
    library.liberty_writer().write(liberty_path)
    print(f"Liberty library written to {liberty_path}")

    # ------------------------------------------------------------------
    # A 5000-gate synthetic netlist, compiled and levelized.
    # ------------------------------------------------------------------
    netlist = random_layered_dag(width=100, depth=50, window=2, rng=17)
    compiled = netlist.compile()
    print(f"\nNetlist {netlist.name}: {compiled.n_gates} gates, "
          f"{compiled.n_nets} nets, {compiled.n_levels} levels, "
          f"{len(netlist.primary_outputs)} primary outputs")

    view = library.timing_view()

    # Deterministic STA on the ensemble means.
    sta_report = StaticTimingAnalyzer(netlist, view,
                                      primary_input_slew=5e-12).run()
    print(f"STA critical delay: {sta_report.critical_delay * 1e12:.1f} ps "
          f"through {len(sta_report.critical_path)} gates "
          f"to {sta_report.critical_output}")

    # ------------------------------------------------------------------
    # Monte Carlo SSTA on the per-seed ensembles.
    # ------------------------------------------------------------------
    tic = time.perf_counter()
    report = MonteCarloSsta(netlist, view, primary_input_slew=5e-12,
                            ledger=ledger).run()
    elapsed = time.perf_counter() - tic
    summary = report.summary
    print("\n" + format_table(
        ["seconds", "mean (ps)", "sigma (ps)", "99% (ps)", "critical output"],
        [[f"{elapsed:.3f}", f"{summary.mean * 1e12:.1f}",
          f"{summary.std * 1e12:.2f}", f"{summary.quantiles[2] * 1e12:.1f}",
          report.critical_output]],
        title=f"SSTA on {compiled.n_gates} gates x {n_seeds} seeds"))

    ranked = sorted(report.criticality.items(),
                    key=lambda item: item[1], reverse=True)[:5]
    print("Top endpoint criticalities: "
          + ", ".join(f"{net}={prob:.2f}" for net, prob in ranked if prob > 0))
    # The unified run ledger merges the characterization stages with the
    # STA/SSTA runs: wall time per stage, simulation runs, solver iterations,
    # and runtime-cache activity in one record.
    print("\n" + format_ledger(ledger, title="Unified run ledger"))
    print(f"\nTotal simulations: {counter.total}")
    print(f"Elapsed          : {time.time() - start:.1f} s")


if __name__ == "__main__":
    main()
