"""Gate-level static timing analysis (STA / SSTA) on characterized libraries.

Statistical library characterization exists to feed statistical static timing
analysis; this package closes that loop so the examples can demonstrate the
full use case.  It provides gate-level netlists (and their compiled,
levelized array form), a topological STA engine with slew propagation and
capacitive loading derived from the characterized cells, and a Monte Carlo
SSTA variant that consumes the per-seed delay ensembles of the statistical
flow.  Both analyzers run a level-batched engine (one vectorized timing
query per topological level and cell type), and :mod:`repro.sta.synthetic`
generates seeded netlists of arbitrary scale to exercise them.
"""

from repro.sta.netlist import (
    CompiledNetlist,
    Gate,
    Netlist,
    c17_benchmark,
    compile_netlist,
    inverter_chain,
    nand_nor_tree,
)
from repro.sta.synthetic import random_layered_dag, synthetic_chain, synthetic_tree
from repro.sta.timing_view import (
    CellTiming,
    StatisticalTimingView,
    TimingView,
    timing_view_from_characterizers,
    timing_view_from_statistical,
)
from repro.sta.analysis import PathReport, StaticTimingAnalyzer
from repro.sta.ssta import MonteCarloSsta, SstaReport

__all__ = [
    "CellTiming",
    "CompiledNetlist",
    "Gate",
    "MonteCarloSsta",
    "Netlist",
    "PathReport",
    "SstaReport",
    "StaticTimingAnalyzer",
    "StatisticalTimingView",
    "TimingView",
    "c17_benchmark",
    "compile_netlist",
    "inverter_chain",
    "nand_nor_tree",
    "random_layered_dag",
    "synthetic_chain",
    "synthetic_tree",
    "timing_view_from_characterizers",
    "timing_view_from_statistical",
]
