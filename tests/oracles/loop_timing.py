"""Per-gate loop STA and SSTA: the test oracles of the level-batched engines.

Each analyzer visits the netlist's gates one at a time in topological order
and issues one timing-view query per gate (the scalar query for STA, the
per-seed query for SSTA), keeping arrivals and slews in per-net
dictionaries.  None of the compiled engine's machinery -- levelization, the
CSR fanin arrays, the segmented ``np.maximum.reduceat`` reductions, the
batched ``(gates x seeds)`` queries grouped per (level, cell type) -- is
used, so agreement at ``rtol <= 1e-12`` checks that machinery.

What *is* shared is the analyzers' state management: the oracles subclass
the production analyzers and only replace :meth:`_propagate`, so
construction, the precomputed net-load vector, post-mutation refresh and
the ledger stage are the production code paths.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.sta.analysis import MIN_LOAD_F, PathReport, StaticTimingAnalyzer
from repro.sta.ssta import MonteCarloSsta, SstaReport


class LoopStaticTimingAnalyzer(StaticTimingAnalyzer):
    """Deterministic STA with one Python iteration per gate."""

    def _propagate(self) -> PathReport:
        arrivals: Dict[str, float] = {}
        slews: Dict[str, float] = {}
        worst_input_gate: Dict[str, Optional[str]] = {}
        net_index = self._net_index

        for net in self._netlist.primary_inputs:
            arrivals[net] = self._input_arrival
            slews[net] = self._input_slew
            worst_input_gate[net] = None

        for gate in self._netlist.topological_gates():
            input_arrival = max(arrivals[net] for net in gate.input_nets)
            worst_net = max(gate.input_nets, key=lambda net: arrivals[net])
            input_slew = slews[worst_net]
            load = max(float(self._loads[net_index[gate.output_net]]),
                       MIN_LOAD_F)
            delay, output_slew = self._view.gate_timing(gate.cell_name,
                                                        input_slew, load)
            arrivals[gate.output_net] = input_arrival + delay
            slews[gate.output_net] = output_slew
            worst_input_gate[gate.output_net] = gate.name

        critical_output = max(self._netlist.primary_outputs,
                              key=lambda net: arrivals[net])
        path: List[str] = []
        net = critical_output
        while worst_input_gate.get(net) is not None:
            gate_name = worst_input_gate[net]
            path.append(gate_name)
            gate = self._netlist.gate(gate_name)
            net = max(gate.input_nets, key=lambda candidate: arrivals[candidate])
        path.reverse()
        return PathReport(
            arrival_times=arrivals,
            transition_times=slews,
            critical_output=critical_output,
            critical_delay=float(arrivals[critical_output]),
            critical_path=tuple(path),
        )


class LoopMonteCarloSsta(MonteCarloSsta):
    """Monte Carlo SSTA with one Python iteration per gate."""

    def _propagate(self) -> SstaReport:
        n_seeds = self._view.n_seeds
        seed_index = np.arange(n_seeds)
        net_index = self._net_index
        arrivals: Dict[str, np.ndarray] = {}
        slews: Dict[str, np.ndarray] = {}

        for net in self._netlist.primary_inputs:
            arrivals[net] = np.full(n_seeds, self._input_arrival)
            slews[net] = np.full(n_seeds, self._input_slew)

        for gate in self._netlist.topological_gates():
            stacked = np.stack([arrivals[net] for net in gate.input_nets],
                               axis=0)
            input_arrival = stacked.max(axis=0)
            # Seed-wise worst input; each seed's driving slew comes from that
            # seed's own latest-arriving input.
            worst_input = np.argmax(stacked, axis=0)
            slew_stack = np.stack([slews[net] for net in gate.input_nets],
                                  axis=0)
            input_slew = slew_stack[worst_input, seed_index]
            load = max(float(self._loads[net_index[gate.output_net]]),
                       MIN_LOAD_F)
            delay, output_slew = self._view.gate_timing_samples(
                gate.cell_name, input_slew, load)
            arrivals[gate.output_net] = input_arrival + delay
            slews[gate.output_net] = output_slew

        po_names = self._netlist.primary_outputs
        po_samples = np.stack([arrivals[net] for net in po_names], axis=0)
        return self._report(po_names, po_samples)
