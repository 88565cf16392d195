"""Scalar Gaussian belief propagation: the test oracle of the batched engine.

:class:`GaussianFactorGraph` runs one factor graph with a plain Python loop
over factors -- one small ``np.linalg.solve`` per message, messages held in
dictionaries of per-edge :class:`_Message` objects.  :func:`run_loop` builds
one such graph per stacked graph of a
:class:`~repro.bayes.factor_graph.BatchedFactorGraph` and runs them one by
one; it has the signature of
:meth:`~repro.bayes.factor_graph.BatchedFactorGraph.run_belief_propagation`
(without ``return_info``/``on_divergence``), so tests can also patch it in
as that method and run a whole production flow on the loop.

The message schedule is the batched engine's (sequential factor sweeps in
registration order, damping blended per message), so the two agree to
``rtol <= 1e-12``.  What is shared is the noise-precision inversion and the
jitter constant, read from :mod:`repro.bayes.factor_graph`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.bayes.factor_graph import (
    _JITTER,
    BatchedFactorGraph,
    _noise_precision_from_covariance,
)
from repro.bayes.gaussian import GaussianBatch, GaussianDensity


@dataclass
class _Message:
    """A Gaussian message in information form."""

    precision: np.ndarray
    shift: np.ndarray

    @classmethod
    def zero(cls, dim: int) -> "_Message":
        return cls(np.zeros((dim, dim)), np.zeros(dim))

    def copy(self) -> "_Message":
        return _Message(self.precision.copy(), self.shift.copy())


@dataclass(frozen=True)
class _Evidence:
    """Unary factor: a Gaussian potential on one variable."""

    variable: str
    precision: np.ndarray
    shift: np.ndarray


@dataclass(frozen=True)
class _Smoothness:
    """Pairwise factor: ``var_b = var_a + noise`` with the given noise precision."""

    name: str
    variable_a: str
    variable_b: str
    noise_precision: np.ndarray


class GaussianFactorGraph:
    """A factor graph over vector-valued Gaussian variables."""

    def __init__(self) -> None:
        self._dims: Dict[str, int] = {}
        self._evidence: List[_Evidence] = []
        self._smoothness: List[_Smoothness] = []
        # Per-variable factor adjacency, in factor-registration order.
        self._adjacency: Dict[str, List[_Smoothness]] = {}

    def add_variable(self, name: str, dim: int) -> None:
        """Declare a variable node of the given dimensionality."""
        if dim < 1:
            raise ValueError("variable dimension must be at least 1")
        if name in self._dims:
            raise ValueError(f"variable {name!r} already exists")
        self._dims[name] = int(dim)
        self._adjacency[name] = []

    def _require_variable(self, name: str) -> int:
        if name not in self._dims:
            raise KeyError(f"unknown variable {name!r}; declare it with add_variable")
        return self._dims[name]

    def add_evidence(self, variable: str, density: GaussianDensity) -> None:
        """Attach a Gaussian evidence (unary) factor to a variable."""
        dim = self._require_variable(variable)
        if density.dim != dim:
            raise ValueError(
                f"evidence for {variable!r} has dimension {density.dim}, expected {dim}")
        precision, shift = density.to_information()
        self._evidence.append(_Evidence(variable, precision, shift))

    def add_smoothness(self, variable_a: str, variable_b: str,
                       noise_covariance: np.ndarray,
                       name: Optional[str] = None) -> None:
        """Link two variables with ``var_b = var_a + N(0, noise_covariance)``."""
        dim_a = self._require_variable(variable_a)
        dim_b = self._require_variable(variable_b)
        if dim_a != dim_b:
            raise ValueError("linked variables must share a dimension")
        noise_covariance = np.asarray(noise_covariance, dtype=float)
        if noise_covariance.ndim == 1:
            noise_covariance = np.diag(noise_covariance)
        if noise_covariance.shape != (dim_a, dim_a):
            raise ValueError("noise covariance has the wrong shape")
        self._register_smoothness(_Smoothness(
            name or f"{variable_a}~{variable_b}", variable_a, variable_b,
            _noise_precision_from_covariance(noise_covariance, dim_a)))

    def _register_smoothness(self, factor: _Smoothness) -> None:
        self._smoothness.append(factor)
        self._adjacency[factor.variable_a].append(factor)
        if factor.variable_b != factor.variable_a:
            self._adjacency[factor.variable_b].append(factor)

    def run_belief_propagation(self, max_iterations: int = 100,
                               tolerance: float = 1e-10,
                               damping: float = 0.0) -> Dict[str, GaussianDensity]:
        """Run sum-product message passing and return per-variable beliefs."""
        if not (0.0 <= damping < 1.0):
            raise ValueError("damping must be in [0, 1)")

        unary: Dict[str, _Message] = {
            name: _Message.zero(dim) for name, dim in self._dims.items()}
        for evidence in self._evidence:
            message = unary[evidence.variable]
            message.precision += evidence.precision
            message.shift += evidence.shift

        messages: Dict[Tuple[str, str], _Message] = {}
        for factor in self._smoothness:
            for target in (factor.variable_a, factor.variable_b):
                messages[(factor.name, target)] = _Message.zero(self._dims[target])

        converged = not self._smoothness
        for _ in range(max_iterations):
            max_change = 0.0
            for factor in self._smoothness:
                for source, target in ((factor.variable_a, factor.variable_b),
                                       (factor.variable_b, factor.variable_a)):
                    incoming = self._incoming(source, factor.name, unary, messages)
                    joint_precision = incoming.precision + factor.noise_precision
                    jitter = _JITTER * np.eye(joint_precision.shape[0])
                    solve = np.linalg.solve(joint_precision + jitter, np.column_stack(
                        [factor.noise_precision, incoming.shift[:, np.newaxis]]))
                    new_precision = (factor.noise_precision
                                     - factor.noise_precision @ solve[:, :-1])
                    new_shift = factor.noise_precision @ solve[:, -1]
                    key = (factor.name, target)
                    old = messages[key]
                    if damping > 0.0:
                        new_precision = ((1.0 - damping) * new_precision
                                         + damping * old.precision)
                        new_shift = (1.0 - damping) * new_shift + damping * old.shift
                    max_change = max(
                        max_change,
                        float(np.max(np.abs(new_precision - old.precision), initial=0.0)),
                        float(np.max(np.abs(new_shift - old.shift), initial=0.0)),
                    )
                    messages[key] = _Message(new_precision, new_shift)
            if max_change < tolerance:
                converged = True
                break
        if not converged:
            raise RuntimeError(
                "belief propagation did not converge; increase max_iterations or damping")

        beliefs: Dict[str, GaussianDensity] = {}
        for name, dim in self._dims.items():
            belief = self._incoming(name, None, unary, messages)
            if np.all(np.abs(belief.precision) < 1e-300):
                raise RuntimeError(
                    f"variable {name!r} received no information; attach evidence or links")
            beliefs[name] = GaussianDensity.from_information(
                belief.precision + _JITTER * np.eye(dim), belief.shift)
        return beliefs

    def _incoming(self, variable: str, exclude_factor: Optional[str],
                  unary: Dict[str, _Message],
                  messages: Dict[Tuple[str, str], _Message]) -> _Message:
        """Product of the unary factor and all messages into ``variable``."""
        total = unary[variable].copy()
        for factor in self._adjacency[variable]:
            if factor.name == exclude_factor:
                continue
            message = messages[(factor.name, variable)]
            total.precision = total.precision + message.precision
            total.shift = total.shift + message.shift
        return total

    @classmethod
    def star(cls, center: str, leaves: Dict[str, GaussianDensity],
             link_covariance: np.ndarray) -> "GaussianFactorGraph":
        """A star graph: every leaf observes the central variable."""
        if not leaves:
            raise ValueError("at least one leaf is required")
        dims = {density.dim for density in leaves.values()}
        if len(dims) != 1:
            raise ValueError("all leaves must share a dimension")
        dim = dims.pop()
        graph = cls()
        graph.add_variable(center, dim)
        for leaf_name, density in leaves.items():
            graph.add_variable(leaf_name, dim)
            graph.add_evidence(leaf_name, density)
            graph.add_smoothness(center, leaf_name, link_covariance,
                                 name=f"{center}~{leaf_name}")
        return graph

    @classmethod
    def chain(cls, names: List[str], evidence: Dict[str, GaussianDensity],
              link_covariance: np.ndarray) -> "GaussianFactorGraph":
        """A chain graph (e.g. technology nodes ordered by year)."""
        if len(names) < 2:
            raise ValueError("a chain needs at least two variables")
        dims = {density.dim for density in evidence.values()}
        if len(dims) != 1:
            raise ValueError("all evidence densities must share a dimension")
        dim = dims.pop()
        graph = cls()
        for name in names:
            graph.add_variable(name, dim)
            if name in evidence:
                graph.add_evidence(name, evidence[name])
        for left, right in zip(names[:-1], names[1:]):
            graph.add_smoothness(left, right, link_covariance, name=f"{left}~{right}")
        return graph


def run_loop(graph: BatchedFactorGraph, max_iterations: int = 100,
             tolerance: float = 1e-10, damping=0.0) -> Dict[str, GaussianBatch]:
    """Run every stacked graph of ``graph`` through the scalar engine."""
    batch = graph.batch_size
    damping = np.broadcast_to(np.asarray(damping, dtype=float), (batch,))
    per_graph: List[Dict[str, GaussianDensity]] = []
    for index in range(batch):
        scalar = GaussianFactorGraph()
        for name, dim in graph._dims.items():
            scalar.add_variable(name, dim)
        for variable, precision, shift in graph._evidence:
            scalar._evidence.append(
                _Evidence(variable, precision[index], shift[index]))
        for factor in graph._factors:
            scalar._register_smoothness(_Smoothness(
                factor.name, factor.variable_a, factor.variable_b,
                factor.noise_precision[index]))
        per_graph.append(scalar.run_belief_propagation(
            max_iterations=max_iterations, tolerance=tolerance,
            damping=float(damping[index])))
    return {name: GaussianBatch.from_densities(
                [beliefs[name] for beliefs in per_graph])
            for name in graph.variables()}
