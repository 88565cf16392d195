"""Gaussian factor graph with sum-product belief propagation.

The cross-technology prior of the paper is obtained by propagating parameter
beliefs between technology nodes.  This module implements the generic
machinery: a factor graph whose variables are real vectors (here, the
four timing-model parameters of each technology plus a shared "global"
parameter mean), with

* **evidence factors** -- unary Gaussian potentials attached to a variable
  (e.g. the parameters extracted from one historical library, with a
  covariance describing within-library spread across cells), and
* **smoothness factors** -- pairwise potentials expressing that two variables
  agree up to Gaussian "technology drift" noise (e.g. consecutive technology
  nodes, or each node versus the global mean).

Messages are Gaussian and exchanged in information form; on tree-structured
graphs (the star and chain topologies used by
:mod:`repro.core.prior_learning`) the algorithm is exact, and on loopy graphs
it runs damped iterations until the beliefs stop changing.

:class:`BatchedFactorGraph` stacks B *independent* graphs that share one
topology (B may be 1) into ``(B, d, d)`` precision / ``(B, d)`` shift arrays
and updates each message for all B graphs in one batched
``np.linalg.solve``.  The sweep is sequential (Gauss-Seidel) over factors in
registration order -- only the graph axis is vectorized -- so each stacked
graph follows the trajectory of a scalar per-graph message loop, including
under damping on loopy graphs; that scalar loop is the test oracle in
``tests/oracles/scalar_bp.py``.  Graphs whose messages stop changing retire
from the working set (the ``batch_map`` active-set pattern), so a few slow
loopy graphs do not keep the whole fleet sweeping.  This is how
:func:`repro.core.prior_learning.learn_class_priors` learns every
(response x arc-class) prior of a technology fleet in one call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.bayes.gaussian import GaussianBatch, GaussianDensity

#: Diagonal jitter used when inverting message precision matrices.
_JITTER = 1e-12


def _noise_precision_from_covariance(noise_covariance: np.ndarray,
                                     dim: int) -> np.ndarray:
    """Validated Cholesky-based inverse of a (possibly stacked) covariance.

    Accepts a ``(dim, dim)`` matrix or a ``(B, dim, dim)`` stack and inverts
    through the Cholesky factor of the jittered matrix -- cheaper and better
    conditioned than a general LU inverse, and the factorization doubles as
    the positive-semi-definiteness check.
    """
    if not np.allclose(noise_covariance,
                       np.swapaxes(noise_covariance, -1, -2), atol=1e-10):
        raise ValueError(
            "noise covariance must be symmetric (check the technology-drift "
            "or smoothness covariance passed to add_smoothness)")
    jittered = noise_covariance + _JITTER * np.eye(dim)
    try:
        factor = np.linalg.cholesky(jittered)
    except np.linalg.LinAlgError as error:
        raise ValueError(
            "noise covariance must be positive semi-definite; its Cholesky "
            "factorization failed (check the technology-drift or smoothness "
            "covariance passed to add_smoothness)") from error
    identity = np.eye(dim) if factor.ndim == 2 else np.broadcast_to(
        np.eye(dim), factor.shape).copy()
    inverse_factor = np.linalg.solve(factor, identity)
    precision = np.swapaxes(inverse_factor, -1, -2) @ inverse_factor
    return 0.5 * (precision + np.swapaxes(precision, -1, -2))


@dataclass(frozen=True)
class _BatchedSmoothness:
    """Pairwise factor of B stacked graphs: noise precision ``(B, dim, dim)``."""

    name: str
    variable_a: str
    variable_b: str
    noise_precision: np.ndarray


@dataclass(frozen=True)
class BeliefPropagationInfo:
    """Per-graph convergence report of a batched belief-propagation run.

    Attributes
    ----------
    iterations:
        Sweeps each graph stayed in the working set (including the final
        sweep whose message changes fell below the tolerance), shape
        ``(B,)``.  Graphs retire independently, so easy graphs stop paying
        for slow loopy ones.
    converged:
        Per-graph convergence flags (all ``True`` on a successful run;
        ``False`` entries survive only under ``on_divergence="retire"``).
    """

    iterations: np.ndarray
    converged: np.ndarray

    @property
    def diverged(self) -> np.ndarray:
        """Per-graph divergence flags (the complement of ``converged``)."""
        return ~self.converged

    @property
    def n_diverged(self) -> int:
        """Number of graphs that failed to converge."""
        return int(np.count_nonzero(~self.converged))


_Densities = Union[GaussianDensity, Sequence[GaussianDensity]]


class BatchedFactorGraph:
    """B independent Gaussian factor graphs stacked on one shared topology.

    Variables, factors and their names are shared by every stacked graph;
    evidence densities and smoothness covariances may differ per graph
    (pass a sequence / a ``(B, d, d)`` stack) or be shared (pass one
    density / one matrix).  ``run_belief_propagation`` then advances all B
    graphs through one message schedule with one batched linear solve per
    message update -- see the module docstring.
    """

    def __init__(self, batch_size: int) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        self._batch = int(batch_size)
        self._dims: Dict[str, int] = {}
        self._evidence: List[Tuple[str, np.ndarray, np.ndarray]] = []
        self._factors: List[_BatchedSmoothness] = []
        # Factor indices adjacent to each variable, registration order.
        self._adjacency: Dict[str, List[int]] = {}

    # ------------------------------------------------------------------
    # Graph construction
    # ------------------------------------------------------------------
    @property
    def batch_size(self) -> int:
        """Number of stacked graphs."""
        return self._batch

    def add_variable(self, name: str, dim: int) -> None:
        """Declare a variable node (present in every stacked graph)."""
        if dim < 1:
            raise ValueError("variable dimension must be at least 1")
        if name in self._dims:
            raise ValueError(f"variable {name!r} already exists")
        self._dims[name] = int(dim)
        self._adjacency[name] = []

    def variables(self) -> List[str]:
        """Names of all declared variables."""
        return list(self._dims)

    def _require_variable(self, name: str) -> int:
        if name not in self._dims:
            raise KeyError(f"unknown variable {name!r}; declare it with add_variable")
        return self._dims[name]

    def add_evidence(self, variable: str, densities: _Densities) -> None:
        """Attach evidence: one shared density, or one density per graph.

        Non-finite evidence is rejected here, naming the variable and the
        offending graph index -- a NaN mean or covariance would otherwise
        poison every message sweep and surface only as an opaque
        divergence.
        """
        dim = self._require_variable(variable)

        def check_finite(precision: np.ndarray, shift: np.ndarray,
                         index: Optional[int]) -> None:
            if np.all(np.isfinite(precision)) and np.all(np.isfinite(shift)):
                return
            where = "" if index is None else f" at graph index {index}"
            raise ValueError(
                f"evidence for {variable!r}{where} is non-finite (NaN/Inf "
                "mean or covariance)")

        if isinstance(densities, GaussianDensity):
            if densities.dim != dim:
                raise ValueError(
                    f"evidence for {variable!r} has dimension {densities.dim}, "
                    f"expected {dim}")
            precision, shift = densities.to_information()
            check_finite(precision, shift, None)
            self._evidence.append((
                variable,
                np.broadcast_to(precision, (self._batch, dim, dim)),
                np.broadcast_to(shift, (self._batch, dim)),
            ))
            return
        densities = list(densities)
        if len(densities) != self._batch:
            raise ValueError(
                f"evidence for {variable!r} has {len(densities)} densities, "
                f"expected one per graph ({self._batch})")
        precision = np.empty((self._batch, dim, dim))
        shift = np.empty((self._batch, dim))
        for index, density in enumerate(densities):
            if density.dim != dim:
                raise ValueError(
                    f"evidence for {variable!r} has dimension {density.dim}, "
                    f"expected {dim}")
            precision[index], shift[index] = density.to_information()
            check_finite(precision[index], shift[index], index)
        self._evidence.append((variable, precision, shift))

    def add_smoothness(self, variable_a: str, variable_b: str,
                       noise_covariance: np.ndarray,
                       name: Optional[str] = None) -> None:
        """Link two variables in every graph.

        ``noise_covariance`` is a shared ``(dim,)`` diagonal / ``(dim, dim)``
        matrix, or a ``(B, dim, dim)`` stack with one drift covariance per
        graph.
        """
        dim_a = self._require_variable(variable_a)
        dim_b = self._require_variable(variable_b)
        if dim_a != dim_b:
            raise ValueError("linked variables must share a dimension")
        noise_covariance = np.asarray(noise_covariance, dtype=float)
        if noise_covariance.ndim == 1:
            noise_covariance = np.diag(noise_covariance)
        if noise_covariance.ndim == 2:
            if noise_covariance.shape != (dim_a, dim_a):
                raise ValueError("noise covariance has the wrong shape")
            # Shared covariance: invert once and broadcast to the batch.
            precision = np.broadcast_to(
                _noise_precision_from_covariance(noise_covariance, dim_a),
                (self._batch, dim_a, dim_a))
        elif noise_covariance.shape == (self._batch, dim_a, dim_a):
            precision = _noise_precision_from_covariance(noise_covariance,
                                                         dim_a)
        else:
            raise ValueError(
                f"noise covariance must have shape ({dim_a},), "
                f"({dim_a}, {dim_a}) or ({self._batch}, {dim_a}, {dim_a}), "
                f"got {noise_covariance.shape}")
        label = name or f"{variable_a}~{variable_b}"
        index = len(self._factors)
        self._factors.append(
            _BatchedSmoothness(label, variable_a, variable_b, precision))
        self._adjacency[variable_a].append(index)
        if variable_b != variable_a:
            self._adjacency[variable_b].append(index)

    # ------------------------------------------------------------------
    # Belief propagation
    # ------------------------------------------------------------------
    def run_belief_propagation(
        self,
        max_iterations: int = 100,
        tolerance: float = 1e-10,
        damping: Union[float, np.ndarray] = 0.0,
        return_info: bool = False,
        on_divergence: str = "raise",
    ) -> Union[Dict[str, GaussianBatch],
               Tuple[Dict[str, GaussianBatch], BeliefPropagationInfo]]:
        """Run sum-product message passing on all stacked graphs at once.

        Parameters
        ----------
        max_iterations:
            Upper bound on message-update sweeps per graph (trees converge
            in at most the graph diameter).
        tolerance:
            Per-graph convergence threshold on the maximum change of any
            message entry within one sweep.
        damping:
            Scalar shared by all graphs, or a ``(B,)`` array with one
            damping factor per graph; each entry must lie in ``[0, 1)``.
        return_info:
            When true, also return a :class:`BeliefPropagationInfo` with
            per-graph sweep counts.
        on_divergence:
            ``"raise"`` (default) aborts when any graph exhausts
            ``max_iterations`` -- the historical fail-fast semantics.
            ``"retire"`` instead returns beliefs
            built from every graph's last message iterate, flagging the
            diverged graphs ``False`` in ``BeliefPropagationInfo.converged``
            (pass ``return_info=True`` to see them); converged graphs are
            bit-identical to a fail-fast run.

        Returns
        -------
        dict (optionally with a BeliefPropagationInfo)
            Mapping of variable name to its stacked beliefs.

        Raises
        ------
        RuntimeError
            If any graph fails to converge (unless retiring), or a
            variable has no information.
        """
        if on_divergence not in ("raise", "retire"):
            raise ValueError(f"on_divergence must be 'raise' or 'retire', "
                             f"got {on_divergence!r}")
        damping = np.asarray(damping, dtype=float)
        if damping.ndim == 0:
            damping = np.full(self._batch, float(damping))
        elif damping.shape != (self._batch,):
            raise ValueError(
                f"damping must be a scalar or have shape ({self._batch},), "
                f"got {damping.shape}")
        if np.any((damping < 0.0) | (damping >= 1.0)):
            raise ValueError("damping must be in [0, 1)")
        return self._run_batched(max_iterations, tolerance, damping,
                                 return_info, on_divergence)

    def _run_batched(self, max_iterations: int, tolerance: float,
                     damping: np.ndarray, return_info: bool,
                     on_divergence: str = "raise"):
        batch = self._batch
        unary: Dict[str, Tuple[np.ndarray, np.ndarray]] = {
            name: (np.zeros((batch, dim, dim)), np.zeros((batch, dim)))
            for name, dim in self._dims.items()
        }
        for variable, precision, shift in self._evidence:
            unary[variable][0][...] += precision
            unary[variable][1][...] += shift

        # Message arrays from each factor to each of its endpoints.
        msg_precision: Dict[Tuple[int, str], np.ndarray] = {}
        msg_shift: Dict[Tuple[int, str], np.ndarray] = {}
        for index, factor in enumerate(self._factors):
            for target in (factor.variable_a, factor.variable_b):
                dim = self._dims[target]
                msg_precision[(index, target)] = np.zeros((batch, dim, dim))
                msg_shift[(index, target)] = np.zeros((batch, dim))

        def incoming(variable: str, exclude: Optional[int],
                     rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
            """Unary information plus all messages into ``variable``.

            Summed in factor-registration order for the selected graph
            rows.
            """
            precision = unary[variable][0][rows].copy()
            shift = unary[variable][1][rows].copy()
            for factor_index in self._adjacency[variable]:
                if factor_index == exclude:
                    continue
                precision += msg_precision[(factor_index, variable)][rows]
                shift += msg_shift[(factor_index, variable)][rows]
            return precision, shift

        iterations = np.zeros(batch, dtype=int)
        converged = (np.ones(batch, dtype=bool) if not self._factors
                     else np.zeros(batch, dtype=bool))
        active = np.arange(batch) if self._factors else np.arange(0)
        for _ in range(max_iterations):
            if active.size == 0:
                break
            iterations[active] += 1
            max_change = np.zeros(active.size)
            damp = damping[active]
            use_damping = bool(np.any(damp > 0.0))
            for index, factor in enumerate(self._factors):
                noise = factor.noise_precision[active]
                for source, target in ((factor.variable_a, factor.variable_b),
                                       (factor.variable_b, factor.variable_a)):
                    in_precision, in_shift = incoming(source, index, active)
                    joint = in_precision + noise
                    dim = joint.shape[-1]
                    joint = joint + _JITTER * np.eye(dim)
                    rhs = np.concatenate([noise, in_shift[..., np.newaxis]],
                                         axis=2)
                    solve = np.linalg.solve(joint, rhs)
                    new_precision = noise - np.matmul(noise, solve[:, :, :-1])
                    new_shift = np.matmul(noise, solve[:, :, -1:])[..., 0]
                    key = (index, target)
                    old_precision = msg_precision[key][active]
                    old_shift = msg_shift[key][active]
                    if use_damping:
                        blend = damp[:, np.newaxis, np.newaxis]
                        new_precision = ((1.0 - blend) * new_precision
                                         + blend * old_precision)
                        new_shift = ((1.0 - damp[:, np.newaxis]) * new_shift
                                     + damp[:, np.newaxis] * old_shift)
                    max_change = np.maximum(
                        max_change,
                        np.abs(new_precision - old_precision).max(axis=(1, 2)))
                    max_change = np.maximum(
                        max_change,
                        np.abs(new_shift - old_shift).max(axis=1))
                    msg_precision[key][active] = new_precision
                    msg_shift[key][active] = new_shift
            settled = max_change < tolerance
            converged[active[settled]] = True
            active = active[~settled]
        if active.size and on_divergence == "raise":
            raise RuntimeError(
                f"belief propagation did not converge for {active.size} of "
                f"{batch} stacked graphs; increase max_iterations or damping")
        # on_divergence="retire": diverged graphs keep their last message
        # iterate (their beliefs below are best-effort) and stay flagged
        # False in the info's converged mask.

        everything = np.arange(batch)
        beliefs: Dict[str, GaussianBatch] = {}
        for name, dim in self._dims.items():
            precision, shift = incoming(name, None, everything)
            if np.any(np.all(np.abs(precision) < 1e-300, axis=(1, 2))):
                raise RuntimeError(
                    f"variable {name!r} received no information; attach "
                    "evidence or links")
            beliefs[name] = GaussianBatch.from_information(
                precision + _JITTER * np.eye(dim), shift)
        if return_info:
            return beliefs, BeliefPropagationInfo(iterations=iterations,
                                                  converged=converged)
        return beliefs

    # ------------------------------------------------------------------
    # Convenience topologies
    # ------------------------------------------------------------------
    @classmethod
    def star(cls, center: str, leaves: Dict[str, _Densities],
             link_covariance: np.ndarray) -> "BatchedFactorGraph":
        """B stacked star graphs: every leaf observes the central variable.

        This is the topology that fuses historical technologies into the
        global prior.  Each leaf carries one evidence density per graph (a
        shared density is replicated; shared densities alone give a batch
        of one); ``link_covariance`` may likewise be shared or a
        ``(B, d, d)`` stack (e.g. one technology-drift covariance per
        stacked response/arc-class graph).
        """
        if not leaves:
            raise ValueError("at least one leaf is required")
        batch = _infer_batch_size(leaves.values())
        dims = {_first_density(value).dim for value in leaves.values()}
        if len(dims) != 1:
            raise ValueError("all leaves must share a dimension")
        dim = dims.pop()
        graph = cls(batch)
        graph.add_variable(center, dim)
        for leaf_name, densities in leaves.items():
            graph.add_variable(leaf_name, dim)
            graph.add_evidence(leaf_name, densities)
            graph.add_smoothness(center, leaf_name, link_covariance,
                                 name=f"{center}~{leaf_name}")
        return graph

    @classmethod
    def chain(cls, names: List[str], evidence: Dict[str, _Densities],
              link_covariance: np.ndarray) -> "BatchedFactorGraph":
        """B stacked chain graphs (e.g. technology nodes ordered by year)."""
        if len(names) < 2:
            raise ValueError("a chain needs at least two variables")
        if not evidence:
            raise ValueError("at least one evidence entry is required")
        batch = _infer_batch_size(evidence.values())
        dims = {_first_density(value).dim for value in evidence.values()}
        if len(dims) != 1:
            raise ValueError("all evidence densities must share a dimension")
        dim = dims.pop()
        graph = cls(batch)
        for name in names:
            graph.add_variable(name, dim)
            if name in evidence:
                graph.add_evidence(name, evidence[name])
        for left, right in zip(names[:-1], names[1:]):
            graph.add_smoothness(left, right, link_covariance,
                                 name=f"{left}~{right}")
        return graph


def _first_density(value: _Densities) -> GaussianDensity:
    if isinstance(value, GaussianDensity):
        return value
    value = list(value)
    if not value:
        raise ValueError("evidence sequences must be non-empty")
    return value[0]


def _infer_batch_size(values) -> int:
    """Batch size implied by evidence sequences (shared densities adapt)."""
    sizes = {len(list(value)) for value in values
             if not isinstance(value, GaussianDensity)}
    if len(sizes) > 1:
        raise ValueError(
            f"evidence sequences imply conflicting batch sizes: {sorted(sizes)}")
    return sizes.pop() if sizes else 1
