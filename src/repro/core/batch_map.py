"""Batched seed-parallel MAP extraction (Eq. 15, vectorized over seeds).

The statistical flow extracts one compact-model parameter vector *per Monte
Carlo seed* (and per response), so a 200-seed arc costs 400 independent
four-parameter bounded least-squares problems.  Solving them one at a time
through :func:`scipy.optimize.least_squares` pays the full Python/trust-region
overhead 400 times over -- after the batched transient integrator
(:mod:`repro.spice.transient`) removed the simulation bottleneck, that extraction
loop dominated the wall clock of
:meth:`repro.core.statistical_flow.StatisticalCharacterizer.characterize`.

This module applies the same treatment the transient engine received:

* **Analytic Jacobians.**  :meth:`CompactTimingModel.evaluate_and_jacobian`
  returns exact derivatives for a whole ``(n_seeds, 4)`` parameter matrix in
  one broadcast, so no finite differencing (scipy's 2-point scheme costs four
  extra model evaluations per seed per iteration).
* **Stacked whitened prior residuals.**  The Gaussian prior term of Eq. 15
  enters as four extra residual rows ``L @ (theta - mu0)`` per seed, with the
  shared whitener ``L`` from
  :meth:`repro.bayes.gaussian.GaussianDensity.whitening_matrix` -- the same
  formulation the scalar estimator uses, so the two paths optimize literally
  the same objective.
* **Per-seed Levenberg-Marquardt damping.**  Every seed carries its own
  damping factor, updated from its own step acceptance, and all ``(4, 4)``
  normal-equation systems of an iteration are factorized in a single batched
  ``np.linalg.solve``.
* **Projected bounds.**  Candidate steps are clipped to the model's parameter
  box; first-order optimality is checked on the *projected* gradient so seeds
  resting on a bound still retire.
* **Active-set retirement.**  Converged seeds leave the working set
  (mirroring the batched transient engine's condition retirement), so a few
  slow seeds do not keep the whole ensemble iterating.

The result is ~10 vectorized LM iterations for a full seed batch instead of
hundreds of scipy solves; the parity suite pins the extracted parameters to
the scipy path at tight tolerance, and ``benchmarks/test_perf_map.py`` tracks
the speedup in ``BENCH_map.json``.

Beyond the single-arc batch, :func:`map_estimate_stacked` stacks *many* arcs'
seed batches into one solve: every ``(arc, seed)`` pair becomes a row of one
``(sum of n_seeds, 4)`` problem, block-diagonal by arc -- each row carries its
own arc's fitting conditions, precision weights and (optionally) its own
prior.  Rows never interact (the per-row damping, retirement and 4x4 normal
solves are exactly the single-arc ones), so the stacked solve reproduces the
per-arc solves bit-for-bit while paying the interpreted per-iteration
overhead once for the whole library instead of once per arc.  This is the
extraction half of the fused library pipeline
(:func:`repro.core.library_flow.characterize_library`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.bayes.gaussian import GaussianDensity
from repro.core.prior_learning import TimingPrior
from repro.core.timing_model import (
    CompactTimingModel,
    DEFAULT_INITIAL_GUESS,
    FitResult,
    N_PARAMETERS,
    TimingModelParameters,
)
from repro.runtime import faultinject, resolve_max_bytes
from repro.runtime.chunking import plan_chunks

SITE_RESULT = faultinject.register_fault_site(
    "batch_map.result",
    "solved parameter matrix of one batched MAP/LSQ call (NaN row faults)")

#: Default iteration cap; well above what quadratic LM convergence needs.
DEFAULT_MAX_ITERATIONS = 60

#: Damping growth / shrink factors (classic Marquardt schedule).
_LAMBDA_UP = 4.0
_LAMBDA_DOWN = 0.25
_LAMBDA_INIT = 1e-3
_LAMBDA_MIN = 1e-14
_LAMBDA_MAX = 1e12


@dataclass(frozen=True)
class BatchMapObservations:
    """Seed-batched target-technology observations feeding the MAP extraction.

    The ``k`` fitting conditions are shared by every seed; the measured
    responses (and, for seed-vectorized equivalent inverters, the effective
    currents) differ per seed.

    Attributes
    ----------
    sin, cload, vdd:
        Operating points, shape ``(k,)`` (shared by every seed, the
        single-arc case) or ``(n_seeds, k)`` (one condition set per row --
        the stacked multi-arc solve, where each row belongs to an arc with
        its own fitting conditions), SI units.
    ieff:
        Effective current of the driving device, shape ``(n_seeds, k)`` or
        ``(k,)`` (shared across seeds), in amperes.
    response:
        Observed delay or output slew per seed, shape ``(n_seeds, k)``, in
        seconds.
    beta:
        Model precision per condition, shape ``(k,)`` (shared across seeds,
        like the learned precision model that produces it) or
        ``(n_seeds, k)`` (per-row, stacked solves); ``None`` means unit
        precision.
    """

    sin: np.ndarray
    cload: np.ndarray
    vdd: np.ndarray
    ieff: np.ndarray
    response: np.ndarray
    beta: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        response = np.atleast_2d(np.asarray(self.response, dtype=float))
        if response.ndim != 2:
            raise ValueError(
                f"response must have shape (n_seeds, k), got {response.shape}")
        k = response.shape[1]
        if k == 0:
            raise ValueError("at least one observation is required")
        bad_rows, bad_cols = np.nonzero(~np.isfinite(response))
        if bad_rows.size:
            raise ValueError(
                f"response contains a non-finite value at seed "
                f"{int(bad_rows[0])}, observation {int(bad_cols[0])} "
                f"({bad_rows.size} non-finite in total)")
        if np.any(response <= 0.0):
            raise ValueError("responses must be strictly positive")

        def conditions(name: str, value) -> np.ndarray:
            array = np.asarray(value, dtype=float)
            if array.ndim <= 1:
                array = array.reshape(-1)
                if array.size != k:
                    raise ValueError(
                        f"{name} has {array.size} entries, expected {k}")
            elif array.shape != response.shape:
                raise ValueError(
                    f"{name} must have shape ({k},) or {response.shape}, "
                    f"got {array.shape}")
            return array

        sin = conditions("sin", self.sin)
        cload = conditions("cload", self.cload)
        vdd = conditions("vdd", self.vdd)
        ieff = conditions("ieff", self.ieff)
        if np.any(ieff <= 0.0):
            raise ValueError("effective currents must be strictly positive")
        object.__setattr__(self, "sin", sin)
        object.__setattr__(self, "cload", cload)
        object.__setattr__(self, "vdd", vdd)
        object.__setattr__(self, "ieff", ieff)
        object.__setattr__(self, "response", response)
        if self.beta is not None:
            beta = conditions("beta", self.beta)
            if np.any(beta <= 0.0):
                raise ValueError("beta values must be strictly positive")
            object.__setattr__(self, "beta", beta)

    @property
    def k(self) -> int:
        """Number of fitting observations per seed."""
        return int(self.response.shape[1])

    @property
    def n_seeds(self) -> int:
        """Number of Monte Carlo seeds."""
        return int(self.response.shape[0])


@dataclass(frozen=True)
class BatchMapResult:
    """Outcome of a seed-batched MAP extraction.

    Attributes
    ----------
    parameters:
        Extracted parameter matrix, shape ``(n_seeds, 4)``, natural units.
    converged:
        Per-seed first-order convergence flags.  A ``False`` entry means the
        seed exhausted ``max_iterations`` without meeting the gradient/step
        tolerances; its row of ``parameters`` is the best iterate found.
    n_iterations:
        LM iterations each seed was active for.
    cost:
        Final objective value (sum of squared stacked residuals) per seed.
    residuals:
        Relative data residuals ``(model - observed) / observed`` at the
        solution, shape ``(n_seeds, k)``.
    n_observations:
        Number of fitting conditions ``k``.
    """

    parameters: np.ndarray
    converged: np.ndarray
    n_iterations: np.ndarray
    cost: np.ndarray
    residuals: np.ndarray
    n_observations: int

    @property
    def n_seeds(self) -> int:
        """Number of seeds in the batch."""
        return int(self.parameters.shape[0])

    @property
    def n_converged(self) -> int:
        """Number of seeds meeting the convergence tolerances."""
        return int(np.count_nonzero(self.converged))

    def unconverged_seeds(self) -> np.ndarray:
        """Indices of seeds that failed to converge (empty when all did)."""
        return np.nonzero(~self.converged)[0]

    def mean_abs_relative_error(self) -> np.ndarray:
        """Per-seed mean absolute relative training error."""
        return np.mean(np.abs(self.residuals), axis=1)

    def fit_result(self, seed: int) -> FitResult:
        """One seed's extraction as a scalar-API :class:`FitResult`."""
        residuals = self.residuals[seed]
        return FitResult(
            params=TimingModelParameters.from_array(self.parameters[seed]),
            mean_abs_relative_error=float(np.mean(np.abs(residuals))),
            max_abs_relative_error=float(np.max(np.abs(residuals))),
            residuals=residuals.copy(),
            n_observations=self.n_observations,
            converged=bool(self.converged[seed]),
        )


def map_estimate_batch(
    prior: "TimingPrior | GaussianDensity",
    observations: BatchMapObservations,
    model: Optional[CompactTimingModel] = None,
    prior_weight: float = 1.0,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    gtol: float = 1e-10,
    xtol: float = 1e-12,
    max_bytes: Optional[int] = None,
) -> BatchMapResult:
    """Seed-batched MAP extraction of the compact-model parameters.

    Minimizes the Eq. 15 objective independently for every seed, all seeds
    advancing together through vectorized Levenberg-Marquardt iterations
    (see the module docstring for the design).  The scalar counterpart is
    :func:`repro.core.map_estimation.map_estimate`; the two agree to solver
    tolerance because they share the residual formulation, the prior
    whitener, the parameter bounds and the starting point.

    Parameters
    ----------
    prior:
        Full :class:`~repro.core.prior_learning.TimingPrior` or the bare
        Gaussian parameter prior, shared by all seeds.
    observations:
        The seed batch (see :class:`BatchMapObservations`).
    model:
        Optional :class:`CompactTimingModel` supplying parameter bounds.
    prior_weight:
        Scale factor on the prior term (must be positive; 1.0 = Eq. 15).
    max_iterations:
        LM iteration cap per seed.
    gtol:
        Infinity-norm tolerance on the projected gradient.
    xtol:
        Relative step-size tolerance.
    max_bytes:
        Memory budget for the solver's working set; the seed axis is split
        into deterministic chunks that are solved sequentially (seeds are
        independent problems, so results are identical to the unchunked
        solve).  ``None`` defers to ``repro.runtime.configure(max_bytes=...)``.

    Returns
    -------
    BatchMapResult
        Parameters plus per-seed convergence reporting.
    """
    if prior_weight <= 0.0:
        raise ValueError("prior_weight must be positive; use fit_least_squares "
                         "for a prior-free extraction")
    if max_iterations < 1:
        raise ValueError("max_iterations must be at least 1")
    density = prior.density if isinstance(prior, TimingPrior) else prior
    if density.dim != N_PARAMETERS:
        raise ValueError(f"prior has dimension {density.dim}, expected {N_PARAMETERS}")
    term = _PriorTerm.from_density(density, prior_weight)
    return _chunked_solve(term, observations, model or CompactTimingModel(),
                          max_iterations, gtol, xtol, max_bytes)


def map_estimate_stacked(
    priors: Union["TimingPrior | GaussianDensity",
                  Sequence["TimingPrior | GaussianDensity"]],
    observations: Sequence[BatchMapObservations],
    model: Optional[CompactTimingModel] = None,
    prior_weight: float = 1.0,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    gtol: float = 1e-10,
    xtol: float = 1e-12,
    max_bytes: Optional[int] = None,
) -> List[BatchMapResult]:
    """One block-diagonal MAP solve for many arcs' seed batches at once.

    Every block (one arc's :class:`BatchMapObservations`) contributes its
    ``n_seeds`` rows to a single stacked problem; rows carry their own
    block's fitting conditions, precision weights and prior, so the blocks
    remain fully independent -- the stacked solve returns exactly the
    per-block :func:`map_estimate_batch` results, computed in one run of
    vectorized LM iterations instead of one run per arc.  This is the
    library-wide extraction of the fused characterization pipeline.

    Parameters
    ----------
    priors:
        One prior shared by every block, or a sequence with one prior per
        block.  When every block resolves to the same Gaussian density the
        solver keeps the shared-whitener fast path of the single-arc solve
        (and reproduces it bit-for-bit); heterogeneous priors switch the
        prior term to per-row matrices.
    observations:
        One :class:`BatchMapObservations` per block.  All blocks must share
        the observation count ``k`` (they stack on a common condition axis);
        their condition values may differ freely.
    model, prior_weight, max_iterations, gtol, xtol, max_bytes:
        As in :func:`map_estimate_batch`; ``max_bytes`` chunks the stacked
        row axis (chunks may span block boundaries -- rows are independent).

    Returns
    -------
    list of BatchMapResult
        One result per block, in input order.
    """
    blocks = list(observations)
    if not blocks:
        raise ValueError("at least one observation block is required")
    if isinstance(priors, (TimingPrior, GaussianDensity)):
        priors = [priors] * len(blocks)
    else:
        priors = list(priors)
        if len(priors) != len(blocks):
            raise ValueError(
                f"got {len(priors)} priors for {len(blocks)} observation blocks")
    if prior_weight <= 0.0:
        raise ValueError("prior_weight must be positive")
    if max_iterations < 1:
        raise ValueError("max_iterations must be at least 1")
    k = blocks[0].k
    for index, block in enumerate(blocks):
        if block.k != k:
            raise ValueError(
                f"observation block {index} has k={block.k}, expected {k} "
                "(stacked solves need a uniform condition count)")
    densities = []
    for prior in priors:
        density = prior.density if isinstance(prior, TimingPrior) else prior
        if density.dim != N_PARAMETERS:
            raise ValueError(
                f"prior has dimension {density.dim}, expected {N_PARAMETERS}")
        densities.append(density)

    stacked, block_sizes = _stack_blocks(blocks)
    term = _PriorTerm.from_densities(densities, block_sizes, prior_weight)
    result = _chunked_solve(term, stacked, model or CompactTimingModel(),
                            max_iterations, gtol, xtol, max_bytes)
    return _split_stacked(result, block_sizes, k)


def fit_least_squares_stacked(
    observations: Sequence[BatchMapObservations],
    model: Optional[CompactTimingModel] = None,
    initial_guess: Optional[np.ndarray] = None,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    gtol: float = 1e-10,
    xtol: float = 1e-12,
    max_bytes: Optional[int] = None,
) -> List[BatchMapResult]:
    """Prior-free stacked least squares: the batched twin of
    :func:`repro.core.timing_model.fit_least_squares`.

    Every block's rows join one block-diagonal Levenberg-Marquardt solve of
    the plain relative-residual objective (no prior term, no precision
    weights unless a block carries ``beta``), starting from the same clipped
    initial guess as the scipy path.  This is the extraction half of fused
    historical-library characterization
    (:func:`repro.core.prior_learning.characterize_historical_library`):
    one solve fits every (arc, response) of a historical node instead of one
    scipy trust-region loop per fit.  The two solvers optimize the same
    objective from the same start, so the fitted parameters agree to solver
    tolerance (~1e-6 relative; both well inside the fit's own residual
    scale).

    Parameters
    ----------
    observations:
        One :class:`BatchMapObservations` per (arc, response) block; all
        blocks must share the observation count ``k``.
    model:
        Optional :class:`CompactTimingModel` supplying parameter bounds.
    initial_guess:
        Starting parameter vector shared by every row; defaults to
        :data:`repro.core.timing_model.DEFAULT_INITIAL_GUESS`.
    max_iterations, gtol, xtol, max_bytes:
        As in :func:`map_estimate_batch`.

    Returns
    -------
    list of BatchMapResult
        One result per block, in input order.
    """
    blocks = list(observations)
    if not blocks:
        raise ValueError("at least one observation block is required")
    if max_iterations < 1:
        raise ValueError("max_iterations must be at least 1")
    k = blocks[0].k
    for index, block in enumerate(blocks):
        if block.k != k:
            raise ValueError(
                f"observation block {index} has k={block.k}, expected {k} "
                "(stacked solves need a uniform condition count)")
    if initial_guess is None:
        start = DEFAULT_INITIAL_GUESS.copy()
    else:
        start = np.asarray(initial_guess, dtype=float).reshape(-1).copy()
        if start.size != N_PARAMETERS:
            raise ValueError(f"initial_guess must have {N_PARAMETERS} entries")

    stacked, block_sizes = _stack_blocks(blocks)
    term = _PriorTerm.free(start)
    result = _chunked_solve(term, stacked, model or CompactTimingModel(),
                            max_iterations, gtol, xtol, max_bytes)
    return _split_stacked(result, block_sizes, k)


def _stack_blocks(blocks: Sequence[BatchMapObservations]
                  ) -> "tuple[BatchMapObservations, List[int]]":
    """Concatenate blocks on the row axis (shared condition grids stay 1-D)."""
    k = blocks[0].k

    def stack(field: str) -> np.ndarray:
        values = [getattr(block, field) for block in blocks]
        # Shared-grid fast path: when every block carries the same 1-D
        # condition vector (the NLDM convention -- one fitting grid for the
        # whole library), keep it 1-D instead of materializing a dense
        # (total_rows, k) copy.
        first = values[0]
        if all(value.ndim == 1 and (value is first
                                    or np.array_equal(value, first))
               for value in values):
            return first
        return np.concatenate(
            [np.broadcast_to(value, block.response.shape)
             if value.ndim == 1 else value
             for value, block in zip(values, blocks)], axis=0)

    betas = [block.beta for block in blocks]
    if all(beta is None for beta in betas):
        beta_rows = None
    else:
        first_beta = betas[0]
        if (first_beta is not None
                and all(beta is not None and beta.ndim == 1
                        and (beta is first_beta
                             or np.array_equal(beta, first_beta))
                        for beta in betas)):
            beta_rows = first_beta
        else:
            parts = []
            for block in blocks:
                beta = block.beta if block.beta is not None else np.ones(k)
                if beta.ndim == 1:
                    beta = np.broadcast_to(beta, block.response.shape)
                parts.append(beta)
            beta_rows = np.concatenate(parts, axis=0)

    stacked = BatchMapObservations(
        sin=stack("sin"), cload=stack("cload"), vdd=stack("vdd"),
        ieff=stack("ieff"), response=stack("response"), beta=beta_rows)
    return stacked, [block.n_seeds for block in blocks]


def _split_stacked(result: "BatchMapResult", block_sizes: Sequence[int],
                   k: int) -> List[BatchMapResult]:
    """Slice one stacked solve back into per-block results."""
    results: List[BatchMapResult] = []
    start = 0
    for size in block_sizes:
        rows = slice(start, start + size)
        results.append(BatchMapResult(
            parameters=result.parameters[rows],
            converged=result.converged[rows],
            n_iterations=result.n_iterations[rows],
            cost=result.cost[rows],
            residuals=result.residuals[rows],
            n_observations=k,
        ))
        start += size
    return results


class _PriorTerm:
    """The Gaussian prior contribution, shared across rows or per-row.

    The single-arc solve shares one ``(4,)`` mean and one ``(4, 4)``
    whitener across every seed; the stacked multi-arc solve may carry one
    prior per arc, expanded here to per-row matrices.  Every per-row
    expression uses ``einsum`` rather than ``@``: BLAS matmul picks a
    different kernel for one-row operands (gemv vs gemm), whose last-ulp
    rounding differs, so matmul results would depend on how many seeds are
    still active -- breaking the bit-identity of memory-budgeted chunked
    solves whenever an accept/converge test sits on a rounding knife-edge.
    ``einsum`` computes each output row identically for any batch size.
    """

    def __init__(self, mu0: np.ndarray, whitener: np.ndarray,
                 normal: Optional[np.ndarray] = None):
        self.mu0 = mu0
        self.whitener = whitener
        self.shared = mu0.ndim == 1
        # W^T W of the normal equations, precomputed once per solve (row
        # subsets slice it rather than recomputing the einsum).
        if normal is not None:
            self._normal = normal
        elif self.shared:
            self._normal = whitener.T @ whitener
        else:
            self._normal = np.einsum("mki,mkj->mij", whitener, whitener)

    @classmethod
    def from_density(cls, density: GaussianDensity,
                     prior_weight: float) -> "_PriorTerm":
        whitener = density.scaled_covariance(
            1.0 / prior_weight).whitening_matrix(jitter=1e-12)
        return cls(np.asarray(density.mean, dtype=float), whitener)

    @classmethod
    def free(cls, start: np.ndarray) -> "_PriorTerm":
        """A zero-information prior: plain least squares from ``start``.

        The whitener is all zeros, so the prior residual, gradient and
        normal-matrix contributions vanish and only the LM damping
        regularizes the normal equations -- exactly the objective of
        :func:`repro.core.timing_model.fit_least_squares`.  ``start`` only
        seeds the iteration (via :meth:`start`).
        """
        return cls(np.asarray(start, dtype=float),
                   np.zeros((N_PARAMETERS, N_PARAMETERS)))

    @classmethod
    def from_densities(cls, densities: Sequence[GaussianDensity],
                       block_sizes: Sequence[int],
                       prior_weight: float) -> "_PriorTerm":
        """Per-block priors expanded to rows (shared fast path when equal)."""
        first = densities[0]
        if all(density is first
               or (np.array_equal(density.mean, first.mean)
                   and np.array_equal(density.covariance, first.covariance))
               for density in densities):
            return cls.from_density(first, prior_weight)
        mu_rows = []
        whitener_rows = []
        for density, size in zip(densities, block_sizes):
            term = cls.from_density(density, prior_weight)
            mu_rows.append(np.broadcast_to(term.mu0, (size, N_PARAMETERS)))
            whitener_rows.append(np.broadcast_to(
                term.whitener, (size, N_PARAMETERS, N_PARAMETERS)))
        return cls(np.concatenate(mu_rows, axis=0),
                   np.concatenate(whitener_rows, axis=0))

    def take(self, rows) -> "_PriorTerm":
        """The term restricted to a row subset (no-op when shared)."""
        if self.shared:
            return self
        return _PriorTerm(self.mu0[rows], self.whitener[rows],
                          normal=self._normal[rows])

    def residual(self, theta: np.ndarray) -> np.ndarray:
        """Whitened prior residual ``W (theta - mu0)`` per row."""
        if self.shared:
            return np.einsum("ij,mj->mi", self.whitener, theta - self.mu0)
        return np.einsum("mij,mj->mi", self.whitener, theta - self.mu0)

    def gradient(self, r_prior: np.ndarray) -> np.ndarray:
        """Gradient contribution ``W^T r_prior`` per row."""
        if self.shared:
            return np.einsum("ji,mj->mi", self.whitener, r_prior)
        return np.einsum("mji,mj->mi", self.whitener, r_prior)

    def normal(self) -> np.ndarray:
        """Normal-matrix contribution ``W^T W`` (per row when not shared)."""
        return self._normal

    def start(self, lower: np.ndarray, upper: np.ndarray,
              n_rows: int) -> np.ndarray:
        """Per-row starting point: the prior mean, nudged inside the bounds."""
        start = np.clip(self.mu0, lower + 1e-9, upper - 1e-9)
        if self.shared:
            return np.broadcast_to(start, (n_rows, N_PARAMETERS)).copy()
        return start.copy()


def _chunked_solve(
    term: _PriorTerm,
    observations: BatchMapObservations,
    model: CompactTimingModel,
    max_iterations: int,
    gtol: float,
    xtol: float,
    max_bytes: Optional[int],
) -> BatchMapResult:
    """Split the row axis under the memory budget and solve sequentially."""
    # Per-seed working set: residual and cost rows of length k, the (k, 4)
    # Jacobian plus its weighted copy, and the damped (4, 4) normal systems
    # with their solve scratch -- roughly 8 * (6k + 80) bytes.  Rows that
    # carry their own condition vectors (stacked multi-arc solves) add the
    # stored (k,) arrays plus the per-iteration gathered copies; per-row
    # priors add their (4,) mean and two (4, 4) matrices.
    k = observations.k
    item_bytes = 8 * (6 * k + 80)
    for value in (observations.sin, observations.cload, observations.vdd,
                  observations.beta):
        if value is not None and value.ndim == 2:
            item_bytes += 8 * 2 * k
    if not term.shared:
        item_bytes += 8 * 2 * (N_PARAMETERS + 2 * N_PARAMETERS ** 2)
    chunks = plan_chunks(observations.n_seeds, item_bytes,
                         resolve_max_bytes(max_bytes))
    if len(chunks) > 1:
        parts = [
            _solve_seed_block(term.take(rows),
                              _slice_observations(observations, rows),
                              model, max_iterations, gtol, xtol)
            for rows in chunks
        ]
        result = BatchMapResult(
            parameters=np.concatenate([p.parameters for p in parts], axis=0),
            converged=np.concatenate([p.converged for p in parts]),
            n_iterations=np.concatenate([p.n_iterations for p in parts]),
            cost=np.concatenate([p.cost for p in parts]),
            residuals=np.concatenate([p.residuals for p in parts], axis=0),
            n_observations=k,
        )
    else:
        result = _solve_seed_block(term, observations, model, max_iterations,
                                   gtol, xtol)
    # Identity (same object, no copy) without an active fault injector;
    # under injection, poisoned rows model a silently corrupted solve and
    # are caught downstream by repair_batch_result / the library flows.
    poisoned = faultinject.corrupt_rows(SITE_RESULT, result.parameters)
    if poisoned is not result.parameters:
        result = replace(result, parameters=poisoned)
    return result


def _slice_observations(observations: BatchMapObservations,
                        rows: slice) -> BatchMapObservations:
    """One contiguous seed block of a batch (shared conditions stay shared)."""

    def take(value: Optional[np.ndarray]) -> Optional[np.ndarray]:
        if value is None or value.ndim == 1:
            return value
        return value[rows]

    return BatchMapObservations(
        sin=take(observations.sin),
        cload=take(observations.cload),
        vdd=take(observations.vdd),
        ieff=take(observations.ieff),
        response=observations.response[rows],
        beta=take(observations.beta),
    )


def _solve_seed_block(
    term: _PriorTerm,
    observations: BatchMapObservations,
    model: CompactTimingModel,
    max_iterations: int,
    gtol: float,
    xtol: float,
) -> BatchMapResult:
    """The vectorized LM solve of one (possibly chunked) row block."""
    lower, upper = model.bounds
    bound_atol = 1e-10 * (upper - lower)

    sin, cload, vdd = observations.sin, observations.cload, observations.vdd
    ieff = observations.ieff
    response = observations.response
    n_seeds, k = response.shape
    beta = (observations.beta if observations.beta is not None else np.ones(k))
    # Residual weights: sqrt(beta) / response gives the relative, precision-
    # weighted data residual of Eq. 15 when multiplied by (model - response).
    sqrt_beta = np.sqrt(beta)
    weight = (sqrt_beta[np.newaxis, :] if sqrt_beta.ndim == 1
              else sqrt_beta) / response

    def row_take(value: np.ndarray, rows: np.ndarray) -> np.ndarray:
        return value if value.ndim == 1 else value[rows]

    def data_residual_jacobian(theta: np.ndarray, rows: np.ndarray
                               ) -> "tuple[np.ndarray, np.ndarray]":
        prediction, jacobian = CompactTimingModel.evaluate_and_jacobian(
            theta, row_take(sin, rows), row_take(cload, rows),
            row_take(vdd, rows), row_take(ieff, rows))
        w = weight[rows]
        return (prediction - response[rows]) * w, jacobian * w[..., np.newaxis]

    def cost_of(theta: np.ndarray, rows: np.ndarray,
                row_term: _PriorTerm) -> np.ndarray:
        prediction = CompactTimingModel.evaluate_array(
            theta[:, np.newaxis, :], row_take(sin, rows),
            row_take(cload, rows), row_take(vdd, rows), row_take(ieff, rows))
        data = (prediction - response[rows]) * weight[rows]
        prior_res = row_term.residual(theta)
        return np.einsum("ij,ij->i", data, data) + np.einsum(
            "ij,ij->i", prior_res, prior_res)

    theta = term.start(lower, upper, n_seeds)
    cost = cost_of(theta, np.arange(n_seeds), term)
    damping = np.full(n_seeds, _LAMBDA_INIT)
    converged = np.zeros(n_seeds, dtype=bool)
    iterations = np.zeros(n_seeds, dtype=int)

    active = np.arange(n_seeds)
    eye = np.eye(N_PARAMETERS)
    for _ in range(max_iterations):
        if active.size == 0:
            break
        iterations[active] += 1
        theta_a = theta[active]
        active_term = term.take(active)
        r_data, j_data = data_residual_jacobian(theta_a, active)
        r_prior = active_term.residual(theta_a)
        # Gradient and Gauss-Newton normal matrix of the stacked problem;
        # the prior block contributes whitener^T whitener, which keeps every
        # normal matrix positive definite regardless of the data.
        gradient = (np.einsum("mki,mk->mi", j_data, r_data)
                    + active_term.gradient(r_prior))
        normal = (np.einsum("mki,mkj->mij", j_data, j_data)
                  + active_term.normal())

        # Active-set classification: a coordinate resting on a bound whose
        # gradient pushes further outward is frozen for this iteration (it
        # cannot produce feasible descent); the projected gradient over the
        # remaining free coordinates is the first-order optimality measure.
        at_lower = theta_a <= lower + bound_atol
        at_upper = theta_a >= upper - bound_atol
        free = ~((at_lower & (gradient > 0.0)) | (at_upper & (gradient < 0.0)))
        projected = np.where(free, gradient, 0.0)
        done = np.max(np.abs(projected), axis=1) < gtol * np.maximum(cost[active], 1.0)

        # Marquardt step on the *reduced* system: frozen coordinates get a
        # unit diagonal row/column and a zero gradient entry, so their step
        # component is exactly zero while the free block keeps its damped
        # Gauss-Newton curvature.  One batched factorization solves every
        # active seed's 4x4 system.
        scale = np.clip(np.einsum("mii->mi", normal), 1e-30, None)
        damped = normal + (damping[active][:, np.newaxis] * scale)[:, :, np.newaxis] * eye
        free_f = free.astype(float)
        damped = damped * free_f[:, :, np.newaxis] * free_f[:, np.newaxis, :]
        diag_idx = np.arange(N_PARAMETERS)
        damped[:, diag_idx, diag_idx] += 1.0 - free_f
        step = np.linalg.solve(damped, -projected[..., np.newaxis])[..., 0]
        candidate = np.clip(theta_a + step, lower, upper)
        moved = candidate - theta_a
        new_cost = cost_of(candidate, active, active_term)

        accept = new_cost <= cost[active]
        # Tiny accepted moves mean the iterate is numerically stationary
        # (possibly pressed against a bound).  A tiny move that is *rejected*
        # under already-saturated damping is stationary too: the heaviest
        # representable damping cannot produce a descent step, which happens
        # when large beta scales the cost so far above 1 that float rounding
        # swamps the remaining descent (the gradient test above, scaled by
        # the cost, covers the same regime from the other side).
        saturated = damping[active] >= _LAMBDA_MAX
        step_small = (np.max(np.abs(moved), axis=1)
                      < xtol * (np.max(np.abs(theta_a), axis=1) + xtol))
        done |= step_small & (accept | saturated)

        rows = active[accept]
        theta[rows] = candidate[accept]
        cost[rows] = new_cost[accept]
        damping[rows] = np.maximum(damping[rows] * _LAMBDA_DOWN, _LAMBDA_MIN)
        rejected = active[~accept]
        damping[rejected] = np.minimum(damping[rejected] * _LAMBDA_UP, _LAMBDA_MAX)

        converged[active[done]] = True
        # A saturated seed still proposing non-tiny steps that all fail is
        # genuinely stuck: retire it so it stops burning iterations, but
        # report it unconverged.
        stalled = ~done & saturated & ~step_small
        active = active[~(done | stalled)]

    prediction = CompactTimingModel.evaluate_array(
        theta[:, np.newaxis, :], sin, cload, vdd, ieff)
    residuals = (prediction - response) / response
    return BatchMapResult(
        parameters=theta,
        converged=converged,
        n_iterations=iterations,
        cost=cost,
        residuals=residuals,
        n_observations=k,
    )


def repair_batch_result(
    result: BatchMapResult,
    observations: BatchMapObservations,
    prior: "TimingPrior | GaussianDensity",
    model: Optional[CompactTimingModel] = None,
    prior_weight: float = 1.0,
    include_unconverged: bool = False,
    ledger=None,
) -> BatchMapResult:
    """Per-seed fallback chain ``batched -> scipy -> prior mean``.

    Seeds whose solved parameter row is non-finite (a diverged or corrupted
    batched solve) are re-solved one at a time through the scalar scipy
    path (:func:`repro.core.map_estimation.map_estimate`); a seed the scipy
    solver cannot rescue either falls back to the prior mean, clipped into
    the model's parameter box and flagged unconverged.  Healthy rows are
    returned untouched (same values, bit-identical), so a clean result
    passes through unchanged -- the chain only ever *adds* information to
    broken rows.

    Parameters
    ----------
    result, observations:
        One block's solve outcome and the observations that produced it.
    prior:
        The block's prior (supplies the scipy re-solve and the last-resort
        mean).
    model, prior_weight:
        As in :func:`map_estimate_batch`.
    include_unconverged:
        Also re-solve finite-but-unconverged seeds.  Off by default: clean
        runs legitimately carry a few unconverged seeds, and re-solving
        them would break the bit-identity of non-faulted results between
        strict and non-strict runs.
    ledger:
        Optional :class:`~repro.runtime.accounting.RunLedger`; repairs are
        counted under ``map_repaired_scipy`` / ``map_repaired_prior``
        (recorded only when nonzero).

    Returns
    -------
    BatchMapResult
        The result with broken rows repaired; the same object when nothing
        needed repair.
    """
    from repro.core.map_estimation import MapObservations, map_estimate

    bad = ~np.all(np.isfinite(result.parameters), axis=1)
    if include_unconverged:
        bad = bad | ~result.converged
    if not np.any(bad):
        return result

    model = model or CompactTimingModel()
    lower, upper = model.bounds
    density = prior.density if isinstance(prior, TimingPrior) else prior
    whitener = density.scaled_covariance(
        1.0 / prior_weight).whitening_matrix(jitter=1e-12)
    mu0 = np.asarray(density.mean, dtype=float)

    def row_of(value: Optional[np.ndarray], row: int) -> Optional[np.ndarray]:
        if value is None or value.ndim == 1:
            return value
        return value[row]

    parameters = result.parameters.copy()
    converged = result.converged.copy()
    residuals = result.residuals.copy()
    cost = result.cost.copy()
    via_scipy = 0
    via_prior = 0
    for row in np.nonzero(bad)[0]:
        response_row = observations.response[row]
        theta = None
        try:
            fit = map_estimate(
                prior,
                MapObservations(
                    sin=row_of(observations.sin, row),
                    cload=row_of(observations.cload, row),
                    vdd=row_of(observations.vdd, row),
                    ieff=row_of(observations.ieff, row),
                    response=response_row,
                    beta=row_of(observations.beta, row),
                ),
                model=model,
                prior_weight=prior_weight,
            )
            candidate = fit.params.as_array()
            if np.all(np.isfinite(candidate)):
                theta = candidate
                converged[row] = bool(fit.converged)
                via_scipy += 1
        except Exception:
            theta = None
        if theta is None:
            theta = np.clip(mu0, lower, upper)
            converged[row] = False
            via_prior += 1
        parameters[row] = theta
        prediction = CompactTimingModel.evaluate_array(
            theta[np.newaxis, np.newaxis, :],
            row_of(observations.sin, row), row_of(observations.cload, row),
            row_of(observations.vdd, row), row_of(observations.ieff, row))[0]
        residuals[row] = (prediction - response_row) / response_row
        beta_row = row_of(observations.beta, row)
        weight = (np.sqrt(beta_row) if beta_row is not None
                  else 1.0) / response_row
        data = (prediction - response_row) * weight
        prior_res = whitener @ (theta - mu0)
        cost[row] = float(data @ data + prior_res @ prior_res)

    if ledger is not None:
        if via_scipy:
            ledger.add_metric("map_repaired_scipy", via_scipy)
        if via_prior:
            ledger.add_metric("map_repaired_prior", via_prior)
    return replace(result, parameters=parameters, converged=converged,
                   residuals=residuals, cost=cost)
