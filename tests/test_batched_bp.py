"""Tests for the batched Gaussian belief-propagation engine.

The batched engine stacks B independent same-topology factor graphs and
advances all of them through the scalar engine's exact message schedule with
one batched linear solve per update.  The contract under test: for every
topology (chain, star, loopy with damping) the batched sweeps reproduce the
scalar per-graph loop of ``tests/oracles/scalar_bp.py`` at
``rtol <= 1e-12``, converged graphs retire
independently, and the tree cases match the closed-form joint-precision
marginals.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bayes import BatchedFactorGraph, GaussianBatch, GaussianDensity
from tests.oracles.scalar_bp import GaussianFactorGraph, run_loop

RTOL = 1e-12


def random_density(rng: np.random.Generator, dim: int = 3) -> GaussianDensity:
    mean = rng.normal(size=dim)
    root = rng.normal(size=(dim, dim))
    covariance = root @ root.T + 0.5 * np.eye(dim)
    return GaussianDensity(mean, covariance)


def random_spd(rng: np.random.Generator, dim: int = 3) -> np.ndarray:
    root = rng.normal(size=(dim, dim))
    return root @ root.T + 0.5 * np.eye(dim)


def assert_batches_close(left, right, rtol=RTOL):
    for name in left:
        np.testing.assert_allclose(left[name].mean, right[name].mean,
                                   rtol=rtol, atol=1e-14)
        np.testing.assert_allclose(left[name].covariance,
                                   right[name].covariance,
                                   rtol=rtol, atol=1e-14)


class TestGaussianBatch:
    def test_from_densities_roundtrip(self):
        rng = np.random.default_rng(3)
        densities = [random_density(rng) for _ in range(4)]
        batch = GaussianBatch.from_densities(densities)
        assert batch.batch_size == 4 and batch.dim == 3 and len(batch) == 4
        for index, density in enumerate(densities):
            np.testing.assert_allclose(batch.density(index).mean,
                                       density.mean, rtol=1e-15)
            np.testing.assert_allclose(batch.density(index).covariance,
                                       density.covariance, rtol=1e-15)
        np.testing.assert_allclose(
            batch.standard_deviations(),
            np.stack([d.standard_deviations() for d in densities]),
            rtol=1e-15)

    def test_from_information_matches_scalar(self):
        rng = np.random.default_rng(4)
        densities = [random_density(rng) for _ in range(3)]
        info = [d.to_information() for d in densities]
        batch = GaussianBatch.from_information(
            np.stack([p for p, _ in info]), np.stack([h for _, h in info]))
        for index, density in enumerate(densities):
            np.testing.assert_allclose(batch.mean[index], density.mean,
                                       rtol=1e-9)
            np.testing.assert_allclose(batch.covariance[index],
                                       density.covariance, rtol=1e-9)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            GaussianBatch(np.zeros((2, 3)), np.zeros((2, 3, 2)))
        with pytest.raises(ValueError):
            GaussianBatch(np.zeros(3), np.zeros((3, 3)))
        batch = GaussianBatch(np.zeros((2, 3)), np.broadcast_to(np.eye(3), (2, 3, 3)))
        with pytest.raises(IndexError):
            batch.density(2)


class TestBatchedMatchesLoop:
    def test_star_is_bit_compatible(self):
        rng = np.random.default_rng(11)
        batch_size = 5
        leaves = {f"leaf{i}": [random_density(rng) for _ in range(batch_size)]
                  for i in range(4)}
        link = random_spd(rng)
        graph = BatchedFactorGraph.star("center", leaves, link)
        batched = graph.run_belief_propagation()
        loop = run_loop(graph)
        assert_batches_close(batched, loop)

    def test_chain_matches_loop(self):
        rng = np.random.default_rng(12)
        batch_size = 3
        names = ["n45", "n28", "n14"]
        evidence = {name: [random_density(rng) for _ in range(batch_size)]
                    for name in ("n45", "n14")}
        graph = BatchedFactorGraph.chain(names, evidence, random_spd(rng))
        assert_batches_close(graph.run_belief_propagation(), run_loop(graph))

    def test_loopy_damped_matches_loop_per_graph_damping(self):
        rng = np.random.default_rng(13)
        batch_size = 4
        graph = BatchedFactorGraph(batch_size)
        for name in ("a", "b", "c"):
            graph.add_variable(name, 2)
            graph.add_evidence(
                name, [random_density(rng, dim=2) for _ in range(batch_size)])
        for pair in (("a", "b"), ("b", "c"), ("c", "a")):
            graph.add_smoothness(*pair, noise_covariance=random_spd(rng, 2))
        damping = np.array([0.1, 0.3, 0.5, 0.7])
        batched = graph.run_belief_propagation(max_iterations=500,
                                               damping=damping)
        loop = run_loop(graph, max_iterations=500, damping=damping)
        assert_batches_close(batched, loop)

    def test_per_graph_link_covariances(self):
        rng = np.random.default_rng(14)
        batch_size = 3
        links = np.stack([random_spd(rng) for _ in range(batch_size)])
        leaves = {f"leaf{i}": [random_density(rng) for _ in range(batch_size)]
                  for i in range(2)}
        graph = BatchedFactorGraph.star("center", leaves, links)
        assert_batches_close(graph.run_belief_propagation(), run_loop(graph))

    def test_shared_evidence_infers_batch_of_one(self):
        rng = np.random.default_rng(15)
        graph = BatchedFactorGraph.star(
            "center", {"leaf": random_density(rng)}, np.eye(3))
        beliefs = graph.run_belief_propagation()
        assert beliefs["center"].batch_size == 1


class TestClosedForm:
    @staticmethod
    def joint_marginals(variables, evidence, links):
        """Exact marginals from the assembled joint precision system."""
        dim = next(iter(evidence.values()))[0].dim
        n = len(variables)
        index = {name: i for i, name in enumerate(variables)}
        joint = np.zeros((n * dim, n * dim))
        shift = np.zeros(n * dim)
        for name, densities in evidence.items():
            i = index[name]
            precision, h = densities[0].to_information()
            joint[i * dim:(i + 1) * dim, i * dim:(i + 1) * dim] += precision
            shift[i * dim:(i + 1) * dim] += h
        for (a, b), covariance in links:
            w = np.linalg.inv(covariance)
            ia, ib = index[a], index[b]
            joint[ia * dim:(ia + 1) * dim, ia * dim:(ia + 1) * dim] += w
            joint[ib * dim:(ib + 1) * dim, ib * dim:(ib + 1) * dim] += w
            joint[ia * dim:(ia + 1) * dim, ib * dim:(ib + 1) * dim] -= w
            joint[ib * dim:(ib + 1) * dim, ia * dim:(ia + 1) * dim] -= w
        covariance = np.linalg.inv(joint)
        mean = covariance @ shift
        return {name: (mean[i * dim:(i + 1) * dim],
                       covariance[i * dim:(i + 1) * dim, i * dim:(i + 1) * dim])
                for name, i in index.items()}

    def test_star_matches_joint_precision_solve(self):
        rng = np.random.default_rng(21)
        link = random_spd(rng)
        evidence = {f"leaf{i}": [random_density(rng)] for i in range(3)}
        graph = BatchedFactorGraph.star("center", evidence, link)
        beliefs = graph.run_belief_propagation()
        exact = self.joint_marginals(
            ["center", "leaf0", "leaf1", "leaf2"], evidence,
            [(("center", f"leaf{i}"), link) for i in range(3)])
        for name, (mean, covariance) in exact.items():
            np.testing.assert_allclose(beliefs[name].mean[0], mean, rtol=1e-8)
            np.testing.assert_allclose(beliefs[name].covariance[0], covariance,
                                       rtol=1e-8)

    def test_chain_matches_joint_precision_solve(self):
        rng = np.random.default_rng(22)
        link = random_spd(rng)
        names = ["a", "b", "c", "d"]
        evidence = {"a": [random_density(rng)], "d": [random_density(rng)]}
        graph = BatchedFactorGraph.chain(names, evidence, link)
        beliefs = graph.run_belief_propagation()
        exact = self.joint_marginals(
            names, evidence,
            [(pair, link) for pair in zip(names[:-1], names[1:])])
        for name, (mean, covariance) in exact.items():
            np.testing.assert_allclose(beliefs[name].mean[0], mean, rtol=1e-8)
            np.testing.assert_allclose(beliefs[name].covariance[0], covariance,
                                       rtol=1e-8)


class TestRetirementAndInfo:
    def loopy_graph(self, damping_values):
        rng = np.random.default_rng(31)
        batch_size = len(damping_values)
        graph = BatchedFactorGraph(batch_size)
        for name in ("a", "b", "c"):
            graph.add_variable(name, 2)
            graph.add_evidence(
                name, [random_density(rng, dim=2) for _ in range(batch_size)])
        for pair in (("a", "b"), ("b", "c"), ("c", "a")):
            graph.add_smoothness(*pair, noise_covariance=random_spd(rng, 2))
        return graph

    def test_heavier_damping_retires_later(self):
        damping = np.array([0.1, 0.5, 0.85])
        graph = self.loopy_graph(damping)
        beliefs, info = graph.run_belief_propagation(
            max_iterations=1000, damping=damping, return_info=True)
        assert np.all(info.converged)
        assert np.all(np.diff(info.iterations) > 0)
        assert beliefs["a"].batch_size == 3

    def test_retired_graphs_keep_their_results(self):
        damping = np.array([0.1, 0.85])
        graph = self.loopy_graph(damping)
        both = graph.run_belief_propagation(max_iterations=1000,
                                            damping=damping)
        solo = self.loopy_graph([0.1]).run_belief_propagation(
            max_iterations=1000, damping=np.array([0.1]))
        # Graph 0 retires long before graph 1; its beliefs must equal a
        # standalone run with the same evidence row.
        rng = np.random.default_rng(31)
        # (loopy_graph draws evidence per batch row from one stream, so the
        # solo graph's row 0 matches the pair's row 0 only when batch sizes
        # agree; instead compare against the loop oracle, which shares rows.)
        loop = run_loop(graph, max_iterations=1000, damping=damping)
        assert_batches_close(both, loop)
        assert solo["a"].batch_size == 1

    def test_nonconvergence_raises(self):
        damping = np.array([0.0, 0.0])
        graph = self.loopy_graph(damping)
        with pytest.raises(RuntimeError, match="did not converge"):
            graph.run_belief_propagation(max_iterations=2, tolerance=1e-300,
                                         damping=damping)


class TestValidation:
    def test_unknown_engine(self):
        # One BP engine: the engine switch is gone entirely.
        graph = BatchedFactorGraph.star(
            "c", {"l": GaussianDensity([0.0], [[1.0]])}, np.eye(1))
        with pytest.raises(TypeError, match="engine"):
            graph.run_belief_propagation(engine="loop")

    def test_damping_bounds(self):
        graph = BatchedFactorGraph.star(
            "c", {"l": GaussianDensity([0.0], [[1.0]])}, np.eye(1))
        with pytest.raises(ValueError, match="damping"):
            graph.run_belief_propagation(damping=1.0)
        with pytest.raises(ValueError, match="damping"):
            graph.run_belief_propagation(damping=np.array([0.2, 0.3]))

    def test_asymmetric_covariance_rejected(self):
        graph = BatchedFactorGraph(2)
        graph.add_variable("a", 2)
        graph.add_variable("b", 2)
        with pytest.raises(ValueError, match="symmetric"):
            graph.add_smoothness("a", "b",
                                 np.array([[1.0, 0.5], [0.2, 1.0]]))

    def test_non_psd_covariance_rejected(self):
        graph = BatchedFactorGraph(2)
        graph.add_variable("a", 2)
        graph.add_variable("b", 2)
        with pytest.raises(ValueError, match="positive semi-definite"):
            graph.add_smoothness("a", "b",
                                 np.array([[1.0, 0.0], [0.0, -2.0]]))

    def test_evidence_count_must_match_batch(self):
        graph = BatchedFactorGraph(3)
        graph.add_variable("a", 1)
        with pytest.raises(ValueError, match="one per graph"):
            graph.add_evidence("a", [GaussianDensity([0.0], [[1.0]])] * 2)

    def test_unknown_variable(self):
        graph = BatchedFactorGraph(1)
        with pytest.raises(KeyError):
            graph.add_evidence("ghost", GaussianDensity([0.0], [[1.0]]))

    def test_duplicate_variable(self):
        graph = BatchedFactorGraph(1)
        graph.add_variable("a", 1)
        with pytest.raises(ValueError, match="already exists"):
            graph.add_variable("a", 1)

    def test_conflicting_evidence_batch_sizes(self):
        density = GaussianDensity([0.0], [[1.0]])
        with pytest.raises(ValueError, match="conflicting"):
            BatchedFactorGraph.star(
                "c", {"l1": [density] * 2, "l2": [density] * 3}, np.eye(1))

    def test_no_information_variable(self):
        graph = BatchedFactorGraph(1)
        graph.add_variable("lonely", 1)
        with pytest.raises(RuntimeError, match="no information"):
            graph.run_belief_propagation()

    def test_scalar_graph_matches_batched_star(self):
        """The scalar oracle and a B=1 batched star agree."""
        rng = np.random.default_rng(41)
        leaves = {f"leaf{i}": random_density(rng) for i in range(3)}
        link = random_spd(rng)
        scalar = GaussianFactorGraph.star("center", leaves, link)
        scalar_beliefs = scalar.run_belief_propagation()
        batched = BatchedFactorGraph.star("center", leaves, link)
        batched_beliefs = batched.run_belief_propagation()
        for name, density in scalar_beliefs.items():
            np.testing.assert_allclose(batched_beliefs[name].mean[0],
                                       density.mean, rtol=RTOL)
            np.testing.assert_allclose(batched_beliefs[name].covariance[0],
                                       density.covariance, rtol=RTOL)
