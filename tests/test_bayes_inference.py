"""Tests for conjugate updates, precision learning (Eq. 9), and Gaussian BP.

The Gaussian BP tests drive the scalar factor graph of
``tests/oracles/scalar_bp.py``, the reference the batched engine is checked
against in ``test_batched_bp.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bayes import (
    GaussianDensity,
    PrecisionModel,
    gaussian_linear_update,
    posterior_of_mean,
)
from repro.bayes.precision import precision_from_relative_residuals
from tests.oracles.scalar_bp import GaussianFactorGraph


class TestConjugateUpdates:
    def test_scalar_update_matches_textbook_formula(self):
        prior = GaussianDensity([0.0], [[1.0]])
        posterior = gaussian_linear_update(prior, np.array([[1.0]]), np.array([2.0]),
                                           np.array([4.0]))
        # Posterior precision 1 + 4 = 5, mean = 4*2/5.
        assert posterior.covariance[0, 0] == pytest.approx(1.0 / 5.0)
        assert posterior.mean[0] == pytest.approx(8.0 / 5.0)

    def test_zero_precision_observation_is_ignored(self):
        prior = GaussianDensity([1.0], [[2.0]])
        posterior = gaussian_linear_update(prior, np.array([[1.0]]), np.array([10.0]),
                                           np.array([0.0]))
        assert posterior.mean[0] == pytest.approx(1.0)
        assert posterior.covariance[0, 0] == pytest.approx(2.0, rel=1e-6)

    def test_design_shape_validation(self):
        prior = GaussianDensity([0.0, 0.0], np.eye(2))
        with pytest.raises(ValueError):
            gaussian_linear_update(prior, np.ones((2, 3)), np.ones(2), 1.0)
        with pytest.raises(ValueError):
            gaussian_linear_update(prior, np.ones((3, 2)), np.ones(2), 1.0)

    def test_posterior_of_mean_shrinks_toward_observations(self):
        prior = GaussianDensity([0.0, 0.0], 10.0 * np.eye(2))
        observations = np.array([[1.0, 2.0], [1.2, 1.8], [0.8, 2.2]])
        posterior = posterior_of_mean(prior, observations,
                                      observation_precisions=[100.0, 100.0, 100.0])
        assert np.allclose(posterior.mean, observations.mean(axis=0), atol=0.05)
        assert posterior.covariance[0, 0] < 0.1


class TestPrecisionLearning:
    def test_eq9_matches_direct_computation(self):
        residuals = np.array([[0.01, 0.05], [0.02, -0.04], [-0.015, 0.06]])
        betas = precision_from_relative_residuals(residuals)
        expected = 1.0 / np.maximum(
            np.mean(residuals ** 2, axis=0) - np.mean(np.abs(residuals), axis=0) ** 2,
            1e-8)
        assert np.allclose(betas, expected)

    def test_low_spread_gives_high_precision(self):
        tight = np.array([[0.01, 0.2], [0.011, -0.25], [0.009, 0.3]])
        betas = precision_from_relative_residuals(tight)
        assert betas[0] > betas[1]

    def test_degenerate_residuals_are_clipped(self):
        betas = precision_from_relative_residuals(np.zeros((3, 2)))
        assert np.all(np.isfinite(betas))
        assert np.all(betas > 0)

    def test_precision_model_interpolation(self):
        model = PrecisionModel(
            unit_conditions=np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]),
            precisions=np.array([100.0, 1000.0]))
        exact = model.beta(np.array([[0.0, 0.0, 0.0]]))
        assert exact[0] == pytest.approx(100.0)
        middle = model.beta(np.array([[0.5, 0.5, 0.5]]))
        assert 100.0 < middle[0] < 1000.0

    def test_precision_model_validation(self):
        with pytest.raises(ValueError):
            PrecisionModel(unit_conditions=np.zeros((2, 3)),
                           precisions=np.array([1.0]))
        with pytest.raises(ValueError):
            PrecisionModel(unit_conditions=np.zeros((1, 3)),
                           precisions=np.array([-1.0]))

    def test_constant_and_scaled(self):
        model = PrecisionModel.constant(50.0)
        assert model.beta(np.array([[0.2, 0.9, 0.1]]))[0] == pytest.approx(50.0)
        scaled = model.scaled(2.0)
        assert scaled.average_precision() == pytest.approx(100.0)
        with pytest.raises(ValueError):
            model.scaled(-1.0)


class TestGaussianFactorGraph:
    def test_star_matches_closed_form_fusion(self):
        """BP on a star of direct observations equals the conjugate update."""
        dim = 2
        observations = {
            "tech_a": GaussianDensity([1.0, 0.0], 0.1 * np.eye(dim)),
            "tech_b": GaussianDensity([0.0, 1.0], 0.1 * np.eye(dim)),
            "tech_c": GaussianDensity([0.5, 0.5], 0.1 * np.eye(dim)),
        }
        drift = 0.2 * np.eye(dim)
        graph = GaussianFactorGraph.star("global", observations, drift)
        beliefs = graph.run_belief_propagation()
        # Closed form: the global variable sees each leaf through evidence
        # covariance + drift covariance.
        flat_prior = GaussianDensity([0.0, 0.0], 1e6 * np.eye(dim))
        design = np.tile(np.eye(dim), (3, 1))
        values = np.concatenate([d.mean for d in observations.values()])
        noise_precision = np.repeat([1.0 / 0.3] * 3, dim)
        expected = gaussian_linear_update(flat_prior, design, values, noise_precision)
        assert np.allclose(beliefs["global"].mean, expected.mean, atol=1e-4)
        assert np.allclose(beliefs["global"].covariance, expected.covariance,
                           atol=1e-3)

    def test_chain_propagates_information_to_unobserved_end(self):
        evidence = {"n45": GaussianDensity([1.0], [[0.01]])}
        graph = GaussianFactorGraph.chain(["n45", "n28", "n14"], evidence,
                                          np.array([[0.05]]))
        beliefs = graph.run_belief_propagation()
        assert beliefs["n14"].mean[0] == pytest.approx(1.0, abs=1e-6)
        # Information degrades (variance grows) along the chain.
        assert (beliefs["n14"].covariance[0, 0]
                > beliefs["n28"].covariance[0, 0]
                > beliefs["n45"].covariance[0, 0])

    def test_variable_without_information_raises(self):
        graph = GaussianFactorGraph()
        graph.add_variable("lonely", 2)
        with pytest.raises(RuntimeError):
            graph.run_belief_propagation()

    def test_duplicate_variable_rejected(self):
        graph = GaussianFactorGraph()
        graph.add_variable("x", 1)
        with pytest.raises(ValueError):
            graph.add_variable("x", 1)

    def test_evidence_dimension_checked(self):
        graph = GaussianFactorGraph()
        graph.add_variable("x", 2)
        with pytest.raises(ValueError):
            graph.add_evidence("x", GaussianDensity([0.0], [[1.0]]))

    def test_smoothness_requires_known_variables(self):
        graph = GaussianFactorGraph()
        graph.add_variable("x", 1)
        with pytest.raises(KeyError):
            graph.add_smoothness("x", "y", np.array([[1.0]]))

    def test_loopy_graph_converges_with_damping(self):
        graph = GaussianFactorGraph()
        for name in ("a", "b", "c"):
            graph.add_variable(name, 1)
            graph.add_evidence(name, GaussianDensity([float(ord(name) - 97)], [[1.0]]))
        graph.add_smoothness("a", "b", np.array([[0.5]]))
        graph.add_smoothness("b", "c", np.array([[0.5]]))
        graph.add_smoothness("c", "a", np.array([[0.5]]))
        beliefs = graph.run_belief_propagation(max_iterations=300, damping=0.3)
        # The loop pulls every belief toward the common average.
        assert 0.0 < beliefs["a"].mean[0] < 2.0
