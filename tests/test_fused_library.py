"""Tests for the fused library characterization pipeline.

The fused pipeline must be *indistinguishable* from the per-arc oracle
(``tests/oracles/per_arc.py``) in everything but wall clock: matching
``LibraryCharacterization`` entries, identical :class:`SimulationCounter`
charges and identical ledger run counts in every execution mode, plus cache
reuse when a fused pass is rerun warm.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import repro.runtime as runtime
from repro import RunLedger, SimulationCounter, get_technology, make_cell
from repro.analysis import format_ledger
from repro.cells.equivalent_inverter import reduce_cell_cached
from repro.cells.library import StandardCellLibrary, Transition
from repro.core.library_flow import characterize_library
from repro.spice import sweep as sweep_module
from repro.spice.sweep import sweep_conditions
from repro.spice.testbench import get_simulation_cache
from tests.oracles.per_arc import characterize_library_per_arc


def footprint_twins(n_cells: int = 4):
    """``n_cells`` cells cycling over two templates, renamed per index.

    Footprint twins (identical devices, different logic names) are the
    realistic library shape the signature grouping exploits: their arcs
    share equivalent-inverter signatures while keeping distinct cache
    identities.
    """
    templates = ("INV_X1", "NAND2_X1")
    cells = []
    for index in range(n_cells):
        base = make_cell(templates[index % len(templates)])
        cells.append(dataclasses.replace(base, name=f"{base.name}_C{index}"))
    return cells


@pytest.fixture(scope="module")
def tech28_module():
    return get_technology("n28_bulk")


@pytest.fixture(scope="module")
def priors_module(tech28_module):
    from repro.core.prior_learning import (
        characterize_historical_library,
        learn_prior,
        shared_reference_conditions,
    )

    unit = shared_reference_conditions(8, rng=7)
    historical = [characterize_historical_library(
        get_technology("n45_bulk"),
        [make_cell("INV_X1"), make_cell("NAND2_X1")],
        unit_conditions=unit, transitions=(Transition.FALL,))]
    return (learn_prior(historical, response="delay"),
            learn_prior(historical, response="slew"))


@pytest.fixture(scope="module")
def twin_library():
    return StandardCellLibrary("twins", footprint_twins(4))


def run_library(tech, library, priors, *, pipeline, cold=True, **kwargs):
    """One characterization run with its own counter and ledger.

    ``pipeline="fused"`` runs production; ``"per_arc"`` runs the oracle.
    """
    if cold:
        get_simulation_cache().clear()
    counter = SimulationCounter()
    ledger = RunLedger()
    flow = (characterize_library if pipeline == "fused"
            else characterize_library_per_arc)
    result = flow(tech, library, priors[0], priors[1], conditions=2,
                  n_seeds=8, rng=5, counter=counter, ledger=ledger, **kwargs)
    return result, counter, ledger


def assert_entries_equal(a, b, exact=True):
    assert len(a.entries) == len(b.entries)
    for left, right in zip(a.entries, b.entries):
        assert left.cell_name == right.cell_name
        assert left.arc.name == right.arc.name
        assert left.statistical.fitting_conditions == \
            right.statistical.fitting_conditions
        assert left.statistical.simulation_runs == \
            right.statistical.simulation_runs
        if exact:
            np.testing.assert_array_equal(left.statistical.delay_parameters,
                                          right.statistical.delay_parameters)
            np.testing.assert_array_equal(left.statistical.slew_parameters,
                                          right.statistical.slew_parameters)
        else:
            np.testing.assert_allclose(left.statistical.delay_parameters,
                                       right.statistical.delay_parameters,
                                       rtol=1e-12)
            np.testing.assert_allclose(left.statistical.slew_parameters,
                                       right.statistical.slew_parameters,
                                       rtol=1e-12)


class TestFusedParity:
    def test_fused_matches_per_arc_bitwise(self, tech28_module, twin_library,
                                           priors_module):
        per_arc, c_per_arc, l_per_arc = run_library(
            tech28_module, twin_library, priors_module, pipeline="per_arc")
        fused, c_fused, l_fused = run_library(
            tech28_module, twin_library, priors_module, pipeline="fused")

        # Cross-pipeline parameter parity is pinned at rtol 1e-12: the
        # stacked solve hands BLAS different batch shapes than the per-arc
        # solves, which can shift the last ulp of the prior matmuls (and
        # with it a marginal seed's iteration count) without moving the
        # converged parameters.
        assert_entries_equal(per_arc, fused, exact=False)
        assert fused.simulation_runs == per_arc.simulation_runs
        # Identical counter charges, by label.
        assert c_fused.total == c_per_arc.total
        assert c_fused.by_label() == c_per_arc.by_label()
        # Identical ledger run counts.
        assert l_fused.simulations_by_label() == \
            l_per_arc.simulations_by_label()
        assert l_fused.metrics()["solver_iterations"] > 0
        assert l_per_arc.metrics()["solver_iterations"] > 0

    @pytest.mark.parametrize("concurrency", ["process"])
    def test_fused_identical_across_concurrency(self, tech28_module,
                                                twin_library, priors_module,
                                                concurrency):
        serial, c_serial, l_serial = run_library(
            tech28_module, twin_library, priors_module, pipeline="fused")
        other, c_other, l_other = run_library(
            tech28_module, twin_library, priors_module, pipeline="fused",
            concurrency=concurrency,
            **({"max_workers": 2} if concurrency == "process" else {}))
        assert_entries_equal(serial, other)
        assert c_other.by_label() == c_serial.by_label()
        assert l_other.simulations_by_label() == \
            l_serial.simulations_by_label()
        assert l_other.metrics()["solver_iterations"] == \
            l_serial.metrics()["solver_iterations"]

    @pytest.mark.parametrize("concurrency", ["serial", "process"])
    def test_per_arc_identical_across_concurrency(self, tech28_module,
                                                  twin_library, priors_module,
                                                  concurrency):
        per_arc, c_per_arc, _ = run_library(
            tech28_module, twin_library, priors_module, pipeline="per_arc")
        fused, c_fused, _ = run_library(
            tech28_module, twin_library, priors_module, pipeline="fused",
            concurrency=concurrency,
            **({"max_workers": 2} if concurrency == "process" else {}))
        assert_entries_equal(fused, per_arc, exact=False)
        assert c_per_arc.by_label() == c_fused.by_label()

    def test_scipy_solver_parity(self, tech28_module, priors_module):
        # The production solver against the independent per-seed scipy
        # solver, end to end through the library flow (same tolerance as
        # the solver-level parity suite in test_batch_map.py).
        library = [make_cell("INV_X1")]
        fused, _, _ = run_library(tech28_module, library, priors_module,
                                  pipeline="fused")
        per_arc, _, _ = run_library(tech28_module, library, priors_module,
                                    pipeline="per_arc", solver="scipy")
        assert len(fused.entries) == len(per_arc.entries)
        for left, right in zip(fused.entries, per_arc.entries):
            assert left.statistical.fitting_conditions == \
                right.statistical.fitting_conditions
            np.testing.assert_allclose(left.statistical.delay_parameters,
                                       right.statistical.delay_parameters,
                                       rtol=1e-4, atol=1e-6)
            np.testing.assert_allclose(left.statistical.slew_parameters,
                                       right.statistical.slew_parameters,
                                       rtol=1e-4, atol=1e-6)

    def test_memory_budget_preserves_results(self, tech28_module,
                                             twin_library, priors_module):
        reference, _, _ = run_library(
            tech28_module, twin_library, priors_module, pipeline="fused")
        budgeted, _, _ = run_library(
            tech28_module, twin_library, priors_module, pipeline="fused",
            max_bytes=64 * 1024)
        assert_entries_equal(reference, budgeted, exact=False)

    def test_invalid_pipeline_rejected(self, tech28_module, twin_library,
                                       priors_module):
        for pipeline in ("turbo", "per_arc"):
            with pytest.raises(ValueError, match="pipeline"):
                characterize_library(tech28_module, twin_library,
                                     priors_module[0], priors_module[1],
                                     pipeline=pipeline)


class TestSignatureGrouping:
    def test_footprint_twins_share_groups(self, tech28_module, twin_library,
                                          priors_module):
        _, _, ledger = run_library(tech28_module, twin_library, priors_module,
                                   pipeline="fused")
        metrics = ledger.metrics()
        # 4 cells x 2 transitions = 8 arcs, but only 2 templates x 2
        # polarities = 4 distinct signatures.
        assert metrics["fused_signature_groups"] == 4
        assert metrics["fused_rows_simulated"] == 8 * 2
        assert metrics["fused_rows_cached"] == 0
        sizes = ledger.group_sizes()["fused:signature_rows"]
        assert sizes == [4, 4, 4, 4]

    def test_group_sizes_render_in_ledger(self, tech28_module, twin_library,
                                          priors_module):
        _, _, ledger = run_library(tech28_module, twin_library, priors_module,
                                   pipeline="fused")
        text = format_ledger(ledger, title="fused run")
        assert "fused:signature_rows" in text
        assert "fused:plan" in text
        assert "fused:solve" in text

    def test_shared_grid_deduplicates_twin_rows(self, tech28_module,
                                                twin_library, priors_module):
        """Footprint twins on a shared condition grid simulate once."""
        from repro.characterization.input_space import InputSpace

        grid = InputSpace(tech28_module).sample_lhs(2, np.random.default_rng(3))
        get_simulation_cache().clear()
        counter_fused = SimulationCounter()
        ledger = RunLedger()
        fused = characterize_library(
            tech28_module, twin_library, priors_module[0], priors_module[1],
            conditions=grid, n_seeds=8, rng=5, counter=counter_fused,
            ledger=ledger, pipeline="fused")
        metrics = ledger.metrics()
        # 8 arcs x 2 conditions = 16 rows, but 4 signatures x 2 conditions
        # = 8 unique simulations.
        assert metrics["fused_rows_total"] == 16
        assert metrics["fused_rows_simulated"] == 8
        assert metrics["fused_rows_deduplicated"] == 8
        get_simulation_cache().clear()
        counter_per_arc = SimulationCounter()
        per_arc = characterize_library_per_arc(
            tech28_module, twin_library, priors_module[0], priors_module[1],
            conditions=grid, n_seeds=8, rng=5, counter=counter_per_arc)
        assert_entries_equal(fused, per_arc, exact=False)
        # Dedup never changes what a flow *requires*: charges stay identical.
        assert counter_fused.by_label() == counter_per_arc.by_label()

    def test_signature_excludes_names(self, tech28_module):
        variation = tech28_module.variation.sample(4, 3)
        twin_a, twin_b = footprint_twins(2)[:1] + [footprint_twins(4)[2]]
        arc_a = twin_a.arc(twin_a.input_pins[0], Transition.FALL)
        arc_b = twin_b.arc(twin_b.input_pins[0], Transition.FALL)
        inv_a = reduce_cell_cached(twin_a, tech28_module, arc=arc_a,
                                   variation=variation)
        inv_b = reduce_cell_cached(twin_b, tech28_module, arc=arc_b,
                                   variation=variation)
        assert twin_a.name != twin_b.name
        assert inv_a.simulation_signature() == inv_b.simulation_signature()
        # Opposite polarity must not share a group.
        arc_rise = twin_a.arc(twin_a.input_pins[0], Transition.RISE)
        inv_rise = reduce_cell_cached(twin_a, tech28_module, arc=arc_rise,
                                      variation=variation)
        assert inv_rise.simulation_signature() != inv_a.simulation_signature()


class TestCacheReuse:
    def test_warm_fused_rerun_replays_cache(self, tech28_module, twin_library,
                                            priors_module):
        cold, counter_cold, ledger_cold = run_library(
            tech28_module, twin_library, priors_module, pipeline="fused")
        hits_before = runtime.cache_stats()["simulation"].hits
        warm, counter_warm, ledger_warm = run_library(
            tech28_module, twin_library, priors_module, pipeline="fused",
            cold=False)
        assert_entries_equal(cold, warm)
        metrics = ledger_warm.metrics()
        assert metrics["fused_rows_cached"] == metrics["fused_rows_total"]
        assert metrics["fused_rows_simulated"] == 0
        assert metrics.get("fused_signature_groups", 0) == 0
        assert runtime.cache_stats()["simulation"].hits > hits_before
        # Runs are still charged in full: counters measure required runs.
        assert counter_warm.by_label() == counter_cold.by_label()
        assert ledger_warm.simulations_by_label() == \
            ledger_cold.simulations_by_label()

    def test_per_arc_replays_fused_cache(self, tech28_module, twin_library,
                                         priors_module):
        fused, _, _ = run_library(tech28_module, twin_library, priors_module,
                                  pipeline="fused")
        hits_before = runtime.cache_stats()["simulation"].hits
        per_arc, _, _ = run_library(tech28_module, twin_library, priors_module,
                                    pipeline="per_arc", cold=False)
        assert_entries_equal(fused, per_arc, exact=False)
        assert runtime.cache_stats()["simulation"].hits > hits_before


class TestSweepShortCircuit:
    def test_full_cache_hit_skips_the_engine(self, tech28_module, monkeypatch):
        cell = make_cell("INV_X1")
        variation = tech28_module.variation.sample(4, 11)
        conditions = [(20e-12, 1e-15, 0.9), (40e-12, 2e-15, 0.85)]
        get_simulation_cache().clear()
        warm = sweep_conditions(cell, tech28_module, conditions,
                                variation=variation)

        def exploding(*args, **kwargs):
            raise AssertionError("full cache hit must not reach the engine")

        monkeypatch.setattr(sweep_module, "simulate_arc_transitions",
                            exploding)
        monkeypatch.setattr(sweep_module, "reduce_cell_cached", exploding)
        replay = sweep_conditions(cell, tech28_module, conditions,
                                  variation=variation)
        for a, b in zip(warm, replay):
            np.testing.assert_array_equal(a.delay, b.delay)
            np.testing.assert_array_equal(a.output_slew, b.output_slew)
            assert a.arc == b.arc

    def test_partial_hit_still_simulates_missing_rows(self, tech28_module):
        cell = make_cell("INV_X1")
        variation = tech28_module.variation.sample(4, 11)
        get_simulation_cache().clear()
        first = sweep_conditions(cell, tech28_module, [(20e-12, 1e-15, 0.9)],
                                 variation=variation)
        both = sweep_conditions(
            cell, tech28_module, [(20e-12, 1e-15, 0.9), (40e-12, 2e-15, 0.85)],
            variation=variation)
        np.testing.assert_array_equal(first[0].delay, both[0].delay)
        assert np.all(np.asarray(both[1].delay) > 0.0)

    def test_runs_charged_even_on_full_hit(self, tech28_module):
        cell = make_cell("INV_X1")
        variation = tech28_module.variation.sample(4, 11)
        conditions = [(20e-12, 1e-15, 0.9)]
        get_simulation_cache().clear()
        sweep_conditions(cell, tech28_module, conditions, variation=variation)
        counter = SimulationCounter()
        sweep_conditions(cell, tech28_module, conditions, variation=variation,
                         counter=counter)
        assert counter.total == 4
