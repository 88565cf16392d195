"""Tests for the transient solver, test benches, sweeps, and run accounting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cells import Transition, reduce_cell
from repro.spice import (
    SimulationCounter,
    characterize_arc,
    simulate_arc_transitions,
    sweep_conditions,
)
from repro.spice.testbench import characterize_cell_nominal


class TestTransientSolver:
    def test_falling_output_completes(self, tech14, inv_cell):
        inverter = reduce_cell(inv_cell, tech14,
                               arc=inv_cell.arc("A", Transition.FALL))
        result = simulate_arc_transitions(inverter, [5e-12], [2e-15],
                                          [0.8]).condition(0)
        final = result.output_waveform.final_value()[0]
        assert final < 0.1 * 0.8
        assert result.delay()[0] > 0.0

    def test_rising_output_completes(self, tech14, inv_cell):
        inverter = reduce_cell(inv_cell, tech14,
                               arc=inv_cell.arc("A", Transition.RISE))
        result = simulate_arc_transitions(inverter, [5e-12], [2e-15],
                                          [0.8]).condition(0)
        assert result.output_waveform.final_value()[0] > 0.9 * 0.8

    def test_invalid_arguments(self, tech14, inv_cell):
        inverter = reduce_cell(inv_cell, tech14)
        with pytest.raises(ValueError):
            simulate_arc_transitions(inverter, [0.0], [1e-15], [0.8])
        with pytest.raises(ValueError):
            simulate_arc_transitions(inverter, [1e-12], [1e-15], [0.8],
                                     n_steps=4)

    def test_seed_vectorization_matches_scalar_runs(self, tech28, inv_cell):
        variation = tech28.variation.sample(3, rng=5)
        batch = characterize_arc(inv_cell, tech28, sin=5e-12, cload=2e-15, vdd=0.9,
                                 variation=variation)
        for seed in range(3):
            single = characterize_arc(inv_cell, tech28, sin=5e-12, cload=2e-15,
                                      vdd=0.9, variation=variation.subset([seed]))
            assert batch.delay[seed] == pytest.approx(single.delay[0], rel=1e-6)


class TestTimingTrends:
    def test_delay_increases_with_load(self, tech14, nor2_cell):
        delays = [characterize_arc(nor2_cell, tech14, sin=5e-12, cload=c, vdd=0.8
                                   ).nominal_delay()
                  for c in (0.5e-15, 2e-15, 5e-15)]
        assert delays[0] < delays[1] < delays[2]

    def test_delay_decreases_with_vdd(self, tech14, nor2_cell):
        delays = [characterize_arc(nor2_cell, tech14, sin=5e-12, cload=2e-15, vdd=v
                                   ).nominal_delay()
                  for v in (0.65, 0.8, 1.0)]
        assert delays[0] > delays[1] > delays[2]

    def test_delay_increases_with_input_slew(self, tech14, nor2_cell):
        delays = [characterize_arc(nor2_cell, tech14, sin=s, cload=2e-15, vdd=0.8
                                   ).nominal_delay()
                  for s in (2e-12, 8e-12, 14e-12)]
        assert delays[0] < delays[1] < delays[2]

    def test_larger_drive_is_faster(self, tech14):
        from repro.cells import make_cell

        small = characterize_arc(make_cell("INV_X1"), tech14, sin=5e-12,
                                 cload=4e-15, vdd=0.8).nominal_delay()
        large = characterize_arc(make_cell("INV_X4"), tech14, sin=5e-12,
                                 cload=4e-15, vdd=0.8).nominal_delay()
        assert large < small

    def test_slower_vth_seed_is_slower(self, tech28, inv_cell):
        from repro.technology import VariationSample

        variation = VariationSample(
            delta_vth_nmos=np.array([0.0, 0.05]),
            delta_vth_pmos=np.array([0.0, 0.05]),
            drive_mult_nmos=np.ones(2), drive_mult_pmos=np.ones(2),
            leff_mult=np.ones(2), cap_mult=np.ones(2))
        measurement = characterize_arc(inv_cell, tech28, sin=5e-12, cload=2e-15,
                                       vdd=0.8, variation=variation)
        assert measurement.delay[1] > measurement.delay[0]


class TestMeasurementContainer:
    def test_statistics_fields(self, tech28, inv_cell):
        variation = tech28.variation.sample(32, rng=9)
        measurement = characterize_arc(inv_cell, tech28, sin=5e-12, cload=2e-15,
                                       vdd=0.9, variation=variation)
        stats = measurement.delay_statistics()
        assert set(stats) == {"mean", "std", "skew"}
        assert stats["std"] > 0
        assert measurement.n_seeds == 32

    def test_nominal_accessors(self, tech14, inv_cell):
        measurement = characterize_arc(inv_cell, tech14, sin=5e-12, cload=2e-15,
                                       vdd=0.8)
        assert measurement.nominal_delay() == pytest.approx(float(measurement.delay[0]))
        assert measurement.nominal_slew() == pytest.approx(
            float(measurement.output_slew[0]))


class TestSimulationCounter:
    def test_counts_per_seed(self, tech28, inv_cell):
        counter = SimulationCounter()
        variation = tech28.variation.sample(4, rng=1)
        characterize_arc(inv_cell, tech28, sin=5e-12, cload=2e-15, vdd=0.9,
                         variation=variation, counter=counter, counter_label="x")
        assert counter.total == 4
        assert counter.by_label() == {"x": 4}

    def test_reset_and_validation(self):
        counter = SimulationCounter()
        counter.add(3, "a")
        counter.add(2, "b")
        assert counter.total == 5
        counter.reset()
        assert counter.total == 0
        with pytest.raises(ValueError):
            counter.add(-1)


class TestSweeps:
    def test_sweep_returns_one_measurement_per_condition(self, tech14, nand2_cell):
        counter = SimulationCounter()
        conditions = [(2e-12, 1e-15, 0.7), (5e-12, 2e-15, 0.8), (9e-12, 4e-15, 0.95)]
        measurements = sweep_conditions(nand2_cell, tech14, conditions,
                                        counter=counter)
        assert len(measurements) == 3
        assert counter.total == 3
        assert [m.vdd for m in measurements] == [0.7, 0.8, 0.95]

    def test_sweep_rejects_malformed_conditions(self, tech14, nand2_cell):
        with pytest.raises(ValueError):
            sweep_conditions(nand2_cell, tech14, [(1e-12, 1e-15)])

    def test_characterize_cell_nominal(self, tech14, inv_cell):
        counter = SimulationCounter()
        measurements = characterize_cell_nominal(
            inv_cell, tech14, [(2e-12, 1e-15, 0.8), (5e-12, 2e-15, 0.8)],
            counter=counter)
        assert len(measurements) == 2
        assert counter.total == 2
