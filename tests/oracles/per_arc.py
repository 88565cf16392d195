"""Per-arc characterization flows: the test oracles of the fused pipelines.

The production library and historical flows push every (cell, arc,
condition) row through one shared simulation plan and fit every arc in one
stacked solve.  The oracles here do the same work one arc at a time, the
way the flows ran before fusion:

* :func:`characterize_library_per_arc` -- one
  :class:`~repro.core.statistical_flow.StatisticalCharacterizer` run
  (condition sweep, then seed-vectorized MAP extraction) per library arc,
  with the library's counter and ledger accounting;
* :func:`characterize_historical_per_arc` -- one nominal condition sweep and
  two scalar least-squares fits per historical arc;
* :func:`scipy_extract` -- one bounded trust-region MAP solve per seed
  (:func:`repro.core.map_estimation.map_estimate`), the independent
  reference for the seed-vectorized solver.

Shared with production: the job order and condition draws (so the oracles
see the inputs the fused flows see), the condition sweep, the equivalent
inverter reduction and the observation builder
:func:`~repro.core.statistical_flow.arc_observation_pair`.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.cells.equivalent_inverter import reduce_cell_cached
from repro.cells.library import StandardCellLibrary, Transition
from repro.characterization.input_space import InputSpace
from repro.core.batch_map import BatchMapObservations
from repro.core.library_flow import (
    LibraryArcCharacterization,
    LibraryCharacterization,
    _arc_jobs,
)
from repro.core.map_estimation import MapObservations, map_estimate
from repro.core.prior_learning import ArcFit, HistoricalLibraryData
from repro.core.statistical_flow import (
    StatisticalCharacterization,
    StatisticalCharacterizer,
    arc_observation_pair,
)
from repro.core.timing_model import fit_least_squares
from repro.runtime.accounting import RunLedger
from repro.spice.sweep import sweep_conditions
from repro.spice.testbench import SimulationCounter
from repro.utils.rng import ensure_rng


def scipy_extract(prior, observations: BatchMapObservations) -> np.ndarray:
    """Per-seed scipy MAP parameters, shape ``(n_seeds, 4)``."""
    def row(array: np.ndarray, seed: int) -> np.ndarray:
        return array if array.ndim == 1 else array[seed]

    parameters = np.empty((observations.n_seeds, 4))
    for seed in range(observations.n_seeds):
        beta = (None if observations.beta is None
                else row(observations.beta, seed))
        parameters[seed] = map_estimate(prior, MapObservations(
            sin=row(observations.sin, seed), cload=row(observations.cload, seed),
            vdd=row(observations.vdd, seed), ieff=row(observations.ieff, seed),
            response=observations.response[seed], beta=beta)).params.as_array()
    return parameters


def characterize_arc_scipy(technology, cell, arc, delay_prior, slew_prior,
                           variation, conditions) -> StatisticalCharacterization:
    """Simulate one arc's conditions and extract every seed with scipy."""
    conditions = list(conditions)
    measurements = sweep_conditions(
        cell, technology, [condition.as_tuple() for condition in conditions],
        arc=arc, variation=variation)
    inverter = reduce_cell_cached(cell, technology, arc=arc,
                                  variation=variation)
    delay_obs, slew_obs = arc_observation_pair(
        technology, inverter, conditions, delay_prior, slew_prior,
        np.stack([np.asarray(m.delay).reshape(-1) for m in measurements]),
        np.stack([np.asarray(m.output_slew).reshape(-1) for m in measurements]))
    return StatisticalCharacterization(
        cell_name=cell.name, arc_name=arc.name,
        delay_parameters=scipy_extract(delay_prior, delay_obs),
        slew_parameters=scipy_extract(slew_prior, slew_obs),
        inverter=inverter, fitting_conditions=tuple(conditions),
        simulation_runs=len(conditions) * variation.n_seeds)


def characterize_library_per_arc(
    technology, library, delay_prior, slew_prior, conditions=4,
    n_seeds: int = 200,
    transitions: Sequence[Transition] = (Transition.FALL, Transition.RISE),
    input_pins: str = "first", variation=None, rng=None,
    counter: Optional[SimulationCounter] = None,
    ledger: Optional[RunLedger] = None, solver: str = "batched",
    transient_engine: Optional[str] = None,
) -> LibraryCharacterization:
    """:func:`~repro.core.library_flow.characterize_library`, one arc at a time.

    Takes the production call's inputs (condition draws and job order are
    the orchestrator's) and returns the same record.  ``solver="scipy"``
    extracts every seed with :func:`scipy_extract` instead of the
    seed-vectorized solver.
    """
    cells = list(library)
    generator = ensure_rng(rng)
    if variation is None:
        variation = technology.variation.sample(int(n_seeds), generator)
    jobs = _arc_jobs(cells, transitions, input_pins)
    if isinstance(conditions, int):
        space = InputSpace(technology)
        job_conditions = [space.sample_lhs(conditions, generator) for _ in jobs]
    else:
        job_conditions = [list(conditions) for _ in jobs]

    run_ledger = ledger if ledger is not None else RunLedger()
    entries = []
    with run_ledger.stage("characterize_library"):
        for (cell, arc), fitting in zip(jobs, job_conditions):
            if solver == "scipy":
                result = characterize_arc_scipy(
                    technology, cell, arc, delay_prior, slew_prior, variation,
                    fitting)
                run_ledger.add_simulations(
                    result.simulation_runs,
                    label=f"proposed_statistical:{cell.name}")
            else:
                characterizer = StatisticalCharacterizer(
                    technology, cell, delay_prior, slew_prior, arc=arc,
                    n_seeds=variation.n_seeds, ledger=run_ledger,
                    transient_engine=transient_engine)
                characterizer.use_variation(variation)
                result = characterizer.characterize(list(fitting))
            if counter is not None:
                counter.add(result.simulation_runs,
                            label=f"library:{cell.name}:{arc.name}")
            nominal = reduce_cell_cached(cell, technology, arc=arc)
            entries.append(LibraryArcCharacterization(
                cell_name=cell.name, arc=arc, statistical=result,
                input_cap_f=float(np.mean(np.asarray(nominal.input_cap))),
                function=cell.function, area=cell.total_device_width_um()))
    return LibraryCharacterization(
        library_name=(library.name if isinstance(library, StandardCellLibrary)
                      else f"{technology.name}_cells"),
        technology_name=technology.name,
        vdd_nominal=technology.vdd_nominal,
        slew_range=tuple(technology.slew_range),
        cload_range=tuple(technology.cload_range),
        n_seeds=variation.n_seeds,
        concurrency="serial",
        simulation_runs=sum(e.statistical.simulation_runs for e in entries),
        entries=tuple(entries),
        ledger=run_ledger,
    )


def characterize_historical_per_arc(
    technology, cells, unit_conditions,
    transitions: Sequence[Transition] = (Transition.FALL, Transition.RISE),
    counter: Optional[SimulationCounter] = None,
) -> HistoricalLibraryData:
    """Historical characterization with one sweep and two scalar fits per arc."""
    unit_conditions = np.atleast_2d(np.asarray(unit_conditions, dtype=float))
    ranges = np.array(InputSpace(technology).ranges, dtype=float)
    physical = ranges[:, 0] + unit_conditions * (ranges[:, 1] - ranges[:, 0])
    sin, cload, vdd = physical.T
    counter = counter if counter is not None else SimulationCounter()
    runs_before = counter.total
    fits = []
    for cell in cells:
        for transition in transitions:
            arc = cell.arc(cell.input_pins[0], Transition(transition))
            measurements = sweep_conditions(
                cell, technology, [tuple(row) for row in physical], arc=arc,
                counter=counter,
                counter_label=f"historical:{technology.name}:{cell.name}",
                engine="batched")
            inverter = reduce_cell_cached(cell, technology, arc=arc)
            ieff = np.asarray(inverter.effective_current(vdd),
                              dtype=float).reshape(-1)
            delays = np.array([m.nominal_delay() for m in measurements])
            slews = np.array([m.nominal_slew() for m in measurements])
            fits.append(ArcFit(
                cell_name=cell.name, arc_name=arc.name,
                delay_fit=fit_least_squares(sin, cload, vdd, ieff, delays),
                slew_fit=fit_least_squares(sin, cload, vdd, ieff, slews)))
    return HistoricalLibraryData(
        technology_name=technology.name,
        unit_conditions=unit_conditions,
        arc_fits=tuple(fits),
        delay_residuals=np.mean([fit.delay_fit.residuals for fit in fits],
                                axis=0),
        slew_residuals=np.mean([fit.slew_fit.residuals for fit in fits],
                               axis=0),
        simulation_runs=counter.total - runs_before,
    )
