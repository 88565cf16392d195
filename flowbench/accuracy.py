"""Fixed accuracy reference for the ``*_err_pct`` metrics.

The reference holds the mean and standard deviation of delay and output slew
for every template arc, simulated with a refined integrator (fixed-step RK4
at four times the production step count) at held-out validation conditions
that lie off every fitting grid the workloads use, once per seed batch the
workloads use.  It is committed as ``reference.json`` so that a later change
to the integrator cannot move its own yardstick.

A provenance fingerprint (technology, seed batches, validation conditions,
template cells) guards it: when the live inputs no longer match, the
benchmark stops instead of reporting an error against a stale reference.

Regenerate (about half a minute) with::

    python3 flowbench/run.py --make-reference
"""

from __future__ import annotations

import hashlib
import json
import os

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")

TECHNOLOGY = "n28_bulk"
TEMPLATES = ("INV_X1", "NAND2_X1", "NOR2_X1", "INV_X2", "NAND2_X2",
             "NOR2_X2")
#: Seed-batch sizes the workloads use, and the generator seed of the batch.
SEED_COUNTS = (64, 200)
SEED_BATCH_RNG = 11
#: Held-out validation conditions: Latin hypercube points of the target's
#: input space, drawn from their own generator seed.
VALIDATION_POINTS = 6
VALIDATION_RNG = 101
#: Refinement of the reference integrator over the production step count.
REFINEMENT = 4

RESPONSES = ("mu_delay", "sigma_delay", "mu_slew", "sigma_slew")


class StaleReference(RuntimeError):
    """The committed reference does not describe the live inputs."""


def seed_batch(technology, n_seeds: int):
    """The fixed Monte Carlo seed batch of ``n_seeds`` seeds."""
    from repro.utils.rng import ensure_rng

    return technology.variation.sample(n_seeds, ensure_rng(SEED_BATCH_RNG))


def validation_conditions(technology):
    """The held-out validation conditions, in a fixed order."""
    from repro.characterization.input_space import InputSpace
    from repro.utils.rng import ensure_rng

    return InputSpace(technology).sample_lhs(VALIDATION_POINTS,
                                             ensure_rng(VALIDATION_RNG))


def template_arcs(cell):
    """Both output transitions of a cell's first input pin."""
    from repro.cells import Transition

    pin = cell.input_pins[0]
    return [cell.arc(pin, transition)
            for transition in (Transition.FALL, Transition.RISE)]


def fingerprint(technology) -> str:
    """Provenance digest of everything the reference numbers depend on."""
    from repro import make_cell
    from repro.cells import reduce_cell

    cells = []
    for name in TEMPLATES:
        cell = make_cell(name)
        signatures = [repr(reduce_cell(cell, technology, arc)
                           .simulation_signature())
                      for arc in template_arcs(cell)]
        cells.append([name, signatures])
    payload = {
        "technology": technology.fingerprint(),
        "seed_batches": {str(n): seed_batch(technology, n).fingerprint()
                         for n in SEED_COUNTS},
        "validation": [[float(value).hex() for value in condition.as_tuple()]
                       for condition in validation_conditions(technology)],
        "cells": cells,
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def reference_key(n_seeds: int, template: str, arc) -> str:
    """Reference entry of one template arc (twins share their template's)."""
    return (f"{n_seeds}/{template}/{arc.input_pin}"
            f"/{arc.output_transition.value}")


def generate() -> dict:
    """Simulate the reference statistics (refined RK4, no caches)."""
    import numpy as np

    from repro import get_technology, make_cell, sweep_conditions
    from repro.spice.transient import DEFAULT_STEPS

    technology = get_technology(TECHNOLOGY)
    conditions = [condition.as_tuple()
                  for condition in validation_conditions(technology)]
    n_steps = REFINEMENT * DEFAULT_STEPS
    entries = {}
    for n_seeds in SEED_COUNTS:
        variation = seed_batch(technology, n_seeds)
        for name in TEMPLATES:
            cell = make_cell(name)
            for arc in template_arcs(cell):
                measurements = sweep_conditions(
                    cell, technology, conditions, arc=arc,
                    variation=variation, n_steps=n_steps, engine="batched",
                    cache=False)
                delay = np.array([m.delay for m in measurements])
                slew = np.array([m.output_slew for m in measurements])
                entries[reference_key(n_seeds, name, arc)] = {
                    "mu_delay": delay.mean(axis=1).tolist(),
                    "sigma_delay": delay.std(axis=1).tolist(),
                    "mu_slew": slew.mean(axis=1).tolist(),
                    "sigma_slew": slew.std(axis=1).tolist(),
                }
    return {
        "fingerprint": fingerprint(technology),
        "technology": TECHNOLOGY,
        "integrator": {"method": "rk4", "n_steps": n_steps},
        "seed_counts": list(SEED_COUNTS),
        "validation_points": VALIDATION_POINTS,
        "entries": entries,
    }


def write_reference() -> None:
    reference = generate()
    with open(REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")


def load_reference(technology) -> dict:
    """The committed reference; raises :class:`StaleReference` on drift."""
    with open(REFERENCE_PATH, encoding="utf-8") as handle:
        reference = json.load(handle)
    live = fingerprint(technology)
    if reference.get("fingerprint") != live:
        raise StaleReference(
            f"accuracy reference fingerprint {reference.get('fingerprint')} "
            f"does not match the live inputs ({live}); regenerate it with "
            f"`python3 flowbench/run.py --make-reference`")
    return reference


def error_pct(reference: dict, technology, arcs) -> dict:
    """Mean relative error (%) of predicted mu/sigma against the reference.

    ``arcs`` yields ``(template_name, arc, StatisticalCharacterization)``;
    every arc is evaluated at every validation condition, and a validation
    condition that coincides with one of the arc's fitting conditions is an
    error (the reference must stay held out).
    """
    import numpy as np

    conditions = validation_conditions(technology)
    held_out = {condition.as_tuple() for condition in conditions}
    errors = {response: [] for response in RESPONSES}
    for template, arc, statistical in arcs:
        fitted = {condition.as_tuple()
                  for condition in statistical.fitting_conditions}
        if fitted & held_out:
            raise ValueError(f"{statistical.cell_name}:{statistical.arc_name} "
                             f"was fitted on a validation condition")
        expected = reference["entries"][reference_key(
            statistical.n_seeds, template, arc)]
        predicted = statistical.predict_statistics(conditions)
        for response in RESPONSES:
            truth = np.asarray(expected[response])
            errors[response].append(
                np.abs(predicted[response] - truth) / np.abs(truth))
    return {f"{response}_err_pct":
            float(np.mean(np.concatenate(values)) * 100.0)
            for response, values in errors.items()}
