"""Keywords kept for callers that spell them out accept only one value.

Each stage has one production engine.  The reference twins the retired
values used to select (the per-arc library pipeline, the per-seed scipy
solver, the per-arc historical engine, the scalar BP loop) are test oracles
under ``tests/oracles/``, and the chunked executor is gone; asking for any of
them raises ``ValueError`` before any work starts.
"""

from __future__ import annotations

import pytest

from repro import get_technology, make_cell
from repro.core import (
    characterize_historical_libraries,
    characterize_library,
    learn_priors,
)
from repro.core.library_flow import characterize_fused_jobs
from repro.runtime.executor import EXECUTOR_MODES, get_executor
from repro.runtime.service import CharacterizationService


def _library(**kwargs):
    characterize_library(get_technology("n28_bulk"), [make_cell("INV_X1")],
                         None, None, **kwargs)


RETIRED = {
    "characterize_library-pipeline": lambda: _library(pipeline="per_arc"),
    "characterize_library-solver": lambda: _library(solver="scipy"),
    "characterize_historical_libraries-engine":
        lambda: characterize_historical_libraries(
            [get_technology("n45_bulk")], [make_cell("INV_X1")],
            engine="batched"),
    "learn_priors-engine": lambda: learn_priors([], engine="loop"),
    "CharacterizationService-solver":
        lambda: CharacterizationService(None, None, None, None,
                                        solver="scipy", start=False),
    "characterize_fused_jobs-solver":
        lambda: characterize_fused_jobs(None, [], [], None, None, None,
                                        "scipy", None, None, None),
    "get_executor-chunked": lambda: get_executor("chunked"),
}


@pytest.mark.parametrize("call", RETIRED.values(), ids=RETIRED.keys())
def test_retired_value_rejected(call):
    with pytest.raises(ValueError):
        call()


def test_executor_modes():
    assert EXECUTOR_MODES == ("serial", "process")
