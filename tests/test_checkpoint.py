"""Checkpoint/resume tests: a killed run resumes bit-identically.

The journal layer is tested directly (torn tails, signature mismatch,
failure-report round trips), then end to end: a real
``characterize_library(checkpoint_dir=...)`` run is SIGKILLed at the two
interesting durability points -- mid-simulation (only committed rows on
disk) and between arc solves (some solved models journaled) -- and the
resumed run must reproduce an uninterrupted run's entries exactly, while
reusing the dead run's committed work through the durable stores.
Corrupted store entries must cost a recompute, never correctness.
"""

import json
import os
import signal
import subprocess
import sys

import numpy as np
import pytest

from repro import SimulationCounter, get_technology, learn_prior, make_cell
from repro.cells.library import Transition
from repro.core.library_flow import characterize_library
from repro.core.prior_learning import (
    characterize_historical_library,
    shared_reference_conditions,
)
from repro.runtime import clear_all_caches
from repro.runtime.accounting import RunLedger
from repro.runtime.checkpoint import (
    CheckpointMismatch,
    Checkpointer,
    load_checkpoint,
)
from repro.runtime.faultinject import FaultSpec, inject
from repro.runtime.resilience import FailureReport


def _assert_entries_equal(lhs, rhs):
    assert len(lhs.entries) == len(rhs.entries)
    for left, right in zip(lhs.entries, rhs.entries):
        assert left.cell_name == right.cell_name
        assert left.arc.name == right.arc.name
        assert np.array_equal(left.statistical.delay_parameters,
                              right.statistical.delay_parameters)
        assert np.array_equal(left.statistical.slew_parameters,
                              right.statistical.slew_parameters)
        assert left.statistical.fitting_conditions == \
            right.statistical.fitting_conditions
        assert left.statistical.simulation_runs == \
            right.statistical.simulation_runs


def _run_library(delay_prior, slew_prior, cells, **kwargs):
    clear_all_caches()
    ledger = RunLedger()
    library = characterize_library(
        get_technology("n28_bulk"), cells, delay_prior, slew_prior,
        conditions=3, n_seeds=6, rng=11, ledger=ledger, **kwargs)
    return library, ledger


@pytest.fixture(scope="module")
def small_cells():
    return [make_cell("INV_X1"), make_cell("NAND2_X1")]


@pytest.fixture(scope="module")
def baseline(delay_prior, slew_prior, small_cells):
    """The uninterrupted run every resumed run must match bit for bit."""
    library, _ = _run_library(delay_prior, slew_prior, small_cells)
    return library


# ---------------------------------------------------------------------------
# Journal layer
# ---------------------------------------------------------------------------
class TestCheckpointer:
    def test_fresh_then_resume_replays_units(self, tmp_path):
        ckpt = Checkpointer(tmp_path, "sig-a")
        ckpt.commit_solve(0, "INV_X1:arc", {"v": 1})
        ckpt.commit_solve(2, "NAND2_X1:arc", {"v": 2})
        resumed = Checkpointer(tmp_path, "sig-a", resume=True)
        assert resumed.solved_jobs() == [0, 2]
        assert resumed.solved_units()[2] == "NAND2_X1:arc"
        assert resumed.load_solved(0) == {"v": 1}
        assert resumed.load_solved(1) is None
        assert not resumed.completed

    def test_signature_mismatch_refuses_resume(self, tmp_path):
        Checkpointer(tmp_path, "sig-a").commit_solve(0, "u", {})
        with pytest.raises(CheckpointMismatch, match="inputs"):
            Checkpointer(tmp_path, "sig-b", resume=True)

    def test_fresh_start_truncates_foreign_journal(self, tmp_path):
        Checkpointer(tmp_path, "sig-a").commit_solve(0, "u", {"v": 1})
        fresh = Checkpointer(tmp_path, "sig-b")  # resume=False: new run
        assert fresh.solved_jobs() == []
        resumed = Checkpointer(tmp_path, "sig-b", resume=True)
        assert resumed.solved_jobs() == []

    def test_torn_journal_tail_is_dropped(self, tmp_path):
        ckpt = Checkpointer(tmp_path, "sig-a")
        ckpt.commit_solve(0, "u0", {"v": 0})
        ckpt.commit_solve(1, "u1", {"v": 1})
        journal = tmp_path / "journal.jsonl"
        with open(journal, "a", encoding="utf-8") as handle:
            handle.write('{"record": {"kind": "solve", "job": 7')  # torn
        resumed = Checkpointer(tmp_path, "sig-a", resume=True)
        assert resumed.solved_jobs() == [0, 1]

    def test_tampered_journal_line_ends_replay(self, tmp_path):
        ckpt = Checkpointer(tmp_path, "sig-a")
        ckpt.commit_solve(0, "u0", {"v": 0})
        ckpt.commit_solve(1, "u1", {"v": 1})
        journal = tmp_path / "journal.jsonl"
        lines = journal.read_text().splitlines()
        entry = json.loads(lines[1])
        entry["record"]["job"] = 9  # record no longer matches its sha
        lines[1] = json.dumps(entry)
        journal.write_text("\n".join(lines) + "\n")
        resumed = Checkpointer(tmp_path, "sig-a", resume=True)
        assert resumed.solved_jobs() == []  # replay stopped at the tamper

    def test_failure_reports_round_trip(self, tmp_path):
        reports = [
            FailureReport(unit="INV_X1:a", stage="simulate",
                          error="boom", error_type="QuarantinedRows"),
            FailureReport(unit="NAND2_X1:b", stage="extract",
                          error="nan", error_type="RepairedSolve", attempts=2),
        ]
        ckpt = Checkpointer(tmp_path, "sig-a")
        for report in reports:
            ckpt.record_failure(report)
        assert Checkpointer(tmp_path, "sig-a", resume=True).failures() == reports
        assert load_checkpoint(tmp_path).failures() == reports

    def test_load_checkpoint_requires_a_journal(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="journal"):
            load_checkpoint(tmp_path)

    def test_mark_complete_survives_reload(self, tmp_path):
        ckpt = Checkpointer(tmp_path, "sig-a")
        ckpt.mark_complete()
        assert load_checkpoint(tmp_path).completed


# ---------------------------------------------------------------------------
# Orchestrator argument validation
# ---------------------------------------------------------------------------
class TestArgumentValidation:
    def test_resume_requires_checkpoint_dir(self, delay_prior, slew_prior,
                                            small_cells):
        with pytest.raises(ValueError, match="requires checkpoint_dir"):
            characterize_library(get_technology("n28_bulk"), small_cells,
                                 delay_prior, slew_prior, resume=True)

    def test_checkpoint_requires_fused_pipeline(self, delay_prior, slew_prior,
                                                small_cells, tmp_path):
        with pytest.raises(ValueError, match="fused"):
            characterize_library(get_technology("n28_bulk"), small_cells,
                                 delay_prior, slew_prior, pipeline="per_arc",
                                 checkpoint_dir=str(tmp_path))

    def test_changed_inputs_raise_mismatch(self, delay_prior, slew_prior,
                                           small_cells, tmp_path):
        _run_library(delay_prior, slew_prior, small_cells,
                     checkpoint_dir=str(tmp_path))
        clear_all_caches()
        with pytest.raises(CheckpointMismatch):
            characterize_library(
                get_technology("n28_bulk"), small_cells, delay_prior,
                slew_prior, conditions=2, n_seeds=6, rng=11,
                checkpoint_dir=str(tmp_path), resume=True)


# ---------------------------------------------------------------------------
# Compatibility with checkpoint directories written by earlier versions
# ---------------------------------------------------------------------------
class TestCheckpointCompatibility:
    """Fixed small inputs whose run signature is pinned to a known digest."""

    @staticmethod
    def inputs():
        from repro.bayes import GaussianDensity, PrecisionModel
        from repro.characterization.input_space import InputCondition
        from repro.core.prior_learning import TimingPrior
        from repro.technology.variation import VariationSample

        cell = make_cell("INV_X1")
        jobs = [(cell, cell.arc("A", Transition.FALL)),
                (cell, cell.arc("A", Transition.RISE))]
        conditions = [InputCondition(sin=10e-12, cload=1e-15, vdd=0.9),
                      InputCondition(sin=30e-12, cload=3e-15, vdd=0.8)]
        variation = VariationSample(
            delta_vth_nmos=np.array([0.01, -0.02]),
            delta_vth_pmos=np.array([-0.01, 0.015]),
            drive_mult_nmos=np.array([1.02, 0.97]),
            drive_mult_pmos=np.array([0.99, 1.03]),
            leff_mult=np.array([1.0, 1.01]),
            cap_mult=np.array([0.98, 1.02]))

        def prior(response, scale):
            return TimingPrior(
                response=response,
                density=GaussianDensity(
                    np.array([0.4, 1.2, -0.25, 0.1]) * scale,
                    np.diag([0.05, 0.3, 0.05, 0.08]) ** 2),
                precision_model=PrecisionModel(
                    np.array([[0.2, 0.3, 0.4], [0.6, 0.7, 0.8]]),
                    np.array([1e4, 2e4])),
                technology_names=("n45_bulk", "n32_soi"), method="bp")

        return jobs, [conditions, conditions], variation, prior("delay", 1.0), \
            prior("slew", 0.8)

    def test_signature_digest_is_pinned(self):
        # The digest checkpoints were written under before the solver
        # switch was retired; a change here strands every such directory.
        from repro.core.library_flow import _checkpoint_signature
        from repro.spice.stepper import StepperSpec

        jobs, job_conditions, variation, delay_prior, slew_prior = \
            self.inputs()
        assert _checkpoint_signature(
            get_technology("n28_bulk"), "sig_lib", jobs, job_conditions,
            variation, delay_prior, slew_prior,
            StepperSpec.for_engine("batched")) == (
            "5aff8007d4c664cd6985dd4314b66d9b82f9bd7863d14f755ed21d1e90d62819")

    def test_restore_ignores_a_solver_key(self):
        from repro.core.library_flow import _restore_solved

        jobs, job_conditions, variation, _, _ = self.inputs()
        cell, arc = jobs[0]
        payload = {
            "delay_parameters": np.ones((2, 4)),
            "slew_parameters": np.full((2, 4), 2.0),
            "delay_converged": np.array([True, True]),
            "slew_converged": np.array([True, False]),
            "conditions": tuple(c.as_tuple() for c in job_conditions[0]),
            "simulation_runs": 4,
            "solver": "batched",
        }
        restored = _restore_solved(payload, cell, arc,
                                   get_technology("n28_bulk"), variation)
        assert restored.fitting_conditions == tuple(job_conditions[0])
        assert np.array_equal(restored.slew_parameters, np.full((2, 4), 2.0))
        assert restored.unconverged_seeds().tolist() == [1]


# ---------------------------------------------------------------------------
# End-to-end checkpoint/resume
# ---------------------------------------------------------------------------

#: Rebuilds the conftest priors and runs the checkpointed library flow,
#: SIGKILLing itself (non-graceful, mid-write semantics) after the Nth
#: journaled unit of the requested kind.  argv: <dir> <method> <kill_after>
_CHILD_SCRIPT = """
import os, signal, sys

checkpoint_dir, method, kill_after = sys.argv[1], sys.argv[2], int(sys.argv[3])

from repro import SimulationCounter, get_technology, learn_prior, make_cell
from repro.cells.library import Transition
from repro.core.library_flow import characterize_library
from repro.core.prior_learning import (characterize_historical_library,
                                       shared_reference_conditions)
from repro.runtime.checkpoint import Checkpointer

if method != "none":
    original = getattr(Checkpointer, method)
    state = {"calls": 0}
    def patched(self, *args, **kwargs):
        result = original(self, *args, **kwargs)
        state["calls"] += 1
        if state["calls"] >= kill_after:
            os.kill(os.getpid(), signal.SIGKILL)
        return result
    setattr(Checkpointer, method, patched)

reference = shared_reference_conditions(8, rng=7)
cells = [make_cell("INV_X1"), make_cell("NOR2_X1")]
counter = SimulationCounter()
historical = [
    characterize_historical_library(node, cells, unit_conditions=reference,
                                    transitions=(Transition.FALL,),
                                    counter=counter)
    for node in (get_technology("n28_bulk"), get_technology("n45_bulk"))
]
delay_prior = learn_prior(historical, response="delay", method="bp")
slew_prior = learn_prior(historical, response="slew", method="bp")

characterize_library(
    get_technology("n28_bulk"),
    [make_cell("INV_X1"), make_cell("NAND2_X1")],
    delay_prior, slew_prior, conditions=3, n_seeds=6, rng=11,
    checkpoint_dir=checkpoint_dir)
print("COMPLETED")
"""


def _run_child(checkpoint_dir, method, kill_after):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src")]
        + env.get("PYTHONPATH", "").split(os.pathsep))
    return subprocess.run(
        [sys.executable, "-c", _CHILD_SCRIPT,
         str(checkpoint_dir), method, str(kill_after)],
        env=env, capture_output=True, text=True, timeout=600)


class TestEndToEnd:
    def test_checkpointed_run_matches_plain(self, delay_prior, slew_prior,
                                            small_cells, baseline, tmp_path):
        library, ledger = _run_library(delay_prior, slew_prior, small_cells,
                                       checkpoint_dir=str(tmp_path))
        _assert_entries_equal(library, baseline)
        ckpt = load_checkpoint(tmp_path)
        assert ckpt.completed
        assert len(ckpt.solved_jobs()) == len(baseline.entries)
        # The checkpoint's simulation store appears in the ledger as the
        # simulation cache's disk tier.
        assert "simulation:disk" in ledger.cache_activity()

    def test_sigkill_mid_simulation_resumes_bit_identical(
            self, delay_prior, slew_prior, small_cells, baseline, tmp_path):
        child = _run_child(tmp_path, "journal_rows", 1)
        assert child.returncode == -signal.SIGKILL, child.stderr
        assert "COMPLETED" not in child.stdout
        # The dead run got as far as committing rows, never to a solve.
        killed = load_checkpoint(tmp_path)
        assert not killed.completed
        assert killed.solved_jobs() == []
        assert len(killed.sim_store) > 0

        resumed, ledger = _run_library(delay_prior, slew_prior, small_cells,
                                       checkpoint_dir=str(tmp_path),
                                       resume=True)
        _assert_entries_equal(resumed, baseline)
        # The committed rows were reused from disk, not re-simulated.
        assert ledger.cache_activity()["simulation:disk"]["hits"] > 0
        assert load_checkpoint(tmp_path).completed

    def test_sigkill_between_solves_resumes_bit_identical(
            self, delay_prior, slew_prior, small_cells, baseline, tmp_path):
        child = _run_child(tmp_path, "commit_solve", 2)
        assert child.returncode == -signal.SIGKILL, child.stderr
        killed = load_checkpoint(tmp_path)
        assert len(killed.solved_jobs()) == 2
        assert not killed.completed

        resumed, ledger = _run_library(delay_prior, slew_prior, small_cells,
                                       checkpoint_dir=str(tmp_path),
                                       resume=True)
        _assert_entries_equal(resumed, baseline)
        after = load_checkpoint(tmp_path)
        assert after.completed
        assert len(after.solved_jobs()) == len(baseline.entries)
        assert ledger.cache_activity()["simulation:disk"]["hits"] > 0

    def test_corrupt_store_entries_recompute_not_crash(
            self, delay_prior, slew_prior, small_cells, baseline, tmp_path):
        _run_library(delay_prior, slew_prior, small_cells,
                     checkpoint_dir=str(tmp_path))
        # Bit-flip one solved model and truncate one committed simulation
        # row; the resumed run must quarantine both and recompute.
        solved = sorted(
            (tmp_path / "store" / "solved_models" / "entries").rglob("*.entry"))
        data = bytearray(solved[0].read_bytes())
        data[-1] ^= 0x01
        solved[0].write_bytes(bytes(data))
        rows = sorted(
            (tmp_path / "store" / "simulation" / "entries").rglob("*.entry"))
        rows[0].write_bytes(rows[0].read_bytes()[:20])

        resumed, _ = _run_library(delay_prior, slew_prior, small_cells,
                                  checkpoint_dir=str(tmp_path), resume=True)
        _assert_entries_equal(resumed, baseline)
        for parameters in (resumed.entries[0].statistical.delay_parameters,
                           baseline.entries[0].statistical.delay_parameters):
            np.testing.assert_allclose(
                parameters, baseline.entries[0].statistical.delay_parameters,
                rtol=1e-12)
        quarantine = [path for store in ("solved_models", "simulation")
                      for path in (tmp_path / "store" / store /
                                   "quarantine").glob("*.entry")]
        assert len(quarantine) >= 1

    def test_persisted_failures_surface_on_resume(self, delay_prior,
                                                  slew_prior, small_cells,
                                                  tmp_path):
        clear_all_caches()
        spec = FaultSpec(site="transient.state", kind="nan", at_calls=(0,),
                         rows=(1,))
        with inject([spec], seed=3):
            degraded = characterize_library(
                get_technology("n28_bulk"), small_cells, delay_prior,
                slew_prior, conditions=3, n_seeds=6, rng=11, strict=False,
                checkpoint_dir=str(tmp_path))
        assert degraded.failures
        assert load_checkpoint(tmp_path).failures() == list(degraded.failures)

        # Resuming under strict=True succeeds: the persisted failures are
        # history (their recompute already happened) and are surfaced, not
        # re-raised.
        resumed, ledger = _run_library(delay_prior, slew_prior, small_cells,
                                       checkpoint_dir=str(tmp_path),
                                       resume=True, strict=True)
        assert list(degraded.failures)[0] in list(resumed.failures)
        assert set(degraded.failures) <= set(resumed.failures)
        assert ledger.failures()
        _assert_entries_equal(resumed, degraded)
