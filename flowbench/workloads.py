"""The benchmark's three workloads, driven from outside the program.

Each workload builds its inputs from ``--seed`` in ``setup`` and then runs
operations for a fixed number of seconds in ``measure``.  Every call into a
layer is wrapped in a span (see :mod:`spans`); every operation runs the
correctness gate, and any gate failure or exception counts as a failed
operation.

* ``paper_flow`` -- the run a user makes, one cold operation at a time:
  historical characterization, BP prior learning, library characterization,
  Liberty round trip, STA and MC-SSTA.  The only workload where prior
  learning, BP, Liberty and STA/SSTA do work.
* ``library_twins`` -- library-scale throughput on footprint twins over one
  shared grid: plan dedup and the stacked solve do the work, and every
  simulation-cache access is a miss followed by a put (the write path).
* ``service_reextract`` -- two closed-loop clients against one
  characterization service whose simulation cache was filled in set-up: no
  row is integrated, so solve, plan lookups, coalescing and the solved-model
  LRU do the work (the cache's read path).

Nothing is imported from ``repro`` or NumPy at module import, so the set-up
timer of a fresh interpreter covers importing them.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import threading
import time
import traceback

from spans import NullTracer, Tracer

TARGET = "n28_bulk"
HISTORICAL_CELLS = ("INV_X1", "NAND2_X1", "NOR2_X1")
TEMPLATES = ("INV_X1", "NAND2_X1", "NOR2_X1", "INV_X2", "NAND2_X2",
             "NOR2_X2")
#: Normalized reference conditions per historical arc.
REFERENCE_CONDITIONS = 8
#: Every knob of every call, spelled out so no default or environment
#: variable decides what runs.
LIBRARY_ARGS = dict(solver="batched", concurrency="serial", pipeline="fused",
                    max_bytes=None, strict=True, transient_engine="batched")
HISTORICAL_ARGS = dict(engine="fused", max_bytes=None, strict=True)
PRIOR_ARGS = dict(method="bp", engine="batched")
STA_INPUT_SLEW = 5e-12

#: Ledger metrics reported as per-layer counts.
LEDGER_COUNTS = {
    "core.prior_learning.rows_simulated": "priors_rows_simulated",
    "core.simulation_plan.rows_total": "fused_rows_total",
    "core.simulation_plan.rows_simulated": "fused_rows_simulated",
    "core.simulation_plan.rows_deduplicated": "fused_rows_deduplicated",
    "core.simulation_plan.rows_cached": "fused_rows_cached",
    "core.simulation_plan.signature_groups": "fused_signature_groups",
    "spice.rhs_evals": "transient_rhs_evals",
    "spice.steps": "transient_steps",
    "spice.steps_rejected": "transient_steps_rejected",
    "core.batch_map.iterations": "solver_iterations",
}


def import_repro() -> float:
    """Import the package and every module the workloads use; seconds."""
    start = time.perf_counter()
    import repro  # noqa: F401
    import repro.liberty  # noqa: F401
    import repro.runtime.service  # noqa: F401
    import repro.sta  # noqa: F401
    return time.perf_counter() - start


def pin_runtime() -> dict:
    """Set every process-wide runtime knob explicitly; the resolved config."""
    import repro.runtime as runtime

    config = runtime.configure(
        max_bytes=None, cache_bytes=None, disk_cache_dir=None,
        disk_cache_bytes=None, transient_engine="batched",
        transient_rtol=None, transient_atol_frac=None)
    return dataclasses.asdict(config)


def ledger_counts(*ledgers) -> dict:
    counts = dict.fromkeys(LEDGER_COUNTS, 0)
    for ledger in ledgers:
        metrics = ledger.metrics()
        for name, metric in LEDGER_COUNTS.items():
            counts[name] += int(metrics.get(metric, 0))
    return counts


def digest_arrays(arrays) -> str:
    import numpy as np

    sha = hashlib.sha256()
    for array in arrays:
        sha.update(np.ascontiguousarray(array, dtype=float).tobytes())
    return sha.hexdigest()


def unconverged(statisticals) -> int:
    return int(sum(s.unconverged_seeds().size for s in statisticals))


def twin_library(seed: int, n_cells: int = 20):
    """``n_cells`` renamed template copies; the seed shuffles the naming."""
    import numpy as np

    from repro import make_cell
    from repro.cells import StandardCellLibrary

    order = np.random.default_rng(seed).permutation(n_cells)
    cells, template_of = [], {}
    for slot in order:
        base = make_cell(TEMPLATES[int(slot) % len(TEMPLATES)])
        name = f"{base.name}_T{int(slot):02d}"
        cells.append(dataclasses.replace(base, name=name))
        template_of[name] = base.name
    return StandardCellLibrary("twins", cells), template_of


def learn_setup_priors(tracer):
    """Priors for the workloads that learn them in set-up (two nodes)."""
    from repro import RunLedger, get_technology, make_cell
    from repro.core import characterize_historical_libraries, learn_priors
    from repro.core.prior_learning import shared_reference_conditions

    ledger = RunLedger()
    with tracer.span("core.prior_learning:historical") as span:
        historical = characterize_historical_libraries(
            [get_technology(name) for name in ("n45_bulk", "n32_soi")],
            [make_cell(name) for name in HISTORICAL_CELLS],
            unit_conditions=shared_reference_conditions(REFERENCE_CONDITIONS),
            ledger=ledger, **HISTORICAL_ARGS)
    tracer.add_ledger_stages(span, ledger)
    bp_ledger = RunLedger()
    with tracer.span("bayes:learn_priors") as span:
        priors = learn_priors(historical, ledger=bp_ledger, **PRIOR_ARGS)
    tracer.add_ledger_stages(span, bp_ledger)
    return priors, ledger_counts(ledger)


@dataclasses.dataclass
class Sample:
    """One measured operation."""

    raw_s: float
    probe_ms: float
    traced: bool
    root: object = None
    counts: dict = dataclasses.field(default_factory=dict)


@dataclasses.dataclass
class Measurement:
    samples: list
    attempted: int
    failures: list
    tracer: object
    extra: dict = dataclasses.field(default_factory=dict)


class ColdOpWorkload:
    """Operations on cold caches, one at a time, on a sampled vCPU."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.first = None

    def close(self) -> None:
        pass

    def prepare(self) -> None:
        import repro.runtime as runtime

        runtime.clear_all_caches()

    def run_op(self, tracer):
        """One operation on warm interpreter state; gate problems as str."""
        raise NotImplementedError

    def check(self, outcome) -> list:
        """The gate: compare with the first operation of the run."""
        problems = list(outcome["problems"])
        if outcome["digest"] != self.first["digest"]:
            problems.append("parameter digest differs from the run's "
                            "first operation")
        return problems

    def measure(self, seconds: float, tracing: bool, sampler) -> Measurement:
        from repro.runtime import cache_stats

        tracer = Tracer() if tracing else NullTracer()
        failures, samples, attempted = [], [], 0
        # Warm-up: fixes the reference digest and is never measured.
        gc.collect()
        self.prepare()
        self.first = self.run_op(NullTracer())
        if self.first["problems"]:
            failures.append("warm-up: " + "; ".join(self.first["problems"]))
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or attempted < 3:
            # Traced runs alternate traced and untraced operations, so the
            # tracing overhead is measured inside the same run.
            traced = tracing and attempted % 2 == 0
            op_tracer = tracer if traced else NullTracer()
            gc.collect()
            self.prepare()
            before = cache_stats()["simulation"]
            attempted += 1
            window = time.monotonic()
            start = time.perf_counter()
            try:
                with op_tracer.span("op") as root:
                    outcome = self.run_op(op_tracer)
            except Exception:
                failures.append(traceback.format_exc(limit=3))
                continue
            raw_s = time.perf_counter() - start
            probe_ms = sampler.mean_ms(window, time.monotonic())
            after = cache_stats()["simulation"]
            problems = self.check(outcome)
            if problems:
                failures.append("; ".join(problems))
                continue
            counts = dict(outcome["counts"])
            counts["runtime.cache.simulation.hits"] = after.hits - before.hits
            counts["runtime.cache.simulation.misses"] = (after.misses
                                                         - before.misses)
            counts["runtime.cache.simulation.bytes"] = after.current_bytes
            samples.append(Sample(raw_s, probe_ms, traced,
                                  root["id"] if traced else None, counts))
        return Measurement(samples, attempted, failures, tracer)


class PaperFlow(ColdOpWorkload):
    """The paper's flow end to end, about 1.5 s per operation.

    Historical characterization on three nodes, BP prior learning, library
    characterization of six cells with per-arc fitting conditions, Liberty
    render and parse, and STA plus MC-SSTA on C17 and a seeded 5,000-gate
    DAG.  Every step works on falling output arcs, the arcs the timing view
    uses, which keeps an operation short enough for a run to hold a dozen.
    """

    HISTORICAL_NODES = ("n45_bulk", "n32_soi", "n20_planar")
    LIBRARY_CELLS = TEMPLATES
    FITTING_CONDITIONS = 3
    N_SEEDS = 64
    CONDITION_RNG = 17

    def setup(self, tracer) -> None:
        from repro import get_technology, make_cell
        from repro.cells import StandardCellLibrary, Transition
        from repro.core.prior_learning import shared_reference_conditions
        from repro.sta import c17_benchmark, random_layered_dag

        import accuracy

        self.target = get_technology(TARGET)
        self.nodes = [get_technology(name) for name in self.HISTORICAL_NODES]
        self.historical_cells = [make_cell(name) for name in HISTORICAL_CELLS]
        self.unit_conditions = shared_reference_conditions(
            REFERENCE_CONDITIONS)
        self.library = StandardCellLibrary(
            "paper_flow", [make_cell(name) for name in self.LIBRARY_CELLS])
        self.variation = accuracy.seed_batch(self.target, self.N_SEEDS)
        self.netlists = [c17_benchmark(),
                         random_layered_dag(100, 50, rng=self.seed,
                                            name=f"dag_{self.seed}")]
        self.transition = Transition.FALL

    def run_op(self, tracer):
        from repro import RunLedger
        from repro.core import (
            characterize_historical_libraries,
            characterize_library,
            learn_priors,
        )
        from repro.liberty import parse_liberty
        from repro.sta import MonteCarloSsta, StaticTimingAnalyzer

        historical_ledger = RunLedger()
        with tracer.span("core.prior_learning:historical") as span:
            historical = characterize_historical_libraries(
                self.nodes, self.historical_cells,
                unit_conditions=self.unit_conditions,
                transitions=(self.transition,), ledger=historical_ledger,
                **HISTORICAL_ARGS)
        tracer.add_ledger_stages(span, historical_ledger)
        bp_ledger = RunLedger()
        with tracer.span("bayes:learn_priors") as span:
            priors = learn_priors(historical, ledger=bp_ledger, **PRIOR_ARGS)
        tracer.add_ledger_stages(span, bp_ledger)
        library_ledger = RunLedger()
        with tracer.span("core.library_flow:characterize_library") as span:
            result = characterize_library(
                self.target, self.library, priors["delay"], priors["slew"],
                conditions=self.FITTING_CONDITIONS, variation=self.variation,
                transitions=(self.transition,), rng=self.CONDITION_RNG,
                ledger=library_ledger, **LIBRARY_ARGS)
        tracer.add_ledger_stages(span, library_ledger)
        with tracer.span("liberty:render"):
            text = result.liberty_writer().render()
        with tracer.span("liberty:parse"):
            parsed = parse_liberty(text)
        with tracer.span("sta:view"):
            view = result.timing_view(transition=self.transition)
        timing = []
        for netlist in self.netlists:
            with tracer.span("sta:compile"):
                netlist.compile()
            with tracer.span("sta:sta"):
                sta = StaticTimingAnalyzer(
                    netlist, view, primary_input_slew=STA_INPUT_SLEW).run()
            with tracer.span("sta:ssta"):
                ssta = MonteCarloSsta(
                    netlist, view, primary_input_slew=STA_INPUT_SLEW).run()
            timing.append([sta.critical_delay, ssta.summary.mean,
                           ssta.summary.std])

        problems = []
        n_arcs = sum(len(cell.arcs) for cell in parsed.cells.values())
        if (len(parsed.cells), n_arcs) != (len(self.LIBRARY_CELLS),
                                           len(result.entries)):
            problems.append(f"Liberty round trip parsed {len(parsed.cells)} "
                            f"cells / {n_arcs} arcs")
        library_metrics = library_ledger.metrics()
        if library_metrics.get("fused_rows_deduplicated", 0) != 0:
            problems.append("paper_flow library deduplicated rows")
        if result.failures:
            problems.append(f"{len(result.failures)} library failures")
        statisticals = [entry.statistical for entry in result.entries]
        arrays = [data.parameter_matrix(response)
                  for data in historical for response in ("delay", "slew")]
        arrays += [priors[response].density.mean
                   for response in ("delay", "slew")]
        arrays += [array for s in statisticals
                   for array in (s.delay_parameters, s.slew_parameters)]
        arrays.append(timing)
        counts = ledger_counts(historical_ledger, library_ledger)
        counts["core.batch_map.unconverged"] = unconverged(statisticals)
        counts["liberty.bytes"] = len(text.encode())
        return {"digest": digest_arrays(arrays) + hashlib.sha256(
                    text.encode()).hexdigest(),
                "problems": problems, "counts": counts,
                "accuracy_arcs": [(entry.cell_name, entry.arc,
                                   entry.statistical)
                                  for entry in result.entries]}


class LibraryTwins(ColdOpWorkload):
    """20 footprint twins x 2 transitions x 200 seeds on one 4-point grid."""

    N_CELLS = 20
    N_SEEDS = 200
    GRID_POINTS = 4
    GRID_RNG = 23

    def setup(self, tracer) -> None:
        from repro import get_technology
        from repro.characterization.input_space import InputSpace
        from repro.utils.rng import ensure_rng

        import accuracy

        self.target = get_technology(TARGET)
        self.priors, self.setup_counts = learn_setup_priors(tracer)
        self.library, self.template_of = twin_library(self.seed, self.N_CELLS)
        self.grid = InputSpace(self.target).sample_lhs(
            self.GRID_POINTS, ensure_rng(self.GRID_RNG))
        self.variation = accuracy.seed_batch(self.target, self.N_SEEDS)

    def run_op(self, tracer):
        from repro import RunLedger
        from repro.core import characterize_library

        ledger = RunLedger()
        with tracer.span("core.library_flow:characterize_library") as span:
            result = characterize_library(
                self.target, self.library, self.priors["delay"],
                self.priors["slew"], conditions=self.grid,
                variation=self.variation, ledger=ledger, **LIBRARY_ARGS)
        tracer.add_ledger_stages(span, ledger)
        problems = []
        if ledger.metrics().get("fused_rows_deduplicated", 0) <= 0:
            problems.append("library_twins deduplicated no rows")
        if result.failures:
            problems.append(f"{len(result.failures)} library failures")
        statisticals = [entry.statistical for entry in result.entries]
        counts = ledger_counts(ledger)
        counts["core.batch_map.unconverged"] = unconverged(statisticals)
        return {"digest": digest_arrays(
                    [array for s in statisticals
                     for array in (s.delay_parameters, s.slew_parameters)]),
                "problems": problems, "counts": counts,
                "accuracy_arcs": [(self.template_of[entry.cell_name],
                                   entry.arc, entry.statistical)
                                  for entry in result.entries]}


class ServiceReextract:
    """Two closed-loop clients re-extracting twin cells from a warm cache.

    Each request asks for both arcs of one twin cell on a subset of 2 to 8
    points of a shared 8-point grid at 64 seeds; a fixed share of requests
    repeats a small set of hot keys.  Each client deals its requests from a
    shuffled deck that holds every (template, subset size) pair once plus
    the hot requests, so every run serves the same mix and the seed picks
    the order, the twins and the grid points.  The clients run in
    stretches and are paused between them for garbage collection; every
    request latency is normalized by the probe samples within a second of
    it.
    """

    N_CELLS = 20
    N_SEEDS = 64
    GRID_POINTS = 8
    GRID_RNG = 29
    #: Subset sizes of the deck: the paper's few-condition regime (2 and 3
    #: points, where some X2 seeds stay unconverged) up to the full grid.
    SIZES = (2, 3, 4, 5, 6, 7, 8)
    BATCH_WINDOW_S = 0.01
    #: Hot requests per deck: a quarter of all requests.
    HOT_PER_DECK = 14
    CLIENTS = 2
    STRETCH_S = 2.0
    #: A request is normalized by the probe samples within this many
    #: seconds of it: a request is too short to hold enough samples itself.
    PROBE_WINDOW_S = 1.0
    #: Every BIT_SAMPLE_EVERY-th request of each client is re-solved solo
    #: after the window and must be bit-identical.
    BIT_SAMPLE_EVERY = 20
    #: Fixed evaluation set served after the window: every template's first
    #: twin on these grid subsets (a few-condition and the full grid).
    EVALUATION_SUBSETS = ((0, 3, 6), tuple(range(8)))

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.service = None

    def setup(self, tracer) -> None:
        import numpy as np

        from repro import RunLedger, get_technology
        from repro.characterization.input_space import InputSpace
        from repro.core import characterize_library
        from repro.utils.rng import ensure_rng

        import accuracy

        self.target = get_technology(TARGET)
        self.priors, self.setup_counts = learn_setup_priors(tracer)
        self.library, self.template_of = twin_library(self.seed, self.N_CELLS)
        self.cells = list(self.library)
        self.grid = InputSpace(self.target).sample_lhs(
            self.GRID_POINTS, ensure_rng(self.GRID_RNG))
        self.variation = accuracy.seed_batch(self.target, self.N_SEEDS)
        ledger = RunLedger()
        with tracer.span("core.library_flow:characterize_library") as span:
            characterize_library(
                self.target, self.library, self.priors["delay"],
                self.priors["slew"], conditions=self.grid,
                variation=self.variation, ledger=ledger, **LIBRARY_ARGS)
        tracer.add_ledger_stages(span, ledger)
        self.setup_counts.update(
            {name: value + self.setup_counts.get(name, 0)
             for name, value in ledger_counts(ledger).items()})
        rng = np.random.default_rng(self.seed)
        self.twins_of = [[index for index, cell in enumerate(self.cells)
                          if self.template_of[cell.name] == template]
                         for template in TEMPLATES]
        self.hot = [self._draw(rng, template, size) for template, size
                    in enumerate((2, 3, 4, 5, 6, 8))]
        self.service = traced_service(
            self.target, self.priors["delay"], self.priors["slew"],
            self.variation, solver="batched", stepper=None,
            queue_depth=64, batch_window_s=self.BATCH_WINDOW_S,
            shed_policy="reject", max_bytes=None)

    def close(self) -> None:
        if self.service is not None:
            self.service.close()
            self.service = None

    def _draw(self, rng, template: int, size: int):
        twins = self.twins_of[template]
        cell = twins[int(rng.integers(len(twins)))]
        subset = tuple(sorted(int(i) for i in rng.choice(
            self.GRID_POINTS, size, replace=False)))
        return cell, subset

    def _stream(self, rng):
        """One client's endless request keys, dealt deck by deck."""
        deck = [(template, size) for template in range(len(TEMPLATES))
                for size in self.SIZES] + [None] * self.HOT_PER_DECK
        while True:
            for slot in rng.permutation(len(deck)):
                shape = deck[slot]
                if shape is None:
                    yield self.hot[int(rng.integers(len(self.hot)))]
                else:
                    yield self._draw(rng, *shape)

    def _request_args(self, key):
        from accuracy import template_arcs

        cell = self.cells[key[0]]
        return cell, template_arcs(cell), [self.grid[i] for i in key[1]]

    def measure(self, seconds: float, tracing: bool, sampler) -> Measurement:
        import numpy as np

        from repro.runtime import cache_stats

        tracer = Tracer() if tracing else NullTracer()
        service = self.service
        lock = threading.Lock()
        records, failures, bit_sample = [], [], []
        solved_digests = {}
        state = {"attempted": 0, "stop": False}
        start_gate = threading.Barrier(self.CLIENTS + 1)
        end_gate = threading.Barrier(self.CLIENTS + 1)
        stretch_end = [0.0]

        def one_request(key, index):
            cell, arcs, conditions = self._request_args(key)
            traced = tracing and index % 2 == 0
            op_tracer = tracer if traced else NullTracer()
            with lock:
                state["attempted"] += 1
            window = time.monotonic()
            start = time.perf_counter()
            with op_tracer.span("op") as root:
                ticket = service.submit(cell, arcs, conditions)
                result = ticket.result(timeout=120)
                drained, pipeline = service.timeline(ticket)
                if drained is not None:
                    op_tracer.add_span("runtime.service:queue_wait",
                                       root["start"], drained,
                                       parent=root["id"])
                if pipeline is not None:
                    span = op_tracer.add_span(
                        "runtime.service:batch", pipeline[0], pipeline[1],
                        parent=root["id"])
                    op_tracer.add_ledger_stages(span, pipeline[2])
            raw_s = time.perf_counter() - start
            window = (window, time.monotonic())
            problems = []
            if not result.complete or result.degraded:
                problems.append(f"incomplete result for {cell.name}")
            models = [result.characterizations[arc.name] for arc in arcs]
            if not problems:
                digest = digest_arrays([array for m in models for array in (
                    m.delay_parameters, m.slew_parameters)])
                with lock:
                    if solved_digests.setdefault(key, digest) != digest:
                        problems.append("parameter digest differs between "
                                        "requests for one key")
                    if index % self.BIT_SAMPLE_EVERY == 0:
                        bit_sample.append((key, models))
            with lock:
                if problems:
                    failures.append("; ".join(problems))
                    return
                records.append({
                    "raw_s": raw_s, "window": window, "traced": traced,
                    "root": root["id"] if traced else None,
                    "unconverged": unconverged(models)})

        def client(index):
            stream = self._stream(np.random.default_rng([self.seed, index]))
            count = 0
            while True:
                start_gate.wait()
                if state["stop"]:
                    return
                while time.perf_counter() < stretch_end[0]:
                    try:
                        one_request(next(stream), count)
                    except Exception:
                        with lock:
                            failures.append(traceback.format_exc(limit=3))
                    count += 1
                end_gate.wait()

        threads = [threading.Thread(target=client, args=(index,))
                   for index in range(self.CLIENTS)]
        for thread in threads:
            thread.start()
        stats_before = service.stats()
        ledger_before = service.ledger.metrics()
        cache_before = cache_stats()["simulation"]
        deadline = time.perf_counter() + seconds
        try:
            while time.perf_counter() < deadline:
                gc.collect()
                stretch_end[0] = min(time.perf_counter() + self.STRETCH_S,
                                     deadline)
                start_gate.wait()
                end_gate.wait()
        finally:
            state["stop"] = True
            start_gate.wait()
            for thread in threads:
                thread.join(timeout=60)
        cache_after = cache_stats()["simulation"]
        stats_after = service.stats()
        ledger_after = service.ledger.metrics()

        samples = []
        for record in records:
            start, end = record["window"]
            probe_ms = sampler.mean_ms(start - self.PROBE_WINDOW_S,
                                       end + self.PROBE_WINDOW_S)
            samples.append(Sample(record["raw_s"], probe_ms, record["traced"],
                                  record["root"]))
        n = max(len(samples), 1)
        window = {name: ledger_after.get(metric, 0)
                  - ledger_before.get(metric, 0)
                  for name, metric in LEDGER_COUNTS.items()}
        if window["core.simulation_plan.rows_simulated"] != 0:
            failures.append("service_reextract integrated "
                            f"{window['core.simulation_plan.rows_simulated']}"
                            " rows")
        counts = {name: value / n for name, value in window.items()}
        counts.update({
            "core.batch_map.unconverged":
                sum(r["unconverged"] for r in records) / n,
            "runtime.cache.simulation.hits":
                (cache_after.hits - cache_before.hits) / n,
            "runtime.cache.simulation.misses":
                (cache_after.misses - cache_before.misses) / n,
            "runtime.cache.simulation.bytes": cache_after.current_bytes,
            "runtime.service.batches":
                (stats_after.batches - stats_before.batches) / n,
            "runtime.service.coalesced_arcs":
                (stats_after.coalesced_arcs
                 - stats_before.coalesced_arcs) / n,
            "runtime.service.solved_hits":
                (stats_after.solved_hits - stats_before.solved_hits) / n,
        })
        for sample in samples:
            sample.counts = counts
        failures.extend(self._check_bit_identity(bit_sample))
        return Measurement(samples, state["attempted"], failures, tracer,
                           extra={"unconverged_total":
                                      sum(r["unconverged"] for r in records),
                                  "bit_identity_checked": len(bit_sample)})

    def _check_bit_identity(self, bit_sample) -> list:
        """Re-solve sampled requests solo; they must match bit for bit."""
        import numpy as np

        from repro import RunLedger
        from repro.core.library_flow import characterize_fused_jobs
        from repro.runtime.executor import get_executor

        problems = []
        for key, models in bit_sample:
            cell, arcs, conditions = self._request_args(key)
            solo, failures = characterize_fused_jobs(
                self.target, [(cell, arc) for arc in arcs],
                [list(conditions) for _ in arcs], self.priors["delay"],
                self.priors["slew"], self.variation, "batched",
                get_executor("serial"), RunLedger(), None, strict=True)
            for served, alone in zip(models, solo):
                if failures or not (
                        np.array_equal(served.delay_parameters,
                                       alone.delay_parameters)
                        and np.array_equal(served.slew_parameters,
                                           alone.slew_parameters)):
                    problems.append(f"service result for {cell.name} on "
                                    f"{len(conditions)} points is not "
                                    f"bit-identical to a solo solve")
                    break
        return problems

    def evaluation_arcs(self):
        """Serve the fixed evaluation set; (template, arc, model) triples."""
        seen, out = set(), []
        for index, cell in enumerate(self.cells):
            template = self.template_of[cell.name]
            if template in seen:
                continue
            seen.add(template)
            for subset in self.EVALUATION_SUBSETS:
                cell_, arcs, conditions = self._request_args((index, subset))
                result = self.service.request(cell_, arcs, conditions)
                if not result.complete:
                    raise RuntimeError(f"evaluation request for {cell.name} "
                                       f"came back incomplete")
                out.extend((template, arc, result.characterizations[arc.name])
                           for arc in arcs)
        return out


def traced_service(*args, **kwargs):
    """A characterization service that reports each request's timeline."""
    from repro.runtime.service import CharacterizationService

    class TracedService(CharacterizationService):
        """The service with timestamps at its two seams.

        ``_drain_batch`` hands requests to a batch (their queue wait ends)
        and ``_characterize`` is the batch's call into the fused pipeline.
        The service's own behaviour is unchanged.  Should those private
        seams change, the timeline comes back empty: the service's
        per-layer times read zero and the end-to-end metrics are unaffected.
        """

        def __init__(self, *args, **kwargs):
            self._drained = {}
            self._pipelines = {}
            self._batch_no = 0
            super().__init__(*args, **kwargs)

        def _drain_batch(self):
            batch = super()._drain_batch()
            if batch:
                now = time.perf_counter()
                self._batch_no += 1
                with self._lock:
                    for request in batch:
                        self._drained[id(request.ticket)] = (now,
                                                             self._batch_no)
            return batch

        def _characterize(self, jobs, job_conditions, ledger):
            start = time.perf_counter()
            out = super()._characterize(jobs, job_conditions, ledger)
            with self._lock:
                self._pipelines[self._batch_no] = (start, time.perf_counter(),
                                                   ledger)
            return out

        def timeline(self, ticket):
            """(drain instant, (start, end, ledger) of its pipeline call)."""
            with self._lock:
                drained, batch_no = self._drained.pop(id(ticket),
                                                      (None, None))
                return drained, self._pipelines.get(batch_no)

    return TracedService(*args, **kwargs)


WORKLOADS = {
    "paper_flow": PaperFlow,
    "library_twins": LibraryTwins,
    "service_reextract": ServiceReextract,
}
