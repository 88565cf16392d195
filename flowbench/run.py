"""Paper-flow benchmark: one workload, one run, one JSON line of metrics.

Usage, from the root of a checkout::

    python3 flowbench/run.py --workload paper_flow --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py``): ``paper_flow``, ``library_twins`` and
``service_reextract``.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
line before it is the run's detail record (host, resolved configuration,
probe, raw medians, tail, failures).

``--trace 0`` reports the end-to-end metrics:

* ``setup_s`` -- median over several set-ups, each a fresh interpreter that
  imports ``repro`` and builds the workload's inputs;
* ``op_p50_ms`` -- median wall time of one operation (a flow, a library or
  a request);
* ``peak_rss_mb`` -- peak resident memory of the measuring process;
* ``mu_delay_err_pct``, ``sigma_delay_err_pct``, ``mu_slew_err_pct``,
  ``sigma_slew_err_pct`` -- mean relative error of the predicted mean and
  sigma against the committed accuracy reference (``accuracy.py``).

``--trace 1`` reports the per-layer metrics from spans around the calls into
each layer (``spans.py``); its operations alternate traced and untraced, so
the tracing overhead is measured in the same run.

Every timing is normalized by the host-speed probe (``probe.py``), sampled
on the same vCPU while it ran: ``raw * PROBE_NOMINAL_MS / probe_ms``; the raw
medians are in the detail record.  The environment is pinned: ``REPRO_*``
variables are removed, BLAS/OpenMP run one thread, the process and its
children run on one vCPU, modules are imported from source without writing
bytecode, and every runtime knob is set explicitly.  The run exits non-zero
without a result when the program's sources are missing or the accuracy
reference is stale.

``--make-reference`` regenerates ``reference.json``.
"""

from __future__ import annotations

import os
import sys

# Pin the environment before anything imports NumPy: one BLAS/OpenMP
# thread (a second one only spins on a 2-vCPU host, and one thread fixes
# the reduction order the bit-identity gate relies on), and no REPRO_*
# variable may change what runs.
SCRUBBED = sorted(name for name in os.environ if name.startswith("REPRO_"))
for _name in SCRUBBED:
    del os.environ[_name]
THREAD_PINS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
os.environ.update(THREAD_PINS)
# Import from source every time, whatever bytecode a checkout holds, and
# leave none behind.
sys.dont_write_bytecode = True
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"

# One vCPU for the measuring process and its set-up children: the host's
# speed state differs between vCPUs, so an operation and the probes next to
# it must run on the same one.
PINNED_CPU = min(os.sched_getaffinity(0))
os.sched_setaffinity(0, {PINNED_CPU})

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(1, SRC)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

import accuracy  # noqa: E402
import probe  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

#: Set-ups per run: this process plus fresh child interpreters.
SETUP_SAMPLES = 4
#: Span totals that fall back to the set-up trace when no operation runs
#: them: the workloads that learn priors in set-up.
SETUP_FALLBACK = ("core.prior_learning:historical", "bayes:learn_priors",
                  "self:core.prior_learning", "self:bayes")
#: Per-layer time metrics: name -> (span total key, scale to the unit).
LAYER_TIMES = {
    "core.prior_learning.historical_s": ("core.prior_learning:historical", 1),
    "bayes.learn_priors_s": ("bayes:learn_priors", 1),
    "core.simulation_plan.plan_s": ("core.simulation_plan:plan", 1),
    "spice.integrate_s": ("spice:integrate", 1),
    "core.statistical_flow.extract_s": ("core.statistical_flow:extract", 1),
    "core.batch_map.solve_s": ("core.batch_map:solve", 1),
    "runtime.service.queue_wait_ms": ("runtime.service:queue_wait", 1e3),
    "runtime.service.batch_s": ("runtime.service:batch", 1),
    "liberty.render_s": ("liberty:render", 1),
    "liberty.parse_s": ("liberty:parse", 1),
    "sta.compile_s": ("sta:compile", 1),
    "sta.sta_s": ("sta:sta", 1),
    "sta.ssta_s": ("sta:ssta", 1),
    "trace.root_s": ("trace:root", 1),
    "trace.remainder_s": ("trace:remainder", 1),
}
SELF_LAYERS = ("core.prior_learning", "bayes", "core.library_flow",
               "core.simulation_plan", "spice", "core.statistical_flow",
               "core.batch_map", "runtime.service", "liberty", "sta")
COUNT_METRICS = tuple(workloads.LEDGER_COUNTS) + (
    "core.batch_map.unconverged", "runtime.cache.simulation.hits",
    "runtime.cache.simulation.misses", "runtime.cache.simulation.bytes",
    "runtime.service.batches", "runtime.service.coalesced_arcs",
    "runtime.service.solved_hits", "liberty.bytes")


def normalized(raw: float, probe_ms: float) -> float:
    return raw * probe.PROBE_NOMINAL_MS / probe_ms


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def set_up(name: str, seed: int, tracer):
    """Import ``repro`` and build the workload's inputs; one set-up sample.

    The sample carries its ``time.monotonic()`` window, so the probe samples
    taken meanwhile can be matched to it in any process.
    """
    window = time.monotonic()
    start = time.perf_counter()
    import_s = workloads.import_repro()
    config = workloads.pin_runtime()
    workload = workloads.WORKLOADS[name](seed)
    with tracer.span("setup") as root:
        workload.setup(tracer)
    sample = {"setup_s": time.perf_counter() - start, "import_s": import_s,
              "window": [window, time.monotonic()]}
    return workload, config, sample, root


def child_set_ups(args, sampler) -> tuple:
    """Set-up samples from fresh interpreters, one after the other."""
    samples, failures = [], []
    for _ in range(SETUP_SAMPLES - 1):
        command = [sys.executable, os.path.abspath(__file__), "--setup-child",
                   "--workload", args.workload, "--seed", str(args.seed)]
        try:
            done = subprocess.run(command, cwd=ROOT, capture_output=True,
                                  text=True, timeout=150)
        except subprocess.TimeoutExpired:
            failures.append("set-up child timed out")
            continue
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            failures.append(f"set-up child failed: {done.stderr[-500:]}")
            continue
        sample = json.loads(lines[-1])
        sample["probe_ms"] = sampler.mean_ms(*sample["window"])
        samples.append(sample)
    return samples, failures


def host_record() -> dict:
    import numpy
    import scipy

    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "platform": platform.platform()}


def tail_record(raw_s, norm_s) -> dict:
    """The highest percentile with at least ten samples beyond it."""
    n = len(raw_s)
    for percentile in (99, 95, 90, 75):
        beyond = int(n * (100 - percentile) / 100)
        if beyond >= 10:
            cut = statistics.quantiles(raw_s, n=100)[percentile - 1]
            cut_norm = statistics.quantiles(norm_s, n=100)[percentile - 1]
            return {"percentile": percentile, "samples": n,
                    "samples_beyond": beyond, "raw_ms": cut * 1e3,
                    "normalized_ms": cut_norm * 1e3}
    return {"percentile": None, "samples": n}


def layer_metrics(measurement, setup_root, setup_tracer, setup_samples,
                  workload) -> tuple:
    """Per-layer metrics of a traced run, plus trace-integrity problems."""
    tracer = measurement.tracer
    traced = [s for s in measurement.samples if s.traced]
    untraced = [s for s in measurement.samples if not s.traced]
    summaries, problems = [], []
    for sample in traced:
        summary = spans.summarize_root(tracer.spans, sample.root)
        covered = summary["trace:remainder"] + sum(
            value for key, value in summary.items()
            if key.startswith("self:"))
        if abs(covered - summary["trace:root"]) > 1e-6 * summary["trace:root"]:
            problems.append("layer self times do not add up to the root")
        if abs(summary["trace:root"] - sample.raw_s) > 0.05 * sample.raw_s:
            problems.append("root span differs from wall clock by over 5%")
        scale = probe.PROBE_NOMINAL_MS / sample.probe_ms
        summaries.append({key: value * scale for key, value in
                          summary.items()})
    setup_summary = spans.summarize_root(setup_tracer.spans, setup_root["id"])
    setup_scale = probe.PROBE_NOMINAL_MS / setup_samples[0]["probe_ms"]

    def span_total(key: str) -> float:
        if any(key in summary for summary in summaries):
            return median(summary.get(key, 0.0) for summary in summaries)
        if key in SETUP_FALLBACK:
            return setup_summary.get(key, 0.0) * setup_scale
        return 0.0

    metrics = {}
    metrics["repro.import_s"] = (median(normalized(s["import_s"],
                                                   s["probe_ms"])
                                        for s in setup_samples), "s")
    for name, (key, scale) in LAYER_TIMES.items():
        unit = "ms" if name.endswith("_ms") else "s"
        metrics[name] = (span_total(key) * scale, unit)
    for layer in SELF_LAYERS:
        metrics[f"{layer}.self_s"] = (span_total("self:" + layer), "s")
    service = isinstance(workload, workloads.ServiceReextract)
    metrics["runtime.service.overhead_ms"] = (
        span_total("trace:remainder") * 1e3 if service else 0.0, "ms")
    for name in COUNT_METRICS:
        values = [s.counts.get(name, 0) for s in measurement.samples]
        metrics[name] = (median(values),
                         "bytes" if name.endswith(".bytes") else "count")
    setup_counts = getattr(workload, "setup_counts", {})
    if not metrics["core.prior_learning.rows_simulated"][0]:
        metrics["core.prior_learning.rows_simulated"] = (
            setup_counts.get("core.prior_learning.rows_simulated", 0),
            "count")
    traced_norm = median(normalized(s.raw_s, s.probe_ms) for s in traced)
    untraced_norm = median(normalized(s.raw_s, s.probe_ms) for s in untraced)
    metrics["trace.overhead_pct"] = (
        (traced_norm - untraced_norm) / untraced_norm * 100.0
        if untraced_norm else 0.0, "%")
    metrics["host.probe_ms"] = (median(s.probe_ms
                                       for s in measurement.samples), "ms")
    return metrics, problems


def setup_child(args) -> int:
    workload, _config, sample, _root = set_up(args.workload, args.seed,
                                              spans.NullTracer())
    workload.close()
    print(json.dumps(sample))
    return 0


def run(args) -> int:
    sampler = probe.Sampler()
    try:
        return run_workload(args, sampler)
    finally:
        sampler.close()


def run_workload(args, sampler) -> int:
    setup_tracer = spans.Tracer() if args.trace else spans.NullTracer()
    workload, config, own_setup, setup_root = set_up(
        args.workload, args.seed, setup_tracer)
    own_setup["probe_ms"] = sampler.mean_ms(*own_setup["window"])
    failures = []
    try:
        reference = accuracy.load_reference(workload.target)
    except accuracy.StaleReference as error:
        workload.close()
        print(f"error: {error}", file=sys.stderr)
        return 3
    try:
        children, child_failures = child_set_ups(args, sampler)
        failures.extend(child_failures)
        setup_samples = [own_setup] + children
        measurement = workload.measure(args.seconds, bool(args.trace),
                                       sampler)
        failures.extend(measurement.failures)
        if isinstance(workload, workloads.ServiceReextract):
            accuracy_arcs = workload.evaluation_arcs()
        else:
            accuracy_arcs = workload.first["accuracy_arcs"]
        errors = accuracy.error_pct(reference, workload.target,
                                    accuracy_arcs)
    finally:
        workload.close()

    samples = measurement.samples
    raw_s = [s.raw_s for s in samples]
    norm_s = [normalized(s.raw_s, s.probe_ms) for s in samples]
    setup_norm = [normalized(s["setup_s"], s["probe_ms"])
                  for s in setup_samples]
    if args.trace:
        metrics, problems = layer_metrics(measurement, setup_root,
                                          setup_tracer, setup_samples,
                                          workload)
        failures.extend(problems)
    else:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {"setup_s": (median(setup_norm), "s"),
                   "op_p50_ms": (median(norm_s) * 1e3, "ms"),
                   "peak_rss_mb": (peak_kib / 1024.0, "MiB")}
        metrics.update({name: (value, "%") for name, value in errors.items()})

    detail = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "host": host_record(),
        "environment": {"scrubbed": SCRUBBED, "pinned": THREAD_PINS,
                        "cpu": PINNED_CPU, "bytecode_written": False},
        "runtime_config": config,
        "call_args": {"library": workloads.LIBRARY_ARGS,
                      "historical": workloads.HISTORICAL_ARGS,
                      "priors": workloads.PRIOR_ARGS},
        "probe": {"nominal_ms": probe.PROBE_NOMINAL_MS,
                  "median_ms": median(s.probe_ms for s in samples),
                  "run_mean_ms": sampler.overall_mean_ms(),
                  "samples": len(sampler.samples),
                  "setup_median_ms": median(s["probe_ms"]
                                            for s in setup_samples)},
        "raw": {"op_p50_ms": median(raw_s) * 1e3,
                "setup_s": median(s["setup_s"] for s in setup_samples),
                "import_s": median(s["import_s"] for s in setup_samples)},
        "normalized": {"op_p50_ms": median(norm_s) * 1e3,
                       "setup_s": median(setup_norm)},
        "operations": len(samples),
        "tail": tail_record(raw_s, norm_s) if samples else None,
        "setup_samples": setup_samples,
        "samples": [[s.raw_s, s.probe_ms] for s in samples],
        "accuracy": errors,
        "failures": failures[:10],
        "extra": measurement.extra,
    }
    if args.trace:
        detail["spans"] = {"setup": len(setup_tracer.spans),
                           "operations": len(measurement.tracer.spans)}
    print(json.dumps({"detail": detail}))
    failed = len(failures)
    print(json.dumps({
        "correct": failed == 0 and bool(samples),
        "attempted": max(measurement.attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="how long the operations are measured")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--make-reference", action="store_true",
                        help="regenerate the committed accuracy reference")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: program sources not found under {SRC}",
              file=sys.stderr)
        return 2
    if args.make_reference:
        accuracy.write_reference()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_child:
        return setup_child(args)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
