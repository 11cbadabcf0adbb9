"""distseq benchmark: seeded workloads, closed loop, checked answers.

Run from the root of a checkout:

    python3 perfbench/run.py --workload lower_bound --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 25 --trace 0

One process runs one workload: one caller, no threads, each request sent
when the previous one has returned.  Set-up (a fresh-interpreter import of
distseq plus making the inputs) is timed SETUP_BEFORE times before the
first pass and SETUP_BETWEEN times after each pass, so that its samples
spread over the run; setup_s is their median.  The workload's request
list is run in passes for --seconds (set-up time not counted), with at
least MIN_PASSES whole passes; the run stops at the first request that
starts after the deadline.  Every time is scaled to the reference host
speed (see pace.py), because the shared host's own speed drifts by up to
2x.  Each request's time is the median of its scaled times over the
passes; wall_s is the sum of these times, request_p50_ms and
request_p90_ms are percentiles over them.

The last line of stdout is one JSON object: correct, attempted, failed
and metrics.  --trace 0 gives the end-to-end metrics; --trace 1 gives the
per-layer metrics, from spans around the benchmark's calls into each
distseq module, and writes the spans to .perfbench_out/.  The line before
it, prefixed "record: ", adds sample counts, failed_share and the
machine (Python version, nproc, load average at start).  --all runs every
workload in its own process and prints one table.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from math import ceil
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORK = ROOT / ".perfbench_work"

WORKLOADS = ("pds_exhaustive", "lower_bound", "subset_lattice", "small_queries")
SETUP_BEFORE = 3
SETUP_BETWEEN = 1
MIN_PASSES = 3
SHOWN_ERRORS = 5

LAYERS = ("pds", "semigroup", "extremal", "sync", "kgraph", "cli")
FUNCTIONS = ("semigroup.complexity", "semigroup.closure", "extremal.instance",
             "extremal.cycle_check", "sync.careful", "sync.irreducible",
             "sync.is_irreducible")
CLI_SUBCOMMANDS = ("pds", "extremal_sokolovskii", "sync_careful",
                   "kgraph_compress", "landau", "bounds_row", "semigroup_closure")

IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import distseq; "
                "print(time.perf_counter() - t)")


def percentile(values, q):
    """Nearest-rank percentile: the smallest value with q% at or below it."""
    ordered = sorted(values)
    return ordered[max(0, ceil(q / 100 * len(ordered)) - 1)]


def import_seconds() -> float:
    """Time to import distseq in a fresh interpreter, measured inside it."""
    done = subprocess.run([sys.executable, "-I", "-c", IMPORT_PROBE, str(SRC)],
                          cwd=ROOT, capture_output=True, text=True, timeout=60,
                          check=True)
    return float(done.stdout)


def set_up(workloads, name, seed, toy, workdir, tracer, pace, times):
    """Build the workload and append the time it took, scaled, to times.

    A traced set-up skips the import probe; its spans are what it is for.
    """
    pace.sample()
    start = perf_counter()
    t_import = 0.0 if tracer.enabled else import_seconds()
    tracer.request = "setup"
    t0 = perf_counter()
    wl = workloads.build(name, seed, toy, workdir, tracer)
    t1 = perf_counter()
    pace.sample()
    times.append((t_import + t1 - t0) * pace.factor(start, t1))
    return wl


class Stats:
    """Per-request (start, seconds) of the timed passes, split by
    traced/untraced, and the kernel times that scale them."""

    def __init__(self, n_ops, pace):
        self.times = {False: [[] for _ in range(n_ops)],
                      True: [[] for _ in range(n_ops)]}
        self.pace = pace
        self.attempted = 0
        self.failed = 0
        self.counts: dict[str, list] = {}   # name -> one total per whole pass
        self.passes = 0                     # whole passes

    def request_times(self, traced=False):
        """Each request's median scaled time over the passes."""
        return [statistics.median(dt * self.pace.factor(t0, t0 + dt)
                                  for t0, dt in samples)
                for samples in self.times[traced]]

    def wall(self, traced=False):
        return sum(self.request_times(traced))

    def raw_wall(self):
        """Sum of each request's fastest unscaled time, for the record."""
        return sum(min(dt for _, dt in samples) for samples in self.times[False])


def run_op(op, tracer, errors):
    """Run one request; return (start, seconds, answer, ok)."""
    t0 = perf_counter()
    try:
        answer = tracer.call("bench.request", op.run, tracer)
    except Exception:
        dt = perf_counter() - t0
        if len(errors) < SHOWN_ERRORS:
            errors.append(f"{op.name}: {traceback.format_exc()}")
        return t0, dt, None, False
    dt = perf_counter() - t0
    try:
        ok = bool(op.check(answer))
    except Exception:
        if len(errors) < SHOWN_ERRORS:
            errors.append(f"{op.name} (check): {traceback.format_exc()}")
        ok = False
    if not ok and len(errors) < SHOWN_ERRORS:
        errors.append(f"{op.name}: wrong answer {answer!r:.300}")
    return t0, dt, answer, ok


def measure(wl, seconds, tracer, pace, errors, between=None) -> Stats:
    """Closed loop over the request list until `seconds` have passed.

    After MIN_PASSES whole passes, the first request due after the
    deadline is not sent.  `between()`, if given, runs after each whole
    pass; its time does not count against `seconds`.  In a traced run,
    passes alternate untraced/traced so that one run gives both walls and
    hence the tracing overhead.
    """
    tracing = tracer.enabled
    min_passes = 2 * MIN_PASSES if tracing else MIN_PASSES
    stats = Stats(len(wl.ops), pace)
    deadline = perf_counter() + seconds

    def running():
        return stats.passes < min_passes or perf_counter() < deadline

    while running():
        traced = tracing and stats.passes % 2 == 1
        tracer.enabled = traced
        totals: dict[str, int] = {}
        gc.collect()
        for i, op in enumerate(wl.ops):
            if not running():
                break
            pace.sample_if_due()
            tracer.request = f"{stats.passes}:{i}"
            t0, dt, answer, ok = run_op(op, tracer, errors)
            stats.times[traced][i].append((t0, dt))
            stats.attempted += 1
            if ok:
                for key, value in op.counts(answer).items():
                    totals[key] = totals.get(key, 0) + value
            else:
                stats.failed += 1
                tracer.fail_request(tracer.request)
        else:   # a whole pass
            for key, value in totals.items():
                stats.counts.setdefault(key, []).append(value)
            stats.passes += 1
            if between is not None:
                t0 = perf_counter()
                between()
                deadline += perf_counter() - t0
    pace.sample()
    tracer.enabled = tracing
    return stats


def end_to_end_metrics(stats, setup_times) -> dict:
    times_ms = [1000 * t for t in stats.request_times()]
    return {
        "wall_s": (stats.wall(), "s"),
        "request_p50_ms": (percentile(times_ms, 50), "ms"),
        "request_p90_ms": (percentile(times_ms, 90), "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MB"),
    }


def per_layer_metrics(stats, tracer, sizes) -> dict:
    """Self time and calls per layer, function and CLI subcommand.

    Times and calls are per pass (median over traced passes) plus the
    set-up's calls, which happen once; failed counts the whole run.
    """
    per_pass: dict[str, dict] = {}     # key -> {pass: total}
    setup: dict[str, float] = {}
    failed: dict[str, int] = {}

    def add(key, request, value):
        if request == "setup":
            setup[key] = setup.get(key, 0) + value
        else:
            slot = per_pass.setdefault(key, {})
            slot[request] = slot.get(request, 0) + value

    for span, self_s in tracer.self_times():
        name = span["name"]
        layer = name.split(".")[0]
        if layer not in LAYERS:
            continue
        failed[layer] = failed.get(layer, 0) + span["failed"]
        request = span["request"] if span["request"] == "setup" \
            else span["request"].split(":")[0]
        if request != "setup" and int(request) >= stats.passes:
            continue   # the pass cut off at the deadline
        for key in (layer, name):
            add(key + ".busy_s", request, self_s)
            add(key + ".calls", request, 1)

    def value(key):
        passes = list(per_pass.get(key, {}).values())
        passes += [0] * (stats.passes // 2 - len(passes))   # odd passes are traced
        return (statistics.median(passes) if passes else 0) + setup.get(key, 0)

    def count(key):
        if key in sizes:
            return sizes[key]
        got = stats.counts.get(key)
        return statistics.median(got) if got else 0

    def rate(numerator, seconds):
        return numerator / seconds if seconds else 0.0

    m = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = (value(layer + ".calls"), "count")
        m[f"{layer}.busy_s"] = (value(layer + ".busy_s"), "s")
        m[f"{layer}.failed"] = (failed.get(layer, 0), "count")
    for fn in FUNCTIONS:
        m[f"{fn}.busy_s"] = (value(fn + ".busy_s"), "s")
    for sub in CLI_SUBCOMMANDS:
        m[f"cli.{sub}.busy_s"] = (value(f"cli.{sub}.busy_s"), "s")
        m[f"cli.{sub}.calls"] = (value(f"cli.{sub}.calls"), "count")
    searches = count("pds.subset_searches")
    m["pds.subset_searches"] = (searches, "count")
    m["pds.searches_per_s"] = (rate(searches, value("pds.busy_s")), "1/s")
    elements = count("semigroup.closure.elements")
    m["semigroup.closure.elements"] = (elements, "count")
    m["semigroup.closure.elements_per_s"] = (
        rate(elements, value("semigroup.closure.busy_s")), "1/s")
    m["sync.lattice_subsets"] = (count("sync.lattice_subsets"), "count")
    arcs_in = count("kgraph.compress.arcs_in")
    arcs_out = count("kgraph.compress.arcs_out")
    m["kgraph.compress.arcs_in"] = (arcs_in, "count")
    m["kgraph.compress.arcs_out"] = (arcs_out, "count")
    m["kgraph.compress.ratio"] = (rate(arcs_out, arcs_in), "ratio")
    m["trace.overhead_s"] = (stats.wall(traced=True) - stats.wall(), "s")
    return m


def environment() -> dict:
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "loadavg": os.getloadavg()}


def run_workload(name, seed, seconds, trace, toy=False) -> dict:
    """Set up and measure one workload in this process; return the record."""
    env = environment()
    if not (SRC / "distseq" / "__init__.py").is_file():
        raise SystemExit(f"no distseq sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import distseq
    if Path(distseq.__file__).resolve().parent != (SRC / "distseq").resolve():
        raise SystemExit(f"distseq imported from {distseq.__file__}, not {SRC}")
    import workloads
    from pace import Pace
    from tracing import Tracer

    tracer = Tracer(bool(trace))
    pace = Pace()
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK))
    cwd = os.getcwd()
    errors: list[str] = []
    setup_times: list[float] = []

    def set_up_again():
        for _ in range(SETUP_BETWEEN):
            set_up(workloads, name, seed, toy, workdir, tracer, pace, setup_times)

    try:
        for _ in range(1 if trace else SETUP_BEFORE):
            wl = set_up(workloads, name, seed, toy, workdir, tracer, pace,
                        setup_times)
        # CLI requests name their files relative to the work directory,
        # so reports (and their goldens) do not depend on where it is.
        os.chdir(workdir)
        stats = measure(wl, seconds, tracer, pace, errors,
                        None if trace else set_up_again)
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)
    for e in errors:
        print(e, file=sys.stderr)
    if trace:
        metrics = per_layer_metrics(stats, tracer, wl.sizes)
    else:
        metrics = end_to_end_metrics(stats, setup_times)
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "toy": toy, "env": env, "passes": stats.passes,
        "requests_per_pass": len(wl.ops),
        "samples": sum(len(t) for t in stats.times[False]),
        "attempted": stats.attempted, "failed": stats.failed,
        "failed_share": stats.failed / stats.attempted,
        "setup_samples_s": setup_times,
        "raw_wall_s": stats.raw_wall(), "pace": pace.summary(),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{trace}"
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if trace:
        tracer.dump(OUT / f"{stem}-spans.json")
    return record


def result_line(record) -> str:
    return json.dumps({"correct": record["failed"] == 0,
                       "attempted": record["attempted"],
                       "failed": record["failed"],
                       "metrics": record["metrics"]})


def run_all(args) -> int:
    """Every workload in its own process; one table of their records."""
    records = []
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=300)
        sys.stderr.write(done.stderr)
        lines = [l for l in done.stdout.splitlines() if l.startswith("record: ")]
        if done.returncode != 0 or not lines:
            print(f"{name}: failed with exit code {done.returncode}")
            return 1
        records.append(json.loads(lines[-1][len("record: "):]))
    env = records[0]["env"]
    print(f"python {env['python']}, nproc {env['nproc']}, "
          f"loadavg {env['loadavg']}, seed {args.seed}, "
          f"{args.seconds} s per workload, trace {args.trace}")
    for r in records:
        print(f"\n{r['workload']}: {r['passes']} passes x {r['requests_per_pass']}"
              f" requests = {r['samples']} samples, failed_share "
              f"{r['failed_share']:.4g} ({r['failed']}/{r['attempted']})")
        for key, m in r["metrics"].items():
            print(f"  {key:36s} {m['value']:14.6g} {m['unit']}")
    return 0 if all(r["failed"] == 0 for r in records) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true",
                        help="run every workload, one process each")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="toy-size inputs (the self-test uses these)")
    args = parser.parse_args(argv)
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("give --workload or --all")
    record = run_workload(args.workload, args.seed, args.seconds, args.trace,
                          args.toy)
    print("record: " + json.dumps(record))
    print(result_line(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
