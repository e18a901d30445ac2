"""carboncast benchmark: end-to-end metrics, or per-layer metrics from a traced run.

    python3 bench/run.py --workload estimate-mix --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1      # all three, one after another

Workloads (each a closed loop with one caller; see bench/README.md for why):

* ``estimate-mix``   distinct estimate() and estimate_lifecycle() calls, in process
* ``sweep-frontier`` sweep() over 10^4-point grids with a large nondominated share
* ``cli-cold``       fresh ``python -m carboncast.cli`` processes, one at a time

The package is imported from ``src/`` next to this directory; nothing is
installed. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0`` and the per-layer metrics with ``--trace 1``. The
full result, with metadata and workload-property shares, is also written to
``.bench_out/``; the traced run writes its spans there too.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import re
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from array import array
from importlib import metadata
from itertools import islice
from pathlib import Path

from spans import LAYERS, ROOT as ROOT_SPAN, Tracer, import_times_ms, layer_totals, load
from speed import KernelProbe, StartupProbe

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("estimate-mix", "sweep-frontier", "cli-cold")

TAIL_Q = 0.90            # tail percentile, used where >= 10 samples lie beyond it
MIN_BEYOND_TAIL = 10
SETUP_RUNS = 9           # fresh interpreters timed for setup_s (median reported)
CHUNK = 256              # estimate-mix inputs generated per untimed batch
MAX_ESTIMATE_OPS = 400_000    # timing buffers are allocated for this many calls
TRACED_ESTIMATE_OPS = 20_000  # cap on traced estimate-mix calls (bounds span memory)
SWEEP_POINTS, SWEEP_POINTS_SMALL = 10_000, 1_000
MIN_SWEEP_CALLS, MAX_SWEEP_CALLS = 4, 64  # the median of four calls damps the sweep's noise
MIN_CLI_RUNS, MAX_CLI_RUNS = 100, 10_000  # 100 runs give a p90 with ten samples beyond it
CLI_TIMEOUT_S = 60
SWEEP_STAGES = ("input", "parameter-model", "scaling-law", "flop-model",
                "efficiency-model", "operational-carbon", "embodied-carbon")

SETUP_CODE = "from carboncast.catalog import resolve_catalogs; resolve_catalogs()"


def child_env() -> dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(round(q * len(ordered), 6)) - 1)]


def tail(values) -> tuple[float, str]:
    """The p90 when at least ten samples lie beyond it, else the slowest sample."""
    if len(values) - math.ceil(round(TAIL_Q * len(values), 6)) >= MIN_BEYOND_TAIL:
        return percentile(values, TAIL_Q), f"p{round(TAIL_Q * 100)}"
    return max(values), f"max of {len(values)}"


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def measure_setup(env: dict[str, str], startup) -> tuple[float, float]:
    """Median wall time of a fresh interpreter that imports carboncast and
    resolves the catalogs: (at reference speed, raw), in seconds. ``startup``
    is sampled between the runs."""
    times = Timings(SETUP_RUNS)
    for i in range(SETUP_RUNS + 1):  # the first run compiles bytecode and is dropped
        startup.sample()
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                       capture_output=True, timeout=CLI_TIMEOUT_S, check=True)
        t1 = time.perf_counter()
        if i:
            times.add(0, int((t1 - t0) * 1e9), t0, t1)
    startup.sample()
    return statistics.median(times.scaled(startup)) / 1e9, statistics.median(times.raw()) / 1e9


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "carboncast").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".csv"):
            h.update(path.relative_to(SRC).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def version(dist: str) -> str | None:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def run_metadata(args) -> dict:
    return {"python": platform.python_version(), "numpy": version("numpy"),
            "pyyaml": version("PyYAML"), "git_revision": git_revision(),
            "src_sha256": source_digest(), "nproc": os.cpu_count(), "seed": args.seed,
            "seconds": args.seconds, "workload": args.workload, "trace": args.trace}


class Outcome:
    """Attempted and failed operations, with the first few failure reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, problems: list[str], what: str) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if self.failed <= 5:
                print(f"FAILED {what}: {'; '.join(problems)}", file=sys.stderr)


class Timings:
    """Timed operations, stored in arrays allocated up front so that the
    benchmark's own memory use does not grow with the number of operations."""

    def __init__(self, capacity: int) -> None:
        self.tag = bytearray(capacity)
        self.ns = array("q", bytes(8 * capacity))
        self.start = array("d", bytes(8 * capacity))
        self.end = array("d", bytes(8 * capacity))
        self.n = 0

    def full(self) -> bool:
        return self.n == len(self.tag)

    def add(self, tag: int, ns: int, start: float, end: float) -> None:
        i = self.n
        self.tag[i], self.ns[i], self.start[i], self.end[i] = tag, ns, start, end
        self.n += 1

    def _picked(self, tag: int | None):
        return (i for i in range(self.n) if tag is None or self.tag[i] == tag)

    def raw(self, tag: int | None = None) -> list[int]:
        return [self.ns[i] for i in self._picked(tag)]

    def scaled(self, probe, tag: int | None = None) -> list[float]:
        """Times at reference speed (see speed.py), in ns."""
        return [self.ns[i] * probe.scale(self.start[i], self.end[i]) for i in self._picked(tag)]


def timed(outcome: Outcome, what: str, probe, fn, *args):
    """Call fn and time it, less any speed-probe time spent inside it.

    An exception of any type is an unexpected failure: it is counted and the
    result is None. Returns (result, ns, start s, end s).
    """
    stolen = probe.stolen_ns if probe else 0
    t0 = time.perf_counter_ns()
    try:
        result = fn(*args)
    except Exception as exc:  # benchmark boundary: count it, report it, go on
        outcome.record([f"{type(exc).__name__}: {exc}"], what)
        result = None
    t1 = time.perf_counter_ns()
    return result, t1 - t0 - ((probe.stolen_ns - stolen) if probe else 0), t0 / 1e9, t1 / 1e9


def latency_metrics(values_ns: list[float], work_per_op: int = 1) -> dict:
    """throughput_per_s, op_p50_ms and op_tail_ms from per-operation times."""
    tail_ns, _ = tail(values_ns)
    return {"throughput_per_s": (work_per_op * len(values_ns) / (sum(values_ns) / 1e9), "1/s"),
            "op_p50_ms": (percentile(values_ns, 0.5) / 1e6, "ms"),
            "op_tail_ms": (tail_ns / 1e6, "ms")}


# --------------------------------------------------------------------------
# Per-layer metrics from spans
# --------------------------------------------------------------------------

def layer_metrics(totals: dict[str, tuple[int, int]], ops: int, op_ns: int) -> dict:
    """Calls per operation, self time per operation and share of operation
    time for every layer; zero for layers the workload does not reach."""
    out = {}
    for layer in LAYERS:
        calls, self_ns = totals.get(layer, (0, 0))
        out[f"{layer}.calls_per_op"] = (calls / ops, "count")
        out[f"{layer}.self_us_per_op"] = (self_ns / ops / 1e3, "us")
        out[f"{layer}.self_share"] = (100.0 * self_ns / op_ns, "%")
    return out


def extra_layer_metrics(growth=0.0, imports=None, overhead=0.0, error_rows=None) -> dict:
    imports = imports or {}
    error_rows = error_rows or {}
    out = {"pipeline.sweep.self_growth": (growth, "x"),
           "trace.overhead_ratio": (overhead, "x")}
    for key in ("numpy", "yaml", "carboncast"):
        out[f"cli.import_{key}_ms"] = (imports.get(key, 0.0), "ms")
    for stage in SWEEP_STAGES:
        out[f"sweep.error_rows.{stage}"] = (error_rows.get(stage, 0), "count")
    return out


def share(totals, layers, op_ns) -> float:
    return sum(totals.get(layer, (0, 0))[1] for layer in layers) / op_ns


# --------------------------------------------------------------------------
# estimate-mix
# --------------------------------------------------------------------------

ESTIMATE, LIFECYCLE = 0, 1


def estimate_mix(args, outcome: Outcome, report: dict, probe) -> dict:
    import carboncast as cc
    from checks import report_problems
    from workloads import EstimateMix

    mix = EstimateMix(args.seed, cc.catalog.resolve_catalogs())

    def chunk(ops: Timings, tracer=None) -> None:
        for kind, payload in islice(mix, min(CHUNK, len(ops.tag) - ops.n)):
            # Looked up per call, so the traced run reaches the wrapped functions.
            fn = cc.estimate if kind == "estimate" else cc.estimate_lifecycle
            call = (tracer.call, ROOT_SPAN, fn) if tracer else (fn,)
            result, ns, t0, t1 = timed(outcome, kind, probe, *call, payload)
            if result is not None:
                ops.add(LIFECYCLE if kind == "lifecycle" else ESTIMATE, ns, t0, t1)
                outcome.record(report_problems(result), kind)

    def run(seconds: float) -> Timings:
        ops, deadline = Timings(MAX_ESTIMATE_OPS), time.perf_counter() + seconds
        while time.perf_counter() < deadline and not ops.full():
            chunk(ops)
        return ops

    run(0.5)  # warm-up: first-call costs are not a steady caller's
    if probe is not None:
        ops = run(args.seconds)
        report["peak_rss_mb"] = peak_rss_mb()
        estimates, lifecycles = ops.scaled(probe, ESTIMATE), ops.scaled(probe, LIFECYCLE)
        metrics = latency_metrics(estimates + lifecycles)
        report["named"] = {
            "estimate_per_s": metrics["throughput_per_s"],
            "estimate_p50_us": (percentile(estimates, 0.5) / 1e3, "us"),
            "estimate_p90_us": (percentile(estimates, 0.9) / 1e3, "us"),
            "lifecycle_p50_us": (percentile(lifecycles, 0.5) / 1e3, "us"),
        }
        report["raw"] = latency_metrics(ops.raw())
        report["properties"] = mix.tally.shares()
        return metrics

    # Untraced and traced chunks alternate, so that drift in machine speed
    # reaches both sides of trace.overhead_ratio alike.
    plain, traced = Timings(MAX_ESTIMATE_OPS), Timings(TRACED_ESTIMATE_OPS)
    tracer = Tracer()
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline and not traced.full():
        chunk(plain)
        with tracer.active():
            chunk(traced, tracer)
    spans = tracer.records()
    tracer.dump(OUT / "spans-estimate-mix.json")
    totals = layer_totals(spans)
    op_ns = sum(e - s for n, _, s, e in spans if n == ROOT_SPAN)
    metrics = layer_metrics(totals, totals[ROOT_SPAN][0], op_ns)
    metrics.update(extra_layer_metrics(
        overhead=statistics.mean(traced.raw()) / statistics.mean(plain.raw())))
    report["predictions"] = {
        "catalog, efficiency and pipeline.estimate self time dominate estimate-mix": share(
            totals, ("catalog.resolve_catalogs", "catalog.default_anchors",
                     "efficiency.plan_parallelism", "efficiency.optimal_efficiency",
                     "efficiency.efficiency_at_count", "pipeline.estimate"), op_ns)}
    report["properties"] = mix.tally.shares()
    return metrics


# --------------------------------------------------------------------------
# sweep-frontier
# --------------------------------------------------------------------------

def error_stage(reason: str) -> str:
    m = re.match(r"\[([a-z-]+)\]", reason)
    return m.group(1) if m else "input"


def sweep_frontier(args, outcome: Outcome, report: dict, probe) -> dict:
    import carboncast as cc
    from checks import sweep_problems
    from workloads import sweep_grid, sweep_setting

    fleet, dc = sweep_setting(cc.catalog.resolve_catalogs())
    calls = iter(range(10**9))
    nondominated, error_rows = [], {}

    def one(n: int, tracer=None, brute=False):
        """Sweep a fresh n-point grid; (ns, start, end), or None on failure."""
        rng = random.Random(f"sweep-frontier:{args.seed}:{next(calls)}")
        grid, bad = sweep_grid(rng, n, invalid=max(3, n // 1000))
        call = (tracer.call, ROOT_SPAN, cc.sweep) if tracer else (cc.sweep,)
        result, ns, t0, t1 = timed(outcome, "sweep", probe, *call, grid, fleet, dc)
        if result is None:
            return None
        points, errors = result
        problems = sweep_problems(points, errors, grid, bad, brute=brute)
        outcome.record(problems, f"sweep of {n} points")
        nondominated.append(sum(not p.dominated for p in points) / len(points))
        for _, reason in errors:
            stage = error_stage(reason)
            error_rows[stage] = error_rows.get(stage, 0) + 1
        return None if problems else (ns, t0, t1)

    one(SWEEP_POINTS_SMALL)  # warm-up
    if probe is not None:
        done, start = Timings(MAX_SWEEP_CALLS), time.perf_counter()
        while not done.full() and (done.n < MIN_SWEEP_CALLS or time.perf_counter() - start < args.seconds):
            timing = one(SWEEP_POINTS)
            if timing is not None:
                done.add(0, *timing)
            elif outcome.failed > 5:
                break
        report["peak_rss_mb"] = peak_rss_mb()
        metrics = latency_metrics(done.scaled(probe), SWEEP_POINTS)
        report["named"] = {"sweep_points_per_s": metrics["throughput_per_s"],
                           "sweep_call_p50_s": (metrics["op_p50_ms"][0] / 1e3, "s")}
        report["raw"] = latency_metrics(done.raw(), SWEEP_POINTS)
        report["tail_percentile"] = tail(done.raw())[1]
        report["properties"] = {"nondominated": statistics.mean(nondominated),
                                "broken_points": max(3, SWEEP_POINTS // 1000) / SWEEP_POINTS}
        return metrics

    tracer = Tracer()
    with tracer.active():
        one(SWEEP_POINTS_SMALL, tracer, brute=True)
    small_end = len(tracer)
    error_rows.clear()  # from here on, count error rows of 10^4-point calls only
    # Untraced and traced calls alternate, as in estimate-mix.
    plain, traced = Timings(MAX_SWEEP_CALLS), Timings(MAX_SWEEP_CALLS)
    start = time.perf_counter()
    while not traced.full() and (traced.n < 1 or time.perf_counter() - start < args.seconds):
        timing = one(SWEEP_POINTS)
        with tracer.active():
            traced_timing = one(SWEEP_POINTS, tracer)
        if timing is None or traced_timing is None:
            if outcome.failed > 5:
                break
            continue
        plain.add(0, *timing)
        traced.add(0, *traced_timing)
    spans = tracer.records()
    tracer.dump(OUT / "spans-sweep-frontier.json")
    small = layer_totals(spans[:small_end])
    # Spans point at their parents by absolute index; re-base the later ones.
    large_spans = [(n, p - small_end if p >= 0 else p, s, e) for n, p, s, e in spans[small_end:]]
    large = layer_totals(large_spans)
    points = SWEEP_POINTS * traced.n
    op_ns = sum(e - s for n, _, s, e in large_spans if n == ROOT_SPAN)
    metrics = layer_metrics(large, points, op_ns)
    growth = (large["pipeline.sweep"][1] / points) / (small["pipeline.sweep"][1] / SWEEP_POINTS_SMALL)
    metrics.update(extra_layer_metrics(
        growth=growth, overhead=statistics.mean(traced.raw()) / statistics.mean(plain.raw()),
        error_rows={k: v / (2 * traced.n) for k, v in error_rows.items()}))
    report["predictions"] = {"pipeline.sweep self time dominates sweep-frontier":
                             share(large, ("pipeline.sweep",), op_ns)}
    report["properties"] = {"nondominated": statistics.mean(nondominated)}
    return metrics


# --------------------------------------------------------------------------
# cli-cold
# --------------------------------------------------------------------------

def cli_cold(args, outcome: Outcome, report: dict, probe) -> dict:
    import carboncast as cc
    import yaml
    from checks import (lifecycle_from_config, report_csv_problems, request_from_config,
                        sweep_csv_problems)
    from workloads import CLI_KINDS, cli_sweep_config, sweep_setting

    examples = ROOT / "docs" / "examples"
    estimate_cfg = examples / "gpt3_training.yaml"
    lifecycle_cfg = examples / "lifecycle_green_grid.yaml"
    extra_catalog = examples / "xlm_cluster_hardware.csv"
    catalogs = cc.catalog.resolve_catalogs()
    with open(estimate_cfg, encoding="utf-8") as fh:
        want_estimate = cc.estimate(request_from_config(yaml.safe_load(fh)["estimate"], catalogs))
    with open(lifecycle_cfg, encoding="utf-8") as fh:
        want_lifecycle = cc.estimate_lifecycle(lifecycle_from_config(
            yaml.safe_load(fh)["lifecycle"], cc.catalog.resolve_catalogs([extra_catalog])))
    fixtures = len(cc.run_validation())
    names = sorted(catalogs[0]) + sorted(catalogs[1])
    fleet, dc = sweep_setting(catalogs)
    rng = random.Random(f"cli-cold:{args.seed}")
    env = child_env()
    tmp = tempfile.TemporaryDirectory(dir=OUT)
    counter = iter(range(10**9))

    def invocation(kind: str):
        """argv for one command and the check of its output."""
        if kind == "estimate":
            return (["estimate", "--config", str(estimate_cfg), "--format", "csv"],
                    lambda out: report_csv_problems(out, want_estimate))
        if kind == "lifecycle":
            return (["lifecycle", "--config", str(lifecycle_cfg), "--catalog", str(extra_catalog),
                     "--format", "csv"], lambda out: report_csv_problems(out, want_lifecycle))
        if kind == "validate":
            line = f"{fixtures}/{fixtures} fixtures passed"
            return (["validate"], lambda out: [] if out.rstrip().endswith("\n" + line)
                    else [f"validate did not print {line!r}"])
        if kind == "catalog":
            return (["catalog", "list"], lambda out: [
                f"{name} missing" for name in names
                if not any(ln.split()[:1] == [name] for ln in out.splitlines())])
        text, grid = cli_sweep_config(rng)
        path = Path(tmp.name) / f"sweep-{next(counter)}.yaml"
        path.write_text(text, encoding="utf-8")
        points, errors = cc.sweep(grid, fleet, dc)
        return (["sweep", "--config", str(path)],
                lambda out: sweep_csv_problems(out, points) + [f"error row {e}" for e in errors])

    def invoke(kind: str, cmd: list[str], check, walls: Timings):
        """Run one child; record its wall time if it passes; its stderr."""
        if probe is not None:
            probe.sample()
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                                  timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            outcome.record([f"no exit within {CLI_TIMEOUT_S} s"], kind)
            return None
        t1 = time.perf_counter()
        problems = ([f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"]
                    if proc.returncode else check(proc.stdout))
        outcome.record(problems, kind)
        if problems:
            return None
        walls.add(CLI_KINDS.index(kind), int((t1 - t0) * 1e9), t0, t1)
        return proc.stderr

    def run(seconds: float, min_runs: int, spans_dir: Path | None = None):
        """Invoke the commands in turn. With ``spans_dir``, each command runs
        untraced and then traced, so drift in machine speed reaches both sides
        of trace.overhead_ratio alike. Returns the wall times of untraced and
        traced runs, and the import times of the traced ones."""
        plain, traced, imports = Timings(MAX_CLI_RUNS), Timings(MAX_CLI_RUNS), []
        start, i = time.perf_counter(), 0
        while not plain.full() and (i < min_runs or time.perf_counter() - start < seconds):
            kind = CLI_KINDS[i % len(CLI_KINDS)]
            i += 1
            argv, check = invocation(kind)
            invoke(kind, [sys.executable, "-m", "carboncast.cli", *argv], check, plain)
            if spans_dir is not None:
                stderr = invoke(kind, [sys.executable, "-X", "importtime", str(BENCH / "cli_child.py"),
                                       str(spans_dir / f"{i:05d}-{kind}.json"), *argv], check, traced)
                if stderr is not None:
                    imports.append(import_times_ms(stderr))
        return plain, traced, imports

    try:
        run(0, len(CLI_KINDS))  # warm-up: compiles bytecode, fills the page cache
        if probe is not None:
            walls, _, _ = run(args.seconds, MIN_CLI_RUNS)
            probe.sample()
            report["peak_rss_mb"] = peak_rss_mb(resource.RUSAGE_CHILDREN)
            metrics = latency_metrics(walls.scaled(probe))
            report["named"] = {"cli_p50_ms": metrics["op_p50_ms"], "cli_tail_ms": metrics["op_tail_ms"]}
            report["raw"] = latency_metrics(walls.raw())
            report["tail_percentile"] = tail(walls.raw())[1]
            report["properties"] = {k: walls.tag[:walls.n].count(CLI_KINDS.index(k)) / walls.n
                                    for k in CLI_KINDS}
            return metrics

        spans_dir = OUT / "spans-cli-cold"
        spans_dir.mkdir(exist_ok=True)
        for old in spans_dir.glob("*.json"):
            old.unlink()
        plain, traced, imports = run(args.seconds, 2 * len(CLI_KINDS), spans_dir)
    finally:
        tmp.cleanup()
    totals: dict[str, tuple[int, int]] = {}
    for path in sorted(spans_dir.glob("*.json")):
        for layer, (c, s) in layer_totals(load(path)).items():
            c0, s0 = totals.get(layer, (0, 0))
            totals[layer] = (c0 + c, s0 + s)
    traced_ns = traced.raw()
    metrics = layer_metrics({k: v for k, v in totals.items() if k in LAYERS}, traced.n, sum(traced_ns))
    mean_imports = {k: statistics.mean(d.get(k, 0.0) for d in imports)
                    for k in ("numpy", "yaml", "carboncast")}
    metrics.update(extra_layer_metrics(
        imports=mean_imports, overhead=statistics.mean(traced_ns) / statistics.mean(plain.raw())))
    report["predictions"] = {"imports dominate cli-cold":
                             mean_imports["carboncast"] * 1e6 / statistics.mean(traced_ns)}
    return metrics


RUNNERS = {"estimate-mix": estimate_mix, "sweep-frontier": sweep_frontier, "cli-cold": cli_cold}


def run_workload(args) -> int:
    OUT.mkdir(exist_ok=True)
    outcome = Outcome()
    report: dict = {"meta": run_metadata(args)}
    run = RUNNERS[args.workload]
    if args.trace:
        metrics = run(args, outcome, report, None)
        report["predictions"] = {text: {"share_of_op_time": value, "held": value > 0.5}
                                 for text, value in report["predictions"].items()}
    else:
        # Fresh processes are scaled by the start-up probe, in-process work by the kernel probe.
        probe = StartupProbe()
        setup_s, setup_raw_s = measure_setup(child_env(), probe)
        if args.workload == "cli-cold":
            metrics = run(args, outcome, report, probe)
        else:
            with KernelProbe() as probe:
                metrics = run(args, outcome, report, probe)
        rss = report.pop("peak_rss_mb")
        metrics = {"setup_s": (setup_s, "s"), **metrics, "peak_rss_mb": (rss, "MB")}
        report["named"].update({
            "setup_s": (setup_s, "s"),
            "failed_ratio": (outcome.failed / max(1, outcome.attempted), "ratio"),
            "peak_rss_mb": (rss, "MB")})
        report["tail_percentile"] = report.get("tail_percentile", f"p{round(TAIL_Q * 100)}")
        report["raw"]["setup_s"] = (setup_raw_s, "s")
        report["probe_us"] = {"median": probe.median_ns() / 1e3, "reference": probe.NOMINAL_NS / 1e3}
    report["metrics"] = metrics
    report["attempted"], report["failed"] = outcome.attempted, outcome.failed
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n", encoding="utf-8")

    print(f"meta {json.dumps(report['meta'])}")
    for key, value in report.get("properties", {}).items():
        print(f"property {args.workload} {key} = {value:.4f}")
    for name, (value, unit) in report.get("named", {}).items():
        print(f"metric {args.workload} {name} = {value:.6g} {unit}")
    if not args.trace:
        print(f"metric {args.workload} tail percentile = {report['tail_percentile']}")
        print(f"speed probe median = {report['probe_us']['median']:.1f} us "
              f"(reference {report['probe_us']['reference']:.1f} us); "
              "raw: " + ", ".join(f"{k} = {v:.6g} {u}" for k, (v, u) in report["raw"].items()))
    for text, p in report.get("predictions", {}).items():
        print(f"prediction {text}: {'held' if p['held'] else 'not held'} "
              f"({100 * p['share_of_op_time']:.1f}% of operation time)")
    print(json.dumps({"correct": outcome.failed == 0 and outcome.attempted > 0,
                      "attempted": outcome.attempted, "failed": outcome.failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


def run_all(args) -> int:
    """Run every workload in its own process and summarise."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "workloads": {}}
    for workload in WORKLOADS:
        proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], cwd=ROOT, capture_output=True,
                              text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode or not lines:
            print(f"{workload} exited with {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        for key, m in result["metrics"].items():
            print(f"metric {workload} {key} = {m['value']:.6g} {m['unit']}")
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        summary["workloads"][workload] = result
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "carboncast" / "__init__.py").is_file() or not (ROOT / "docs" / "examples").is_dir():
        print(f"error: no carboncast sources under {SRC} (run from a full checkout)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
