"""nrquad benchmark: each workload timed against a plain-Python run of the same problems.

usage: python3 bench/run.py [--workload integrate|compare|cli|all] [--seed N]
                            [--seconds S] [--trace 0|1]

Run it from the root of an nrquad checkout; it imports nrquad from
``src/`` there.  Each workload is a closed loop with one caller: an
operation runs through nrquad, with its plain-Python counterpart timed
right before and right after it, and the next operation starts when all
three are done.  Every time is reported as a multiple of the plain time,
which cancels most of the drift of a shared machine.  The loop runs whole rounds of the workload's operations until
``--seconds`` have passed and at least 100 operations are done.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("integrate", "compare", "cli")
DEFAULT_SECONDS = 30
MIN_OPS = 100  # op_vs_plain_p90 needs ten operations beyond it
SETUP_PROBES = 9
PROCESS_PROBES = 5
WARMUP_OPS = {"integrate": 20, "compare": 1, "cli": 1}
WORKED_EXAMPLE = ("2*x^2+3*x+1", -0.5, 1.0)
OUT_DIR = BENCH_DIR / "out"


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOAD_NAMES, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


@dataclass
class Run:
    nrquad_ns: list[int] = field(default_factory=list)
    plain_ns: list[float] = field(default_factory=list)
    failed: int = 0
    failures: Counter = field(default_factory=Counter)
    wrong: list[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.nrquad_ns)

    @property
    def time_vs_plain(self) -> float:
        return sum(self.nrquad_ns) / sum(self.plain_ns)

    def ratios(self) -> list[float]:
        return [n / p for n, p in zip(self.nrquad_ns, self.plain_ns)]


def measure(ops: list, seconds: float, min_ops: int, between: list | None = None) -> Run:
    """Time whole rounds of ``ops`` until ``seconds`` have passed and ``min_ops`` are done.

    Each operation's plain counterpart runs right before and right after
    it, and the mean of the two is its plain time.  The machine's speed
    shifts from one moment to the next; bracketing nrquad's call on both
    sides keeps a shift in the middle of it from landing on one side of
    the ratio only.

    ``between`` holds untimed calls spread evenly over the run, each made
    between two operations once its share of ``seconds`` has passed; any
    left over are made at the end.
    """
    from workloads import OpFailed, WrongResult

    run = Run()
    clock = time.perf_counter_ns
    begin = time.perf_counter()
    pending = list(between or [])
    due = [begin + (i + 0.5) * seconds / len(pending) for i in range(len(pending))]
    while True:
        for op in ops:
            if pending and time.perf_counter() >= due[-len(pending)]:
                pending.pop(0)()
            start = clock()
            op.plain()
            before = clock()
            try:
                result = op.nrquad()
            except Exception as exc:  # a raising operation is a failed one; the check reports it
                result = exc
            after = clock()
            want = op.plain()
            end = clock()
            run.nrquad_ns.append(after - before)
            run.plain_ns.append((before - start + end - after) / 2)
            try:
                op.check(result, want)
            except OpFailed as exc:
                run.failed += 1
                run.failures[f"{op.name}: {str(exc)[:200]}"] += 1
            except WrongResult as exc:
                run.wrong.append(f"{op.name}: {exc}")
        if time.perf_counter() - begin >= seconds and run.attempted >= min_ops:
            for call in pending:
                call()
            return run


def setup_probe(args: argparse.Namespace) -> float:
    """Seconds from launching a fresh benchmark process to its first timed operation."""
    argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload, "--seed", str(args.seed), "--setup-probe"]
    start = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed


def print_rates(run: Run) -> None:
    n = run.attempted
    nrq_s, plain_s = sum(run.nrquad_ns) / 1e9, sum(run.plain_ns) / 1e9
    print(f"  reference only: nrquad {n / nrq_s:.1f} ops/s, median {statistics.median(run.nrquad_ns) / 1e6:.4f} ms/op;"
          f" plain {n / plain_s:.1f} ops/s, median {statistics.median(run.plain_ns) / 1e6:.4f} ms/op")


def print_summary(workload: str, run: Run, metrics: dict[str, tuple[float, str]]) -> None:
    print(f"workload {workload}: attempted {run.attempted}, failed {run.failed}, correct {not run.wrong}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<48} {value:>14.6g} {unit}")
    for note, count in run.failures.items():
        print(f"  failed x{count}: {note}")
    for note in run.wrong[:10]:
        print(f"  WRONG: {note}")


def end_to_end(args: argparse.Namespace, api, ops: list) -> tuple[Run, dict[str, tuple[float, str]]]:
    setups: list[float] = []
    probes = [lambda: setups.append(setup_probe(args))] * SETUP_PROBES
    run = measure(ops, args.seconds, MIN_OPS, probes)
    if args.workload == "cli":
        # the largest nrquad process; the benchmark's own children would hide it from RUSAGE_CHILDREN
        rss = max(api.peak_rss_mb(op.args) for op in ops)
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ratios = run.ratios()
    metrics = {
        "time_vs_plain": (run.time_vs_plain, "x"),
        "op_vs_plain_p50": (statistics.median(ratios), "x"),
        "op_vs_plain_p90": (statistics.quantiles(ratios, n=10)[-1], "x"),
        "peak_rss_mb": (rss, "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    print_summary(args.workload, run, metrics)
    print_rates(run)
    return run, metrics


def traced(args: argparse.Namespace, api, ops: list) -> tuple[Run, dict[str, tuple[float, str]]]:
    import tracing

    OUT_DIR.mkdir(exist_ok=True)
    plain_launch = api.launch
    untraced_run = measure(ops, args.seconds / 2, 1)

    tracer = tracing.Tracer()
    missing = tracer.install()
    api.parse = tracer.wrap(api.parse, "expressions.parse")
    api.nr_integrate = tracer.wrap(api.nr_integrate, "quadrature.nr_integrate")
    api.main = tracer.wrap(api.main, "cli.main")
    child_spans = OUT_DIR / "child-spans.json"

    def traced_launch(cli_args: list[str]) -> tuple[int, str, str]:
        child_spans.unlink(missing_ok=True)
        result = api.run([sys.executable, str(BENCH_DIR / "trace_child.py"), str(child_spans), *cli_args])
        doc = json.loads(child_spans.read_text())
        tracer.merge(doc["layers"], doc["spans"])
        return result

    api.launch = traced_launch
    traced_run = measure(ops, args.seconds / 2, 1)
    work_spans = tracer.take()

    sweep_spans, validated, unvalidated = _sweep(api, tracer)

    stem = f"{args.workload}-seed{args.seed}"
    tracer.dump(OUT_DIR / f"spans-{stem}.json", work_spans)
    tracer.dump(OUT_DIR / f"spans-{stem}-sweep.json", sweep_spans)
    child_spans.unlink(missing_ok=True)

    work = tracing.Source("workload", tracing.totals(tracer.layers, work_spans), traced_run.attempted, sum(traced_run.nrquad_ns))
    roots = tracing.roots(sweep_spans)
    root_ns = sum(tracing.duration_ns(sweep_spans, i) for i in roots)
    sweep = tracing.Source("sweep", tracing.totals(tracer.layers, sweep_spans), len(roots), root_ns)
    layers = tracing.layer_metrics(work, sweep)

    import_ms = statistics.median(_import_ms(api) for _ in range(PROCESS_PROBES))
    process_ms = statistics.median(_launch_ms(plain_launch) for _ in range(PROCESS_PROBES))
    layers["cli.import_ms"] = (import_ms, "ms", "probe")
    layers["cli.process_ms"] = (process_ms, "ms", "probe")
    layers["cli.import_share_of_process"] = (100.0 * import_ms / process_ms, "%", "probe")
    layers["worked_example.evaluate_calls_validated"] = (float(validated), "count", "sweep")
    layers["worked_example.evaluate_calls_unvalidated"] = (float(unvalidated), "count", "sweep")
    overhead = traced_run.time_vs_plain / untraced_run.time_vs_plain
    layers["tracing.time_vs_plain_untraced"] = (untraced_run.time_vs_plain, "x", "workload")
    layers["tracing.time_vs_plain_traced"] = (traced_run.time_vs_plain, "x", "workload")
    layers["tracing.overhead_pct"] = (100.0 * (overhead - 1.0), "%", "workload")

    run = Run(
        untraced_run.nrquad_ns + traced_run.nrquad_ns,
        untraced_run.plain_ns + traced_run.plain_ns,
        untraced_run.failed + traced_run.failed,
        untraced_run.failures + traced_run.failures,
        untraced_run.wrong + traced_run.wrong,
    )
    print(f"traced run of {args.workload}: {traced_run.attempted} operations traced after {untraced_run.attempted} untraced")
    if missing:
        print(f"  not found in nrquad, so not traced: {', '.join(missing)}")
    print(f"  {'metric':<48} {'value':>14} {'unit':<6} source")
    for name, (value, unit, source) in layers.items():
        print(f"  {name:<48} {value:>14.6g} {unit:<6} {source}")
    print_summary(args.workload, run, {})
    return run, {name: (value, unit) for name, (value, unit, _) in layers.items()}


def _sweep(api, tracer) -> tuple:
    """Trace the worked example through every in-process layer.

    Returns the sweep's spans and the evaluate calls of ``nr_integrate``
    with and without validation.
    """
    import tracing
    from nrquad.quadrature import Interval, NrQuadSettings
    from workloads import run_main

    text, a, b = WORKED_EXAMPLE
    f = api.parse(text)
    api.nr_integrate(f, Interval(a, b))
    api.nr_integrate(f, Interval(a, b), NrQuadSettings(validate=False))
    run_main(api.main, ["compare", "--expr", text, "--lower", repr(a), "--upper", repr(b), "--panels", "64", "--format", "json"])
    spans = tracer.take()
    nr_id = tracer.layer_id("quadrature.nr_integrate")
    subtree = tracing.subtree_evaluate_calls(spans)
    nr_roots = [i for i in tracing.roots(spans) if spans[i * tracing.FIELDS + tracing.LAYER] == nr_id]
    return spans, subtree[nr_roots[0]], subtree[nr_roots[1]]


def _import_ms(api) -> float:
    """Cumulative import time of the nrquad package in a fresh interpreter, from -X importtime."""
    _, _, err = api.run([sys.executable, "-X", "importtime", "-c", "import nrquad"])
    for line in err.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == "nrquad":
            return int(parts[1]) / 1e3
    raise RuntimeError("no import time reported for nrquad")


def _launch_ms(launch) -> float:
    text, a, b = WORKED_EXAMPLE
    start = time.perf_counter()
    code, _, err = launch(["integrate", "--expr", text, "--lower", repr(a), "--upper", repr(b)])
    elapsed = time.perf_counter() - start
    if code != 0:
        raise RuntimeError(f"nrquad integrate on the worked example failed: {err.strip()}")
    return elapsed * 1e3


def run_one(args: argparse.Namespace) -> int:
    root = Path.cwd()
    if not (root / "src" / "nrquad" / "__init__.py").is_file():
        print(f"error: no nrquad source under {root / 'src'}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(1, str(root / "src"))
    import nrquad

    if not Path(nrquad.__file__).resolve().is_relative_to((root / "src").resolve()):
        print(f"error: imported nrquad from {nrquad.__file__}, not from {root / 'src'}", file=sys.stderr)
        return 2
    import workloads

    api = workloads.Api(root)
    ops = workloads.WORKLOADS[args.workload](api, args.seed)
    for op in ops[: WARMUP_OPS[args.workload]]:
        try:
            op.nrquad()
        except Exception:  # the timed rounds count and report it
            pass
        op.plain()
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    run, metrics = traced(args, api, ops) if args.trace else end_to_end(args, api, ops)
    result = {
        "correct": not run.wrong,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Run every workload in its own process, one after another, and combine their results."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOAD_NAMES:
        argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload]
        argv += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
