"""Benchmark of the `ckcoh` CLI: h2 latency at N = 6 and sweep throughput.

    python3 perfbench/run.py --workload NAME --seed S --seconds T --trace 0|1

Workloads (see BENCHMARK.json for why each exists):

  h2-contracted-n6  `ckcoh h2 su|u 6 <omega> --format json`, omegas with 4, 5
                    or 6 zero entries; elimination and extraction each take
                    about half a call.
  sweep-n1to4       `ckcoh sweep su|u 1..4 --format json` through the CLI's
                    process pool (CKCOH_THREADS = min(2, cores)).
  h2-generic-n6     the h2 loop on omegas without zero entries; elimination-
                    bound, extraction bypassed.  Not in BENCHMARK.json: on
                    a shared 2-core host the speed drifted with a period of
                    about a minute, so steady runs last about a minute, and
                    the suite's time budget holds two workloads that long.
                    Run it by hand to see a change to `sparse` undiluted.

Each workload is a closed loop with one client, in this process, calling
`ckcoh.cli.main` with the payload captured from stdout.  Operations come in
rounds that hold one operation of every input class, and only whole rounds
are measured.  Every payload is checked by `checker.py`, which uses none of
the library's code, and against `digests.json` where that holds the payload's
digest (every input of the default seed, and both sweeps).

With --trace 0 the end-to-end metrics are printed; on a sweep, `h2_p50_s` and
`h2_tail_s` are the latency of one sweep call.  With --trace 1 every round
runs twice, once plain and once with the library's public functions wrapped
(`tracer.py`), alternating which goes first; the sweep runs serially so every
span stays in this process.  The per-layer metrics come from the traced
rounds and are per algebra verified; `trace.overhead` is the untraced
`algebras_per_s` over the traced one, minus 1.

`peak_rss_mb` is this process's own peak resident memory; sweep workers are
processes of their own and not counted.  `setup_s` is the median wall time
of fresh processes that import `ckcoh`, make the inputs, warm up and exit.

The last line of stdout is the result object; the lines before it are a
readable report and an environment record.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checker  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DEFAULT_SEED = 0
POOL_ROUNDS = 24
SETUP_SAMPLES = 5
TAIL_BEYOND = 10

END_TO_END = (
    ("h2_p50_s", "s"),
    ("h2_tail_s", "s"),
    ("algebras_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def load_cli():
    try:
        from ckcoh import cli
    except ImportError as exc:
        sys.exit(f"error: cannot import ckcoh from {os.path.join(ROOT, 'src')}: {exc}")
    return cli


def load_digests() -> dict:
    with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as handle:
        return json.load(handle)


def cores() -> int:
    return len(os.sched_getaffinity(0))


def sweep_threads(trace: bool) -> int:
    return 1 if trace else min(2, cores())


def prepare(workload, seed: int, trace: bool):
    """Everything before the first timed operation: inputs, digests, warm-up."""
    if workload.sweep:
        os.environ["CKCOH_THREADS"] = str(sweep_threads(trace))
    cli = load_cli()
    rounds = workload.rounds(seed, POOL_ROUNDS)
    digests = load_digests().get(workload.name, {})
    warm = workload.warmup()
    code, payload = call(cli.main, warm)
    problems = checker.check(warm, code, payload, {})
    if problems:
        sys.exit(f"error: warm-up {warm.key} failed: {problems}")
    return cli, rounds, digests


def call(main, op, spans=None):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = spans.root(main, list(op.argv)) if spans else main(list(op.argv))
    return code, buf.getvalue()


class Loop:
    """One client calling the CLI round by round; payloads are checked untimed."""

    def __init__(self, main, rounds, digests, spans=None):
        self.main = main
        self.rounds = rounds
        self.digests = digests
        self.spans = spans
        self.latencies = []
        self.algebras = 0
        self.failures = []
        self.wall = 0.0
        self.payload_bytes = 0

    def run_round(self, index: int):
        if self.spans:
            self.spans.install()
        t0 = time.perf_counter()
        try:
            for op in self.rounds[index % len(self.rounds)]:
                gc.collect()
                t = time.perf_counter()
                code, payload = call(self.main, op, self.spans)
                self.latencies.append(time.perf_counter() - t)
                self.algebras += op.algebras
                self.payload_bytes += len(payload.encode("utf-8"))
                problems = checker.check(op, code, payload, self.digests)
                if problems:
                    self.failures.append((op.key, problems))
        finally:
            self.wall += time.perf_counter() - t0
            if self.spans:
                self.spans.uninstall()


def measure(loops: list, budget: float):
    """Run whole rounds until the budget; several loops alternate their order."""
    t0 = time.perf_counter()
    done = 0
    while True:
        for loop in loops if done % 2 == 0 else loops[::-1]:
            loop.run_round(done)
        done += 1
        elapsed = time.perf_counter() - t0
        # Stop at the round boundary closest to the budget.
        if elapsed + elapsed / done / 2 >= budget:
            return


def latency_stats(latencies: list) -> dict:
    """Median, and the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    index = max(n - TAIL_BEYOND - 1, 0)
    return {
        "p50": statistics.median(ordered),
        "tail": ordered[index],
        "tail_percentile": round(100 * (index + 1) / n, 1),
        "samples": n,
    }


def setup_seconds(workload_name: str, seed: int) -> float:
    """Median wall time of fresh processes that do the set-up and exit."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload", workload_name]
    argv += ["--seed", str(seed), "--setup-only"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        # The child prints the monotonic clock, shared by all processes, when
        # its set-up ends; waiting for its exit would add polling delays.
        t = time.monotonic()
        child = subprocess.run(
            argv, cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True, timeout=120
        )
        samples.append(float(child.stdout) - t)
    return statistics.median(samples)


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, else 'unknown'."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args, stats=None) -> dict:
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "nproc": cores(),
        "python": platform.python_version(),
        "ckcoh_threads": os.environ.get("CKCOH_THREADS", "unset"),
        "commit": git_commit(),
    }
    if stats:
        env["latency_samples"] = stats["samples"]
        env["h2_tail_percentile"] = stats["tail_percentile"]
    return env


def end_to_end(loop, setup_s) -> tuple:
    stats = latency_stats(loop.latencies)
    attempted = len(loop.latencies)
    values = {
        "h2_p50_s": stats["p50"],
        "h2_tail_s": stats["tail"],
        "algebras_per_s": loop.algebras / loop.wall,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    report = [f"{name:<16} {values[name]:.6g} {unit}" for name, unit in END_TO_END]
    report[1] += f"  (p{stats['tail_percentile']} of {stats['samples']} samples)"
    report.append(f"{'failed_ratio':<16} {len(loop.failures) / attempted:.6g} ratio")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return metrics, report, stats


def per_layer(plain, traced, spans) -> tuple:
    values = spans.metrics(traced.algebras)
    values["cli.payload_bytes"] = traced.payload_bytes / traced.algebras
    values["trace.algebras_per_s"] = traced.algebras / traced.wall
    untraced = plain.algebras / plain.wall
    values["trace.overhead"] = untraced / values["trace.algebras_per_s"] - 1
    report = [f"{name:<34} {values[name]:.6g} {unit}" for name, unit in tracer.PER_LAYER]
    report.append(
        f"tracing overhead: {values['trace.overhead']:+.1%} over {len(traced.latencies)} operations; "
        f"algebras_per_s untraced {untraced:.4g}, traced {values['trace.algebras_per_s']:.4g}"
    )
    report.append("absent wrapped names: " + (", ".join(spans.absent) or "none"))
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in tracer.PER_LAYER}
    return metrics, report


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true", help="do the set-up and exit (times setup_s)"
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    trace = bool(args.trace)
    cli, rounds, digests = prepare(workload, args.seed, trace)
    if args.setup_only:
        print(repr(time.monotonic()))
        return 0
    if not trace:
        loop = Loop(cli.main, rounds, digests)
        measure([loop], args.seconds)
        setup_s = setup_seconds(args.workload, args.seed)
        metrics, report, stats = end_to_end(loop, setup_s)
        loops = [loop]
    else:
        spans = tracer.Tracer()
        loops = [Loop(cli.main, rounds, digests), Loop(cli.main, rounds, digests, spans)]
        measure(loops, args.seconds)
        metrics, report = per_layer(*loops, spans)
        stats = None
    attempted = sum(len(loop.latencies) for loop in loops)
    failures = [f for loop in loops for f in loop.failures]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for line in report:
        print("  " + line)
    for key, problems in failures[:5]:
        print(f"  FAILED {key}: {'; '.join(problems)}")
    print("env " + json.dumps(environment(args, stats), sort_keys=True))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
