"""spincorr benchmark runner.

    python3 perfbench/run.py --workload {scan,verify,cli} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/``.  With ``--trace 0`` the run measures the end-to-end metrics of one
workload for ``--seconds`` seconds; with ``--trace 1`` it alternates untraced
and traced passes over the workload's inputs and reports per-layer metrics.
Every operation's output is checked.  The last line of stdout is one JSON
object; the lines before it (prefixed ``#``) record the machine, the method
and the tail percentile used.  A copy of the result, and the spans of a
traced run, are written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

SETUP_SAMPLES = 3          # fresh-process imports per run; setup_s is their median
IMPORTTIME_SAMPLES = 3
SPAN_BUDGET = 500_000      # a traced run starts no new pass pair beyond this many spans
TAIL_BEYOND = 10           # the tail percentile keeps at least this many samples above it
CHILD_TIMEOUT_S = 120.0

_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import spincorr; "
    "print(repr(time.perf_counter() - t))"
)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def _run_child(args: list[str]) -> subprocess.CompletedProcess:
    proc = subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=child_env(),
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child {args!r} exited {proc.returncode}: {proc.stderr.strip()}")
    return proc


def measure_setup_s() -> list[float]:
    """`import spincorr` timed inside fresh interpreters, one at a time."""
    return [float(_run_child(["-c", _IMPORT_PROBE]).stdout) for _ in range(SETUP_SAMPLES)]


def scipy_import_seconds(importtime_report: str) -> float:
    """Cumulative import time of the outermost scipy modules in a ``-X importtime`` report."""
    rows = []
    for line in importtime_report.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        _, cumulative, package = line[len("import time:"):].split("|")
        rows.append((len(package) - len(package.lstrip()), package.strip(), int(cumulative)))
    # A module is printed after everything it imported, so walk backwards to
    # see each parent before its children.
    total_us, stack = 0, []   # stack of (depth, inside scipy)
    for depth, name, cumulative in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        enclosed = bool(stack) and stack[-1][1]
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not enclosed:
            total_us += cumulative
        stack.append((depth, enclosed or is_scipy))
    return total_us / 1e6


def measure_import_scipy_s() -> float:
    samples = [
        scipy_import_seconds(_run_child(["-X", "importtime", "-c", "import spincorr"]).stderr)
        for _ in range(IMPORTTIME_SAMPLES)
    ]
    return statistics.median(samples)


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest nearest-rank percentile with TAIL_BEYOND samples above it."""
    ordered = sorted(latencies)
    rank = max(1, len(ordered) - TAIL_BEYOND)
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def machine_info(seed: int) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or commit
        except OSError:
            pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
    }


class Outcome:
    """Attempted and failed operation counts, with the first few failure reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, workload, op, run) -> float:
        """Run one op, check it, and return its latency in seconds (checking excluded)."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = run(op)
        except Exception as exc:  # a failed op is counted, not fatal
            elapsed = time.perf_counter() - start
            reason = f"{op}: raised {type(exc).__name__}: {exc}"
        else:
            elapsed = time.perf_counter() - start
            reason = workload.check(op, result)
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(reason)
        return elapsed


def run_end_to_end(workload, seconds: float, outcome: Outcome) -> tuple[dict, list[str]]:
    setup = measure_setup_s()
    ops = workload.ops
    workload.run(ops[0])  # warm-up, untimed: lazy initialisation happens once per process
    latencies = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        latencies.append(outcome.record(workload, ops[len(latencies) % len(ops)], workload.run))
    wall = time.perf_counter() - start

    # cli ops run in child processes; the others run here.
    who = resource.RUSAGE_CHILDREN if workload.name == "cli" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss * 1024 / 1e6
    tail_s, tail_pct = tail(latencies)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (len(latencies) / wall, "1/s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_tail_ms": (tail_s * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    notes = [
        f"setup_s samples: {setup}",
        f"op_tail_ms is p{tail_pct:.1f} of {len(latencies)} ops "
        f"({min(TAIL_BEYOND, len(latencies) - 1)} beyond it)",
        f"peak_rss_mb is of the {'largest child process' if workload.name == 'cli' else 'benchmark process'}",
        f"error_rate = {outcome.failed}/{outcome.attempted}",
    ]
    return metrics, notes


def run_traced(workload, seconds: float, outcome: Outcome) -> tuple[dict, list[str], object]:
    from tracer import UNITS, Tracer, layer_metrics

    import_scipy_s = measure_import_scipy_s()
    run_traced_op = getattr(workload, "run_inprocess", workload.run)
    run_traced_op(workload.ops[0])  # warm-up, untimed
    pass_ops = workload.ops[: workload.trace_pass_ops]
    tracer = Tracer()
    walls = {False: [], True: []}
    cli_main_s = []
    start = time.perf_counter()
    pair = 0
    while pair == 0 or (time.perf_counter() - start < seconds and len(tracer.spans) < SPAN_BUDGET):
        # Alternate which side goes first so slow drift hits both equally.
        for traced in ((False, True) if pair % 2 == 0 else (True, False)):
            pass_start = time.perf_counter()
            if traced:
                tracer.install()
            try:
                for index, op in enumerate(pass_ops):
                    tracer.trace_id = pair * len(pass_ops) + index
                    latency = outcome.record(workload, op, run_traced_op)
                    if not traced and workload.name == "cli":
                        cli_main_s.append(latency)
            finally:
                tracer.restore()
            walls[traced].append(time.perf_counter() - pass_start)
        pair += 1

    passes = len(walls[True])
    values = layer_metrics(tracer.spans, tracer.fourvectors, passes)
    values["cli.import_scipy_s"] = import_scipy_s
    values["cli.main_ms"] = statistics.median(cli_main_s) * 1e3 if cli_main_s else 0.0
    values["trace.overhead_frac"] = statistics.median(walls[True]) / statistics.median(walls[False]) - 1.0
    metrics = {name: (value, UNITS[name]) for name, value in values.items()}
    notes = [
        f"{passes} traced and {len(walls[False])} untraced passes of {len(pass_ops)} ops; "
        "per-layer counts and times are per traced pass",
        f"traced pass walls {walls[True]}, untraced {walls[False]}",
        f"{len(tracer.spans)} spans; waiting time: not applicable (one thread, no queues)",
        "chsh.grid_bytes_computed is computed (2 part arrays of n^3 float64 per search, "
        "n from the search's n x n joint call), not measured",
        f"error_rate = {outcome.failed}/{outcome.attempted}",
    ]
    return metrics, notes, tracer


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("scan", "verify", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "spincorr" / "__init__.py").is_file():
        print(f"error: no spincorr package under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    goldens = workloads.load_goldens()
    cls = workloads.WORKLOADS[args.workload]
    workload = (
        cls(args.seed, goldens, root=ROOT, env=child_env()) if args.workload == "cli"
        else cls(args.seed, goldens)
    )
    outcome = Outcome()
    tracer = None
    if args.trace:
        metrics, notes, tracer = run_traced(workload, args.seconds, outcome)
    else:
        metrics, notes = run_end_to_end(workload, args.seconds, outcome)

    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    info = machine_info(args.seed)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    with open(OUT_DIR / f"{stem}.json", "w", encoding="utf-8") as handle:
        json.dump({"args": vars(args), "machine": info, "notes": notes,
                   "failures": outcome.reasons, "result": result}, handle, indent=2)
    if tracer is not None:
        tracer.write(OUT_DIR / f"{stem}.spans.jsonl.gz")

    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"# machine: {json.dumps(info)}")
    for line in notes + [f"failure: {reason}" for reason in outcome.reasons]:
        print(f"# {line}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
