#!/usr/bin/env python3
"""circgeo benchmark: the `circgeo` CLI timed end to end, or traced per layer.

Run from the repository root:

    python3 perfbench/run.py --workload verify-parallel --seed 1 --seconds 30 --trace 0

Every invocation is one child process ``python -m circgeo.cli ...`` with
PYTHONPATH=src (the package is not installed), started one at a time from
this single-threaded process.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer metrics of a traced child (trace_child.py).
Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import signal
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass

import gate
from trace_child import TARGETS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

GENERIC_PAIR = (
    "A: 6 + x1^2 + x2^2 + x3^2 + 0.3*x1*x2*x3 + 0.2*x1^3 - 0.1*x2^3 + 0.25*x3^3"
    " + 0.5*x1*x2 - 0.4*x2*x3 + 3*x1 - 0.5*x3;"
    " B: 0.5 + 0.2*x1 - 0.3*x2 + 0.1*x3^2 + 0.15*x1*x2*x3 - 0.05*x1^3"
    " + 0.2*x2^2*x3 + 0.1*x1*x3^2"
)
QUADRATIC_PAIR = "A: x1^2 + x2^2 + x3^2 + 4/3; B: x1*x2 + x1*x3 + x2*x3 + 1/3"

# Workload -> size parameter (grid steps per axis or sampled points).
SIZES = {
    "verify-parallel": {"full": 8, "smoke": 3},
    "verify-generic": {"full": 4096, "smoke": 64},
    "scan-quadratic": {"full": 20, "smoke": 5},
}

MIN_INVOCATIONS = 3
SETUP_PROBES_PER_INVOCATION = 2
CHILD_TIMEOUT_S = 120

SETUP_PROBE = (
    "import sys\n"
    "import circgeo.cli\n"
    "circgeo.cli.parse_field_spec(sys.argv[1])\n"
)


@dataclass(frozen=True)
class Workload:
    name: str
    size: str
    fields: str
    cli_args: tuple[str, ...]  # everything after `python -m circgeo.cli`, except --out
    points: int
    scan_grid: tuple | None  # (lo, hi, steps) of the scan workload, for the gate


def make_workload(name: str, seed: int, workdir: str, size: str = "full") -> Workload:
    """The CLI arguments of one workload; the seed only shapes these inputs."""
    rng = random.Random(f"{name}:{seed}")
    cli_seed = str(rng.randrange(2**31))
    n = SIZES[name][size]
    if name == "verify-parallel":
        args = ("verify", "--fields", "paper-example", "--grid", f"1.1,1.9,{n}", "--seed", cli_seed)
        return Workload(name, size, "paper-example", args, n**3, None)
    if name == "verify-generic":
        config = os.path.join(workdir, "generic-config.json")
        with open(config, "w", encoding="utf-8") as fh:
            json.dump({"n_points": n}, fh)
        args = ("verify", "--config", config, "--fields", GENERIC_PAIR, "--seed", cli_seed)
        return Workload(name, size, GENERIC_PAIR, args, n, None)
    if name == "scan-quadratic":
        # scan draws no random numbers, so the seed shifts the grid instead.
        delta = round(rng.uniform(-0.05, 0.05), 6)
        lo, hi = -1.5 + delta, 1.5 + delta
        args = ("scan", "--fields", QUADRATIC_PAIR, f"--grid={lo!r},{hi!r},{n}")
        return Workload(name, size, QUADRATIC_PAIR, args, n**3, (lo, hi, n))
    raise ValueError(f"unknown workload {name!r}")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    # An installed CLI runs from cached bytecode; let the children cache it too.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class _ChildTimeout(RuntimeError):
    pass


def _on_alarm(_signum, _frame):
    raise _ChildTimeout


def spawn(argv: list[str], env: dict, log_path: str) -> tuple[int, float, float]:
    """Run argv to completion; returns (exit code, wall seconds, peak RSS MiB).

    Wall time runs from spawn to exit; peak RSS is the child's ru_maxrss.
    """
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, log_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_DUP2, 1, 2),
    ]
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        signal.alarm(CHILD_TIMEOUT_S)
        t0 = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
        try:
            _, status, usage = os.wait4(pid, 0)
            wall = time.perf_counter() - t0
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    return os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss / 1024.0


@dataclass
class Invocation:
    exit_code: int
    wall_s: float
    peak_rss_mb: float
    report: bytes
    log: str


def invoke(wl: Workload, workdir: str, env: dict, trace_stats: str | None = None, coverage=False) -> Invocation:
    """One CLI run writing its report with --out; traced when trace_stats is a path."""
    out = os.path.join(workdir, "report.out")
    log = os.path.join(workdir, "child.log")
    for path in (out, trace_stats):
        if path and os.path.exists(path):
            os.remove(path)
    cli = [*wl.cli_args, "--out", out]
    if trace_stats is None:
        argv = [sys.executable, "-m", "circgeo.cli", *cli]
    else:
        flags = ["--coverage"] if coverage else []
        argv = [sys.executable, os.path.join(HERE, "trace_child.py"), trace_stats, *flags, "--", *cli]
    try:
        code, wall, rss = spawn(argv, env, log)
    except _ChildTimeout:
        code, wall, rss = -1, float(CHILD_TIMEOUT_S), 0.0
    report = b""
    if os.path.exists(out):
        with open(out, "rb") as fh:
            report = fh.read()
    with open(log, encoding="utf-8", errors="replace") as fh:
        return Invocation(code, wall, rss, report, fh.read()[-2000:])


def setup_probe(wl: Workload, env: dict, workdir: str) -> float:
    """Seconds for a fresh interpreter to import circgeo.cli and build the FieldPair."""
    log = os.path.join(workdir, "probe.log")
    code, wall, _ = spawn([sys.executable, "-c", SETUP_PROBE, wl.fields], env, log)
    if code != 0:
        with open(log, encoding="utf-8", errors="replace") as fh:
            raise RuntimeError(f"set-up probe exited with {code}:\n{fh.read()[-2000:]}")
    return wall


def rounds(seconds: float, minimum: int):
    """Yield round numbers while the next round, as long as the last one, ends within seconds.

    At least ``minimum`` rounds run whatever their length.
    """
    start = time.perf_counter()
    last = 0.0
    done = 0
    while done < minimum or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        yield done
        last = time.perf_counter() - t0
        done += 1


class Gate:
    """Applies gate.check_report and the same-run byte-identity rule."""

    def __init__(self, wl: Workload):
        self.wl = wl
        self.reference = gate.load_reference()[wl.name][wl.size]
        self.first_sha: str | None = None
        self.attempted = 0
        self.failed = 0

    def check(self, inv: Invocation) -> bool:
        self.attempted += 1
        problems = gate.check_report(self.reference, inv.exit_code, inv.report, self.wl.scan_grid)
        sha = hashlib.sha256(inv.report).hexdigest()
        if self.first_sha is None:
            self.first_sha = sha
        elif sha != self.first_sha:
            problems.append(f"report sha256 {sha} differs from the run's first report {self.first_sha}")
        if problems:
            self.failed += 1
            print(f"gate: invocation {self.attempted} failed: " + "; ".join(problems), file=sys.stderr)
            if inv.log:
                print(inv.log, file=sys.stderr)
        return not problems


def measure_end_to_end(wl: Workload, seconds: float, workdir: str, env: dict) -> tuple[Gate, dict]:
    gate_ = Gate(wl)
    setup_probe(wl, env, workdir)  # untimed: fills the bytecode and file caches
    walls, rss, setups = [], [], []
    for _ in rounds(seconds, MIN_INVOCATIONS):
        setups += [setup_probe(wl, env, workdir) for _ in range(SETUP_PROBES_PER_INVOCATION)]
        inv = invoke(wl, workdir, env)
        walls.append(inv.wall_s)
        rss.append(inv.peak_rss_mb)
        gate_.check(inv)
    wall = statistics.median(walls)
    metrics = {
        "wall_s": (wall, "s", len(walls)),
        "points_per_s": (wl.points / wall, "1/s", len(walls)),
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "peak_rss_mb": (statistics.median(rss), "MiB", len(rss)),
    }
    return gate_, metrics


def curvature_points(records: list[dict]) -> int:
    """Points that reached the curvature checks (verify) or built a tensor (scan)."""
    verify = sum(1 for r in records if r["check"] == "identity-3.2")
    scan = sum(1 for r in records if r["check"] == "scan" and r["status"] == "pass" and r["definite"])
    return verify + scan


def trace_invariants(wl: Workload, calls: dict, records: list[dict]) -> list[str]:
    """Christoffel counts the trace must see while curvature uses the 7-point stencil."""
    cg = calls["connection.christoffel_general"]
    ca = calls["curvature.curvature_at"]
    if wl.name == "scan-quadratic":
        expected, formula = 7 * ca, f"7*{ca}"
    else:
        verified = len({r["point_index"] for r in records if r["check"] != "all"})
        expected, formula = 7 * ca + 2 * verified, f"7*{ca} + 2*{verified}"
    if cg != expected:
        return [f"christoffel_general.calls = {cg}, expected {formula} = {expected}"]
    return []


def measure_trace(wl: Workload, seconds: float, workdir: str, env: dict) -> tuple[Gate, dict, list[str]]:
    gate_ = Gate(wl)
    stats_path = os.path.join(workdir, "trace.json")
    untraced, traced, runs = [], [], []
    report = b""
    problems: list[str] = []
    for _ in rounds(seconds, 2):
        inv = invoke(wl, workdir, env)
        untraced.append(inv.wall_s)
        gate_.check(inv)
        inv = invoke(wl, workdir, env, trace_stats=stats_path)
        traced.append(inv.wall_s)
        if gate_.check(inv):
            report = inv.report
            with open(stats_path, encoding="utf-8") as fh:
                runs.append(json.load(fh))
    if not runs:
        return gate_, {}, ["no traced invocation passed the gate"]

    calls = {key: stat[0] for key, stat in runs[0]["stats"].items()}
    for run in runs[1:]:
        again = {key: stat[0] for key, stat in run["stats"].items()}
        if again != calls:
            diff = {k: (calls[k], again[k]) for k in calls if calls[k] != again[k]}
            problems.append(f"call counts differ between traced runs: {diff}")
    records = json.loads(report)["records"]
    problems += trace_invariants(wl, calls, records)

    med = statistics.median
    n = len(runs)
    metrics = {}
    for layer, names in TARGETS.items():
        for name in names:
            key = f"{layer}.{name}"
            metrics[f"{key}.calls"] = (calls[key], "count", n)
            metrics[f"{key}.self_s"] = (med([r["stats"][key][1] for r in runs]), "s", n)
        layer_self = [sum(r["stats"][f"{layer}.{name}"][1] for name in names) for r in runs]
        metrics[f"{layer}.self_s"] = (med(layer_self), "s", n)
        metrics[f"{layer}.share"] = (med([s / r["main_s"] for s, r in zip(layer_self, runs)]), "fraction", n)
    reached = curvature_points(records)
    metrics["curvature.curvature_at.per_point"] = (
        calls["curvature.curvature_at"] / reached if reached else 0.0,
        "calls/point",
        reached,
    )
    for key in ("connection.christoffel_general", "fields.Polynomial.partial"):
        metrics[f"{key}.per_point"] = (calls[key] / wl.points, "calls/point", wl.points)
    metrics["cli.report_bytes"] = (len(report), "B", 1)
    metrics["cli.records"] = (len(records), "count", 1)
    metrics["trace.overhead_s"] = (med(traced) - med(untraced), "s", len(traced))
    return gate_, metrics, problems


def print_result(wl: Workload, seed: int, gate_: Gate, metrics: dict, problems: list[str]) -> bool:
    correct = gate_.failed == 0 and not problems
    for problem in problems:
        print(f"trace: {problem}", file=sys.stderr)
    print(f"workload {wl.name}  seed {seed}  points {wl.points}  nproc {os.cpu_count()}")
    for name, (value, unit, samples) in metrics.items():
        print(f"  {name:<48} {value:>16.6g} {unit:<12} n={samples}")
    share = gate_.failed / gate_.attempted if gate_.attempted else 0.0
    print(f"  {'fail_share':<48} {share:>16.6g} {'fraction':<12} n={gate_.attempted}")
    result = {
        "correct": correct,
        "attempted": gate_.attempted,
        "failed": gate_.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }
    print(json.dumps(result))
    return correct


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SIZES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "circgeo", "cli.py")):
        print(f"perfbench: no circgeo sources under {SRC}", file=sys.stderr)
        return 2
    # On SIGTERM, unwind through spawn() so the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(143))
    os.makedirs(WORK, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as workdir:
        env = child_env()
        wl = make_workload(args.workload, args.seed, workdir)
        try:
            if args.trace:
                gate_, metrics, problems = measure_trace(wl, args.seconds, workdir, env)
            else:
                (gate_, metrics), problems = measure_end_to_end(wl, args.seconds, workdir, env), []
        except RuntimeError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 2
        return 0 if print_result(wl, args.seed, gate_, metrics, problems) else 1


if __name__ == "__main__":
    sys.exit(main())
