#!/usr/bin/env python3
"""Self-test of the benchmark harness at smoke sizes (about fifteen seconds).

    python3 perfbench/selftest.py

For each workload it checks that

* the gate passes the real report, and rejects a nonzero exit code, a
  changed status, a dropped record, a truncated report and a report that
  differs in bytes from the run's first; it rejects a moved scan value and
  accepts shrunken residuals, which it must not compare;
* two traced runs give identical call counts, the traced report has the
  sha256 of the untraced one and the Christoffel invariants hold
  (``run.measure_trace``);
* every wrapper counts exactly the executions of its function's code that a
  profile hook sees, so no binding site escapes the trace;
* every metric name matches ``[A-Za-z0-9_.-]+`` and the names run.py
  prints are exactly those BENCHMARK.json declares.

Exits 0 when every check passes.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import sys
import tempfile

import gate
import run

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def tamperings(report: bytes, is_scan: bool):
    """(label, tampered report, should the gate reject it) triples."""
    def dump(obj) -> bytes:
        return (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode()

    flipped = json.loads(report)
    first_pass = next(r for r in flipped["records"] if r["status"] == "pass")
    first_pass["status"] = "fail"
    yield "a status changed to fail", dump(flipped), True

    dropped = json.loads(report)
    dropped["records"].pop()
    yield "a dropped record", dump(dropped), True

    yield "a truncated report", report[: len(report) // 2], True

    if is_scan:
        moved = json.loads(report)
        moved["records"][0]["mu_e1"] *= 1.0 + 1e-5
        yield "mu_e1 of row 0 moved by 1e-5 relative", dump(moved), True

    shrunk = json.loads(report)
    for record in shrunk["records"]:
        if isinstance(record.get("residual"), float):
            record["residual"] *= 0.5
    yield "residuals halved", dump(shrunk), False


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    failures = []

    def expect(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
        if not ok:
            failures.append(what)

    env = run.child_env()
    os.makedirs(run.WORK, exist_ok=True)
    e2e_names, layer_names = set(), set()
    quiet = contextlib.redirect_stderr(io.StringIO())
    with tempfile.TemporaryDirectory(dir=run.WORK) as workdir:
        for name in run.SIZES:
            wl = run.make_workload(name, 1, workdir, "smoke")
            reference = gate.load_reference()[name]["smoke"]
            inv = run.invoke(wl, workdir, env)
            problems = gate.check_report(reference, inv.exit_code, inv.report, wl.scan_grid)
            expect(not problems, f"{name}: gate passes the real report {problems}")
            expect(bool(gate.check_report(reference, 1, inv.report, wl.scan_grid)), f"{name}: gate rejects exit code 1")
            for label, tampered, reject in tamperings(inv.report, wl.scan_grid is not None):
                rejected = bool(gate.check_report(reference, 0, tampered, wl.scan_grid))
                expect(rejected == reject, f"{name}: gate {'rejects' if reject else 'accepts'} {label}")
            same_run = run.Gate(wl)
            with quiet:
                same_run.check(inv)
                same_run.check(run.Invocation(0, 0.0, 0.0, inv.report + b" ", ""))
            expect(same_run.failed == 1, f"{name}: gate rejects a report whose bytes differ within a run")

            with quiet:
                gate_, metrics, problems = run.measure_trace(wl, 0, workdir, env)
            expect(gate_.failed == 0 and not problems, f"{name}: traced runs repeat and satisfy the invariants {problems}")
            layer_names |= set(metrics)

            stats_path = os.path.join(workdir, "coverage.json")
            run.invoke(wl, workdir, env, trace_stats=stats_path, coverage=True)
            with open(stats_path, encoding="utf-8") as fh:
                traced = json.load(fh)
            missed = {k: (traced["stats"][k][0], seen) for k, seen in traced["coverage"].items()
                      if traced["stats"][k][0] != seen}
            absent = sorted(set(traced["stats"]) - set(traced["coverage"]))
            expect(not absent, f"{name}: every trace target exists {absent}")
            expect(not missed, f"{name}: wrappers see every execution of their functions {missed}")

            with quiet:
                gate_, metrics = run.measure_end_to_end(wl, 0, workdir, env)
            expect(gate_.failed == 0, f"{name}: end-to-end run passes the gate")
            e2e_names |= set(metrics)

    for names, section in ((e2e_names, "end_to_end"), (layer_names, "per_layer")):
        bad = sorted(n for n in names if not NAME_RE.fullmatch(n))
        expect(not bad, f"{section} metric names match [A-Za-z0-9_.-]+ {bad}")
        declared = {m["name"] for m in bench[section]}
        expect(names == declared, f"{section} metrics printed = declared {sorted(names ^ declared)}")

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
