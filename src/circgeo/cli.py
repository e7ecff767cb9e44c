"""Command-line front end: eval / verify / scan with JSON or CSV reports.

Exit codes: 0 all checks passed, 1 at least one failure, 2 configuration or
I/O error.  Reports are deterministic for a fixed config and seed (stable
key order, records sorted by point index then check name, no timestamps).
"""

from __future__ import annotations

import argparse
import copy
import csv
import io
import json
import math
import sys
from contextlib import contextmanager

import numpy as np

from . import sampling
from .circulant import IDENTITY, Q, circ_apply, circ_mul
from .connection import (
    christoffel_closed,
    christoffel_general,
    metric_compatibility_residual,
    nabla_q,
    parallel_defect,
)
from .curvature import (
    curvature_at,
    identity_32_residual,
    identity_residuals,
    independence_cubic,
    orbit_spreads,
    residual_scales,
    sectional_curvature,
    theorem3_check,
)
from .errors import ConfigError, ParseError, PointSkipped, StencilCollapsed, UnknownBuiltin
from .fields import (
    DEFAULT_FD_STEP,
    FieldPair,
    Polynomial,
    domain_check,
    parse_field_spec,
)

DEFAULT_TOLERANCES = {
    "dual_path": 1e-9,
    "dual_path_fd": 1e-5,
    "defect_zero": 1e-9,
    "nabla_q": 1e-10,
    "nabla_q_nonzero": 1e-6,
    "metric_inverse": 1e-12,
    "metric_compat": 1e-9,
    "flat_gamma": 1e-14,
    "flat_curvature": 1e-10,
    "identity_rel": 1e-7,
    "spread_rel": 1e-6,
    "spread_abs": 1e-9,
}

#: Largest grid accepted, in nodes (the product of the per-axis steps), and
#: largest n_points, n_vectors and n_seeds.
MAX_GRID_NODES = 1_000_000

#: Grid nodes per block of a scan, so that its arrays stay within a few MB at
#: any grid size.
SCAN_BLOCK = 1024


def _is_real(v) -> bool:
    """A finite int or float (JSON true/false excluded)."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:  # an int too large for a float
        return False


def _is_positive(v) -> bool:
    return _is_real(v) and v > 0


def _is_count(v, most=MAX_GRID_NODES) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and 0 <= v <= most


def _is_triple(v) -> bool:
    return isinstance(v, list) and len(v) == 3 and all(map(_is_real, v))


def _is_grid(v) -> bool:
    """[min, max, steps] for every axis or once per axis, flat or nested; whole steps."""
    if not isinstance(v, list):
        return False
    if len(v) in (3, 9) and all(map(_is_real, v)):
        return all(float(n).is_integer() for n in v[2::3])
    return len(v) == 3 and all(_is_triple(t) and float(t[2]).is_integer() for t in v)


def _is_tolerances(v) -> bool:
    return isinstance(v, dict) and all(
        k in DEFAULT_TOLERANCES and _is_positive(t) for k, t in v.items()
    )


_COUNT = f"an integer from 0 to {MAX_GRID_NODES}"

# Config key -> (default, accepts value, what it must be).  A config file
# sets these keys by name; each flag turns its text into the same JSON value.
CONFIG_KEYS = {
    "fields": ("paper-example", lambda v: isinstance(v, str), "a string"),
    "points": (
        None, lambda v: v is None or (isinstance(v, list) and v and all(map(_is_triple, v))),
        "a non-empty list of three-number points",
    ),
    "grid": (
        None, lambda v: v is None or _is_grid(v),
        "[min, max, steps] with whole steps, nine numbers or three such triples",
    ),
    "grad_mode": ("analytic", lambda v: v in ("analytic", "fd"), '"analytic" or "fd"'),
    "fd_step": (DEFAULT_FD_STEP, _is_positive, "a positive finite number"),
    "seed": (0, lambda v: _is_count(v, math.inf), "a non-negative integer"),
    "x": ([1.0, 2.0, 3.0], _is_triple, "three finite numbers"),
    "n_points": (10, _is_count, _COUNT),
    "n_vectors": (20, _is_count, _COUNT),
    "n_seeds": (20, _is_count, _COUNT),
    "out": (None, lambda v: v is None or isinstance(v, str), "a path"),
    "format": ("json", lambda v: v in ("json", "csv"), '"json" or "csv"'),
    "tolerances": (
        {}, _is_tolerances, "an object mapping tolerance names to positive finite numbers",
    ),
}


class RunConfig:
    """Everything a command run depends on: one attribute per CONFIG_KEYS key."""

    def __init__(self) -> None:
        for key, (default, _, _) in CONFIG_KEYS.items():
            setattr(self, key, copy.deepcopy(default))

    def set(self, key: str, value, source: str) -> None:
        """Store value as given, so the report echoes it; ConfigError names source if refused."""
        if key not in CONFIG_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        _, accepts, expected = CONFIG_KEYS[key]
        if not accepts(value):
            raise ConfigError(f"{source} must be {expected}, got {value!r}")
        setattr(self, key, value)

    def tol(self, name: str) -> float:
        return float(self.tolerances.get(name, DEFAULT_TOLERANCES[name]))

    def echo(self) -> dict:
        echo = {key: getattr(self, key) for key in CONFIG_KEYS if key != "out"}
        echo["tolerances"] = {k: self.tol(k) for k in sorted(DEFAULT_TOLERANCES)}
        return echo


def expand_grid(grid: list) -> list[list[float]]:
    """Expand [min, max, steps] (or per-axis triples) into grid nodes."""
    if not _is_grid(grid):
        raise ConfigError(f"grid must be {CONFIG_KEYS['grid'][2]}, got {grid!r}")
    if len(grid) == 9:
        axes = [grid[0:3], grid[3:6], grid[6:9]]
    else:
        axes = list(grid) if isinstance(grid[0], list) else [grid, grid, grid]
    steps = [int(n) for _, _, n in axes]
    if min(steps) <= 0:
        raise ConfigError("grid steps must be positive")
    nodes = math.prod(steps)
    if nodes > MAX_GRID_NODES:
        raise ConfigError(f"grid has {nodes} nodes, more than {MAX_GRID_NODES}")
    for lo, hi, _ in axes:
        if not math.isfinite(float(hi) - float(lo)):
            raise ConfigError(f"grid span {lo} to {hi} overflows a float")
    axis_values = [np.linspace(float(lo), float(hi), n) for (lo, hi, _), n in zip(axes, steps)]
    return [
        [float(v1), float(v2), float(v3)]
        for v1 in axis_values[0]
        for v2 in axis_values[1]
        for v3 in axis_values[2]
    ]


def resolve_points(config: RunConfig, f: FieldPair, rng: np.random.Generator) -> list[list[float]]:
    if config.points is not None:
        return [[float(c) for c in p] for p in config.points]
    if config.grid is not None:
        return expand_grid(config.grid)
    try:
        return [
            [float(c) for c in sampling.random_point(rng, f)] for _ in range(config.n_points)
        ]
    except RuntimeError as exc:
        raise ConfigError(f"could not sample admissible points: {exc}") from exc


def _record(check: str, index: int, point, status: str, **extra) -> dict:
    rec = {"check": check, "point_index": index, "point": [float(c) for c in point], "status": status}
    rec.update(extra)
    return rec


def _bounded(check: str, index: int, point, residual: float, tolerance: float) -> dict:
    """A check that passes when its residual is at most its tolerance."""
    return _record(check, index, point, "pass" if residual <= tolerance else "fail",
                   residual=residual, tolerance=tolerance)


@contextmanager
def _in_range(point):
    """Turn a float overflow while working on point into a ConfigError naming it."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except (OverflowError, FloatingPointError) as exc:
        raise ConfigError(f"point {list(point)} is out of range: {exc}") from exc


def _max_abs(values: np.ndarray) -> float:
    return float(np.max(np.abs(values)))


def _is_constant(f: FieldPair) -> bool:
    return (
        isinstance(f.a, Polynomial)
        and isinstance(f.b, Polynomial)
        and f.a.degree() == 0
        and f.b.degree() == 0
    )


def cmd_eval(config: RunConfig, what: str) -> dict:
    f = _build_fields(config)
    rng = np.random.default_rng(config.seed)
    points = resolve_points(config, f, rng)
    records = []
    for idx, p in enumerate(points):
        try:
            with _in_range(p):
                records.append(_eval_one(config, f, what, idx, p))
        except PointSkipped as exc:
            records.append(
                _record(what, idx, p, "skipped", reason=type(exc).__name__, detail=str(exc))
            )
    return _assemble(config, records)


def _eval_one(config: RunConfig, f: FieldPair, what: str, idx: int, p) -> dict:
    if what == "metric":
        m = domain_check(f, p)
        if m.degenerate:
            return _record(what, idx, p, "skipped", reason="DegenerateMetric", d=m.d)
        return _record(
            what,
            idx,
            p,
            "pass",
            g=list(m.g.triple()),
            g_inv=list(m.g_inv.triple()),
            d=m.d,
            definite=m.definite,
        )
    if what == "christoffel":
        return _record(what, idx, p, "pass", gamma=christoffel_general(f, p).tolist())
    if what == "nabla-q":
        nq = nabla_q(f, p)
        return _record(what, idx, p, "pass", max_norm=_max_abs(nq), components=nq.tolist())
    if what == "curvature":
        curv = curvature_at(f, p)
        return _record(what, idx, p, "pass", max_abs=curv.max_abs, r_down=curv.r_down.tolist())
    if what == "sectional":
        report = theorem3_check(f, p, config.x, config.tol("spread_rel"), config.tol("spread_abs"))
        return _record(
            what,
            idx,
            p,
            "pass" if report.passed else "fail",
            mu=list(report.mu),
            spread=report.spread,
            independence=report.independence,
        )
    raise ConfigError(f"unknown eval target {what!r}")


def cmd_verify(config: RunConfig) -> dict:
    f = _build_fields(config)
    rng = np.random.default_rng(config.seed)
    points = resolve_points(config, f, rng)
    dual_tol = config.tol("dual_path" if config.grad_mode == "analytic" else "dual_path_fd")
    records = []
    for idx, p in enumerate(points):
        with _in_range(p):
            m = domain_check(f, p)
            if m.degenerate:
                records.append(_record("all", idx, p, "skipped", reason="DegenerateMetric", d=m.d))
                continue
            records.extend(_verify_point(config, f, rng, idx, p, m, dual_tol))
    records.sort(key=lambda r: (r["point_index"], r["check"]))
    return _assemble(config, records)


def _verify_point(config, f, rng, idx, p, m, dual_tol) -> list[dict]:
    prod = circ_mul(m.g, m.g_inv)
    resid = max(
        abs(prod.a - IDENTITY.a), abs(prod.b - IDENTITY.b), abs(prod.c - IDENTITY.c)
    )
    records = [_bounded("metric-inverse", idx, p, resid, config.tol("metric_inverse"))]

    general = christoffel_general(f, p)
    closed = christoffel_closed(f, p)
    resid = _max_abs(general - closed)
    records.append(_bounded("christoffel-dual-path", idx, p, resid, dual_tol))

    resid = metric_compatibility_residual(f, p)
    records.append(_bounded("metric-compatibility", idx, p, resid, config.tol("metric_compat")))

    defect = _max_abs(parallel_defect(f, p))
    nq = _max_abs(nabla_q(f, p, general))
    if defect <= config.tol("defect_zero"):
        tol = config.tol("nabla_q")
        records.append(
            _record("theorem1-parallel", idx, p, "pass" if nq <= tol else "fail",
                    defect=defect, nabla_q=nq, tolerance=tol)
        )
        try:
            curv = curvature_at(f, p)
        except PointSkipped as exc:  # p is not degenerate, but a stencil point is
            records.extend(
                _record(check, idx, p, "skipped", reason=type(exc).__name__, detail=str(exc))
                for check in ("identity-3.1", "identity-3.2", "identity-3.6", "theorem3-spread")
            )
        else:
            records.extend(_verify_curvature(config, rng, idx, p, m.definite, curv))
    elif defect >= 0.1:
        tol = config.tol("nabla_q_nonzero")
        records.append(
            _record("theorem1-converse", idx, p, "pass" if nq > tol else "fail",
                    defect=defect, nabla_q=nq, tolerance=tol)
        )
    else:
        records.append(
            _record("theorem1-parallel", idx, p, "skipped",
                    reason="defect neither zero nor large", defect=defect, nabla_q=nq)
        )

    if _is_constant(f):
        # Constant fields have defect 0 and the metric of p at every stencil
        # point, so the parallel branch above has built curv.
        gamma_max = _max_abs(general)
        curv_max = curv.max_abs
        g_tol = config.tol("flat_gamma")
        c_tol = config.tol("flat_curvature")
        ok = gamma_max <= g_tol and curv_max <= c_tol
        records.append(
            _record("flat-baseline", idx, p, "pass" if ok else "fail",
                    gamma_max=gamma_max, curvature_max=curv_max,
                    tolerance=min(g_tol, c_tol))
        )
    return records


def _verify_curvature(config, rng, idx, p, definite, curv) -> list[dict]:
    rel = config.tol("identity_rel")
    resid32, scale32 = identity_32_residual(curv)
    records = [_bounded("identity-3.2", idx, p, resid32, rel * scale32)]

    # Row i of x, y, z, u is the i-th of the n_vectors draws of four vectors.
    vectors = rng.uniform(sampling.LOW, sampling.HIGH, size=(config.n_vectors, 4, 3))
    x, y, z, u = np.moveaxis(vectors, 1, 0).copy()
    r31, r36 = identity_residuals(curv, x, y, z, u)
    scale = np.maximum(residual_scales(curv, x, y, z, u), 1e-300)
    # Python max from 0.0 keeps the first of equal values, as a running max does.
    records.append(_bounded("identity-3.1", idx, p, max([0.0, *(r31 / scale).tolist()]), rel))
    records.append(_bounded("identity-3.6", idx, p, max([0.0, *(r36 / scale).tolist()]), rel))

    if definite:
        # Seeds are drawn one at a time: the scalar cubic decides acceptance.
        seeds = []
        tries = 0
        while len(seeds) < config.n_seeds and tries < 100 * config.n_seeds:
            tries += 1
            x = sampling.random_vector(rng)
            if abs(independence_cubic(x)) <= 0.1 * float(np.linalg.norm(x)) ** 3:
                continue
            seeds.append(x)
        _, spread, passed = orbit_spreads(
            curv, np.reshape(seeds, (-1, 3)), config.tol("spread_rel"), config.tol("spread_abs")
        )
        records.append(
            _record("theorem3-spread", idx, p, "pass" if passed.all() else "fail",
                    worst_spread=max([0.0, *spread.tolist()]), seeds=len(seeds))
        )
    else:
        records.append(
            _record("theorem3-spread", idx, p, "skipped", reason="IndefiniteMetric")
        )
    return records


def cmd_scan(config: RunConfig) -> dict:
    if not config.grid:
        raise ConfigError("scan requires a grid spec")
    f = _build_fields(config)
    points = expand_grid(config.grid)
    qx = circ_apply(Q, config.x)
    records = []
    for start in range(0, len(points), SCAN_BLOCK):
        block = points[start:start + SCAN_BLOCK]
        try:
            with np.errstate(over="raise", invalid="raise"):
                records.extend(_scan_block(config, f, qx, start, block))
        except (FloatingPointError, OverflowError, StencilCollapsed):
            # Node by node, as the error then names the first node it belongs to.
            records.extend(_scan_node(config, f, qx, start + i, p) for i, p in enumerate(block))
    return _assemble(config, records)


def _scan_block(config: RunConfig, f: FieldPair, qx, start: int, block: list) -> list[dict]:
    """The rows of consecutive grid nodes, from array kernels over the whole block."""
    x = np.array(block)
    m = domain_check(f, x)
    curved = m.definite & ~m.degenerate
    mu = np.full(len(block), np.nan)  # NaN where the node is skipped
    if curved.any():
        mu[curved] = sectional_curvature(f, x[curved], config.x, qx)
    mu_e1 = [None if math.isnan(v) else v for v in mu.tolist()]
    columns = (m.a, m.b, m.d, m.degenerate, m.definite)
    rows = zip(block, *(c.tolist() for c in columns), mu_e1)
    return [_scan_row(start + i, *values) for i, values in enumerate(rows)]


def _scan_node(config: RunConfig, f: FieldPair, qx, idx: int, p) -> dict:
    """The row of one grid node, from the one-point kernels."""
    with _in_range(p):
        m = domain_check(f, p)
        mu_e1 = None
        if not m.degenerate and m.definite:
            try:
                mu_e1 = sectional_curvature(f, p, config.x, qx)
            except PointSkipped:
                pass
        return _scan_row(idx, p, m.a, m.b, m.d, m.degenerate, m.definite, mu_e1)


def _scan_row(idx: int, p, a, b, d, degenerate, definite, mu_e1) -> dict:
    row = _record("scan", idx, p, "skipped" if degenerate else "pass",
                  a=a, b=b, d=d, definite=definite)
    if degenerate:
        row["reason"] = "DegenerateMetric"
    row["mu_e1"] = mu_e1
    return row


def _build_fields(config: RunConfig) -> FieldPair:
    try:
        return parse_field_spec(config.fields, grad_mode=config.grad_mode, fd_step=config.fd_step)
    except (ParseError, UnknownBuiltin) as exc:
        raise ConfigError(f"bad field spec: {exc}") from exc


def _finite(value) -> bool:
    if isinstance(value, float):
        return math.isfinite(value)
    return not isinstance(value, list) or all(map(_finite, value))


def _assemble(config: RunConfig, records: list[dict]) -> dict:
    for r in records:
        if not _finite(list(r.values())):
            raise ConfigError(f"point {r['point']} is out of range: {r['check']} is not finite")
    summary = {
        "pass_count": sum(1 for r in records if r["status"] == "pass"),
        "fail_count": sum(1 for r in records if r["status"] == "fail"),
        "skipped_count": sum(1 for r in records if r["status"] == "skipped"),
        "total": len(records),
    }
    return {"config": config.echo(), "records": records, "summary": summary}


def render_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"


def render_csv(report: dict) -> str:
    records = report["records"]
    keys = sorted({k for r in records for k in r})
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(keys)
    for r in records:
        writer.writerow([_csv_cell(r.get(k)) for k in keys])
    return buf.getvalue()


def _csv_cell(value):
    if value is None:
        return ""
    if isinstance(value, (list, tuple)):  # nested arrays flatten in row-major order
        return ";".join(repr(float(v)) for v in np.ravel(value))
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="circgeo",
        description="Construct the circulant-metric 3-manifold, compute its "
        "connection and curvature, and verify its structural identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("eval", "verify", "scan"):
        sp = sub.add_parser(name)
        sp.add_argument("--config", help="JSON file mirroring the run configuration")
        sp.add_argument("--fields", help="field spec text, @file, or builtin name")
        sp.add_argument("--point", action="append", help="x,y,z (repeatable)")
        sp.add_argument("--grid", help="min,max,steps (3 or 9 comma-separated values)")
        sp.add_argument("--grad", choices=("analytic", "fd"))
        sp.add_argument("--step", type=float, help="finite-difference step")
        sp.add_argument("--seed", type=int)
        sp.add_argument("--x", help="seed tangent vector x,y,z for sectional checks")
        sp.add_argument("--out", help="output path (default stdout)")
        sp.add_argument("--format", choices=("json", "csv"))
        sp.add_argument("--tol", action="append", default=[], help="KEY=VALUE override")
        if name == "eval":
            sp.add_argument(
                "what",
                choices=("metric", "christoffel", "nabla-q", "curvature", "sectional"),
            )
    return parser


def _floats(text: str, flag: str) -> list[float]:
    """The comma-separated numbers of a flag's text."""
    try:
        return [float(v) for v in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"bad {flag} value {text!r}") from exc


def config_from_args(args: argparse.Namespace) -> RunConfig:
    """The config file's keys, then each flag's value, stored through RunConfig.set."""
    config = RunConfig()
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config file must contain a JSON object")
        for key, value in data.items():
            config.set(key, value, f"config key {key!r}")
    if args.fields:
        text = args.fields
        if text.startswith("@"):
            try:
                with open(text[1:], encoding="utf-8") as fh:
                    text = fh.read()
            except OSError as exc:
                raise ConfigError(f"cannot read fields file: {exc}") from exc
        config.set("fields", text, "--fields")
    if args.point:
        config.set("points", [_floats(p, "--point") for p in args.point], "--point")
        config.set("grid", None, "--point")
    if args.grid:
        config.set("grid", _floats(args.grid, "--grid"), "--grid")
        config.set("points", None, "--grid")
    if args.x:
        config.set("x", _floats(args.x, "--x"), "--x")
    # Flags whose parsed value is already the config value.
    for flag, key in (
        ("grad", "grad_mode"), ("step", "fd_step"), ("seed", "seed"), ("out", "out"),
        ("format", "format"),
    ):
        if getattr(args, flag) is not None:
            config.set(key, getattr(args, flag), f"--{flag}")
    if args.tol:
        tolerances = dict(config.tolerances)
        for item in args.tol:
            key, _, value = item.partition("=")
            try:
                tolerances[key] = float(value)
            except ValueError as exc:
                raise ConfigError(f"bad --tol value {item!r}") from exc
        config.set("tolerances", tolerances, "--tol")
    return config


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
        if args.command == "eval":
            report = cmd_eval(config, args.what)
        elif args.command == "verify":
            report = cmd_verify(config)
        else:
            report = cmd_scan(config)
        text = render_csv(report) if config.format == "csv" else render_json(report)
        if config.out:
            try:
                with open(config.out, "w", encoding="utf-8") as fh:
                    fh.write(text)
            except OSError as exc:
                raise ConfigError(f"cannot write output: {exc}") from exc
        else:
            sys.stdout.write(text)
    except ConfigError as exc:
        print(f"circgeo: error: {exc}", file=sys.stderr)
        return 2
    except StencilCollapsed as exc:
        print(f"circgeo: error: --step {config.fd_step!r} is too small: {exc}", file=sys.stderr)
        return 2
    return 0 if report["summary"]["fail_count"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
