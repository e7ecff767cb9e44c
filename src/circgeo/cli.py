"""Command-line front end: eval / verify / scan with JSON or CSV reports.

Exit codes: 0 all checks passed, 1 at least one failure, 2 configuration or
I/O error.  Reports are deterministic for a fixed config and seed (stable
key order, records sorted by point index then check name, no timestamps).
Each command turns a block of points into a table of checks; _records, the only
record builder, makes its records once _check_finite has weighed the table.
"""

from __future__ import annotations

import argparse
import copy
import csv
import json
import math
import os
import sys
from contextlib import contextmanager
from functools import partial
from json.encoder import encode_basestring_ascii
from operator import itemgetter

import numpy as np

from . import sampling
from .circulant import IDENTITY, Q_DENSE, circ_mul
from .connection import (
    christoffel_closed,
    christoffel_general,
    metric_compatibility_residual,
    nabla_q,
    parallel_defect,
    parallel_everywhere,
)
from .curvature import (
    curvature_at,
    identity_32_residual,
    identity_residuals,
    independence_cubic,
    orbit_spreads,
    sections_of,
    sectional_curvature,
    theorem3_check,
)
from .errors import ConfigError, DependentOrbit, IndefiniteMetric, ParseError
from .fields import (FieldPair, MetricAtPoint, degenerate_metric, domain_check, field_jet,
                     parse_field_spec)

DEFAULT_TOLERANCES = {
    "dual_path": 1e-9,
    "defect_zero": 1e-9,
    "nabla_q": 1e-10,
    "nabla_q_nonzero": 1e-6,
    "metric_inverse": 1e-12,
    "metric_compat": 1e-9,
    "identity_rel": 1e-7,
    "spread_rel": 1e-6,
    "spread_abs": 1e-9,
}

#: Largest grid accepted, in nodes (the product of the per-axis steps), and
#: largest n_points.
MAX_GRID_NODES = 1_000_000

#: Points per block of eval and of verify's classify, and grid nodes per block of
#: a scan, so that their arrays stay within a few MB at any size.
SCAN_BLOCK = 1024

#: Points per sub-block of verify's curvature suite.  The curvature points of a
#: classify block take the suite this many at a time, each sub-block one tensor
#: block and one stacked contraction; a larger one saves little time and holds
#: more memory.
VERIFY_BLOCK = 32

#: Verify checks Theorem 3 on up to N_SEEDS orbit seeds, drawn once per run and
#: shared by every point.
N_SEEDS = 20


def _is_real(v) -> bool:
    """A finite int or float (JSON true/false excluded)."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:  # an int too large for a float
        return False


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
    "seed": (0, lambda v: _is_count(v, math.inf), "a non-negative integer"),
    "x": ([1.0, 2.0, 3.0], lambda v: _is_triple(v) and math.hypot(*v) <= sys.float_info.max ** 0.25,
          "three finite numbers whose norm**4 (mu's degree in x) is a finite float"),
    "n_points": (10, _is_count, _COUNT),
    "out": (None, lambda v: v is None or isinstance(v, str), "a path"),
    "format": ("json", lambda v: v in ("json", "csv"), '"json" or "csv"'),
    "tolerances": (
        {}, lambda v: isinstance(v, dict),
        "an object mapping tolerance names to positive finite numbers",
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
        if key == "tolerances":  # name the first entry refused
            for name, t in value.items():
                if name not in DEFAULT_TOLERANCES:
                    known = ", ".join(sorted(DEFAULT_TOLERANCES))
                    raise ConfigError(f"{source} names unknown tolerance {name!r} (known: {known})")
                if not (_is_real(t) and t > 0):
                    raise ConfigError(f"{source}: {name!r} must be positive and finite, got {t!r}")
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
    # Near the float range linspace's last product, (n - 1) * step, may overflow; it sets
    # that node to hi, so every node is finite.
    with np.errstate(over="ignore"):
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
        return sampling.random_points(rng, f, config.n_points)
    except (RuntimeError, OverflowError) as exc:  # OverflowError: D is not a finite float
        raise ConfigError(f"could not sample admissible points: {exc}") from exc


def _records(start: int, block: list, table: list) -> list[dict]:
    """The records of block, the first point of index start, in report order: by point, then
    by check.  Each entry of table is (check, rows, status, fields): rows ascending indices
    into block; status a str every row shares, or a bool array, true where a row passes;
    each value of the dict fields one value every row shares, or a list over rows, or an
    array with the row axis last.  A record holds its point as block does, a list of finite
    Python floats from resolve_points or expand_grid: all of a point's records share it."""
    _check_finite(block, table)
    records = []
    for check, rows, status, fields in sorted(table, key=itemgetter(0)):
        rows = np.asarray(rows, dtype=int).tolist()
        if isinstance(status, np.ndarray):  # whether each row passes
            status = ["pass" if ok else "fail" for ok in status.tolist()]
        values = {"check": check, "point_index": [start + n for n in rows],
                  "point": [block[n] for n in rows], "status": status, **fields}
        columns = {k: np.moveaxis(v, -1, 0).tolist() if isinstance(v, np.ndarray) else v
                   for k, v in values.items() if isinstance(v, (list, np.ndarray))}
        # Copies of one dict, each row's values then set in place: no dict is resized.
        template = {k: None if k in columns else v for k, v in values.items()}
        entry = [template.copy() for _ in rows]
        for key, column in columns.items():
            for record, v in zip(entry, column):
                record[key] = v
        records += entry
    records.sort(key=itemgetter("point_index"))  # stable: a point's records stay by check
    return records


def _check_finite(block: list, table: list) -> None:
    """A ConfigError naming the first point of block, and of its checks the first by name,
    with a NaN or inf in a float array of table's fields (see _records).  The other values
    are finite where they are made: points by _is_triple, expand_grid or the sampler, A, B
    and D by domain_check, tolerances by RunConfig.set, and x's cubic since |x|**4 is."""
    firsts = [(rows[k], check) for check, rows, _, fields in table if len(rows)
              for v in fields.values() if isinstance(v, np.ndarray) and v.dtype.kind == "f"
              for k in np.flatnonzero(~np.isfinite(v).reshape(-1, len(rows)).all(axis=0))[:1]]
    if firsts:
        n, check = min(firsts)
        raise ConfigError(f"point {block[n]} is out of range: {check} is not finite")


def _bounded(check: str, rows, residual, tolerance) -> tuple:
    """The entry of a check that passes where its residual is at most its tolerance."""
    return check, rows, residual <= tolerance, {"residual": residual, "tolerance": tolerance}


def _skipped(check: str, rows, why: list) -> tuple:
    """The entry of rows skipped for the PointSkipped errors why, one per row."""
    return check, rows, "skipped", {"reason": [type(e).__name__ for e in why],
                                    "detail": [str(e) for e in why]}


@contextmanager
def _in_range(point):
    """Turn a float overflow while working on point into a ConfigError naming it."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except (OverflowError, FloatingPointError) as exc:
        raise ConfigError(f"point {list(point)} is out of range: {exc}") from exc


def _in_blocks(points: list, size: int, work) -> list[dict]:
    """The records of work(start, block) over blocks of points (start: the first one's index),
    each run under np.errstate(over="raise", invalid="raise"): an array expression over a
    block raises where a Python float would become inf silently.  work builds its records
    with _records, the only record builder, which weighs the block's table first.  A block
    that overflows is split in halves, each run the same way, down to blocks of one, which
    run under _in_range: since a point overflows alone where it overflows in its block, the
    error names the first point it belongs to, after at most 2 log2(size) + 1 calls of work
    for one such point.  work draws no random numbers, so a point's records do not depend
    on the block it is in."""
    records = []
    for start in range(0, len(points), size):
        records += _bisected(work, start, points[start:start + size])
    return records


def _bisected(work, start: int, block: list) -> list[dict]:
    """work(start, block), or, where it overflows, its halves' records in turn."""
    if len(block) == 1:
        with _in_range(block[0]):
            return work(start, block)
    try:
        with np.errstate(over="raise", invalid="raise"):
            return work(start, block)
    except (FloatingPointError, OverflowError):
        half = len(block) // 2
        return _bisected(work, start, block[:half]) + _bisected(work, start + half, block[half:])


def cmd_eval(config: RunConfig, what: str) -> dict:
    f = _build_fields(config)
    points = resolve_points(config, f, np.random.default_rng(config.seed))
    if what == "sectional":
        try:
            sections_of(config.x)
        except DependentOrbit as exc:  # of x alone: every point's skip, whatever its metric
            rows = range(len(points))
            return _assemble(config, _records(0, points, [_skipped(what, rows, [exc] * len(rows))]))
    return _assemble(config, _in_blocks(points, SCAN_BLOCK, partial(_eval_block, config, f, what)))


def _eval_block(config: RunConfig, f: FieldPair, what: str, start: int, block: list) -> list[dict]:
    """The records of consecutive points, the first of index start, from array kernels over
    the whole block: what at each point, or the skip of the point or of a point it needs.
    Nothing is computed where D ~ 0, nor mu where g is indefinite, nor over no points.
    For sectional, cmd_eval has checked that config.x admits the sections."""
    x = np.array(block)
    m = domain_check(f, x)
    applies = ~m.degenerate & (m.definite if what == "sectional" else True)
    rows, degenerate = np.flatnonzero(applies), np.flatnonzero(m.degenerate)
    indefinite = np.flatnonzero(~applies & ~m.degenerate)
    if what == "metric":
        table = [(what, degenerate, "skipped",
                  {"reason": "DegenerateMetric", "d": m.d[degenerate]})]
    else:
        table = [_skipped(what, degenerate, [degenerate_metric(m.d[n], x[n]) for n in degenerate])]
    table.append(_skipped(what, indefinite, [
        IndefiniteMetric(f"metric not positive definite at {tuple(x[n].tolist())}")
        for n in indefinite]))
    if not len(rows):
        return _records(start, block, table)
    metric = m.take(rows)
    skips = {}  # the skips the curvature layer finds, by row of metric
    if what == "metric":
        with np.errstate(over="ignore"):  # Python float rules: _check_finite names it
            inverse = metric.g_inv
        fields = {"g": np.stack([metric.a, metric.b, metric.b]),
                  "g_inv": np.stack([inverse.a, inverse.b, inverse.b]),
                  "d": metric.d, "definite": metric.definite}
    elif what == "curvature":
        curv = curvature_at(f, metric)
        skips = curv.skips
        fields = {"max_abs": curv.max_abs, "r_down": curv.r_down}
    elif what == "sectional":
        mu, spread, passed, skips, cubic = theorem3_check(
            f, metric, config.x, config.tol("spread_rel"), config.tol("spread_abs"))
        fields = {"mu": mu.T, "spread": spread, "independence": cubic}
    elif what == "christoffel":
        fields = {"gamma": christoffel_general(field_jet(f, metric.point))}
    else:
        nq = nabla_q(christoffel_general(field_jet(f, metric.point)))
        fields = {"max_norm": np.max(np.abs(nq), axis=(0, 1, 2)), "components": nq}
    skipped = sorted(skips)
    kept = np.setdiff1d(np.arange(len(rows)), skipped)  # a skipped row holds NaN
    fields = {k: v[..., kept] if isinstance(v, np.ndarray) else v for k, v in fields.items()}
    table += [_skipped(what, rows[skipped], [skips[k] for k in skipped]),
              (what, rows[kept], passed[kept] if what == "sectional" else "pass", fields)]
    return _records(start, block, table)


def cmd_verify(config: RunConfig) -> dict:
    f = _build_fields(config)
    rng = np.random.default_rng(config.seed)
    points = resolve_points(config, f, rng)
    seeds = _orbit_seeds(rng)
    parallel = parallel_everywhere(f, config.tol("defect_zero"))
    work = partial(_verify_block, config, f, seeds, parallel)
    return _assemble(config, _in_blocks(points, SCAN_BLOCK, work))


#: The checks of a point where q is parallel, which need q parallel around it too.
CURVATURE_CHECKS = ("identity-3.1", "identity-3.2", "identity-3.6", "theorem3-spread")


def _verify_block(config, f, seeds, parallel, start, block) -> list[dict]:
    """The records of consecutive points, the first of index start.  Over the block's
    non-degenerate rows each check up to Theorem 1 is one array expression.  Only
    christoffel_general, whose calls the benchmark's trace counts, runs a point at a time,
    here and inside metric_compatibility_residual.  The points that take the curvature
    suite take it VERIFY_BLOCK at a time.  Each tolerance is read once."""
    metric = domain_check(f, np.array(block))
    degenerate = np.flatnonzero(metric.degenerate)
    table = [("all", degenerate, "skipped", {"reason": "DegenerateMetric",
                                             "d": metric.d[degenerate]})]
    rows = np.flatnonzero(~metric.degenerate)
    if not len(rows):
        return _records(start, block, table)
    m = metric.take(rows)
    jet = field_jet(f, m.point)
    prod = circ_mul(m.g, m.g_inv)
    inverses = np.max(np.abs([prod.a - IDENTITY.a, prod.b - IDENTITY.b, prod.c - IDENTITY.c]),
                      axis=0)
    general = np.stack([christoffel_general(j) for j in zip(*(v.tolist() for v in jet))], axis=-1)
    duals = np.max(np.abs(general - christoffel_closed(jet)), axis=(0, 1, 2))
    defects = np.max(np.abs(parallel_defect(jet)), axis=0)
    nqs = np.max(np.abs(nabla_q(general)), axis=(0, 1, 2))
    gamma_maxes = np.max(np.abs(general), axis=(0, 1, 2))
    compats = metric_compatibility_residual(
        jet, np.ascontiguousarray(np.moveaxis(m.g.dense(), -1, 0)))  # each point's 3x3
    t_inverse, t_dual, t_compat, t_defect, t_zero, t_nonzero = map(config.tol, (
        "metric_inverse", "dual_path", "metric_compat", "defect_zero", "nabla_q",
        "nabla_q_nonzero"))
    zero = defects <= t_defect
    converse = ~zero & (defects >= 0.1)
    other = ~zero & ~converse
    table += [
        _bounded("metric-inverse", rows, inverses, t_inverse),
        _bounded("christoffel-dual-path", rows, duals, t_dual),
        _bounded("metric-compatibility", rows, compats, t_compat),
        ("theorem1-parallel", rows[zero], nqs[zero] <= t_zero,
         {"defect": defects[zero], "nabla_q": nqs[zero], "tolerance": t_zero}),
        ("theorem1-converse", rows[converse], nqs[converse] > t_nonzero,
         {"defect": defects[converse], "nabla_q": nqs[converse], "tolerance": t_nonzero}),
        ("theorem1-parallel", rows[other], "skipped",
         {"reason": "defect neither zero nor large", "defect": defects[other],
          "nabla_q": nqs[other]}),
    ]
    near, gamma_maxes = rows[zero], gamma_maxes[zero]  # where the curvature checks apply
    if not parallel:
        return _records(start, block, table + [
            (check, near, "skipped", {"reason": "q is not parallel near the point"})
            for check in CURVATURE_CHECKS])
    for s in range(0, len(near), VERIFY_BLOCK):
        at = near[s:s + VERIFY_BLOCK]
        table += _curvature_suite(config, f, seeds, at, gamma_maxes[s:s + VERIFY_BLOCK],
                                  metric.take(at))
    return _records(start, block, table)


def _curvature_suite(config, f, seeds, rows, gamma_max, metric: MetricAtPoint) -> list[tuple]:
    """The table entries of the block's rows that take the suite, given with their max
    |Gamma| and their metric record: one tensor block, the identities checked on it, and
    Theorem 3 against the run's (m, 3) stack of orbit seeds, contracted over the block at
    once.  worst_spread is the largest spread from 0.0, as Python's max takes it: it passes
    over NaN, and is not finite only where a spread is inf."""
    curv = curvature_at(f, metric)
    skipped = sorted(curv.skips)  # p is not degenerate, but a point of its stencil is
    table = [_skipped(check, rows[skipped], [curv.skips[k] for k in skipped])
             for check in CURVATURE_CHECKS]
    kept = np.setdiff1d(np.arange(len(rows)), skipped)
    rows, gamma_max, curv = rows[kept], gamma_max[kept], curv.take(kept)
    rel = config.tol("identity_rel")
    resid32, scale32 = identity_32_residual(curv)
    with np.errstate(over="ignore"):  # the Python float product it was
        tol32 = rel * scale32
    r31, r36 = identity_residuals(curv)
    definite = curv.metric.definite
    _, spread, passed, _ = orbit_spreads(curv.take(np.flatnonzero(definite)), seeds,
                                         config.tol("spread_rel"), config.tol("spread_abs"))
    table += [
        _bounded("identity-3.2", rows, resid32, tol32),
        _bounded("identity-3.1", rows, r31, rel),
        _bounded("identity-3.6", rows, r36, rel),
        ("theorem3-spread", rows[definite], passed.all(axis=-1),
         {"worst_spread": np.fmax.reduce(spread, axis=-1, initial=0.0), "seeds": len(seeds)}),
        ("theorem3-spread", rows[~definite], "skipped", {"reason": "IndefiniteMetric"}),
    ]
    if f.a.degree() == 0 and f.b.degree() == 0:
        # Constant fields have defect 0 and the metric of p at every stencil point.
        # Their partial tables are empty, so t, Gamma, dGamma and R are exact zeros:
        # flat means 0.0, with no tolerance.
        table.append(("flat-baseline", rows, (gamma_max == 0.0) & (curv.max_abs == 0.0),
                      {"gamma_max": gamma_max, "curvature_max": curv.max_abs}))
    return table


def _orbit_seeds(rng: np.random.Generator) -> np.ndarray:
    """Up to N_SEEDS random vectors whose orbits span, as an (m, 3) stack: the draws x
    with |cubic(x)| > 0.1 |x|^3, one at a time, of at most 100 * N_SEEDS."""
    seeds = []
    for _ in range(100 * N_SEEDS):
        if len(seeds) == N_SEEDS:
            break
        x = sampling.random_vector(rng)
        if abs(independence_cubic(x)) > 0.1 * float(np.linalg.norm(x)) ** 3:
            seeds.append(x)
    return np.reshape(seeds, (-1, 3))


def cmd_scan(config: RunConfig) -> dict:
    if not config.grid:
        raise ConfigError("scan requires a grid spec")
    f = _build_fields(config)
    work = partial(_scan_block, config, f, Q_DENSE @ np.asarray(config.x, dtype=float))
    return _assemble(config, _in_blocks(expand_grid(config.grid), SCAN_BLOCK, work))


def _scan_block(config: RunConfig, f: FieldPair, qx, start: int, block: list) -> list[dict]:
    """The rows of consecutive grid nodes, from array kernels over the whole block; mu_e1 is
    null where the node is degenerate or indefinite, or a stencil point or the section is.
    A mu that is not finite (sectional_curvatures gives inf, not NaN, for one) stops the run."""
    m = domain_check(f, np.array(block))
    curved = np.flatnonzero(m.definite & ~m.degenerate)
    mu = np.full(len(block), np.nan)  # NaN where the node is skipped
    if len(curved):
        mu[curved] = sectional_curvature(f, m.take(curved), config.x, qx)[0]

    def entry(nodes, status, **extra):  # the table entry of the nodes where nodes is true
        n = np.flatnonzero(nodes)
        return "scan", n, status, {"a": m.a[n], "b": m.b[n], "d": m.d[n],
                                   "definite": m.definite[n], **extra}

    null = np.isnan(mu)
    return _records(start, block, [
        entry(m.degenerate, "skipped", reason="DegenerateMetric", mu_e1=None),
        entry(null & ~m.degenerate, "pass", mu_e1=None),
        entry(~null, "pass", mu_e1=mu[~null]),
    ])


def _build_fields(config: RunConfig) -> FieldPair:
    try:
        return parse_field_spec(config.fields)
    except ParseError as exc:
        raise ConfigError(f"bad field spec: {exc}") from exc


def _assemble(config: RunConfig, records: list[dict]) -> dict:
    summary = {
        "pass_count": sum(1 for r in records if r["status"] == "pass"),
        "fail_count": sum(1 for r in records if r["status"] == "fail"),
        "skipped_count": sum(1 for r in records if r["status"] == "skipped"),
        "total": len(records),
    }
    return {"config": config.echo(), "records": records, "summary": summary}


def render_json(report: dict, fh) -> None:
    """Write report as json.dump(report, fh, sort_keys=True, indent=2, allow_nan=False)
    does, byte for byte, then a newline; raise what it raises: ValueError for a NaN or
    infinite float, TypeError for a value or key JSON has no form for.  A list or dict may
    appear in the report more than once, as a point's list is in each of its records, but
    one of exact type that contains itself exhausts the recursion limit.

    The non-empty list members of a dict of str keys are written an item at a time, after
    one write of all that comes before: a report takes a write for its head, one per
    record and one for its summary, and its text is never held whole."""
    encode = _json_encoder()
    if type(report) is not dict or not report or not all(type(k) is str for k in report):
        fh.write(encode(report, 0) + "\n")
        return
    text = "{"
    for n, key in enumerate(sorted(report)):
        value = report[key]
        text += f"{',' if n else ''}\n  {encode_basestring_ascii(key)}: "
        if type(value) is list and value:
            fh.write(text + "[")
            for m, item in enumerate(value):
                fh.write(f"{',' if m else ''}\n    {encode(item, 2)}")
            text = "\n  ]"
        else:
            text += encode(value, 1)
    fh.write(text + "\n}\n")


def _json_encoder():
    """encode(o, level): the text of o in render_json's format, its lines after the first
    indented level steps deeper.

    Values of exact builtin types, all a report holds, are written here: a dict of str
    keys through its layout, cached for the encoder's life by its level and its keys in
    order (its keys sorted and a %-template of its lines), and a list as the text of the
    last list written when it is that same object at the same level, as a point's list
    is in its consecutive records (the reference held keeps its id from being reused).
    Anything else, a NaN or a float subclass say, is left to json.dumps."""
    layouts = {}
    last = (None, 0, "")  # the last non-empty list written, its level and its text
    isfinite = math.isfinite

    def encode(o, level: int) -> str:
        nonlocal last
        t = type(o)
        if t is float and isfinite(o) or t is int:
            return repr(o)
        if t is str:
            return encode_basestring_ascii(o)
        if t is bool or o is None:
            return "null" if o is None else "true" if o else "false"
        if t is dict and o:
            layout = layouts.get((level, *o))
            if layout is None and all(type(k) is str for k in o):
                inner = "\n" + "  " * (level + 1)
                keys = sorted(o)
                lines = ",".join(inner + encode_basestring_ascii(k).replace("%", "%%") + ": %s"
                                 for k in keys)
                layout = layouts[(level, *o)] = keys, "{" + lines + "\n" + "  " * level + "}"
            if layout is not None:
                keys, template = layout
                return template % tuple([encode(o[k], level + 1) for k in keys])
        elif t is list and o:
            if o is last[0] and level == last[1]:
                return last[2]
            inner = "\n" + "  " * (level + 1)
            items = ("," + inner).join([encode(v, level + 1) for v in o])
            last = o, level, "[" + inner + items + "\n" + "  " * level + "]"
            return last[2]
        text = json.dumps(o, sort_keys=True, indent=2, allow_nan=False)
        return text.replace("\n", "\n" + "  " * level)  # json escapes a newline in a string

    return encode


def render_csv(report: dict, fh) -> None:
    records = report["records"]
    keys = sorted({k for r in records for k in r})
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(keys)
    for r in records:
        writer.writerow([_csv_cell(r.get(k)) for k in keys])


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
        except (OSError, ValueError) as exc:  # ValueError: bad JSON or UTF-8, a NUL in the path
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
            except (OSError, ValueError) as exc:  # ValueError: bad UTF-8, a NUL in the path
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
    for flag, key in (("seed", "seed"), ("out", "out"), ("format", "format")):
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
        render = render_csv if config.format == "csv" else render_json
        if config.out:
            try:
                fh = open(config.out, "w", encoding="utf-8")
            except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
                raise ConfigError(f"cannot write output: {exc}") from exc
            try:
                with fh:
                    render(report, fh)
            except OSError as exc:  # a full disk
                raise ConfigError(f"cannot write output: {exc}") from exc
        else:
            try:
                render(report, sys.stdout)
                sys.stdout.flush()
            except OSError as exc:  # a reader that closed the pipe
                # What stdout still buffers would fail again as the interpreter exits.
                with open(os.devnull, "wb") as null:
                    os.dup2(null.fileno(), sys.stdout.fileno())
                raise ConfigError(f"cannot write output: {exc}") from exc
    except ConfigError as exc:
        print(f"circgeo: error: {exc}", file=sys.stderr)
        return 2
    return 0 if report["summary"]["fail_count"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
