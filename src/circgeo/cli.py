"""Command-line front end: eval / verify / scan with JSON or CSV reports.

Exit codes: 0 all checks passed, 1 at least one failure, 2 configuration or
I/O error.  Reports are deterministic for a fixed config and seed (stable
key order, records sorted by point index then check name, no timestamps).
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
    residual_scales,
    sections_of,
    sectional_curvature,
    theorem3_check,
)
from .errors import ConfigError, DependentOrbit, IndefiniteMetric, ParseError, PointSkipped
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

#: Verify checks identities 3.1/3.6 on N_VECTORS random quadruples of vectors and
#: Theorem 3 on up to N_SEEDS orbit seeds, drawn once per run and shared by every point.
N_VECTORS = 20
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


def _record(check: str, index: int, point: list, status: str, **extra) -> dict:
    """A record of the point, a list of finite Python floats from resolve_points or
    expand_grid, held as it is: all of a point's records share its one list."""
    return {"check": check, "point_index": index, "point": point, "status": status, **extra}


def _bounded(check: str, index: int, point, residual: float, tolerance: float) -> dict:
    """A check that passes when its residual is at most its tolerance."""
    return {"check": check, "point_index": index, "point": point,
            "status": "pass" if residual <= tolerance else "fail",
            "residual": residual, "tolerance": tolerance}


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
    block raises where a Python float would become inf silently.  work checks what it has
    computed with _check_finite before it builds records.  A block that overflows is split
    in halves, each run the same way, down to blocks of one, which run under _in_range: since
    a point overflows alone where it overflows in its block, the error names the first point
    it belongs to, after at most 2 log2(size) + 1 calls of work for one such point.  work
    draws no random numbers, so a point's records do not depend on the block it is in."""
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


def _check_finite(block: list, found: list) -> None:
    """A ConfigError naming the first point of block, and of its checks the first by name,
    whose value is not finite, from (check, rows, not_finite) triples: the check's mask
    over rows, ascending indices into block.  Python floats, and some numpy sums, overflow
    to inf silently, and the first such value in report order is the one to name.  Points
    are finite where they are made, by config's _is_triple, expand_grid's check of each
    span, or the sampler's draws on [LOW, HIGH), and so are A, B and D, or domain_check
    raises."""
    firsts = [(rows[k], check) for check, rows, not_finite in found
              for k in np.flatnonzero(not_finite)[:1]]
    if firsts:
        n, check = min(firsts)
        raise ConfigError(f"point {block[n]} is out of range: {check} is not finite")


def _is_constant(f: FieldPair) -> bool:
    return f.a.degree() == 0 and f.b.degree() == 0


def cmd_eval(config: RunConfig, what: str) -> dict:
    f = _build_fields(config)
    points = resolve_points(config, f, np.random.default_rng(config.seed))
    if what == "sectional":
        try:
            sections_of(config.x)
        except DependentOrbit as exc:  # of x alone: every point's skip, whatever its metric
            return _assemble(config, [_record(what, n, p, "skipped", reason=type(exc).__name__,
                                              detail=str(exc)) for n, p in enumerate(points)])
    return _assemble(config, _in_blocks(points, SCAN_BLOCK, partial(_eval_block, config, f, what)))


def _eval_block(config: RunConfig, f: FieldPair, what: str, start: int, block: list) -> list[dict]:
    """The records of consecutive points, the first of index start, from array kernels over
    the whole block: what at each point, or the skip of the point or of a point it needs.
    Nothing is computed where D ~ 0, nor mu where g is indefinite, nor over no points.
    For sectional, cmd_eval has checked that config.x admits the sections.  The arrays
    computed, each with the row axis last, are checked to be finite where no skip stands."""
    x = np.array(block)
    m = domain_check(f, x)
    applies = ~m.degenerate & (m.definite if what == "sectional" else True)
    rows = np.flatnonzero(applies)
    skips = {n: degenerate_metric(m.d[n], x[n]) if m.degenerate[n] else
             IndefiniteMetric(f"metric not positive definite at {tuple(x[n].tolist())}")
             for n in np.flatnonzero(~applies).tolist()}
    metric = m.take(rows)
    found = {}  # the skips the curvature layer finds, by row of metric
    arrays = []  # what is computed over the rows of metric, the row axis last
    if not len(rows):
        values = []
    elif what == "metric":
        with np.errstate(over="ignore"):  # Python float rules: _check_finite names it
            inverse = metric.g_inv
        arrays = [inverse.a, inverse.b]
        columns = zip(*(v.tolist() for v in (metric.a, metric.b, metric.d, metric.definite,
                                            inverse.a, inverse.b)))
        values = [{"g": [a, b, b], "g_inv": [ia, ib, ib], "d": d, "definite": definite}
                  for a, b, d, definite, ia, ib in columns]
    elif what == "curvature":
        curv = curvature_at(f, metric)
        found = curv.skips
        arrays = [curv.r_down]
        values = [{"max_abs": top, "r_down": r} for top, r in
                  zip(curv.max_abs.tolist(), np.moveaxis(curv.r_down, -1, 0).tolist())]
    elif what == "sectional":
        mu, spread, passed, found, cubic = theorem3_check(
            f, metric, config.x, config.tol("spread_rel"), config.tol("spread_abs"))
        arrays = [mu.T, spread]
        values = [{"status": "pass" if ok else "fail", "mu": three, "spread": s,
                   "independence": cubic}
                  for three, s, ok in zip(mu.tolist(), spread.tolist(), passed.tolist())]
    elif what == "christoffel":
        gamma = christoffel_general(field_jet(f, metric.point))
        arrays = [gamma]
        values = [{"gamma": g} for g in np.moveaxis(gamma, -1, 0).tolist()]
    else:
        nq = nabla_q(christoffel_general(field_jet(f, metric.point)))
        arrays = [nq]
        values = [{"max_norm": top, "components": c} for top, c in zip(
            np.max(np.abs(nq), axis=(0, 1, 2)).tolist(), np.moveaxis(nq, -1, 0).tolist())]
    finite = np.ones(len(rows), dtype=bool)
    for v in arrays:
        finite &= np.isfinite(v).reshape(-1, len(rows)).all(axis=0)
    finite[list(found)] = True  # a skipped row is NaN
    _check_finite(block, [(what, rows, ~finite)])
    skips.update((int(rows[k]), why) for k, why in found.items())
    values = {n: {"status": "pass", **v} for n, v in zip(rows.tolist(), values)}
    return [_record(what, start + n, p, **values[n]) if n not in skips else
            _record(what, start + n, p, "skipped", reason=type(skips[n]).__name__,
                    **({"d": float(m.d[n])} if what == "metric" else {"detail": str(skips[n])}))
            for n, p in enumerate(block)]


def cmd_verify(config: RunConfig) -> dict:
    f = _build_fields(config)
    rng = np.random.default_rng(config.seed)
    points = resolve_points(config, f, rng)
    vectors = rng.uniform(sampling.LOW, sampling.HIGH, size=(4, N_VECTORS, 3))
    seeds = _orbit_seeds(rng)
    parallel = parallel_everywhere(f, config.tol("defect_zero"))
    work = partial(_verify_block, config, f, vectors, seeds, parallel)
    return _assemble(config, _in_blocks(points, SCAN_BLOCK, work))


def _verify_block(config, f, vectors, seeds, parallel, start, block) -> list[dict]:
    """The records of consecutive points, the first of index start, each point's sorted
    by check.  Over the block's non-degenerate rows each check up to Theorem 1 is one array
    expression: the metric inverse, the closed-form Gamma, the defect, nabla q, the
    metric-compatibility residual and the maxima over the stack of general Gamma.  Only
    christoffel_general, whose calls the benchmark's trace counts, runs a point at a time,
    here and inside metric_compatibility_residual.  The points that take the curvature
    suite take it VERIFY_BLOCK at a time.  Every value is checked to be finite on the
    block's arrays before a classify record is built, and each tolerance is read once."""
    metric = domain_check(f, np.array(block))
    by_point = [[] for _ in block]
    for n in np.flatnonzero(metric.degenerate).tolist():
        by_point[n].append(_record("all", start + n, block[n], "skipped",
                                   reason="DegenerateMetric", d=float(metric.d[n])))
    rows = np.flatnonzero(~metric.degenerate)
    if not len(rows):
        return [records[0] for records in by_point]
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
    unbounded = ~(np.isfinite(defects) & np.isfinite(nqs))  # in the Theorem 1 record
    found = [("metric-inverse", rows, ~np.isfinite(inverses)),
             ("christoffel-dual-path", rows, ~np.isfinite(duals)),
             ("metric-compatibility", rows, ~np.isfinite(compats)),
             ("theorem1-parallel", rows, unbounded & ~converse),
             ("theorem1-converse", rows, unbounded & converse)]
    # The points where q is parallel take the curvature checks, which need q parallel
    # around the point, not only at it; their records sort among the classify records.
    near = rows[zero].tolist()
    curved = [(start + n, block[n], top) for n, top in zip(near, gamma_maxes[zero].tolist())]
    if not parallel:
        for n in near:
            by_point[n] += _skipped_curvature(start + n, block[n],
                                              "q is not parallel near the point")
        curved = []
    for s in range(0, len(curved), VERIFY_BLOCK):
        sub = curved[s:s + VERIFY_BLOCK]
        at = [idx - start for idx, _, _ in sub]
        records, suite_found = _curvature_suite(config, f, vectors, seeds, sub, metric.take(at))
        for r in records:
            by_point[r["point_index"] - start].append(r)
        found += [(check, [at[k] for k in ks], not_finite) for check, ks, not_finite in suite_found]
    _check_finite(block, found)

    columns = zip(rows.tolist(), *(v.tolist() for v in (inverses, duals, compats, defects, nqs,
                                                        zero, converse)))
    for n, inverse, dual, compat, defect, nq, is_zero, is_converse in columns:
        idx, p = start + n, block[n]
        if is_zero:
            theorem1 = _record("theorem1-parallel", idx, p, "pass" if nq <= t_zero else "fail",
                               defect=defect, nabla_q=nq, tolerance=t_zero)
        elif is_converse:
            theorem1 = _record("theorem1-converse", idx, p, "pass" if nq > t_nonzero else "fail",
                               defect=defect, nabla_q=nq, tolerance=t_nonzero)
        else:
            theorem1 = _record("theorem1-parallel", idx, p, "skipped",
                               reason="defect neither zero nor large", defect=defect, nabla_q=nq)
        by_point[n] += [_bounded("christoffel-dual-path", idx, p, dual, t_dual),
                        _bounded("metric-compatibility", idx, p, compat, t_compat),
                        _bounded("metric-inverse", idx, p, inverse, t_inverse), theorem1]
    for n in near:
        by_point[n].sort(key=lambda r: r["check"])
    return [r for records in by_point for r in records]


def _skipped_curvature(idx, p, why: PointSkipped | str) -> list[dict]:
    skip = {"reason": why} if isinstance(why, str) else {
        "reason": type(why).__name__, "detail": str(why)}
    return [_record(check, idx, p, "skipped", **skip)
            for check in ("identity-3.1", "identity-3.2", "identity-3.6", "theorem3-spread")]


def _curvature_suite(config, f, vectors, seeds, curved: list,
                     metric: MetricAtPoint) -> tuple[list[dict], list]:
    """The curvature records of the points (index, point, max |Gamma|) that take the
    suite, whose rows of the block's metric record are metric: one tensor block, and
    the checks of every point against the run's four (N_VECTORS, 3) stacks of vectors
    and its (m, 3) stack of orbit seeds, contracted over the block at once.  With them,
    _check_finite's (check, rows, not_finite) triples, rows indexing curved: a maximum
    taken from 0.0, as Python's max takes it, passes over NaN, and is not finite only
    where an entry is inf."""
    indices, points, gamma_max = zip(*curved)
    curv = curvature_at(f, metric)
    rows = list(range(len(points)))
    records = []
    if curv.skips:  # p is not degenerate, but a point of its stencil is
        for n, why in curv.skips.items():
            records += _skipped_curvature(indices[n], points[n], why)
        rows = [n for n in rows if n not in curv.skips]
        if not rows:
            return records, []
        curv = curv.take(rows)

    rel = config.tol("identity_rel")
    resid32, scale32 = identity_32_residual(curv)
    with np.errstate(over="ignore"):  # the Python float product it was
        tol32 = rel * scale32
    r31, r36 = identity_residuals(curv, *vectors)
    scale = np.maximum(residual_scales(curv, *vectors), 1e-300)
    ratios31, ratios36 = r31 / scale, r36 / scale
    definite = np.flatnonzero(curv.metric.definite).tolist()
    _, spread, passed, _ = orbit_spreads(
        curv.take(definite), seeds, config.tol("spread_rel"), config.tol("spread_abs"))
    spreads = dict(zip(definite, zip(spread.tolist(), passed.tolist())))
    found = [("identity-3.2", rows, ~(np.isfinite(resid32) & np.isfinite(tol32))),
             ("identity-3.1", rows, (ratios31 == np.inf).any(axis=-1)),
             ("identity-3.6", rows, (ratios36 == np.inf).any(axis=-1)),
             ("theorem3-spread", [rows[k] for k in definite], (spread == np.inf).any(axis=-1))]
    constant = _is_constant(f)
    if constant:
        found.append(("flat-baseline", rows, ~(np.isfinite(np.array(gamma_max)[rows])
                                               & np.isfinite(curv.max_abs))))
    columns = zip(rows, resid32.tolist(), tol32.tolist(), ratios31.tolist(), ratios36.tolist())
    for k, (n, r32, t32, ratio31, ratio36) in enumerate(columns):
        idx, p = indices[n], points[n]
        # Python max from 0.0 keeps the first of equal values, as a running max does.
        records += [
            _bounded("identity-3.2", idx, p, r32, t32),
            _bounded("identity-3.1", idx, p, max([0.0, *ratio31]), rel),
            _bounded("identity-3.6", idx, p, max([0.0, *ratio36]), rel),
        ]
        if k in spreads:
            spread, passed = spreads[k]
            records.append(_record("theorem3-spread", idx, p, "pass" if all(passed) else "fail",
                                   worst_spread=max([0.0, *spread]), seeds=len(seeds)))
        else:
            records.append(_record("theorem3-spread", idx, p, "skipped", reason="IndefiniteMetric"))
        if constant:
            # Constant fields have defect 0 and the metric of p at every stencil point.
            # Their partial tables are empty, so t, Gamma, dGamma and R are exact zeros:
            # flat means 0.0, with no tolerance.
            gamma, curv_max = gamma_max[n], float(curv.max_abs[k])
            records.append(_record("flat-baseline", idx, p,
                                   "pass" if gamma == curv_max == 0.0 else "fail",
                                   gamma_max=gamma, curvature_max=curv_max))
    return records, found


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
    _check_finite(block, [("scan", range(len(block)), np.isinf(mu))])
    rows = []
    columns = zip(block, *(c.tolist() for c in (m.a, m.b, m.d, m.degenerate, m.definite, mu)))
    for i, (p, a, b, d, degenerate, definite, mu_e1) in enumerate(columns):
        rows.append(_record("scan", start + i, p, "skipped" if degenerate else "pass", a=a, b=b,
                            d=d, definite=definite, mu_e1=None if math.isnan(mu_e1) else mu_e1))
        if degenerate:
            rows[-1]["reason"] = "DegenerateMetric"
    return rows


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
