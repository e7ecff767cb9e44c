"""Run the circgeo CLI in-process with the public functions of every layer wrapped.

Usage (PYTHONPATH must reach the ``circgeo`` sources):

    python perfbench/trace_child.py STATS.json [--coverage] -- <circgeo CLI arguments>

Each target in ``TARGETS`` is replaced by a wrapper that counts calls and
accumulates self time (its own duration minus that of wrapped callees).
``cli``, ``connection``, ``curvature`` and ``sampling`` bind names with
``from ... import``, so a function is replaced at every module attribute
that holds it, not only in its defining module; methods are replaced on
their class.  ``--coverage`` also counts executions of each original code
object with a profile hook, which sees calls through any binding; the
self-test compares those counts with the wrappers' counts.

STATS.json receives ``{"exit_code", "main_s", "stats": {name: [calls,
self_s]}, "coverage": {name: calls}}`` and the process exits with the
CLI's exit code.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

# Layer (module) -> wrapped public functions and methods.
TARGETS = {
    "fields": (
        "Polynomial.__call__",
        "Polynomial.partial",
        "Polynomial.gradient",
        "parse_field_spec",
        "field_eval",
        "field_grad",
        "domain_check",
        "metric_at",
        "MetricAtPoint.inner",
    ),
    "connection": (
        "metric_partials",
        "christoffel_general",
        "christoffel_closed",
        "parallel_defect",
        "nabla_q",
        "metric_compatibility_residual",
    ),
    "curvature": (
        "curvature_at",
        "CurvatureAtPoint.scalar",
        "theorem3_check",
        "sections_of",
        "sectional_curvature",
        "gram_determinant",
        "residual_scale",
        "independence_cubic",
        "circ_apply_q2",
    ),
    "circulant": ("CirculantMatrix.dense", "circ_mul"),
    "sampling": ("random_point", "random_vector"),
    "cli": (
        "main",
        "cmd_verify",
        "cmd_scan",
        "expand_grid",
        "resolve_points",
        "render_json",
        "render_csv",
    ),
}


def _wrap(fn, stat: list, stack: list):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stack.append(0.0)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - t0
            stat[0] += 1
            stat[1] += elapsed - stack.pop()
            stack[-1] += elapsed

    return wrapper


def install(modules: dict) -> tuple[dict, dict]:
    """Wrap every target; returns (stats, originals) keyed ``module.name``.

    A target the program no longer defines keeps zero calls and self time
    and has no entry in originals.
    """
    stats, originals = {}, {}
    stack = [0.0]
    for layer, names in TARGETS.items():
        module = modules[layer]
        for name in names:
            key = f"{layer}.{name}"
            stats[key] = [0, 0.0]
            owner_name, _, attr = name.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                print(f"trace: {key} not found, reported as never called", file=sys.stderr)
                continue
            originals[key] = original
            wrapper = _wrap(original, stats[key], stack)
            if owner_name:
                setattr(owner, attr, wrapper)
                continue
            for mod in modules.values():
                for bound, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, bound, wrapper)
    return stats, originals


def main(argv: list[str]) -> int:
    stats_path, rest = argv[0], argv[1:]
    coverage = rest[:1] == ["--coverage"]
    cli_args = rest[rest.index("--") + 1 :]

    import circgeo
    from circgeo import circulant, cli, connection, curvature, fields, sampling

    modules = {
        "fields": fields,
        "connection": connection,
        "curvature": curvature,
        "circulant": circulant,
        "sampling": sampling,
        "cli": cli,
        "circgeo": circgeo,
    }
    stats, originals = install(modules)

    code_calls: Counter = Counter()
    if coverage:
        watched = {fn.__code__ for fn in originals.values()}

        def hook(frame, event, _arg):
            if event == "call" and frame.f_code in watched:
                code_calls[frame.f_code] += 1

        sys.setprofile(hook)
    t0 = time.perf_counter()
    try:
        exit_code = cli.main(cli_args)
    finally:
        main_s = time.perf_counter() - t0
        sys.setprofile(None)
    result = {
        "exit_code": exit_code,
        "main_s": main_s,
        "stats": stats,
        "coverage": {k: code_calls[fn.__code__] for k, fn in originals.items()} if coverage else None,
    }
    with open(stats_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return exit_code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
