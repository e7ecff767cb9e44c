"""Correctness gate for one CLI invocation of a benchmark workload.

An invocation passes when:

* it exits with code 0 and its report says ``summary.fail_count == 0``;
* its record count and per-(check, status) counts equal the reference
  stored in ``reference.json`` for the workload and size (the counts do not
  depend on the seed: the seed only moves random vectors, random points
  inside a region where every point takes the same branch, or the scan grid
  inside a region where the metric is definite everywhere);
* on the scan workload, the ``a``, ``b``, ``d`` and ``mu_e1`` values of a
  fixed subset of rows agree within 1e-6 relative with an independent
  computation (closed-form fields and curvature from exact second
  derivatives, see ``quadratic_reference``);
* its report is byte-identical to the first report of the same run.

Residual fields are never compared with a reference: a more exact
curvature legitimately shrinks them.
"""

from __future__ import annotations

import json
import os
from collections import Counter

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
SCAN_REL_TOL = 1e-6
SCAN_ROWS_CHECKED = 16


def load_reference() -> dict:
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh)


def status_counts(records: list[dict]) -> dict[str, int]:
    """Per-(check, status) record counts keyed as ``check/status``."""
    counts = Counter(f"{r['check']}/{r['status']}" for r in records)
    return dict(sorted(counts.items()))


def check_report(reference: dict, exit_code: int, report_bytes: bytes, scan_grid=None) -> list[str]:
    """Problems found in one invocation's report; empty when it passes.

    ``reference`` is the entry of ``reference.json`` for the workload and
    size.  ``scan_grid`` is ``(lo, hi, steps)`` for the scan workload and
    None otherwise.
    """
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    try:
        report = json.loads(report_bytes)
        records = report["records"]
        fail_count = report["summary"]["fail_count"]
        counts = status_counts(records)
    except (ValueError, KeyError, TypeError) as exc:
        return problems + [f"unreadable report: {exc!r}"]
    if fail_count != 0:
        problems.append(f"summary.fail_count = {fail_count}")
    if len(records) != reference["records"]:
        problems.append(f"{len(records)} records, reference {reference['records']}")
    if counts != reference["counts"]:
        problems.append(f"check/status counts {counts} differ from reference {reference['counts']}")
    if scan_grid is not None:
        problems.extend(check_scan_rows(records, scan_grid))
    return problems


def check_scan_rows(records: list[dict], scan_grid) -> list[str]:
    """Compare a fixed subset of scan rows with ``quadratic_reference``."""
    lo, hi, steps = scan_grid
    axis = np.linspace(lo, hi, steps)
    n = steps**3
    if len(records) != n:
        return [f"scan has {len(records)} rows, grid has {n} nodes"]
    problems = []
    for idx in sorted({i * (n - 1) // (SCAN_ROWS_CHECKED - 1) for i in range(SCAN_ROWS_CHECKED)}):
        row = records[idx]
        node = np.array([axis[idx // steps**2], axis[(idx // steps) % steps], axis[idx % steps]])
        point = row.get("point")
        if (
            row.get("point_index") != idx
            or not isinstance(point, list)
            or len(point) != 3
            or not np.allclose(point, node, rtol=0, atol=1e-12)
        ):
            problems.append(f"row {idx}: point {row.get('point')} is not grid node {node.tolist()}")
            continue
        expected = quadratic_reference(node)
        for key, want in expected.items():
            got = row.get(key)
            # b changes sign inside the grid, so tiny values are compared absolutely.
            if not isinstance(got, (int, float)) or abs(got - want) > SCAN_REL_TOL * max(abs(want), 1e-6):
                problems.append(f"row {idx}: {key} = {got}, reference {want}")
    return problems


# Shift q: (x1, x2, x3) -> (x2, x3, x1); the scan's sectional curvature is
# taken on the section {x, qx} of the CLI's default seed vector x.
Q = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
SEED_X = np.array([1.0, 2.0, 3.0])


def quadratic_reference(p: np.ndarray) -> dict[str, float]:
    """a, b, d and mu_e1 of the scan pair at p, without the program's code.

    A = |x|^2 + 4/3 and B = x1 x2 + x1 x3 + x2 x3 + 1/3, so grad A = 2x,
    grad B = (sum x) 1 - x, Hess A = 2 I and Hess B = 1 1^T - I.  The
    Christoffel derivatives are exact: d_l g^-1 = -g^-1 (d_l g) g^-1.
    """
    eye, ones = np.eye(3), np.ones((3, 3))
    a = float(p @ p) + 4.0 / 3.0
    b = (float(p.sum()) ** 2 - float(p @ p)) / 2.0 + 1.0 / 3.0
    grad_a, grad_b = 2.0 * p, p.sum() - p
    hess_a, hess_b = 2.0 * eye, ones - eye

    g = a * eye + b * (ones - eye)
    g_inv = np.linalg.inv(g)
    dg = grad_a[:, None, None] * eye + grad_b[:, None, None] * (ones - eye)  # [k, i, j]
    ddg = hess_a[:, :, None, None] * eye + hess_b[:, :, None, None] * (ones - eye)  # [l, k, i, j]

    # t[i, j, m] = d_i g_mj + d_j g_mi - d_m g_ij, and its derivative along l.
    t = np.einsum("imj->ijm", dg) + np.einsum("jmi->ijm", dg) - np.einsum("mij->ijm", dg)
    dt = (
        np.einsum("limj->lijm", ddg) + np.einsum("ljmi->lijm", ddg) - np.einsum("lmij->lijm", ddg)
    )
    gamma = 0.5 * np.einsum("sm,ijm->sij", g_inv, t)
    dg_inv = -np.einsum("sa,lab,bm->lsm", g_inv, dg, g_inv)
    dgamma = 0.5 * (np.einsum("lsm,ijm->lsij", dg_inv, t) + np.einsum("sm,lijm->lsij", g_inv, dt))

    # R^s_kji = d_k G^s_ji - d_j G^s_ki + G^s_ka G^a_ji - G^s_ja G^a_ki
    r_up = (
        np.einsum("ksji->skji", dgamma)
        - np.einsum("jski->skji", dgamma)
        + np.einsum("ska,aji->skji", gamma, gamma)
        - np.einsum("sja,aki->skji", gamma, gamma)
    )
    r_down = np.einsum("as,akji->kjis", g, r_up)
    u, v = SEED_X, Q @ SEED_X
    gram = (u @ g @ u) * (v @ g @ v) - (u @ g @ v) ** 2
    mu = float(np.einsum("kjis,k,j,i,s->", r_down, u, v, u, v)) / gram
    return {"a": a, "b": b, "d": (a - b) * (a + 2.0 * b), "mu_e1": mu}
