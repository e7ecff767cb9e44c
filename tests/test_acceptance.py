"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
summary lines.
"""

import json
from pathlib import Path
from unittest.mock import patch

import numpy as np

from circgeo import curvature
from circgeo.circulant import IDENTITY, Q, Q_DENSE, CirculantMatrix, circ_mul
from circgeo.cli import main
from circgeo.connection import christoffel_closed, christoffel_general, nabla_q, parallel_defect
from circgeo.curvature import (
    curvature_at,
    identity_residuals,
    independence_cubic,
    theorem3_check,
)
from circgeo.fields import domain_check, field_jet, metric_at, parse_field_spec
from circgeo.sampling import random_point, random_vector
from pairs import random_defective_pair, random_definite_point, random_field_pair

ERRATA = Path(__file__).resolve().parent.parent / "ERRATA.md"


def report(criterion, ok, detail=""):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, detail


def test_criterion_1_dual_path_christoffel(paper_fields):
    rng = np.random.default_rng(1)
    pairs = [paper_fields] + [random_field_pair(rng) for _ in range(20)]
    worst = 0.0
    for f in pairs:
        for _ in range(100):
            p = random_point(rng, f)
            jet = field_jet(f, p)
            diff = christoffel_closed(jet) - christoffel_general(jet)
            worst = max(worst, float(np.max(np.abs(diff))))
    errata_ok = ERRATA.exists() and all(
        name in ERRATA.read_text() for name in ("Gamma^1_22", "Gamma^3_12", "Gamma^3_22")
    )
    report(
        1,
        worst <= 1e-9 and errata_ok,
        f"max dual-path deviation {worst:.3e}, errata document {'ok' if errata_ok else 'missing'}",
    )


def test_criterion_2_theorem1_forward(paper_fields):
    rng = np.random.default_rng(2)
    exact = all(
        np.array_equal(parallel_defect(field_jet(paper_fields, rng.uniform(-5, 5, 3))), np.zeros(3))
        for _ in range(100)
    )
    jets = (field_jet(paper_fields, random_point(rng, paper_fields)) for _ in range(100))
    gammas = map(christoffel_general, jets)
    worst = max(float(np.max(np.abs(nabla_q(gamma)))) for gamma in gammas)
    report(2, exact and worst <= 1e-10, f"defect exact: {exact}, max |nabla q| {worst:.3e}")


def test_criterion_3_theorem1_converse():
    rng = np.random.default_rng(3)
    ok = True
    smallest = np.inf
    for _ in range(10):
        f = random_defective_pair(rng, min_defect=0.1)
        p = random_point(rng, f)
        jet = field_jet(f, p)
        assert float(np.max(np.abs(parallel_defect(jet)))) >= 0.1
        nq = float(np.max(np.abs(nabla_q(christoffel_general(jet)))))
        smallest = min(smallest, nq)
        ok = ok and nq > 1e-6
    report(3, ok, f"smallest |nabla q| over defective pairs {smallest:.3e}")


def test_criterion_4_flat_baseline():
    f = parse_field_spec("A: 2; B: 1")
    rng = np.random.default_rng(4)
    gamma_max = curv_max = 0.0
    for _ in range(10):
        p = rng.uniform(-2, 2, 3)
        gamma_max = max(gamma_max, float(np.max(np.abs(christoffel_general(field_jet(f, p))))))
        curv_max = max(curv_max, float(np.max(np.abs(curvature_at(f, domain_check(f, p[None])).r_up))))
    report(
        4,
        gamma_max == curv_max == 0.0,
        f"max |Gamma| {gamma_max:.3e}, max |R| {curv_max:.3e}",
    )


def test_criterion_5_theorem2_identities(paper_fields):
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(50):
        p = random_point(rng, paper_fields)
        curv = curvature_at(paper_fields, domain_check(paper_fields, p[None]))
        r_up = curv.r_up[..., 0]
        r_up_scale = max(float(np.max(np.abs(r_up))), 1e-300)
        lhs = np.einsum("skja,ia->skji", r_up, Q_DENSE)
        rhs = np.einsum("akji,as->skji", r_up, Q_DENSE)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))) / r_up_scale)
        # 3.1 and 3.6 for every quadruple of vectors: the norms of their difference tensors.
        worst = max(worst, *(float(r[0]) for r in identity_residuals(curv)))
    report(5, worst <= 1e-7, f"worst scaled identity residual {worst:.3e}")


def test_criterion_6_theorem3_spreads(paper_fields):
    rng = np.random.default_rng(6)
    ok = True
    worst = 0.0
    for _ in range(10):
        p = random_definite_point(rng, paper_fields)
        done = 0
        while done < 100:
            x = random_vector(rng)
            if abs(independence_cubic(x)) <= 0.1 * float(np.linalg.norm(x)) ** 3:
                continue
            (mu,), (spread,), _, skips, _ = theorem3_check(
                paper_fields, domain_check(paper_fields, [p]), x, 1e-6, 1e-9)
            ok = ok and not skips
            tol = 1e-6 * max(abs(m) for m in mu) + 1e-9
            worst = max(worst, spread / tol)
            ok = ok and spread <= tol
            done += 1
    report(6, ok, f"worst spread/tolerance ratio {worst:.3e}")


def test_criterion_7_structural_identities(paper_fields):
    rng = np.random.default_rng(7)
    q3 = circ_mul(circ_mul(Q, Q), Q)
    ok_q = q3 == IDENTITY

    ok_iso = True
    ok_delta = True
    for _ in range(100):
        p = random_point(rng, paper_fields)
        m = metric_at(paper_fields, p)
        prod = m.g.dense() @ m.g_inv.dense()
        ok_delta = ok_delta and float(np.max(np.abs(prod - np.eye(3)))) <= 1e-12
        x, y = random_vector(rng), random_vector(rng)
        g1 = m.inner(x, y)
        g2 = m.inner(Q_DENSE @ x, Q_DENSE @ y)
        scale = float(np.abs(x) @ np.abs(m.g.dense()) @ np.abs(y))
        ok_iso = ok_iso and abs(g1 - g2) <= 4 * np.spacing(scale)

    ok_mul = True
    for _ in range(1000):
        m1 = CirculantMatrix(*rng.uniform(-3, 3, 3))
        m2 = CirculantMatrix(*rng.uniform(-3, 3, 3))
        ab, ba = circ_mul(m1, m2), circ_mul(m2, m1)
        ok_mul = ok_mul and isinstance(ab, CirculantMatrix)
        mags = sum(abs(u * v) for u in m1.triple() for v in m2.triple()) + 1.0
        for s, t in zip(ab.triple(), ba.triple()):
            ok_mul = ok_mul and abs(s - t) <= 4 * np.spacing(mags)
    report(
        7,
        ok_q and ok_iso and ok_delta and ok_mul,
        f"q^3=E {ok_q}, isometry {ok_iso}, inverse-delta {ok_delta}, commutativity {ok_mul}",
    )


def test_criterion_8_fd_convergence(paper_fields):
    with patch.object(curvature, "FD_STEP", 1e-5):
        c1 = curvature_at(paper_fields, domain_check(paper_fields, [(1, 0, 0)]))
    with patch.object(curvature, "FD_STEP", 5e-6):
        c2 = curvature_at(paper_fields, domain_check(paper_fields, [(1, 0, 0)]))
    diff = float(np.max(np.abs(c1.r_down - c2.r_down)))
    report(8, diff <= 1e-6, f"half-step curvature change {diff:.3e}")


def test_criterion_9_cli_determinism(tmp_path):
    argv = ["verify", "--fields", "paper-example", "--seed", "99"]
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    code1 = main(argv + ["--out", str(out1)])
    code2 = main(argv + ["--out", str(out2)])
    identical = out1.read_bytes() == out2.read_bytes()

    fail_code = main(
        ["verify", "--fields", "paper-example", "--point", "1,0,0",
         "--tol", "metric_compat=1e-300", "--out", str(tmp_path / "fail.json")]
    )
    err_code = main(["scan", "--fields", "paper-example"])
    report_data = json.loads(out1.read_text())
    contract = (
        code1 == 0
        and code2 == 0
        and fail_code == 1
        and err_code == 2
        and report_data["summary"]["fail_count"] == 0
    )
    report(
        9,
        identical and contract,
        f"byte-identical {identical}, exit codes (0,1,2)=({code1},{fail_code},{err_code})",
    )
