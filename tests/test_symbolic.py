"""Symbolic oracle for the metric circ(A, B, B) and its Christoffel symbols.

sympy derives g^-1 and Gamma with A, B and their first partials A_k, B_k as
symbols, re-derives the three ERRATA.md lines, and gives the exact values
that christoffel_general, christoffel_closed and the metric record must
reproduce at rational points.  It also proves Theorem 1 for all fields at
once: nabla q = 0 exactly where grad A = grad B . S.  The module is skipped
only where sympy is not installed; CI installs it.
"""

from pathlib import Path

import numpy as np
import pytest

sp = pytest.importorskip("sympy")

from circgeo.circulant import Q_DENSE, S  # noqa: E402
from circgeo.connection import christoffel_closed, christoffel_general  # noqa: E402
from circgeo.fields import domain_check, field_jet, parse_field_spec  # noqa: E402
from sympy.parsing.sympy_parser import (  # noqa: E402
    implicit_multiplication,
    parse_expr,
    standard_transformations,
)

ERRATA = Path(__file__).resolve().parent.parent / "ERRATA.md"

A, B = sp.symbols("A B")
DA = sp.symbols("A_1:4")  # A_k = dA/dx_k
DB = sp.symbols("B_1:4")
D = (A - B) * (A + 2 * B)
G = sp.Matrix(3, 3, lambda i, j: A if i == j else B)
G_INV = sp.simplify(G.inv())


def dg(k, i, j):
    """d_k g_ij: A_k on the diagonal, B_k off it."""
    return DA[k] if i == j else DB[k]


#: GAMMA[s][i][j] from 2 Gamma^s_ij = g^{as} (d_i g_aj + d_j g_ai - d_a g_ij).
GAMMA = [
    [
        [
            sp.together(
                sum(G_INV[a, s] * (dg(i, a, j) + dg(j, a, i) - dg(a, i, j)) for a in range(3)) / 2
            )
            for j in range(3)
        ]
        for i in range(3)
    ]
    for s in range(3)
]


def test_theorem1_nabla_q_vanishes_exactly_where_grad_a_is_grad_b_s():
    """Theorem 1, both directions, wherever D != 0.

    nabla_i q_j^s = Gamma^s_ia q_j^a - Gamma^a_ij q_a^s is linear in the six
    gradient entries: nabla q = M (A_1, A_2, A_3, B_1, B_2, B_3) with M a
    27 x 6 matrix over Q(A, B).  The three gradients with grad A = grad B . S
    (the columns of K) satisfy M K = 0, so rank M <= 3.  The minor of M on
    the rows nabla_1 q_1^3, nabla_2 q_2^1, nabla_3 q_3^2 and the columns A_k is
    (A^3 - B^3) / (8 D^3), which is not 0 for real A != B, so rank M = 3 where
    D != 0 and the kernel of M is exactly {grad A = grad B . S}.
    """
    q = sp.Matrix(3, 3, lambda i, j: int(Q_DENSE[i, j]))
    grad = sp.Matrix([*DA, *DB])
    nabla = sp.Matrix([
        sum(GAMMA[s][i][a] * q[j, a] - GAMMA[a][i][j] * q[a, s] for a in range(3))
        for i in range(3) for j in range(3) for s in range(3)
    ])  # row 9 i + 3 j + s
    m = nabla.jacobian(grad)
    assert sp.simplify(nabla - m * grad) == sp.zeros(27, 1)
    assert all(sp.diff(entry, x) == 0 for entry in m for x in grad)

    kernel = sp.Matrix.vstack(sp.Matrix(3, 3, lambda i, j: int(S[j, i])), sp.eye(3))
    assert kernel.rank() == 3
    assert sp.simplify(m * kernel) == sp.zeros(27, 3)
    minor = m.extract([2, 12, 25], [0, 1, 2]).det()
    assert sp.simplify(minor - (A**3 - B**3) / (8 * D**3)) == 0
    # A^2 + AB + B^2 > 0 unless A = B = 0, so A^3 - B^3 = 0 only where A = B.
    assert sp.factor(A**3 - B**3) == (A - B) * (A**2 + A * B + B**2)


def errata_line(text):
    """An ERRATA.md line "(1/2D) (...)" as an expression in A, B, A_k, B_k.

    Juxtaposition is a product, and the malformed product A{1} of the
    published table reads as A times 1, the subscript lost.
    """
    prefix = "(1/2D) "
    assert text.startswith(prefix)
    names = {str(x): x for x in (A, B, *DA, *DB)}
    body = parse_expr(
        text[len(prefix):].replace("{", "*(").replace("}", ")"),
        local_dict=names,
        transformations=standard_transformations + (implicit_multiplication,),
    )
    return body / (2 * D)


# (s, i, j) zero-based, the published line, what ERRATA.md quotes of it, and the
# corrected line.  Of the last two published lines only the malformed product is
# quoted; the rest of each is its corrected line.
ERRATA_LINES = [
    (
        (0, 1, 1),
        "(1/2D) ((A+B)(2B - A_1) - B A_2 - B (2B_2 - A_3))",
        "(1/2D) ((A+B)(2B - A_1) - B A_2 - B (2B_2 - A_3))",
        "(1/2D) ((A+B)(2B_2 - A_1) - B A_2 - B (2B_2 - A_3))",
    ),
    (
        (2, 0, 1),
        "(1/2D) (-B A_2 - B A{1} + (A+B)(B_1 + B_2 - B_3))",
        "B A{1}",
        "(1/2D) (-B A_2 - B A_1 + (A+B)(B_1 + B_2 - B_3))",
    ),
    (
        (2, 1, 1),
        "(1/2D) (-B (2B_2 - A_1) - B A{2} + (A+B)(2B_2 - A_3))",
        "B A{2}",
        "(1/2D) (-B (2B_2 - A_1) - B A_2 + (A+B)(2B_2 - A_3))",
    ),
]


def test_inverse_metric_closed_form():
    expected = sp.Matrix(3, 3, lambda i, j: A + B if i == j else -B) / D
    assert sp.simplify(G_INV - expected) == sp.zeros(3, 3)


@pytest.mark.parametrize("index, published, quoted, corrected", ERRATA_LINES)
def test_errata_lines_rederived(index, published, quoted, corrected):
    text = ERRATA.read_text()
    assert f"`{quoted}`" in text and f"`{corrected}`" in text
    s, i, j = index
    assert sp.simplify(errata_line(published) - GAMMA[s][i][j]) != 0
    assert sp.simplify(errata_line(corrected) - GAMMA[s][i][j]) == 0


X = sp.symbols("x1:4")
QUADRATIC = "A: x1^2 + x2^2 + x3^2 + 4/3; B: x1*x2 + x1*x3 + x2*x3 + 1/3"
CUBIC = "A: 6 + x1^3 - 2*x1*x2*x3 + x2^2 + 3/4*x3^3; B: 1/2 + x1^2*x2 - 1/5*x3^3 + x2"
# Name -> (circgeo field spec, the same pair as text for sympy).
FIELDS = {
    "paper-example": ("paper-example", "A: 4*x1 + 2*x2; B: x1 + 2*x2 + 3*x3"),
    "quadratic": (QUADRATIC, QUADRATIC),
    "cubic": (CUBIC, CUBIC),
}
# Dyadic rationals, so that the float point is the rational point exactly.
POINTS = [
    (sp.Rational(3, 2), sp.Rational(5, 4), sp.Rational(-3, 8)),
    (sp.Rational(-1, 2), sp.Rational(1, 16), sp.Rational(7, 4)),
    (sp.Integer(1), sp.Integer(0), sp.Integer(0)),
]


def exact_jet(text, point):
    """{A, B, A_k, B_k: exact value} at point of the pair "A: ...; B: ..."."""
    fields = {}
    for part in text.split(";"):
        name, _, body = part.partition(":")
        fields[name.strip()] = parse_expr(body.replace("^", "**"), {str(x): x for x in X})
    at = dict(zip(X, point))
    values = {}
    for symbol, derivs, field in ((A, DA, fields["A"]), (B, DB, fields["B"])):
        values[symbol] = field.subs(at)
        values.update({dk: sp.diff(field, x).subs(at) for dk, x in zip(derivs, X)})
    return values


def close(numeric, exact):
    exact = np.array(exact, dtype=float)
    return float(np.max(np.abs(numeric - exact))) <= 1e-12 * float(np.max(np.abs(exact)))


@pytest.mark.parametrize("name", FIELDS)
@pytest.mark.parametrize("point", POINTS, ids=["p0", "p1", "p2"])
def test_numeric_paths_match_exact_values(name, point):
    spec, text = FIELDS[name]
    values = exact_jet(text, point)
    assert D.subs(values) != 0
    f = parse_field_spec(spec)
    p = [float(c) for c in point]

    g_inv = domain_check(f, p).g_inv
    assert close(g_inv.dense(), G_INV.subs(values).tolist())

    gamma = [[[GAMMA[s][i][j].subs(values) for j in range(3)] for i in range(3)] for s in range(3)]
    jet = field_jet(f, p)
    assert close(christoffel_general(jet), gamma)
    assert close(christoffel_closed(jet), gamma)
