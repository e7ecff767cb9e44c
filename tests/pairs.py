"""Seeded random field pairs for the tests: generic, defective and parallel.

The CLI builds its fields from spec text only, so these generators live with
the tests that use them.
"""

from __future__ import annotations

import numpy as np

from circgeo.circulant import S
from circgeo.fields import FieldPair, Polynomial

MONOMIALS_DEG2 = [
    (0, 0, 0),
    (1, 0, 0),
    (0, 1, 0),
    (0, 0, 1),
    (2, 0, 0),
    (0, 2, 0),
    (0, 0, 2),
    (1, 1, 0),
    (1, 0, 1),
    (0, 1, 1),
]


def random_polynomial(rng: np.random.Generator, degree: int = 2) -> Polynomial:
    monos = [m for m in MONOMIALS_DEG2 if sum(m) <= degree]
    coeffs = rng.uniform(-1.0, 1.0, size=len(monos))
    return Polynomial.from_dict(dict(zip(monos, coeffs)))


def random_field_pair(rng: np.random.Generator, degree: int = 2) -> FieldPair:
    """Generic polynomial pair; no structure imposed."""
    return FieldPair(random_polynomial(rng, degree), random_polynomial(rng, degree))


def random_defective_pair(
    rng: np.random.Generator, min_defect: float = 0.1, max_tries: int = 1000
) -> FieldPair:
    """Linear pair whose parallelism defect has max-norm >= min_defect.

    The defect of a linear pair is constant, so the bound holds at every
    point.
    """
    for _ in range(max_tries):
        ca = rng.uniform(-2.0, 2.0, size=3)
        cb = rng.uniform(-2.0, 2.0, size=3)
        if np.max(np.abs(ca - cb @ S)) >= min_defect:
            a = Polynomial.from_dict({(1, 0, 0): ca[0], (0, 1, 0): ca[1], (0, 0, 1): ca[2]})
            b = Polynomial.from_dict({(1, 0, 0): cb[0], (0, 1, 0): cb[1], (0, 0, 1): cb[2]})
            return FieldPair(a, b)
    raise RuntimeError("could not sample a defective pair")


def _dyadic(x: np.ndarray) -> np.ndarray:
    """x rounded to multiples of 2**-20, so that the coefficient sums below are exact."""
    return np.round(x * 2.0**20) / 2.0**20


def random_parallel_pair(rng: np.random.Generator) -> FieldPair:
    """Quadratic pair satisfying grad A = grad B . S identically, coefficient by
    coefficient in floating point.

    B = alpha/2 * sum (x_i)^2 + beta/2 * (sum x_i)^2 + linear part with
    coefficients cb integrates to A = alpha/2 * x.Sx + beta/2 * (sum x_i)^2
    + linear part cb.S, because the Hessian of B commutes with S.
    """
    alpha, beta = _dyadic(rng.uniform(-1.0, 1.0, size=2))
    cb = _dyadic(rng.uniform(-1.0, 1.0, size=3))
    ca = cb @ S

    b_terms: dict[tuple[int, int, int], float] = {
        (2, 0, 0): alpha / 2 + beta / 2,
        (0, 2, 0): alpha / 2 + beta / 2,
        (0, 0, 2): alpha / 2 + beta / 2,
        (1, 1, 0): beta,
        (1, 0, 1): beta,
        (0, 1, 1): beta,
        (1, 0, 0): cb[0],
        (0, 1, 0): cb[1],
        (0, 0, 1): cb[2],
    }
    # x . S x / 2 has -1/2 on squares and +1 on cross terms.
    a_terms: dict[tuple[int, int, int], float] = {
        (2, 0, 0): -alpha / 2 + beta / 2,
        (0, 2, 0): -alpha / 2 + beta / 2,
        (0, 0, 2): -alpha / 2 + beta / 2,
        (1, 1, 0): alpha + beta,
        (1, 0, 1): alpha + beta,
        (0, 1, 1): alpha + beta,
        (1, 0, 0): ca[0],
        (0, 1, 0): ca[1],
        (0, 0, 1): ca[2],
    }
    return FieldPair(Polynomial.from_dict(a_terms), Polynomial.from_dict(b_terms))
