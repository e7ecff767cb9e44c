"""Seeded random generators for points, vectors, and field pairs.

Used by the verification command and the test suites; everything is driven
by an explicit numpy Generator so runs are reproducible.
"""

from __future__ import annotations

import numpy as np

from .circulant import S
from .fields import FieldPair, Polynomial, domain_check

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


#: Sampled points and vectors are uniform on [-2, 2)^3; sampled points keep |D| >= 0.1.
LOW, HIGH = -2.0, 2.0
MIN_ABS_D = 0.1


def random_point(
    rng: np.random.Generator, f: FieldPair, definite: bool = False, max_tries: int = 10_000
) -> np.ndarray:
    """Uniform point with |D| at least MIN_ABS_D (and optionally definite g)."""
    for _ in range(max_tries):
        p = rng.uniform(LOW, HIGH, size=3)
        status = domain_check(f, p)
        if abs(status.d) < MIN_ABS_D:
            continue
        if definite and not status.definite:
            continue
        return p
    raise RuntimeError("could not sample an admissible point")


def random_vector(rng: np.random.Generator) -> np.ndarray:
    return rng.uniform(LOW, HIGH, size=3)


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


def random_parallel_pair(rng: np.random.Generator) -> FieldPair:
    """Quadratic pair satisfying grad A = grad B . S identically.

    B = alpha/2 * sum (x_i)^2 + beta/2 * (sum x_i)^2 + linear part with
    coefficients cb integrates to A = alpha/2 * x.Sx + beta/2 * (sum x_i)^2
    + linear part cb.S, because the Hessian of B commutes with S.
    """
    alpha, beta = rng.uniform(-1.0, 1.0, size=2)
    cb = rng.uniform(-1.0, 1.0, size=3)
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
