"""Field pairs and points for the tests: two fixed pairs as spec text, seeded
random pairs (generic, defective and parallel), definite points, and points
moved near a plane A = c B.

The CLI builds its fields from spec text only and samples points with |D|
bounded away from 0 but no definiteness asked, so these generators live with
the tests that use them.
"""

from __future__ import annotations

import numpy as np

from circgeo.circulant import S
from circgeo.fields import FieldPair, Polynomial, domain_check, field_eval, field_grad
from circgeo.sampling import HIGH, LOW, MIN_ABS_D

#: A quadratic parallel pair, definite everywhere (the scan-quadratic benchmark's).
QUADRATIC_PAIR = "A: x1^2 + x2^2 + x3^2 + 4/3; B: x1*x2 + x1*x3 + x2*x3 + 1/3"
#: The dense cubic pair of the verify-generic benchmark.
CUBIC_PAIR = (
    "A: 6 + x1^2 + x2^2 + x3^2 + 0.3*x1*x2*x3 + 0.2*x1^3 - 0.1*x2^3 + 0.25*x3^3"
    " + 0.5*x1*x2 - 0.4*x2*x3 + 3*x1 - 0.5*x3;"
    " B: 0.5 + 0.2*x1 - 0.3*x2 + 0.1*x3^2 + 0.15*x1*x2*x3 - 0.05*x1^3"
    " + 0.2*x2^2*x3 + 0.1*x1*x3^2"
)


def random_definite_point(
    rng: np.random.Generator, f: FieldPair, max_tries: int = 10_000
) -> np.ndarray:
    """A point drawn as sampling.random_point draws one, where g is also definite."""
    for _ in range(max_tries):
        p = rng.uniform(LOW, HIGH, size=3)
        status = domain_check(f, p)
        if abs(status.d) < MIN_ABS_D or not status.definite:
            continue
        return p
    raise RuntimeError("could not sample a definite point")

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


def near_plane(f, p, c, offset):
    """p moved by Newton steps onto the plane A = c B, then by offset along the
    gradient of A - c B: within about |offset| of the plane where the steps converge."""
    with np.errstate(all="ignore"):
        try:
            for _ in range(8):
                (a, b), (grad_a, grad_b) = field_eval(f, p), field_grad(f, p)
                grad = grad_a - c * grad_b
                norm = float(np.linalg.norm(grad))
                if not 0.0 < norm < np.inf:
                    return p
                step = p - (a - c * b) / norm**2 * grad
                if not np.isfinite(step).all():
                    return p
                p = step
        except OverflowError:  # a power past the float range, in the fields or norm**2
            return p
        moved = p + offset / norm * grad
    return moved if np.isfinite(moved).all() else p
