"""Exact algebra of 3x3 real circulant matrices.

A circulant triple (a, b, c) stands for the row-cyclic matrix

    [[a, b, c],
     [c, a, b],
     [b, c, a]]

The set of invertible matrices of this shape is a commutative group under
matrix multiplication, which is what makes the triple representation closed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularMatrix


@dataclass(frozen=True)
class CirculantMatrix:
    """One 3x3 real circulant matrix stored as its three defining scalars."""

    a: float
    b: float
    c: float

    def dense(self) -> np.ndarray:
        """Expand to the full 3x3 array."""
        a, b, c = self.a, self.b, self.c
        return np.array([[a, b, c], [c, a, b], [b, c, a]], dtype=float)

    def triple(self) -> tuple[float, float, float]:
        return (self.a, self.b, self.c)


#: Multiplicative identity.
IDENTITY = CirculantMatrix(1.0, 0.0, 0.0)

#: The cyclic-shift affine structure: q maps (x1, x2, x3) to (x2, x3, x1).
Q = CirculantMatrix(0.0, 1.0, 0.0)

#: The symmetric constant matrix with -1 diagonal and +1 off-diagonal,
#: relating grad A and grad B in the parallelism criterion.
S = np.array([[-1.0, 1.0, 1.0], [1.0, -1.0, 1.0], [1.0, 1.0, -1.0]])

Q_DENSE = Q.dense()


def circ_mul(m1: CirculantMatrix, m2: CirculantMatrix) -> CirculantMatrix:
    """Product of two circulant matrices, again circulant (and commutative)."""
    a1, b1, c1 = m1.triple()
    a2, b2, c2 = m2.triple()
    return CirculantMatrix(
        a1 * a2 + b1 * c2 + c1 * b2,
        a1 * b2 + b1 * a2 + c1 * c2,
        a1 * c2 + b1 * b2 + c1 * a2,
    )


def circ_det(m: CirculantMatrix) -> float:
    """Determinant a^3 + b^3 + c^3 - 3abc of the expanded matrix."""
    a, b, c = m.triple()
    return a**3 + b**3 + c**3 - 3.0 * a * b * c


def circ_inverse(m: CirculantMatrix) -> CirculantMatrix:
    """Inverse circulant matrix via the adjugate.

    Raises SingularMatrix when the determinant is below the scale-aware
    epsilon.  For the metric shape (A, B, B) this reduces to
    (1/D) * (A+B, -B, -B) with D = (A-B)(A+2B).
    """
    a, b, c = m.triple()
    det = circ_det(m)
    # Scale-aware threshold below which the determinant counts as zero.
    if abs(det) < 1e-12 * (1.0 + max(abs(a), abs(b), abs(c)) ** 3):
        raise SingularMatrix(f"circulant {m.triple()} has determinant {det}")
    return CirculantMatrix(
        (a * a - b * c) / det,
        (c * c - a * b) / det,
        (b * b - a * c) / det,
    )


def circ_apply(m: CirculantMatrix, v) -> np.ndarray:
    """Matrix-vector action of the expanded matrix on a 3-vector."""
    return m.dense() @ np.asarray(v, dtype=float)
