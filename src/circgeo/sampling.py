"""Seeded random points and vectors for the CLI's sampled runs and the test suites.

Everything is driven by an explicit numpy Generator so runs are reproducible.
Random field pairs for the tests are in tests/pairs.py.
"""

from __future__ import annotations

import numpy as np

from .fields import FieldPair, domain_check

#: Sampled points and vectors are uniform on [-2, 2)^3; sampled points keep |D| >= 0.1.
LOW, HIGH = -2.0, 2.0
MIN_ABS_D = 0.1


def random_point(rng: np.random.Generator, f: FieldPair) -> np.ndarray:
    """Uniform point with |D| at least MIN_ABS_D, within 10,000 draws."""
    for _ in range(10_000):
        p = rng.uniform(LOW, HIGH, size=3)
        if abs(domain_check(f, p).d) < MIN_ABS_D:
            continue
        return p
    raise RuntimeError("could not sample an admissible point")


def random_vector(rng: np.random.Generator) -> np.ndarray:
    return rng.uniform(LOW, HIGH, size=3)
