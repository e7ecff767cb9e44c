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

#: Draws a sampled point may take before sampling gives up.
MAX_DRAWS = 10_000


def random_points(rng: np.random.Generator, f: FieldPair, n: int) -> list[list[float]]:
    """n uniform points with |D| at least MIN_ABS_D, each within MAX_DRAWS draws, as lists
    of Python floats: the points, the stream and the error of drawing one at a time (a D
    that is not finite raises as it did, but after its whole batch was drawn).

    The draws come as many at a time as points are missing, but no more than the next
    point's draws left, and are checked by one domain_check a batch.  Each missing point
    takes at least one draw, so a one-at-a-time sampler reads every draw of a batch,
    accepting them in order; only the next point can run out, at the batch's last draw."""
    points = []
    tries = 0  # the draws the next point has taken
    while len(points) < n:
        draws = rng.uniform(LOW, HIGH, size=(min(n - len(points), MAX_DRAWS - tries), 3))
        accepted = np.flatnonzero(np.abs(domain_check(f, draws).d) >= MIN_ABS_D)
        points += draws[accepted].tolist()
        tries = len(draws) - 1 - int(accepted[-1]) if len(accepted) else tries + len(draws)
        if tries == MAX_DRAWS:
            raise RuntimeError("could not sample an admissible point")
    return points


def random_point(rng: np.random.Generator, f: FieldPair) -> np.ndarray:
    """One point of random_points, as an array."""
    return np.array(random_points(rng, f, 1)[0])


def random_vector(rng: np.random.Generator) -> np.ndarray:
    return rng.uniform(LOW, HIGH, size=3)
