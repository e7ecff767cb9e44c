"""The block sampler draws the points, the stream and the errors of drawing one at a time."""

import types

import numpy as np
import pytest

import circgeo.sampling
from circgeo.cli import main
from circgeo.fields import parse_field_spec
from circgeo.sampling import HIGH, LOW, MIN_ABS_D, random_point, random_points
from pairs import CUBIC_PAIR

#: |D| < 0.1 unless |x1| > 1.65 or so: about 5 draws in 6 are refused.
MOSTLY_REFUSED = "A: 1 + 0.02*x1; B: 1"
#: D overflows where |x1| or |x2| is within about 0.007 of 2, to inf or -inf by which
#: of them does: about one draw in 150 (coefficients 1.5e94).
OVERFLOWING = "A: 15{0}*x1^200; B: 15{0}*x2^201".format("0" * 93)


def one_at_a_time(rng, f, n):
    """The points as they were sampled one draw at a time, each checked alone."""
    points = []
    for _ in range(n):
        for _ in range(10_000):
            p = rng.uniform(LOW, HIGH, size=3)
            if abs(circgeo.sampling.domain_check(f, p).d) >= MIN_ABS_D:
                points.append(p.tolist())
                break
        else:
            raise RuntimeError("could not sample an admissible point")
    return points


def outcome(sample, seed, f, n):
    """The points' hexes or the error, and the stream's state after them."""
    rng = np.random.default_rng(seed)
    try:
        got = [[c.hex() for c in p] for p in sample(rng, f, n)]
    except (RuntimeError, OverflowError) as exc:
        got = (type(exc), str(exc))
    return got, rng.bit_generator.state


@pytest.mark.parametrize("spec, n", [
    ("paper-example", 0), ("paper-example", 1), ("paper-example", 5000),
    (CUBIC_PAIR, 4096), (MOSTLY_REFUSED, 300),
])
def test_block_sampler_draws_one_at_a_time(spec, n):
    f = parse_field_spec(spec)
    for seed in range(3):
        got = outcome(random_points, seed, f, n)
        assert got == outcome(one_at_a_time, seed, f, n)
        assert len(got[0]) == n
        assert all(type(c) is float and LOW <= c < HIGH for p in random_points(
            np.random.default_rng(seed), f, n) for c in p)


def test_random_point_is_one_row():
    f = parse_field_spec(MOSTLY_REFUSED)
    rng, one = np.random.default_rng(4), np.random.default_rng(4)
    for _ in range(20):
        p = random_point(rng, f)
        assert type(p) is np.ndarray and p.tolist() == one_at_a_time(one, f, 1)[0]
    assert rng.bit_generator.state == one.bit_generator.state


def test_budget_runs_out_where_one_at_a_time_does(monkeypatch):
    # About one draw in 5,000 is admissible, so a point runs out of its 10,000 draws
    # about once in 7, most often after others were accepted in earlier batches.
    monkeypatch.setattr(circgeo.sampling, "domain_check", lambda f, p: types.SimpleNamespace(
        d=np.where(np.asarray(p)[..., 0] > 1.9992, 1.0, 0.0)))
    ran_out = 0
    for seed in range(5):
        got = outcome(random_points, seed, None, 5)
        assert got == outcome(one_at_a_time, seed, None, 5)
        ran_out += got[0] == (RuntimeError, "could not sample an admissible point")
    assert ran_out


def test_overflow_names_the_first_draw_one_at_a_time_meets():
    # The stream is not compared: a batch is drawn whole before it is checked.
    f = parse_field_spec(OVERFLOWING)
    messages = set()
    for seed in range(8):
        got, _ = outcome(random_points, seed, f, 2000)
        assert got == outcome(one_at_a_time, seed, f, 2000)[0]
        messages.add(got[1])
    assert messages == {"D = (A - B)(A + 2B) = inf", "D = (A - B)(A + 2B) = -inf"}


@pytest.mark.parametrize("spec, seed, message", [
    ("A: 1; B: 1", 0, "could not sample an admissible point"),
    (OVERFLOWING, 5, "D = (A - B)(A + 2B) = inf"),
    (OVERFLOWING, 12, "D = (A - B)(A + 2B) = -inf"),
])
def test_sampling_errors_exit_2(capsys, spec, seed, message):
    code = main(["verify", "--fields", spec, "--seed", str(seed)])
    assert code == 2
    assert capsys.readouterr().err == (
        f"circgeo: error: could not sample admissible points: {message}\n")
