import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from circgeo.circulant import (
    IDENTITY,
    Q,
    S,
    CirculantMatrix,
    circ_mul,
)

finite = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
circulants = st.builds(CirculantMatrix, finite, finite, finite)


def dense_mul_oracle(m1, m2):
    """Independent oracle: expand to dense, multiply, read back the triple."""
    prod = m1.dense() @ m2.dense()
    return prod[0, 0], prod[0, 1], prod[0, 2]


def test_mul_identity():
    m = CirculantMatrix(1.5, -2.0, 0.25)
    assert circ_mul(m, IDENTITY) == m


def test_q_squared_is_other_shift():
    assert circ_mul(Q, Q) == CirculantMatrix(0.0, 0.0, 1.0)


def test_mul_derived_example():
    # Frozen from the dense oracle: circ(1,2,3) . circ(4,5,6) = circ(31,31,28).
    result = circ_mul(CirculantMatrix(1, 2, 3), CirculantMatrix(4, 5, 6))
    assert result.triple() == (31.0, 31.0, 28.0)
    assert dense_mul_oracle(CirculantMatrix(1, 2, 3), CirculantMatrix(4, 5, 6)) == (31, 31, 28)


@given(circulants, circulants)
def test_mul_matches_dense_oracle(m1, m2):
    got = np.array(circ_mul(m1, m2).triple())
    want = np.array(dense_mul_oracle(m1, m2))
    scale = np.max(np.abs(m1.dense())) * np.max(np.abs(m2.dense())) * 3 + 1.0
    assert np.all(np.abs(got - want) <= 4 * np.spacing(scale))


@given(circulants, circulants)
def test_mul_commutative_within_4ulp(m1, m2):
    ab = circ_mul(m1, m2)
    ba = circ_mul(m2, m1)
    # Same three products per entry, possibly summed in a different order.
    for x, y in zip(ab.triple(), ba.triple()):
        mags = sum(abs(u * v) for u in m1.triple() for v in m2.triple())
        assert abs(x - y) <= 4 * np.spacing(mags + 1.0)


def test_apply_symmetric_vector_fixed():
    assert np.array_equal(Q.dense() @ np.array([1.0, 1.0, 1.0]), [1, 1, 1])


def test_apply_is_cyclic_shift():
    assert np.array_equal(Q.dense() @ np.array([1.0, 2.0, 3.0]), [2, 3, 1])


def test_apply_derived_example():
    # Dense matrix-vector oracle: circ(4,1,1) @ e1 is the first column.
    assert np.array_equal(CirculantMatrix(4, 1, 1).dense() @ [1, 0, 0], [4, 1, 1])


def test_q_cubed_is_identity_and_lower_powers_are_not():
    q2 = circ_mul(Q, Q)
    q3 = circ_mul(q2, Q)
    assert q3 == IDENTITY
    assert Q != IDENTITY
    assert q2 != IDENTITY


def test_structural_matrix_s():
    assert np.array_equal(S, S.T)
    assert np.all(np.diag(S) == -1)
    assert np.all(S[~np.eye(3, dtype=bool)] == 1)


@given(circulants, circulants)
def test_closure(m1, m2):
    assert isinstance(circ_mul(m1, m2), CirculantMatrix)
