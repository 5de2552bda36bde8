"""Exact matrix layer: arithmetic, inversion, embedding, determinant."""
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (cofactor_det, complex_matrix, conjugacy_residual,
                      det_bareiss, naive_inverse, naive_mul, naive_qdet,
                      rand_invertible, rand_qmatrix, rand_quat,
                      round_trips, rng_for, sweep_blocks, toeplitz_build)
from quatrev.canonical import JordanSpec, jordan_matrix
from quatrev.errors import NotConstructible, ShapeError, SingularError
from quatrev.matrix import (QMatrix, block_diagonal, is_involution,
                            is_skew_involution, phi_embed, place_blocks,
                            qdet)
from quatrev.reversers import assemble_reverser
from quatrev.scalar import (GR_ZERO, Q_I, Q_J, Q_ONE, Q_ZERO,
                            GaussianRational, Quaternion, gr, quat)


def qm(rows):
    return QMatrix([[x if hasattr(x, "a") else quat(x) for x in row]
                    for row in rows])


def test_identity_and_zero():
    i2 = QMatrix.identity(2)
    z = QMatrix.zeros(2, 2)
    assert i2 * i2 == i2
    assert (i2 - i2) == z and z.is_zero


def test_matrix_product_noncommutative():
    a = QMatrix([[Q_I, Q_ZERO], [Q_ZERO, Q_ONE]])
    b = QMatrix([[Q_J, Q_ZERO], [Q_ZERO, Q_ONE]])
    assert a * b != b * a


def test_shape_errors():
    a = QMatrix.zeros(2, 3)
    b = QMatrix.zeros(2, 2)
    with pytest.raises(ShapeError):
        a * a
    with pytest.raises(ShapeError):
        a + b


def test_inverse_frozen_example():
    # inverse of the 2x2 upper bidiagonal with eigenvalue 2
    m = qm([[2, 1], [0, 2]])
    inv = m.inverse()
    assert inv == qm([["1/2", "-1/4"], [0, "1/2"]])
    assert m * inv == QMatrix.identity(2)


def test_inverse_random_round_trip():
    rng = rng_for("matrix-inverse")
    for n in (1, 2, 3, 4):
        m = rand_invertible(rng, n)
        assert m * m.inverse() == QMatrix.identity(n)
        assert m.inverse() * m == QMatrix.identity(n)


def test_inverse_singular_raises():
    m = qm([[1, 1], [1, 1]])
    with pytest.raises(SingularError):
        m.inverse()


def test_quaternionic_singularity_not_componentwise():
    # genuinely quaternionic singular matrix: second column = first * k
    k = Q_I * Q_J
    m = QMatrix([[Q_ONE, k], [Q_I, Q_I * k]])
    assert qdet(m) == 0
    with pytest.raises(SingularError):
        m.inverse()


def test_phi_embed_j():
    f = phi_embed(QMatrix([[Q_J]]))
    assert f == qm([[0, 1], [-1, 0]])


def test_phi_embed_is_ring_homomorphism():
    rng = rng_for("phi-hom")
    for _ in range(5):
        a = rand_qmatrix(rng, 3, -4, 4)
        b = rand_qmatrix(rng, 3, -4, 4)
        assert phi_embed(a * b) == phi_embed(a) * phi_embed(b)
        assert phi_embed(a + b) == phi_embed(a) + phi_embed(b)
    assert phi_embed(QMatrix.identity(3)) == QMatrix.identity(6)


def test_qdet_frozen_values():
    assert qdet(QMatrix([[Q_ONE + Q_J]])) == 2
    assert qdet(QMatrix.identity(3)) == 1
    assert qdet(QMatrix([[Q_I]])) == 1
    assert qdet(qm([[2, 0], [0, "1/2"]])) == 1
    assert qdet(qm([[3]])) == 9


def test_qdet_against_cofactor_oracle():
    rng = rng_for("qdet-oracle")
    for n in (1, 2, 3):
        for _ in range(4):
            m = rand_qmatrix(rng, n, -3, 3, 2)
            assert qdet(m) == cofactor_det(phi_embed(m)).re


def test_qdet_nonnegative_and_multiplicative():
    rng = rng_for("qdet-mult")
    for _ in range(10):
        a = rand_qmatrix(rng, 3, -3, 3, 2)
        b = rand_qmatrix(rng, 3, -3, 3, 2)
        da, db, dab = qdet(a), qdet(b), qdet(a * b)
        assert da >= 0 and db >= 0
        assert dab == da * db


def test_bareiss_zero_determinant():
    m = qm([[1, 1], [1, 1]])
    assert det_bareiss(m) == GR_ZERO


def test_qdet_against_bareiss_oracle():
    rng = rng_for("qdet-bareiss")
    # dense, with nonzero j and k parts throughout
    for n in range(1, 7):
        for _ in range(2):
            m = rand_qmatrix(rng, n, -3, 3, 2)
            assert qdet(m) == det_bareiss(phi_embed(m)).re
    # singular over H: one column is another times a quaternion on the right
    for n in range(2, 6):
        m = rand_qmatrix(rng, n, -3, 3, 2)
        src, dst = rng.sample(range(n), 2)
        q = rand_quat(rng, -3, 3, 2)
        rows = [list(row) for row in m.entries]
        for row in rows:
            row[dst] = row[src] * q
        m = QMatrix(rows)
        assert qdet(m) == 0 == det_bareiss(phi_embed(m)).re
    # certificates of the exhaustive spec sweep
    kinds = [("inverse", "involution"), ("inverse", "skew-involution"),
             ("neg-inverse", "involution")]
    blocks = sweep_blocks()
    checked = 0
    while checked < 50:
        spec = JordanSpec.of(rng.choice(blocks))
        try:
            cert = assemble_reverser(spec, *rng.choice(kinds))
        except NotConstructible:
            continue
        assert qdet(cert.g) == det_bareiss(phi_embed(cert.g)).re == 1
        checked += 1


def test_involution_predicates():
    assert is_involution(QMatrix.identity(3))
    assert not is_skew_involution(QMatrix.identity(3))
    d = QMatrix.diagonal([Q_ONE, -Q_ONE, Q_ONE])
    assert is_involution(d)
    ji = QMatrix.diagonal([Q_J, Q_I])
    assert is_skew_involution(ji)
    assert not is_involution(ji)


def test_conjugacy_residual():
    a = qm([[2, 1], [0, 2]])
    g = QMatrix.identity(2)
    assert conjugacy_residual(g, a, a).is_zero
    assert not conjugacy_residual(g, a, a.inverse()).is_zero
    with pytest.raises(SingularError):
        conjugacy_residual(QMatrix.zeros(2, 2), a, a)


def test_block_layout_helpers():
    b1 = qm([[1, 2], [3, 4]])
    b2 = qm([[5]])
    d = block_diagonal([b1, b2])
    assert d.n_rows == 3
    assert d.entry(2, 2) == quat(5)
    assert d.entry(0, 2).is_zero
    p = place_blocks(3, [(0, 1, b2), (1, 0, b2)])
    assert p.entry(0, 1) == quat(5) and p.entry(1, 0) == quat(5)
    assert p.entry(0, 0).is_zero


def test_toeplitz_build():
    t = toeplitz_build([quat(1), quat(2), quat(3)])
    assert t == qm([[1, 2, 3], [0, 1, 2], [0, 0, 1]])


def test_qmatrix_json_round_trip():
    rng = rng_for("matrix-json")
    m = rand_qmatrix(rng, 3)
    assert QMatrix.from_json(m.to_json()) == m
    with pytest.raises(ValueError):
        QMatrix.from_json({"n": 2, "m": 2, "entries": [[["1", "0", "0", "0"]]]})


def test_matrices_and_specs_copy_and_pickle_and_stay_immutable():
    """A matrix comes back with its stored form and stays immutable; so do
    a spec and a certificate, which hold complex rationals and matrices."""
    spec = JordanSpec.of([(gr(2), 3), (gr("1/2"), 3)])
    cert = assemble_reverser(spec, "inverse", "involution")
    for m in (jordan_matrix(spec), cert.g, rand_qmatrix(rng_for("pickle"), 3),
              QMatrix.zeros(2, 3)):
        for copied in round_trips(m):
            assert type(copied) is QMatrix
            assert copied == m and copied._ints == m._ints
            assert copied.entries == m.entries
            with pytest.raises(AttributeError, match="immutable"):
                copied.n_rows = 1
    for x in (spec, cert):
        for copied in round_trips(x):
            assert copied == x


# -- the integer product kernel against the entrywise oracle -------------


def _hostile_fraction(rng):
    """Mostly zero, else a signed fraction with a small or ~2^60 denominator."""
    if rng.random() < 0.3:
        return Fraction(0)
    num = rng.choice([rng.randint(-9, 9), rng.randint(-2 ** 62, 2 ** 62)])
    den = rng.choice([1, 2, 3, 7, 2 ** 60, 2 ** 60 + 1, 3 ** 38])
    return Fraction(num, den)


def _hostile_qmatrix(rng, n, m):
    return QMatrix([[Q_ZERO if rng.random() < 0.25 else
                     Quaternion(*(_hostile_fraction(rng) for _ in range(4)))
                     for _ in range(m)] for _ in range(n)])


def test_product_matches_oracle_dense_quaternion():
    rng = rng_for("kernel-dense")
    for n in (1, 2, 3, 5, 7):
        for _ in range(4):
            a, b = _hostile_qmatrix(rng, n, n), _hostile_qmatrix(rng, n, n)
            assert a * b == naive_mul(a, b)
            assert b * a == naive_mul(b, a)


def test_product_matches_oracle_rectangular():
    rng = rng_for("kernel-rect")
    for (n, k, m) in ((4, 1, 4), (1, 4, 1), (3, 5, 2), (5, 1, 1), (1, 1, 6)):
        a, b = _hostile_qmatrix(rng, n, k), _hostile_qmatrix(rng, k, m)
        prod = a * b
        assert (prod.n_rows, prod.n_cols) == (n, m)
        assert prod == naive_mul(a, b)


def test_product_matches_oracle_complex():
    rng = rng_for("kernel-complex")
    for (n, k, m) in ((1, 1, 1), (3, 3, 3), (6, 6, 6), (3, 5, 2)):
        a, b = (_hostile_complex(rng, rows, cols)
                for rows, cols in ((n, k), (k, m)))
        assert a * b == naive_mul(a, b)


def test_product_zero_entries_are_the_shared_zero():
    a = QMatrix([[quat(1, 2), Q_ZERO], [Q_ZERO, quat(0, 0, 3)]])
    prod = a * QMatrix([[quat(0, 0, 0, 0), quat(1)], [quat(1), Q_ZERO]])
    assert prod.entry(0, 0) is Q_ZERO and prod.entry(1, 1) is Q_ZERO
    assert (-a).entry(0, 1) is Q_ZERO and (-a).entry(0, 0) == -quat(1, 2)
    cancel = QMatrix([[Q_ONE, Q_ONE]]) * QMatrix([[Q_ONE], [-Q_ONE]])
    assert cancel.entry(0, 0) is Q_ZERO
    assert (QMatrix([[Q_I]]) * QMatrix([[Q_ZERO]])).entry(0, 0) is Q_ZERO


def test_arithmetic_with_a_non_matrix_is_not_implemented():
    q = QMatrix.identity(2)
    for op in (q.__mul__, q.__add__, q.__sub__):
        assert op(Q_ONE) is NotImplemented
    with pytest.raises(TypeError):
        q * 2
    with pytest.raises(TypeError):
        q + Q_ONE
    with pytest.raises(ShapeError):
        QMatrix.zeros(2, 3) * QMatrix.zeros(2, 3)
    with pytest.raises(ShapeError):
        complex_matrix([[GR_ZERO, GR_ZERO]]) * QMatrix([[Q_I, Q_ONE]])


# -- the integer elimination kernel against the Fraction-loop oracles -----


def _hostile_complex(rng, n, m):
    """An n x m matrix whose entries lie in C."""
    return complex_matrix([[GaussianRational(_hostile_fraction(rng),
                                             _hostile_fraction(rng))
                            for _ in range(m)] for _ in range(n)])


def _zero_leading_pivot(m):
    """m with its (0, 0) entry zeroed, so elimination must swap rows."""
    rows = [list(row) for row in m.entries]
    rows[0][0] = Q_ZERO
    return QMatrix(rows)


def _right_multiple_last_column(rng, m, in_c=False):
    """m whose last column is its first times a scalar on the right (in C
    if ``in_c``): singular over H, but only the last pivot finds it."""
    q = rand_quat(rng, -3, 3, 2)
    if in_c:
        q = q.complex_parts()[0].to_quaternion()
    rows = [list(row) for row in m.entries]
    for row in rows:
        row[-1] = row[0] * q
    return QMatrix(rows)


def _inverse_or_singular(inverse, m):
    try:
        return inverse(m)
    except SingularError:
        return SingularError


def test_qdet_matches_oracle_dense_quaternion():
    rng = rng_for("elim-qdet")
    for n in range(1, 8):
        for _ in range(3):
            m = _hostile_qmatrix(rng, n, n)
            assert qdet(m) == naive_qdet(m)
            swapped = _zero_leading_pivot(m)
            assert qdet(swapped) == naive_qdet(swapped)
        if n > 1:
            singular = _right_multiple_last_column(
                rng, rand_qmatrix(rng, n, -3, 3, 2))
            assert naive_qdet(singular) == 0 == qdet(singular)
    assert qdet(QMatrix([[Q_ZERO, Q_ONE], [Q_J, Q_ZERO]])) == 1
    with pytest.raises(ShapeError):
        qdet(QMatrix.zeros(2, 3))


def test_inverse_matches_oracle():
    rng = rng_for("elim-inverse")
    for n in range(1, 8):
        for m in (_hostile_qmatrix(rng, n, n), _hostile_complex(rng, n, n)):
            want = _inverse_or_singular(naive_inverse, m)
            assert _inverse_or_singular(QMatrix.inverse, m) == want
            if want is not SingularError:
                assert m * want == QMatrix.identity(n)
            swapped = _zero_leading_pivot(m)
            assert (_inverse_or_singular(QMatrix.inverse, swapped)
                    == _inverse_or_singular(naive_inverse, swapped))
        for m, in_c in ((rand_qmatrix(rng, n, -3, 3, 2), False),
                        (complex_matrix(
                            [[rand_quat(rng, -3, 3, 2).complex_parts()[0]
                              for _ in range(n)] for _ in range(n)]), True)):
            if n > 1:
                m = _right_multiple_last_column(rng, m, in_c)
                with pytest.raises(SingularError):
                    naive_inverse(m)
                with pytest.raises(SingularError):
                    m.inverse()
    with pytest.raises(ShapeError):
        QMatrix.zeros(3, 2).inverse()


_sparse_quat = st.one_of(
    st.just(Q_ZERO),
    st.builds(Quaternion, *(st.fractions(min_value=-9, max_value=9,
                                         max_denominator=4)
                            for _ in range(4))))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5).flatmap(
    lambda n: st.lists(st.lists(_sparse_quat, min_size=n, max_size=n),
                       min_size=n, max_size=n)))
def test_elimination_kernel_matches_oracles_on_sparse_matrices(rows):
    m = QMatrix(rows)
    assert qdet(m) == naive_qdet(m)
    assert (_inverse_or_singular(QMatrix.inverse, m)
            == _inverse_or_singular(naive_inverse, m))
