"""The product's complex-half path against the Fraction oracles, and the
elimination on matrices whose entries lie in C.

A matrix whose nonzero entries all lie in C, or all in Cj, is multiplied
one Gaussian-integer product per entry pair; any other operand runs the
full Hamilton loop.  ``naive_mul`` and ``naive_check`` know nothing of
either, so every pairing of the halves (C C, C Cj, Cj C, Cj Cj), operands
mixed per entry, general quaternions and all-zero operands must agree with
them.  A complex matrix is a QMatrix with entries in C: its elimination
and inverse stay in C, and its Study determinant is |det|^2 over C.
"""
import itertools
import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

import pytest

from conftest import complex_matrix, det_bareiss, naive_check, naive_mul
from quatrev.canonical import JordanSpec, jordan_matrix
from quatrev.errors import SingularError
from quatrev.check import FLAVORS, TARGETS, _eliminate, _half
from quatrev.matrix import QMatrix, phi_embed, qdet
from quatrev.reversers import assemble_reverser, check_certificate
from quatrev.scalar import GR_ZERO, Q_ZERO, GaussianRational, Quaternion

# operand kinds: where each nonzero entry's components may be nonzero
KINDS = ("C", "Cj", "mixed", "quaternion", "zero")
SLOTS = {"C": ((0, 1),), "Cj": ((2, 3),), "mixed": ((0, 1), (2, 3)),
         "quaternion": ((0, 1, 2, 3),), "zero": ()}


def _component(rng, big):
    num = rng.randint(-2 ** 60, 2 ** 60) if big else rng.randint(-9, 9)
    return Fraction(num, rng.choice((1, 2, 3, 2 ** 60 + 1)))


def _operand(rng, kind, rows, cols, big, density=0.7):
    """A rows x cols QMatrix of the given kind; a random row and column
    are zero with some chance."""
    zero_row = rng.randrange(rows) if rng.random() < 0.3 else None
    zero_col = rng.randrange(cols) if rng.random() < 0.3 else None
    out = []
    for i in range(rows):
        row = []
        for j in range(cols):
            if (not SLOTS[kind] or i == zero_row or j == zero_col
                    or rng.random() > density):
                row.append(Q_ZERO)
                continue
            slots = rng.choice(SLOTS[kind])
            parts = [_component(rng, big) if k in slots else Fraction(0)
                     for k in range(4)]
            if not any(parts):
                parts[slots[0]] = Fraction(1)
            row.append(Quaternion(*parts))
        out.append(row)
    return QMatrix(out)


def _agrees(a, b):
    assert a * b == naive_mul(a, b)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(1, 8), st.integers(1, 8),
       st.integers(1, 8), st.sampled_from(KINDS), st.sampled_from(KINDS),
       st.booleans())
def test_product_matches_naive_mul(seed, n, k, m, left, right, big):
    rng = random.Random(seed)
    _agrees(_operand(rng, left, n, k, big), _operand(rng, right, k, m, big))


def test_every_pair_of_kinds_matches_naive_mul():
    """Each (left, right) kind at square and rectangular shapes, so every
    run multiplies Cj by C and Cj by Cj with 60-bit components."""
    rng = random.Random(14)
    for left, right in itertools.product(KINDS, repeat=2):
        for n, k, m in ((1, 1, 1), (4, 4, 4), (3, 6, 2), (8, 5, 7)):
            _agrees(_operand(rng, left, n, k, True, density=1.0),
                    _operand(rng, right, k, m, True))


def test_halves_are_read_off_the_nonzero_entries():
    c, cj = (1, 2, 0, 0), (0, 0, 3, -4)
    assert _half([[None, c], [c, None]]) == 0
    assert _half([[None, cj], [cj, None]]) == 2
    assert _half([[None, None]]) == 0
    assert _half([[c, cj]]) is None
    assert _half([[(1, 0, 0, 5)]]) is None


# (spec, target, flavor, half of g): certificates whose g lies in C or in Cj
CERTIFICATES = [
    ([("2", 5), ("1/2", 5)], "inverse", "involution", 0),
    ([("3/5+4/5i", 4)] * 2, "inverse", "involution", 2),
    ([("i", 9)], "inverse", "skew-involution", 2),
    ([("i", 4)] * 2, "inverse", "skew-involution", 2),
    ([("2", 4), ("-1/2", 4)], "neg-inverse", "involution", 0),
    ([("i", 7)], "neg-inverse", "involution", 0),
]


def _tampered(m, rng):
    """m with one nonzero entry given a nonzero component outside its
    half, so the matrix lies in neither C nor Cj."""
    rows = [list(row) for row in m.entries]
    i, j = rng.choice([(i, j) for i, row in enumerate(rows)
                       for j, x in enumerate(row) if not x.is_zero])
    x = rows[i][j]
    parts = [x.a, x.b, x.c, x.d]
    parts[rng.choice((2, 3) if x.c == x.d == 0 else (0, 1))] += 1
    rows[i][j] = Quaternion(*parts)
    return QMatrix(rows)


def test_check_matches_naive_check_on_complex_half_certificates():
    """C-only and Cj-only (Omega j) certificates pass as the oracle says,
    under every (target, flavor), and a copy of g or A with one entry made
    a general quaternion is checked as the oracle checks it."""
    rng = random.Random(7)
    for blocks, target, flavor, half in CERTIFICATES:
        spec = JordanSpec.of(blocks)
        a = jordan_matrix(spec)
        g = assemble_reverser(spec, target, flavor).g
        assert _half(g._ints[1]) == half and _half(a._ints[1]) == 0
        assert check_certificate(g, a, target, flavor).ok
        cases = [(g, a), (_tampered(g, rng), a), (g, _tampered(a, rng))]
        for (gg, aa), t, f in itertools.product(cases, TARGETS, FLAVORS):
            assert check_certificate(gg, aa, t, f) == naive_check(gg, aa, t, f)
        assert not check_certificate(cases[1][0], a, target, flavor).ok


# -- elimination on entries in C stays in C --------------------------------

_small = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))
_gaussian = st.one_of(st.just(GR_ZERO),
                      st.builds(GaussianRational, _small, _small))


@st.composite
def _complex_square(draw, max_n=6):
    """An n x n matrix with entries in C, n <= max_n; about half are made
    singular, one row a complex combination of two others."""
    n = draw(st.integers(1, max_n))
    rows = draw(st.lists(st.lists(_gaussian, min_size=n, max_size=n),
                         min_size=n, max_size=n))
    if draw(st.booleans()):
        k, i, j = (draw(st.integers(0, n - 1)) for _ in range(3))
        u, v = draw(_gaussian), draw(_gaussian)
        rows[k] = ([GR_ZERO] * n if k in (i, j) else
                   [u * x + v * y for x, y in zip(rows[i], rows[j])])
    return complex_matrix(rows)


def _in_c(rows):
    return all(not (e[2] or e[3]) for row in rows for e in row if e)


@settings(max_examples=60, deadline=None)
@given(_complex_square())
def test_elimination_of_a_complex_matrix_stays_in_c(m):
    """Forward and Gauss-Jordan elimination leave every nonzero entry with
    zero j and k parts, the inverse lies in C, and qdet is |det|^2 over C,
    so the rank over H is the rank over Q(i)."""
    for full in (False, True):
        rows, _, _ = _eliminate(*m._ints, full)
        assert rows is None or _in_c(rows)
    det = det_bareiss(m)
    assert qdet(m) == det.norm_sq()
    if det.is_zero:
        with pytest.raises(SingularError):
            m.inverse()
    else:
        assert _half(m.inverse()._ints[1]) == 0


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3).flatmap(
    lambda n: st.lists(st.lists(st.builds(Quaternion, *[_small] * 4),
                                min_size=n, max_size=n),
                       min_size=n, max_size=n)))
def test_study_determinant_of_the_embedding_is_its_square(rows):
    """qdet(phi_embed(A)) = qdet(A)^2: the embedding lies in C, where qdet
    is |det|^2, and det phi_embed(A) = qdet(A)."""
    a = QMatrix(rows)
    assert _half(phi_embed(a)._ints[1]) == 0
    assert qdet(phi_embed(a)) == qdet(a) ** 2
