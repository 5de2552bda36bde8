"""Matrices born in their stored integer form against Fraction oracles.

Jordan matrices, block and Weyr reversers, modified blocks, placed blocks,
products, sums, differences, negations, transposes and inverses are
made in the integer form ``(d, rows)`` and make their entries
from it on each read.  Each one's entries equal those of an oracle computed
scalar by scalar, and its stored form, equality and hash agree with the
matrix built from the oracle's entries.  The operations mix born operands
with operands built from entries, whose form is made at construction;
beside the reversers, whose entries lie in C, those operands lie in C too.
"""
import itertools
import math
import operator
import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from conftest import (EIG_POOL, complex_matrix, naive_block_reverser,
                      naive_inverse, naive_modified, naive_mul,
                      rand_invertible)
from quatrev import matrix
from quatrev.canonical import JordanSpec, jordan_block, jordan_matrix
from quatrev.matrix import QMatrix, place_blocks
from quatrev.partitions import Partition
from quatrev.reversers import (_D, _J, _PLAIN, _block, block_reverser,
                               weyr_reverser)
from quatrev.scalar import (GR_ZERO, Q_ONE, Q_ZERO, GaussianRational,
                            Quaternion, gr)

# eigenvalues: the sweep's pool and a few with larger, mixed denominators
LAMBDAS = EIG_POOL + (gr("-7/3", "2/9"), gr("5/12"), gr(0, "-3/4"),
                      gr("1/1024", "3"))
UNITS = (gr(0, 1), gr("3/5", "4/5"), gr("-5/13", "12/13"), gr(1), gr(-1))
DENOMS = {"small": (1, 2, 3, 5, 6), "2^60": (2**60 - 1, 2**60, 2**60 + 1)}
BORN = ("jordan", "jordan-block", "omega", "weyr", "modified", "placed")


def _composition(rng, n):
    cuts = sorted(rng.sample(range(1, n), rng.randint(0, n - 1)))
    return [b - a for a, b in zip([0, *cuts], [*cuts, n])]


def _random(rng, in_c, n_rows, n_cols, dens, density):
    """A matrix built from scalar entries (the public constructor), its
    entries in C if ``in_c``."""
    def frac():
        return Fraction(rng.randint(-9, 9), rng.choice(dens))
    if in_c:
        return complex_matrix([[GaussianRational(frac(), frac())
                                if rng.random() < density else GR_ZERO
                                for _ in range(n_cols)]
                               for _ in range(n_rows)])
    return QMatrix([[Quaternion(frac(), frac(), frac(), frac())
                     if rng.random() < density else Q_ZERO
                     for _ in range(n_cols)] for _ in range(n_rows)])


def _naive_jordan(blocks):
    n = sum(s for _, s in blocks)
    grid = [[Q_ZERO] * n for _ in range(n)]
    i = 0
    for lam, size in blocks:
        for t in range(size):
            grid[i][i] = lam.to_quaternion()
            if t + 1 < size:
                grid[i][i + 1] = Q_ONE
            i += 1
    return grid


def _naive_weyr(alpha, p):
    """Block (i, j) = (-1)^(r-i) C(r-i-1, j-i) conj(alpha)^(2r-i-j) times
    the truncated identity, by GaussianRational powers."""
    sizes = p.conjugate().parts
    r, n = len(sizes), sum(sizes)
    offs = [sum(sizes[:i]) for i in range(r)]
    grid = [[Q_ZERO] * n for _ in range(n)]
    for i in range(1, r + 1):
        for j in range(i, max(i + 1, r)):
            c = (-1) ** (r - i) * math.comb(max(r - i - 1, 0), j - i)
            x = (gr(c) * alpha.conjugate().power(2 * r - i - j)
                 ).to_quaternion()
            for t in range(min(sizes[i - 1], sizes[j - 1])):
                grid[offs[i - 1] + t][offs[j - 1] + t] = x
    return grid


def _born(rng, kind, n, dens):
    """An n x n matrix of the given kind, born in its integer form, and the
    entries of its Fraction oracle."""
    if kind == "jordan":
        spec = JordanSpec.of([(rng.choice(LAMBDAS), s)
                              for s in _composition(rng, n)])
        return jordan_matrix(spec), _naive_jordan(spec.blocks)
    if kind == "jordan-block":
        lam = rng.choice(LAMBDAS + (GR_ZERO,))
        return jordan_block(lam, n), _naive_jordan([(lam, n)])
    if kind == "omega":
        lam = rng.choice(LAMBDAS)
        return block_reverser(lam, n), naive_block_reverser(lam, n).entries
    if kind == "weyr":
        alpha = rng.choice(UNITS)
        p = Partition.of(sorted(_composition(rng, n), reverse=True))
        return weyr_reverser(alpha, p), _naive_weyr(alpha, p)
    if kind == "modified":
        lam = rng.choice(LAMBDAS)
        args = (rng.choice([_PLAIN, _J, _D]), rng.random() < 0.5,
                rng.choice([1, -1]))
        return (_block.__wrapped__(lam, n, *args),
                naive_modified(block_reverser(lam, n), *args))
    # placed: diagonal blocks, born or built, and one off-diagonal block
    sizes = _composition(rng, n)
    offs = [sum(sizes[:i]) for i in range(len(sizes))]
    placements = []
    for o, s in zip(offs, sizes):
        placements.append((o, o, _random(rng, False, s, s, dens, 0.6)
                           if rng.random() < 0.5
                           else _born(rng, rng.choice(BORN[:-1]), s, dens)[0]))
    if len(sizes) > 1:
        placements.append((offs[0], offs[1], _random(
            rng, False, sizes[0], sizes[1], dens, 0.6)))
    grid = [[Q_ZERO] * n for _ in range(n)]
    for ri, ci, block in placements:
        for i, row in enumerate(block.entries):
            grid[ri + i][ci:ci + len(row)] = row
    return place_blocks(n, placements), grid


def _assert_is(m, oracle):
    """m's entries are the oracle's scalar by scalar, and its stored form,
    equality and hash agree with the matrix built from them."""
    fresh = QMatrix(oracle)
    assert m.entries == fresh.entries
    assert m._ints == fresh._ints
    assert m == fresh and fresh == m
    assert hash(m) == hash(fresh)
    bumped = [list(row) for row in fresh.entries]
    bumped[0][0] = bumped[0][0] + Q_ONE
    assert m != QMatrix(bumped)


def _entrywise(op, x, y):
    return [[op(a, b) for a, b in zip(ra, rb)]
            for ra, rb in zip(x.entries, y.entries)]


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 7), st.sampled_from(BORN),
       st.sampled_from(sorted(DENOMS)), st.sampled_from([0.3, 1.0]))
def test_born_matrices_match_fraction_oracles(seed, n, kind, denoms,
                                              density):
    rng = random.Random(seed)
    dens = DENOMS[denoms]
    m, oracle = _born(rng, kind, n, dens)
    in_c = kind in ("omega", "weyr")
    other = _random(rng, in_c, n, n, dens, density)
    wide = _random(rng, in_c, n, rng.randint(1, 7), dens, density)
    # every operation runs before any entry of m is read
    products = [(x, y, x * y) for x, y in
                [(m, m), (m, other), (other, m), (-m, other)]]
    negations = [(x, -x) for x in (m, other, products[0][2])]
    sums = [(x, y, x + y, x - y) for x, y in
            [(m, other), (other, m), (m, -m), (other, other)]]
    transposes = [(x, x.transpose()) for x in (m, other, wide)]
    zero = m - m
    assert zero._ints == (1, ((None,) * n,) * n) and zero.is_zero
    _assert_is(m, oracle)
    for x, y, p in products:
        _assert_is(p, naive_mul(x, y).entries)
    for x, neg in negations:
        _assert_is(neg, [[-v for v in row] for row in x.entries])
    for x, y, total, diff in sums:
        for got, op in ((total, operator.add), (diff, operator.sub)):
            want = _entrywise(op, x, y)
            _assert_is(got, want)
            assert got.is_zero == all(v == Q_ZERO for row in want
                                      for v in row)
    for x, t in transposes:
        _assert_is(t, [list(col) for col in zip(*x.entries)])
    for x in (m, other, wide):
        assert x.is_zero == all(v == Q_ZERO for row in x.entries
                                for v in row)
        twin = QMatrix._of_ints(*x._ints)
        assert twin == x and x == twin and hash(twin) == hash(x)


def test_modified_matches_fraction_product_for_every_modifier():
    """Every (modifier, side, sign) block, built unmemoized, against the
    Fraction product of Omega and the modifier."""
    for mod, left, sign in itertools.product([_PLAIN, _J, _D], [False, True],
                                             [1, -1]):
        for lam in LAMBDAS:
            for n in (1, 2, 5):
                _assert_is(_block.__wrapped__(lam, n, mod, left, sign),
                           naive_modified(block_reverser(lam, n), mod, left,
                                          sign))


def test_inverse_is_born_without_a_fraction(monkeypatch):
    """``inverse`` writes its integer form straight from the elimination:
    it makes no Fraction, and its entries, read afterwards, are those of the
    Fraction Gauss-Jordan oracle."""
    def no_fraction(*args):
        raise AssertionError("inverse made a Fraction")
    rng = random.Random("quatrev:inverse-born")
    for n in (1, 2, 4):
        lam = rng.choice(LAMBDAS)
        for m in (rand_invertible(rng, n), block_reverser(lam, n),
                  jordan_block(lam, n), _random(rng, False, n, n,
                                                DENOMS["2^60"], 1.0)):
            with monkeypatch.context() as patch:
                patch.setattr(matrix, "Fraction", no_fraction)
                inv = m.inverse()
            _assert_is(inv, naive_inverse(m).entries)
