"""Matrices born in their stored integer form against Fraction oracles.

Jordan matrices, block and Weyr reversers, modified blocks, placed blocks,
products and negations are made in the integer form ``(d, rows)`` and make
their entries only when read.  Each one's entries equal those of an oracle
computed scalar by scalar, and its stored form, equality and hash agree
with the matrix built from the oracle's entries.  Products mix born
operands with operands built from entries.
"""
import itertools
import math
import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from conftest import EIG_POOL, naive_block_reverser, naive_mul
from quatrev.canonical import JordanSpec, jordan_block, jordan_matrix
from quatrev.matrix import CMatrix, QMatrix, _scaled, place_blocks
from quatrev.partitions import Partition
from quatrev.reversers import (_D, _J, _PLAIN, _modified, block_reverser,
                               weyr_reverser)
from quatrev.scalar import (GR_ZERO, Q_J, Q_ONE, Q_ZERO, GaussianRational,
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


def _random(rng, cls, n_rows, n_cols, dens, density):
    """A matrix built from scalar entries (the public constructor)."""
    def frac():
        return Fraction(rng.randint(-9, 9), rng.choice(dens))
    if cls is CMatrix:
        return CMatrix([[GaussianRational(frac(), frac())
                         if rng.random() < density else GR_ZERO
                         for _ in range(n_cols)] for _ in range(n_rows)])
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
    grid = [[GR_ZERO] * n for _ in range(n)]
    for i in range(1, r + 1):
        for j in range(i, max(i + 1, r)):
            c = (-1) ** (r - i) * math.comb(max(r - i - 1, 0), j - i)
            x = gr(c) * alpha.conjugate().power(2 * r - i - j)
            for t in range(min(sizes[i - 1], sizes[j - 1])):
                grid[offs[i - 1] + t][offs[j - 1] + t] = x
    return grid


def _naive_modified(m, mod, left, sign):
    """sign * M X or sign * X^-1 M by the Fraction product, X = 1, j or D
    (j^-1 = -j, D^-1 = D)."""
    n = m.n_rows
    x = {_PLAIN: [Q_ONE] * n, _J: [Q_J] * n,
         _D: [Q_ONE if (n - 1 - k) % 2 == 0 else -Q_ONE for k in range(n)]}
    diag = x[mod]
    if left and mod == _J:
        diag = [-q for q in diag]
    xm = QMatrix.diagonal(diag)
    mq = QMatrix([[z.to_quaternion() for z in row] for row in m.entries])
    out = naive_mul(xm, mq) if left else naive_mul(mq, xm)
    return [[q if sign > 0 else -q for q in row] for row in out.entries]


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
        omega = block_reverser(rng.choice(LAMBDAS), n)
        args = (rng.choice([_PLAIN, _J, _D]), rng.random() < 0.5,
                rng.choice([1, -1]))
        return _modified(omega, *args), _naive_modified(omega, *args)
    # placed: diagonal blocks, born or built, and one off-diagonal block
    sizes = _composition(rng, n)
    offs = [sum(sizes[:i]) for i in range(len(sizes))]
    placements = []
    for o, s in zip(offs, sizes):
        block = (_random(rng, QMatrix, s, s, dens, 0.6)
                 if rng.random() < 0.5
                 else _born(rng, rng.choice(BORN[:-1]), s, dens)[0])
        placements.append((o, o, block.to_quaternion()
                           if isinstance(block, CMatrix) else block))
    if len(sizes) > 1:
        placements.append((offs[0], offs[1], _random(
            rng, QMatrix, sizes[0], sizes[1], dens, 0.6)))
    grid = [[Q_ZERO] * n for _ in range(n)]
    for ri, ci, block in placements:
        for i, row in enumerate(block.entries):
            grid[ri + i][ci:ci + len(row)] = row
    return place_blocks(n, placements), grid


def _assert_is(m, oracle):
    """m's entries are the oracle's scalar by scalar, and its stored form,
    equality and hash agree with the matrix built from them."""
    fresh = type(m)(oracle)
    assert m.entries == fresh.entries
    assert _scaled(m) == _scaled(fresh)
    assert m == fresh and fresh == m
    assert hash(m) == hash(fresh)
    bumped = [list(row) for row in fresh.entries]
    bumped[0][0] = bumped[0][0] + m._sone
    assert m != type(m)(bumped)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 7), st.sampled_from(BORN),
       st.sampled_from(sorted(DENOMS)), st.sampled_from([0.3, 1.0]))
def test_born_matrices_match_fraction_oracles(seed, n, kind, denoms,
                                              density):
    rng = random.Random(seed)
    dens = DENOMS[denoms]
    m, oracle = _born(rng, kind, n, dens)
    other = _random(rng, type(m), n, n, dens, density)
    # every product and negation runs before any entry of m is read
    products = [(x, y, x * y) for x, y in
                [(m, m), (m, other), (other, m), (-m, other)]]
    negations = [(x, -x) for x in (m, other, products[0][2])]
    swapped = (m.to_quaternion().to_cmatrix() if isinstance(m, CMatrix)
               else None)
    _assert_is(m, oracle)
    for x, y, p in products:
        _assert_is(p, naive_mul(x, y).entries)
    for x, neg in negations:
        _assert_is(neg, [[-v for v in row] for row in x.entries])
    if swapped is not None:
        _assert_is(swapped, oracle)


def test_modified_matches_fraction_product_for_every_modifier():
    for mod, left, sign in itertools.product([_PLAIN, _J, _D], [False, True],
                                             [1, -1]):
        for lam in LAMBDAS:
            for n in (1, 2, 5):
                omega = block_reverser(lam, n)
                _assert_is(_modified(omega, mod, left, sign),
                           _naive_modified(omega, mod, left, sign))
