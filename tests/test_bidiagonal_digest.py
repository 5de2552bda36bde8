"""Pin ``check`` on complex upper bidiagonal matrices by one SHA-256.

Pair k is drawn from a generator seeded by k alone.  It takes a certificate
of a random sweep spec (total size <= 6) or, one time in ten, of a ladder
spec, and conjugates both A and g by a diagonal S of nonzero Gaussian
rationals: S A S^-1 is still complex and upper bidiagonal.  By k mod 3 it
then keeps S g S^-1, adds 1/q to one component of one of its entries, or
replaces it by a random g whose entries lie in C, in Cj, in both or in all
of H (on a sweep spec only: the Study determinant of a dense random g of
size 24 with 60-bit denominators takes seconds).  For each of the six
(target, flavor) requests the digest takes the ``check`` report and the
integer form of the residual's first product.
After a deliberate output change, print the new digest with
``PYTHONPATH=src python tests/test_bidiagonal_digest.py [count]``.
"""
import hashlib
import json
import random
import sys
from fractions import Fraction

from conftest import sweep_blocks
from test_ladder_digest import LADDER
from quatrev.canonical import JordanSpec, jordan_matrix
from quatrev.check import FLAVORS, TARGETS, _form, check
from quatrev.errors import NotConstructible
from quatrev.matrix import QMatrix
from quatrev.reversers import (FLAVOR_INVOLUTION, FLAVOR_SKEW,
                               TARGET_INVERSE, TARGET_NEG_INVERSE,
                               assemble_reverser)
from quatrev.scalar import Q_ZERO, Quaternion

KINDS = ((TARGET_INVERSE, FLAVOR_INVOLUTION), (TARGET_INVERSE, FLAVOR_SKEW),
         (TARGET_NEG_INVERSE, FLAVOR_INVOLUTION))
REQUESTS = [(t, f) for t in TARGETS for f in FLAVORS]
DENOMS = (1, 2, 3, 5, 2**60 + 1)
# the components each entry of a random g may use: C, Cj, C or Cj, all of H
HALVES = (((0, 1),), ((2, 3),), ((0, 1), (2, 3)), ((0, 1, 2, 3),))

BIDIAGONAL_300_DIGEST = (
    "44ca2c69a7c7b64b6e8aaef33e70c80f9fe74036c1a5efb221186f63e3bc7b5a")

_SWEEP = []


def _fraction(rng):
    return Fraction(rng.randint(-9, 9), rng.choice(DENOMS))


def _quaternion(rng, parts, nonzero=False):
    while True:
        x = Quaternion(*(_fraction(rng) if c in parts else 0
                         for c in range(4)))
        if not (nonzero and x.is_zero):
            return x


def _certificate(rng, ladder):
    """(A, g) of a random admitted sweep certificate, or one time in ten a
    ladder certificate if ``ladder``."""
    if ladder and rng.random() < 0.1:
        blocks, kind = rng.choice(LADDER)
        spec = JordanSpec.of(blocks)
        return jordan_matrix(spec), assemble_reverser(spec, *kind).g
    if not _SWEEP:
        _SWEEP.extend(sweep_blocks(max_total=6))
    while True:
        spec = JordanSpec.of(rng.choice(_SWEEP))
        for kind in rng.sample(KINDS, len(KINDS)):
            try:
                return jordan_matrix(spec), assemble_reverser(spec, *kind).g
            except NotConstructible:
                continue


def pair(k):
    """The k-th (A, g) pair; A is complex and upper bidiagonal."""
    rng = random.Random(k)
    a, g = _certificate(rng, ladder=k % 3 != 2)
    n = a.n_rows
    diag = [_quaternion(rng, (0, 1), nonzero=True) for _ in range(n)]
    s = QMatrix.diagonal(diag)
    s_inv = QMatrix.diagonal([x.inverse() for x in diag])
    a, g = s * a * s_inv, s * g * s_inv
    if k % 3 == 1:
        rows = [list(row) for row in g.entries]
        i, j = rng.randrange(n), rng.randrange(n)
        parts = [rows[i][j].a, rows[i][j].b, rows[i][j].c, rows[i][j].d]
        parts[rng.randrange(4)] += Fraction(1, rng.choice(DENOMS))
        rows[i][j] = Quaternion(*parts)
        g = QMatrix(rows)
    elif k % 3 == 2:
        halves, density = rng.choice(HALVES), rng.choice((0.3, 1.0))
        g = QMatrix([[_quaternion(rng, rng.choice(halves))
                      if rng.random() < density else Q_ZERO
                      for _ in range(n)] for _ in range(n)])
    return a, g


def _line(h, tag, obj):
    h.update(f"{tag} {json.dumps(obj, sort_keys=True)}\n".encode("utf-8"))


def bidiagonal_digest(count):
    """(hex SHA-256, passed reports) over ``count`` pairs' checks."""
    h = hashlib.sha256()
    passed = 0
    for k in range(count):
        a, g = pair(k)
        _line(h, "pair", [a._ints, g._ints])
        for target, flavor in REQUESTS:
            report, first = check(g._ints, a._ints, target, flavor)
            _line(h, "check", [target, flavor, report.to_json(),
                               _form(*first)])
            passed += report.ok
    return h.hexdigest(), passed


def test_bidiagonal_checks_unchanged():
    assert bidiagonal_digest(300) == (BIDIAGONAL_300_DIGEST, 217)


if __name__ == "__main__":
    print(*bidiagonal_digest(int(sys.argv[1]) if sys.argv[1:] else 300))
