"""Pin the level (Weyr) layer by one SHA-256 of integer forms.

Over every partition p of n <= 8, longest parts first, the digest takes the
integer form (d, rows) of ``jordan_weyr_permutation(p)``, of
``basic_weyr_matrix(lam, w)`` for each lam in ``LAMBDAS`` and w the Weyr
structure dual to p, of ``weyr_centralizer_sample(w, seed)`` for seeds 0-5,
and of ``weyr_reverser(alpha, p)`` for each unit alpha in ``ALPHAS``.  The
centralizer sample is drawn from a seeded generator, so the digest also pins
the order of its draws.  After a deliberate output change, print the new
one with ``PYTHONPATH=src python tests/test_level_digest.py``.
"""
import hashlib
import json

from quatrev.canonical import (basic_weyr_matrix, jordan_weyr_permutation,
                               weyr_centralizer_sample)
from quatrev.partitions import Partition, weyr_structure_of
from quatrev.reversers import weyr_reverser
from quatrev.scalar import parse_complex

MAX_TOTAL = 8
LAMBDAS = tuple(map(parse_complex, ("2", "-1", "1/2", "i", "3/5+4/5i",
                                    "1+i", "-7/3+2/9i")))
ALPHAS = tuple(map(parse_complex, ("i", "3/5+4/5i", "-5/13+12/13i", "1",
                                   "-1")))
SEEDS = range(6)

LEVEL_DIGEST = (
    "42cc49d25bba980307a5c0d5dfe99eea455cccc07dc0334559a41cc2ac43a9f3")


def partitions(n, largest=None):
    """Every partition of n with parts at most ``largest``, as tuples in
    reverse lexicographic order."""
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest or n), 0, -1):
        for rest in partitions(n - part, part):
            yield (part,) + rest


def level_digest(max_total=MAX_TOTAL):
    """(hex SHA-256, number of matrices) over the level layer's outputs."""
    h = hashlib.sha256()
    count = 0
    for n in range(1, max_total + 1):
        for parts in partitions(n):
            p = Partition(parts)
            w = weyr_structure_of(p)
            mats = [jordan_weyr_permutation(p)]
            mats += [basic_weyr_matrix(lam, w) for lam in LAMBDAS]
            mats += [weyr_centralizer_sample(w, seed) for seed in SEEDS]
            mats += [weyr_reverser(alpha, p) for alpha in ALPHAS]
            for m in mats:
                h.update(f"{json.dumps(m._ints)}\n".encode("ascii"))
            count += len(mats)
    return h.hexdigest(), count


def test_level_layer_unchanged():
    digest, count = level_digest()
    assert count == 1254
    assert digest == LEVEL_DIGEST


if __name__ == "__main__":
    print(*level_digest())
