"""Reversibility classification of Jordan specs.

An element is conjugate to its inverse exactly when its Jordan blocks split
into inverse-partner pairs {J(lam,s), J(rep(lam^{-1}),s)} for classes off
the unit circle, with unit-modulus blocks free singletons.  It is strongly
reversible (a product of two involutions) exactly when the involution rule
pairs them too, leaving only +-1 blocks single, so that every non-real unit
class appears an even number of times at each block size.  It is conjugate
to the negative of its inverse when blocks split into negated-inverse pairs,
with only the class of i exempt.  In the projective group the last condition
and plain reversibility merge: an element is reversible there iff it is
reversible or negatively reversible in the linear group, and then it is
automatically strongly reversible there.  One routine, ``criteria``, decides
all five flags by these greedy pairings: exactly for a spec, and at
``unit_tol`` for the float front end's unsnapped blocks.
"""
from __future__ import annotations

import operator
from dataclasses import asdict, dataclass
from typing import Any, Callable, Optional, Sequence

from .canonical import JordanSpec, block_order
from .scalar import (GR_I, GaussianRational, class_rep_inverse,
                     class_rep_neg_inverse)


@dataclass(frozen=True)
class Pairing:
    """Block-index witness for a pairing-based criterion."""

    pairs: tuple[tuple[int, int], ...]
    singletons: tuple[int, ...]

    def describe(self, spec: JordanSpec) -> str:
        def block(i):
            return "J({},{})".format(*spec.blocks[i])
        return "; ".join([f"pair {block(a)} <-> {block(b)}"
                          for a, b in self.pairs]
                         + [f"singleton {block(s)}" for s in self.singletons])


def _is_unit(lam: GaussianRational) -> bool:
    x, y, z = lam._ints         # lam = (x + y i)/z in integers
    return x * x + y * y == z * z


def _pair_blocks(blocks: Sequence[tuple],
                 exempt: Callable[[Any], bool],
                 partner_of: Callable[[Any], Any],
                 same: Callable[[Any, Any], bool] = operator.eq,
                 ) -> tuple[Optional[Pairing], Optional[str]]:
    """Greedy pairing of (eigenvalue, size) blocks in the given order.

    Each block that is not ``exempt`` takes the first later free block of
    its size whose eigenvalue is ``same`` as its partner value; returns
    (pairing, failure).  The float front end passes a tolerance test.
    """
    taken = [False] * len(blocks)
    pairs = []
    singletons = []
    for idx, (lam, size) in enumerate(blocks):
        if taken[idx]:
            continue
        if exempt(lam):
            taken[idx] = True
            singletons.append(idx)
            continue
        want = partner_of(lam)
        match = next(
            (j for j in range(idx + 1, len(blocks))
             if not taken[j]
             and blocks[j][1] == size and same(blocks[j][0], want)),
            None)
        if match is None:
            return None, (f"block J({lam},{size}) has no partner "
                          f"J({want},{size})")
        taken[idx] = taken[match] = True
        pairs.append((idx, match))
    return Pairing(tuple(pairs), tuple(singletons)), None


def _rules(is_unit, is_real, is_i, inverse, neg_inverse):
    """(blocks left single, partner) of the inverse, involution and
    negated-inverse rules: unit blocks; only +-1 blocks, since a non-real
    unit class is its own inverse class and pairs with an equal block; i."""
    return ((is_unit, inverse),
            (lambda lam: is_real(lam) and is_unit(lam), inverse),
            (is_i, neg_inverse))


def criteria(blocks, is_unit, is_real, is_i, inverse, neg_inverse,
             same=operator.eq):
    """The paper's criteria on (eigenvalue, size) blocks in the arithmetic
    the arguments give: the inverse and negated-inverse (pairing, reason)
    and the five flags; strongly reversible iff the involution rule pairs."""
    by_inverse, by_involution, by_neg = _rules(is_unit, is_real, is_i,
                                               inverse, neg_inverse)
    inv = _pair_blocks(blocks, *by_inverse, same)
    neg = _pair_blocks(blocks, *by_neg, same)
    reversible = inv[0] is not None
    psl = reversible or neg[0] is not None
    return inv, neg, {
        "reversible": reversible,
        "strongly_reversible": reversible and _pair_blocks(
            blocks, *by_involution, same)[0] is not None,
        "neg_reversible": neg[0] is not None,
        "psl_reversible": psl,
        "psl_strongly_reversible": psl,
    }


# the exact arithmetic on class representatives
_EXACT = (_is_unit, lambda lam: lam.is_real, lambda lam: lam == GR_I,
          class_rep_inverse, class_rep_neg_inverse)
_BY_INVERSE, _BY_INVOLUTION, _BY_NEG_INVERSE = _rules(*_EXACT)


def inverse_pairing(spec: JordanSpec) -> tuple[Optional[Pairing], Optional[str]]:
    """Pair non-unit blocks with their inverse class at equal size."""
    return _pair_blocks(spec.blocks, *_BY_INVERSE)


def involution_pairing(spec: JordanSpec) -> tuple[Optional[Pairing], Optional[str]]:
    """Pairs for an involution conjugator: they exist iff strongly reversible."""
    return _pair_blocks(spec.blocks, *_BY_INVOLUTION)


def neg_inverse_pairing(spec: JordanSpec) -> tuple[Optional[Pairing], Optional[str]]:
    """Pair blocks with the negated-inverse class; only i is self-paired."""
    return _pair_blocks(spec.blocks, *_BY_NEG_INVERSE)


def is_reversible(spec: JordanSpec) -> bool:
    return inverse_pairing(spec)[0] is not None


def odd_unit_classes(spec: JordanSpec) -> list[tuple[GaussianRational, int]]:
    """(class, size) combinations of non-real unit classes with odd count."""
    units = [b for b in spec.blocks if b[0]._ints[1] > 0 and _is_unit(b[0])]
    return sorted({b for b in units if units.count(b) % 2},
                  key=block_order(units, 1))


def is_strongly_reversible(spec: JordanSpec) -> bool:
    return involution_pairing(spec)[0] is not None


def is_neg_reversible(spec: JordanSpec) -> bool:
    return neg_inverse_pairing(spec)[0] is not None


@dataclass(frozen=True)
class Classification:
    reversible: bool
    strongly_reversible: bool
    neg_reversible: bool
    psl_reversible: bool
    psl_strongly_reversible: bool
    witness_pairing: dict

    def to_json(self) -> dict:
        return asdict(self)


def classify_psl(spec: JordanSpec) -> Classification:
    """All five reversibility flags plus the pairings that witness them."""
    inv, neg, flags = criteria(spec.blocks, *_EXACT)
    witness = {name: pairing.describe(spec) if pairing else f"none: {reason}"
               for name, (pairing, reason) in (("inverse", inv),
                                               ("neg_inverse", neg))}
    return Classification(**flags, witness_pairing=witness)
