"""Reversibility classification of Jordan specs.

An element is conjugate to its inverse exactly when its Jordan blocks split
into inverse-partner pairs {J(lam,s), J(rep(lam^{-1}),s)} for classes off
the unit circle, with unit-modulus blocks free singletons.  It is strongly
reversible (product of two involutions) when additionally every non-real
unit-modulus class appears an even number of times at each block size.  It
is conjugate to the negative of its inverse when blocks split into
negated-inverse pairs, with only the class of i exempt.  In the projective
group the last condition and plain reversibility merge: an element is
reversible there iff it is reversible or negatively reversible in the
linear group, and then it is automatically strongly reversible there.
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
        bits = []
        for a, b in self.pairs:
            la, sa = spec.blocks[a]
            lb, sb = spec.blocks[b]
            bits.append(f"pair J({la},{sa}) <-> J({lb},{sb})")
        for s in self.singletons:
            lam, size = spec.blocks[s]
            bits.append(f"singleton J({lam},{size})")
        return "; ".join(bits)


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


def inverse_pairing(spec: JordanSpec) -> tuple[Optional[Pairing], Optional[str]]:
    """Pair non-unit blocks with their inverse class at equal size."""
    return _pair_blocks(spec.blocks, _is_unit, class_rep_inverse)


def involution_pairing(spec: JordanSpec) -> tuple[Optional[Pairing], Optional[str]]:
    """Pairs for an involution conjugator: inverse partners as above, and
    non-real unit blocks with an equal block (their class is their own
    inverse class); only +-1 blocks stay single."""
    return _pair_blocks(spec.blocks, lambda lam: lam.is_real and _is_unit(lam),
                        class_rep_inverse)


def neg_inverse_pairing(spec: JordanSpec) -> tuple[Optional[Pairing], Optional[str]]:
    """Pair blocks with the negated-inverse class; only i is self-paired."""
    return _pair_blocks(spec.blocks, lambda lam: lam == GR_I,
                        class_rep_neg_inverse)


def is_reversible(spec: JordanSpec) -> bool:
    pairing, _ = inverse_pairing(spec)
    return pairing is not None


def odd_unit_classes(spec: JordanSpec) -> list[tuple[GaussianRational, int]]:
    """(class, size) combinations of non-real unit classes with odd count."""
    counts: dict[tuple[GaussianRational, int], int] = {}
    for lam, size in spec.blocks:
        if lam._ints[1] > 0 and _is_unit(lam):
            counts[(lam, size)] = counts.get((lam, size), 0) + 1
    return sorted((block for block, c in counts.items() if c % 2 == 1),
                  key=block_order(counts, 1))


def is_strongly_reversible(spec: JordanSpec) -> bool:
    """Reversible with even multiplicity at every non-real unit (class, size)."""
    return is_reversible(spec) and not odd_unit_classes(spec)


def is_neg_reversible(spec: JordanSpec) -> bool:
    pairing, _ = neg_inverse_pairing(spec)
    return pairing is not None


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
    inv_pairing, inv_reason = inverse_pairing(spec)
    neg_pairing, neg_reason = neg_inverse_pairing(spec)
    reversible = inv_pairing is not None
    strongly = reversible and not odd_unit_classes(spec)
    neg = neg_pairing is not None
    psl = reversible or neg
    witness = {
        "inverse": (inv_pairing.describe(spec) if inv_pairing
                    else f"none: {inv_reason}"),
        "neg_inverse": (neg_pairing.describe(spec) if neg_pairing
                        else f"none: {neg_reason}"),
    }
    return Classification(
        reversible=reversible,
        strongly_reversible=strongly,
        neg_reversible=neg,
        psl_reversible=psl,
        psl_strongly_reversible=psl,
        witness_pairing=witness,
    )
