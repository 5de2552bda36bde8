"""Canonical forms: Jordan specs, Jordan matrices, and basic Weyr matrices.

A ``JordanSpec`` lists blocks (eigenvalue class representative, size) and is
normalized on construction: representatives get nonnegative imaginary part
and blocks sort by (re, im, size descending), compared in integers read
off each eigenvalue's triple (``block_order``); a block already in that
form is shared with the caller, not copied.  ``jordan_matrix`` is memoized
on the spec.  The Weyr form dual to a single-eigenvalue Jordan structure is
realized by an explicit basis permutation: Jordan chains are enumerated
longest first, then regrouped level by level.  The level layer is built in
the integer form, and entries placed along level blocks go through
``level_matrix``.
"""
from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from itertools import accumulate

from .errors import SpecError
from .matrix import QMatrix
from .scalar import GaussianRational, class_rep, gr, parse_complex
from .partitions import Partition, WeyrStructure

# Jordan matrices memoized by spec (both are immutable): a certifying
# caller builds A, and ``assemble_reverser`` needs the same A for its check
_JORDAN_MEMO = 256


@dataclass(frozen=True)
class JordanSpec:
    """Multiset of Jordan blocks in canonical order.

    A caller's block that is already canonical, a plain tuple whose
    eigenvalue is its own class representative, is kept as given rather
    than copied, so specs drawn from shared blocks share them."""

    # written out, not ``slots=True``: that rebuilds the class, and the
    # frozen ``__setattr__`` of the rebuilt one raises TypeError, not
    # FrozenInstanceError, for a name that is not a field
    __slots__ = ("blocks",)

    blocks: tuple[tuple[GaussianRational, int], ...]

    def __reduce__(self):
        # copied through the constructor: a frozen spec refuses the setattr
        # that restoring a slot state would make
        return JordanSpec, (self.blocks,)

    @classmethod
    def of(cls, blocks) -> "JordanSpec":
        normalized = []
        for block in blocks:
            lam, size = block
            if not isinstance(lam, GaussianRational):
                lam = parse_complex(lam) if isinstance(lam, str) else gr(lam)
            if lam.is_zero:
                raise SpecError("Jordan blocks must have nonzero eigenvalue")
            if (not isinstance(size, int) or isinstance(size, bool)
                    or size < 1):
                raise SpecError("block sizes must be positive integers")
            rep = class_rep(lam)
            normalized.append(block if type(block) is tuple
                              and block[0] is rep else (rep, size))
        if not normalized:
            raise SpecError("spec must contain at least one block")
        normalized.sort(key=block_order(normalized, -1))
        return cls(tuple(normalized))

    @property
    def total_size(self) -> int:
        return sum(size for _, size in self.blocks)

    def classes(self) -> tuple[GaussianRational, ...]:
        """Distinct eigenvalue representatives in canonical order."""
        return tuple(dict.fromkeys(lam for lam, _ in self.blocks))

    def class_partition(self, lam: GaussianRational) -> Partition:
        sizes = [size for mu, size in self.blocks if mu == lam]
        if not sizes:
            raise SpecError(f"no blocks with eigenvalue {lam}")
        return Partition.of(sizes)

    def block_offsets(self) -> tuple[int, ...]:
        """Row offset of each block inside the assembled matrix."""
        return tuple(offsets(size for _, size in self.blocks))

    def to_json(self) -> dict:
        return {"blocks": [{"re": str(lam.re), "im": str(lam.im), "size": size}
                           for lam, size in self.blocks]}

    @classmethod
    def from_json(cls, obj) -> "JordanSpec":
        items = obj.get("blocks") if isinstance(obj, dict) else None
        if not isinstance(items, list):
            raise ValueError("not a Jordan spec object")
        blocks = []
        for k, item in enumerate(items):
            if not (isinstance(item, dict)
                    and {"re", "im", "size"} <= item.keys()):
                raise ValueError(f'spec block {k} needs "re", "im" and "size"')
            lam = GaussianRational.from_json({"re": item["re"], "im": item["im"]})
            blocks.append((lam, item["size"]))
        return cls.of(blocks)

    def __str__(self) -> str:
        return " + ".join(f"J({lam},{size})" for lam, size in self.blocks)


def block_order(blocks, size_sign: int):
    """A sort key on (lam, size) blocks that orders them exactly as
    (re(lam), im(lam), size_sign * size) does, in integers: each lam =
    (x + y i)/z is read as (x L/z, y L/z) for L the lcm of every z."""
    lcm = math.lcm(*(lam._ints[2] for lam, _ in blocks))

    def key(block):
        (x, y, z), size = block[0]._ints, block[1]
        return x * (lcm // z), y * (lcm // z), size_sign * size
    return key


def offsets(sizes) -> list[int]:
    """Start of each consecutive run of the given sizes."""
    return list(accumulate(sizes, initial=0))[:-1]


def _jordan(blocks) -> QMatrix:
    """Direct sum of J(lam, size) over (lam, size) in order, built in its
    integer form over d, the lcm of every lam's denominator z."""
    d = math.lcm(*(lam._ints[2] for lam, _ in blocks))
    n = sum(size for _, size in blocks)
    rows = [[None] * n for _ in range(n)]
    i = 0
    for lam, size in blocks:
        x, y, z = lam._ints
        diag = (x * (d // z), y * (d // z), 0, 0) if x or y else None
        for t in range(size):
            rows[i][i] = diag
            if t + 1 < size:
                rows[i][i + 1] = (d, 0, 0, 0)
            i += 1
    return QMatrix._of_ints(d, rows)


def jordan_block(lam: GaussianRational, size: int) -> QMatrix:
    """Single upper Jordan block: lam on the diagonal, 1 above it."""
    if size < 1:
        raise SpecError("block size must be positive")
    return _jordan([(lam, size)])


@functools.lru_cache(maxsize=_JORDAN_MEMO)
def jordan_matrix(spec: JordanSpec) -> QMatrix:
    """Direct sum of the spec's blocks in canonical order, memoized on the
    spec (at most ``_JORDAN_MEMO`` matrices)."""
    return _jordan(spec.blocks)


def level_matrix(sizes, d, grid) -> QMatrix:
    """The matrix over d blocked along the non-increasing level sizes whose
    (i, j) block is the integer 4-tuple grid[i][j] (None for zero) down the
    diagonal of its leading min(sizes[i], sizes[j]) square."""
    offs = offsets(sizes)
    n = sum(sizes)
    rows = [[None] * n for _ in range(n)]
    for i, grid_row in enumerate(grid):
        for j, e in enumerate(grid_row):
            for t in range(min(sizes[i], sizes[j]) if e else 0):
                rows[offs[i] + t][offs[j] + t] = e
    return QMatrix._of_ints(d, rows)


def basic_weyr_matrix(lam: GaussianRational, w: WeyrStructure) -> QMatrix:
    """Basic Weyr matrix: lam*I diagonal blocks, echelon identity above.

    The block over positions (i, i+1) is the sizes[i] x sizes[i+1] identity
    followed by zero rows.
    """
    x, y, z = lam._ints
    diag = (x, y, 0, 0) if x or y else None
    r = len(w.sizes)
    return level_matrix(w.sizes, z, [
        [diag if j == i else (z, 0, 0, 0) if j == i + 1 else None
         for j in range(r)] for i in range(r)])


def jordan_weyr_permutation(p: Partition) -> QMatrix:
    """Permutation P with P * J * P^{-1} the basic Weyr matrix for p.

    J is the single-eigenvalue Jordan matrix with chain lengths p (longest
    first); the new basis lists level 1 of every chain, then level 2, and so
    on, keeping chain order inside each level.
    """
    chain_offsets = offsets(p.parts)
    order = [chain_offsets[chain] + level for level in range(p.parts[0])
             for chain, length in enumerate(p.parts) if length > level]
    return QMatrix._of_ints(1, [[(1, 0, 0, 0) if j == k else None
                                 for j in range(p.total)] for k in order])


def weyr_centralizer_sample(w: WeyrStructure, seed: int) -> QMatrix:
    """Random complex matrix commuting with every basic Weyr matrix on w.

    Blocked as K[i][j] with K[i][j] = [[K[i+1][j+1], *], [0, *]] for
    i <= j < r, last block column unconstrained, lower blocks zero.  For
    the structure (1,...,1) the pattern collapses to upper-triangular
    Toeplitz.  Every entry re + im i of a block is drawn, re and im in
    [-9, 9], from the last block row up each block diagonal.
    """
    rng = random.Random(seed)
    sizes = w.sizes
    r = len(sizes)
    offs = offsets(sizes)
    rows = [[None] * w.total for _ in range(w.total)]
    for diag in range(r):
        for i in range(r - 1 - diag, -1, -1):
            j = i + diag
            inner = (0, 0) if j == r - 1 else (sizes[i + 1], sizes[j + 1])
            for a in range(sizes[i]):
                for b in range(sizes[j]):
                    x, y = rng.randint(-9, 9), rng.randint(-9, 9)
                    if b >= inner[1]:
                        e = (x, y, 0, 0) if x or y else None
                    else:  # copied from K[i+1][j+1], or zero below it
                        e = (rows[offs[i + 1] + a][offs[j + 1] + b]
                             if a < inner[0] else None)
                    rows[offs[i] + a][offs[j] + b] = e
    return QMatrix._of_ints(1, rows)
