"""Canonical forms: Jordan specs, Jordan matrices, and basic Weyr matrices.

A ``JordanSpec`` lists blocks (eigenvalue class representative, size) and is
normalized on construction: representatives get nonnegative imaginary part
and blocks sort by (re, im, size descending).  The Weyr form dual to a
single-eigenvalue Jordan structure is realized by an explicit basis
permutation: Jordan chains are enumerated longest first, then regrouped
level by level.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import accumulate

from .errors import SpecError
from .matrix import QMatrix
from .scalar import (GR_ZERO, Q_ONE, Q_ZERO, GaussianRational, class_rep,
                     gr, parse_complex)
from .partitions import Partition, WeyrStructure


@dataclass(frozen=True)
class JordanSpec:
    """Multiset of Jordan blocks in canonical order."""

    blocks: tuple[tuple[GaussianRational, int], ...]

    @classmethod
    def of(cls, blocks) -> "JordanSpec":
        normalized = []
        for lam, size in blocks:
            if isinstance(lam, str):
                lam = parse_complex(lam)
            if not isinstance(lam, GaussianRational):
                lam = gr(lam)
            if lam.is_zero:
                raise SpecError("Jordan blocks must have nonzero eigenvalue")
            if (not isinstance(size, int) or isinstance(size, bool)
                    or size < 1):
                raise SpecError("block sizes must be positive integers")
            normalized.append((class_rep(lam), size))
        if not normalized:
            raise SpecError("spec must contain at least one block")
        normalized.sort(key=lambda bl: (bl[0].re, bl[0].im, -bl[1]))
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


def offsets(sizes) -> list[int]:
    """Start of each consecutive run of the given sizes."""
    return list(accumulate(sizes, initial=0))[:-1]


def _jordan(blocks) -> QMatrix:
    """Direct sum of J(lam, size) over (lam, size) in order, built in its
    integer form over d, the lcm of every lam's denominators."""
    d = math.lcm(*(f.denominator for lam, _ in blocks
                   for f in (lam.re, lam.im)))
    n = sum(size for _, size in blocks)
    rows = [[None] * n for _ in range(n)]
    i = 0
    for lam, size in blocks:
        re, im = lam.re, lam.im
        diag = ((re.numerator * (d // re.denominator),
                 im.numerator * (d // im.denominator), 0, 0)
                if re or im else None)
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


def jordan_matrix(spec: JordanSpec) -> QMatrix:
    """Direct sum of the spec's blocks in canonical order."""
    return _jordan(spec.blocks)


def basic_weyr_matrix(lam: GaussianRational, w: WeyrStructure) -> QMatrix:
    """Basic Weyr matrix: lam*I diagonal blocks, echelon identity above.

    The block over positions (i, i+1) is the sizes[i] x sizes[i+1] identity
    followed by zero rows.
    """
    sizes = w.sizes
    n = w.total
    offs = offsets(sizes)
    lam_q = lam.to_quaternion()
    grid = [[Q_ZERO] * n for _ in range(n)]
    for i in range(n):
        grid[i][i] = lam_q
    for b in range(len(sizes) - 1):
        for t in range(sizes[b + 1]):
            grid[offs[b] + t][offs[b + 1] + t] = Q_ONE
    return QMatrix(grid)


def jordan_weyr_permutation(p: Partition) -> QMatrix:
    """Permutation P with P * J * P^{-1} the basic Weyr matrix for p.

    J is the single-eigenvalue Jordan matrix with chain lengths p (longest
    first); the new basis lists level 1 of every chain, then level 2, and so
    on, keeping chain order inside each level.
    """
    parts = p.parts
    n = p.total
    chain_offsets = offsets(parts)
    new_index = {}
    pos = 0
    for level in range(1, parts[0] + 1):
        for chain, length in enumerate(parts):
            if length >= level:
                old = chain_offsets[chain] + (level - 1)
                new_index[old] = pos
                pos += 1
    grid = [[Q_ZERO] * n for _ in range(n)]
    for old, new in new_index.items():
        grid[new][old] = Q_ONE
    return QMatrix(grid)


def weyr_centralizer_sample(w: WeyrStructure, seed: int) -> QMatrix:
    """Random complex matrix commuting with every basic Weyr matrix on w.

    Blocked as K[i][j] with K[i][j] = [[K[i+1][j+1], *], [0, *]] for
    i <= j < r, last block column unconstrained, lower blocks zero.  For
    the structure (1,...,1) the pattern collapses to upper-triangular
    Toeplitz.
    """
    rng = random.Random(seed)
    sizes = w.sizes
    r = len(sizes)

    def rand_block(rows, cols):
        return [[gr(rng.randint(-9, 9), rng.randint(-9, 9))
                 for _ in range(cols)] for _ in range(rows)]

    blocks: dict[tuple[int, int], list[list[GaussianRational]]] = {}
    for diag in range(r):
        for i in range(r - diag, 0, -1):  # 1-indexed block row
            j = i + diag
            if j == r:
                blocks[(i, j)] = rand_block(sizes[i - 1], sizes[j - 1])
                continue
            inner = blocks[(i + 1, j + 1)]
            rows, cols = sizes[i - 1], sizes[j - 1]
            in_rows, in_cols = sizes[i], sizes[j]
            block = rand_block(rows, cols)
            for a in range(in_rows):
                for b in range(in_cols):
                    block[a][b] = inner[a][b]
            for a in range(in_rows, rows):
                for b in range(in_cols):
                    block[a][b] = GR_ZERO
            blocks[(i, j)] = block

    offs = offsets(sizes)
    n = w.total
    grid = [[GR_ZERO] * n for _ in range(n)]
    for (i, j), block in blocks.items():
        for a, row in enumerate(block):
            for b, x in enumerate(row):
                grid[offs[i - 1] + a][offs[j - 1] + b] = x
    return QMatrix([[x.to_quaternion() for x in row] for row in grid])
