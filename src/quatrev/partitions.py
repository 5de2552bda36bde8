"""Integer partitions and the conjugate (transpose) duality.

A partition stores its parts in non-increasing order; the exponent form
groups equal parts as [d1^t1, ..., ds^ts] with d1 > ... > ds.  Conjugation
counts columns of the Young diagram.  The conjugate partition is also the
Weyr structure of a nilpotent map whose Jordan block sizes are the original
parts.  ``parse_partition`` strips whitespace around a number, never inside.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby

from .errors import SpecError, quoted
from .scalar import parse_integer


@dataclass(frozen=True)
class Partition:
    parts: tuple[int, ...]

    def __post_init__(self):
        if not self.parts:
            raise SpecError("partition must be nonempty")
        if any(not isinstance(p, int) or p < 1 for p in self.parts):
            raise SpecError("parts must be positive integers")
        if any(self.parts[i] < self.parts[i + 1]
               for i in range(len(self.parts) - 1)):
            raise SpecError("parts must be non-increasing")

    @classmethod
    def of(cls, parts) -> "Partition":
        return cls(tuple(sorted(parts, reverse=True)))

    @classmethod
    def from_exponents(cls, pairs) -> "Partition":
        """Build from [(part, multiplicity), ...]."""
        parts = []
        for d, t in pairs:
            if t < 1:
                raise SpecError("multiplicities must be positive")
            parts.extend([d] * t)
        return cls.of(parts)

    @property
    def total(self) -> int:
        return sum(self.parts)

    @property
    def exponent_form(self) -> tuple[tuple[int, int], ...]:
        """Distinct parts with multiplicities, largest part first."""
        return tuple((d, len(list(run))) for d, run in groupby(self.parts))

    def conjugate(self) -> "Partition":
        """Column counting: part j of the conjugate is #{i : parts[i] >= j}."""
        return Partition(tuple(sum(1 for part in self.parts if part >= j)
                               for j in range(1, self.parts[0] + 1)))

    def __str__(self) -> str:
        return "[" + ",".join(f"{d}^{t}" for d, t in self.exponent_form) + "]"


@dataclass(frozen=True)
class WeyrStructure:
    """Non-increasing level sizes of a nilpotent structure."""

    sizes: tuple[int, ...]

    def __post_init__(self):
        Partition(self.sizes)  # same validity conditions

    @property
    def total(self) -> int:
        return sum(self.sizes)

    def to_partition(self) -> Partition:
        return Partition(self.sizes)

    def __str__(self) -> str:
        return "(" + ",".join(str(s) for s in self.sizes) + ")"


def weyr_structure_of(p: Partition) -> WeyrStructure:
    """Weyr structure dual to Jordan block sizes: the conjugate partition."""
    return WeyrStructure(p.conjugate().parts)


def parse_partition(text: str) -> Partition:
    """Parse "3,2,2" or "[3^2,1^1]"; a number ``parse_integer`` refuses once
    stripped of the whitespace around it, or an item that is not one "d^t",
    makes the literal bad."""
    s = text.strip()
    if not s:
        raise SpecError("empty partition")
    try:
        if s.startswith("[") and s.endswith("]"):
            return Partition.from_exponents(
                map(parse_integer, map(str.strip, item.split("^")))
                for item in s[1:-1].split(","))
        return Partition.of([parse_integer(x.strip()) for x in s.split(",")])
    except ValueError as exc:
        raise SpecError(f"bad partition literal: {quoted(text)}") from exc
