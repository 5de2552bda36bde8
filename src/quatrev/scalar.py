"""Exact scalar tower: rationals, complex rationals, and rational quaternions.

Rationals are stdlib ``fractions.Fraction`` (arbitrary precision, always
reduced, positive denominator).  A ``GaussianRational`` (exact complex
number) is one integer triple (x, y, z) meaning (x + y i)/z in lowest terms,
z > 0 and gcd(x, y, z) = 1: its equality, hash, arithmetic, inverse, class
representative, unit test and text (``str``) work on the triple's integers,
and its ``re`` and ``im`` are Fractions made from the triple when read.
``Quaternion`` (exact quaternions with the Hamilton product) holds four
Fractions.
Quaternionic spaces are treated as right modules throughout the package,
so similarity classes of eigenvalues are represented by the unique complex
number in the class with nonnegative imaginary part.
Binary operators of both types take only operands of their own type: for
any other they return NotImplemented, so ``gr(1) * 2`` and ``quat(1) + 1``
raise TypeError and ``gr(1) == 1`` is False.
Every number read from text matches one ASCII pattern whole, nothing
deleted from inside it: integers and rationals (``check``'s wire grammar),
complex literals built from the rational pattern, and the float
tolerances' decimals (``DECIMAL_RE``).
"""
from __future__ import annotations

import math
import re as _re
from dataclasses import dataclass
from fractions import Fraction

from .check import _INTEGER_RE, _RATIONAL_RE, quaternion_ints, rational_ints
from .errors import quoted

# real | [re op | sign] [im ["*" | "·"]] i, for rationals real and re, an
# unsigned rational im, op "+" or "-" and sign "+", "-" or none; whitespace
# only between tokens
_COMPLEX_RE = _re.compile(
    rf"\s*(?:(?P<real>{_RATIONAL_RE.pattern})"
    rf"|(?:(?P<re>{_RATIONAL_RE.pattern})\s*(?P<op>[+-])\s*|(?P<sign>[+-]?))"
    rf"(?:(?P<im>(?![+-]){_RATIONAL_RE.pattern})\s*(?:[*·]\s*)?)?i)\s*")
# an unsigned ASCII decimal, such as "0", "1.5", ".5" or "1e-9"
DECIMAL_RE = _re.compile(
    r"(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")


def parse_integer(text: str) -> int:
    """ASCII digits after an optional sign, nothing around them."""
    if not _INTEGER_RE.fullmatch(text):
        raise ValueError(f"not an integer literal: {quoted(text)}")
    return int(text)


def parse_rational(text: str) -> Fraction:
    """Parse the wire form of a rational: "p/q" or "p" (integers only)."""
    return Fraction(*rational_ints(text))


_ZERO = Fraction(0)


def _coerce_rational(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return parse_rational(x)
    raise TypeError(f"cannot interpret {quoted(x)} as an exact rational")


class GaussianRational:
    """Exact complex number (x + y i)/z held as one integer triple.

    The triple is in lowest terms: z > 0 and gcd(x, y, z) = 1, so equal
    numbers have equal triples and ``==`` and ``hash`` compare triples.
    ``re`` and ``im`` are read-only Fractions made from the triple on each
    read.  Instances are immutable.  Binary operators take only
    GaussianRational operands: for any other type they return
    NotImplemented, so ``gr(1) * 2`` raises TypeError and ``gr(1) == 1`` is
    False.
    """

    __slots__ = ("_ints",)

    def __init__(self, re, im):
        """re + im*i for rationals re and im (Fractions or ints)."""
        # over the lcm of the two reduced denominators, gcd(x, y, z) = 1
        b, d = re.denominator, im.denominator
        z = math.lcm(b, d)
        x, y = re.numerator * (z // b), im.numerator * (z // d)
        object.__setattr__(self, "_ints", (x, y, z))

    def __setattr__(self, *args):
        raise AttributeError("complex rationals are immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        # copy and pickle rebuild from the triple, past __setattr__
        return _from_lowest, self._ints

    @property
    def re(self) -> Fraction:
        x, _, z = self._ints
        return Fraction(x, z)

    @property
    def im(self) -> Fraction:
        _, y, z = self._ints
        return Fraction(y, z)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self._ints == other._ints

    def __hash__(self):
        return hash(self._ints)

    def __repr__(self) -> str:
        return f"GaussianRational(re={self.re!r}, im={self.im!r})"

    def _sum(self, other, sign):
        if not isinstance(other, GaussianRational):
            return NotImplemented
        x1, y1, z1 = self._ints
        x2, y2, z2 = other._ints
        return _lowest(x1 * z2 + sign * x2 * z1, y1 * z2 + sign * y2 * z1,
                       z1 * z2)

    def __add__(self, other):
        return self._sum(other, 1)

    def __sub__(self, other):
        return self._sum(other, -1)

    def __neg__(self) -> "GaussianRational":
        x, y, z = self._ints
        return _from_lowest(-x, -y, z)

    def __mul__(self, other):
        if not isinstance(other, GaussianRational):
            return NotImplemented
        x1, y1, z1 = self._ints
        x2, y2, z2 = other._ints
        return _lowest(x1 * x2 - y1 * y2, x1 * y2 + y1 * x2, z1 * z2)

    def __truediv__(self, other):
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self * other.inverse()

    def conjugate(self) -> "GaussianRational":
        x, y, z = self._ints
        return _from_lowest(x, -y, z)

    def norm_sq(self) -> Fraction:
        x, y, z = self._ints
        return Fraction(x * x + y * y, z * z)

    def inverse(self) -> "GaussianRational":
        """z (x - y i) / (x^2 + y^2); ZeroDivisionError at zero."""
        x, y, z = self._ints
        n = x * x + y * y
        if not n:
            raise ZeroDivisionError("zero has no inverse")
        return _lowest(z * x, -z * y, n)

    def power(self, k: int) -> "GaussianRational":
        """Integer power (negative exponents via the exact inverse)."""
        base = self if k >= 0 else self.inverse()
        out = GR_ONE
        for _ in range(abs(k)):
            out = out * base
        return out

    @property
    def is_real(self) -> bool:
        return not self._ints[1]

    @property
    def is_zero(self) -> bool:
        x, y, _ = self._ints
        return not (x or y)

    def to_quaternion(self) -> "Quaternion":
        return Quaternion(self.re, self.im, _ZERO, _ZERO)

    def to_complex(self) -> complex:
        x, y, z = self._ints
        return complex(x / z, y / z)

    def to_json(self) -> dict:
        return {"re": str(self.re), "im": str(self.im)}

    @classmethod
    def from_json(cls, obj) -> "GaussianRational":
        if not isinstance(obj, dict) or set(obj) != {"re", "im"}:
            raise ValueError(f"not a complex rational object: {quoted(obj)}")
        return cls(parse_rational(obj["re"]), parse_rational(obj["im"]))

    def __str__(self) -> str:
        """Written from the triple as the Fractions re and im would be."""
        x, y, z = self._ints
        if not y:
            return _ratio(x, z)
        imtxt = "i" if abs(y) == z else f"{_ratio(abs(y), z)}i"
        if not x:
            return imtxt if y > 0 else f"-{imtxt}"
        return f"{_ratio(x, z)}{'+' if y > 0 else '-'}{imtxt}"


def _ratio(p: int, q: int) -> str:
    """p/q (q > 0) as ``str(Fraction(p, q))`` writes it: "p/q" in lowest
    terms, or the integer alone."""
    g = math.gcd(p, q)
    return str(p // g) if q == g else f"{p // g}/{q // g}"


def _lowest(x, y, z) -> GaussianRational:
    """(x + y i)/z for integers x, y and z > 0, brought to lowest terms."""
    g = math.gcd(x, y, z)
    return _from_lowest(x // g, y // g, z // g)


def _from_lowest(x, y, z) -> GaussianRational:
    """(x + y i)/z for a triple already in lowest terms."""
    out = object.__new__(GaussianRational)
    object.__setattr__(out, "_ints", (x, y, z))
    return out


def gr(re, im=0) -> GaussianRational:
    """Convenience constructor accepting ints, Fractions, or "p/q" strings."""
    return GaussianRational(_coerce_rational(re), _coerce_rational(im))


GR_ZERO = gr(0)
GR_ONE = gr(1)
GR_I = gr(0, 1)


def parse_complex(text: str) -> GaussianRational:
    """Parse a compact complex literal: "2", "-1/2", "i", "3/5+4/5i", "1-i",
    "2*i", "3/5 + 4/5 i"; it matches ``_COMPLEX_RE`` whole or is refused."""
    m = _COMPLEX_RE.fullmatch(text)
    if m is None:
        raise ValueError(f"not a complex literal: {quoted(text)}")
    if m["real"]:
        return gr(m["real"])
    return gr(m["re"] or 0, (m["op"] or m["sign"]) + (m["im"] or "1"))


@dataclass(frozen=True)
class Quaternion:
    """Exact quaternion a + b*i + c*j + d*k with rational coefficients.

    Binary operators take only Quaternion operands: for any other type they
    return NotImplemented, so ``quat(1) + 1`` raises TypeError and
    ``quat(1) == 1`` is False.
    """

    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction

    def __add__(self, other: "Quaternion") -> "Quaternion":
        if not isinstance(other, Quaternion):
            return NotImplemented
        return Quaternion(self.a + other.a, self.b + other.b,
                          self.c + other.c, self.d + other.d)

    def __sub__(self, other: "Quaternion") -> "Quaternion":
        if not isinstance(other, Quaternion):
            return NotImplemented
        return Quaternion(self.a - other.a, self.b - other.b,
                          self.c - other.c, self.d - other.d)

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.a, -self.b, -self.c, -self.d)

    def __mul__(self, other: "Quaternion") -> "Quaternion":
        if not isinstance(other, Quaternion):
            return NotImplemented
        a1, b1, c1, d1 = self.a, self.b, self.c, self.d
        a2, b2, c2, d2 = other.a, other.b, other.c, other.d
        return Quaternion(
            a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
            a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
            a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
            a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
        )

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.a, -self.b, -self.c, -self.d)

    def norm_sq(self) -> Fraction:
        return (self.a * self.a + self.b * self.b
                + self.c * self.c + self.d * self.d)

    def inverse(self) -> "Quaternion":
        n = self.norm_sq()
        return Quaternion(self.a / n, -self.b / n, -self.c / n, -self.d / n)

    def complex_parts(self) -> tuple[GaussianRational, GaussianRational]:
        """Split q = z1 + z2*j with z1, z2 complex (k = i*j)."""
        return (GaussianRational(self.a, self.b),
                GaussianRational(self.c, self.d))

    @property
    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0 and self.c == 0 and self.d == 0

    @property
    def is_real(self) -> bool:
        return self.b == 0 and self.c == 0 and self.d == 0

    def to_json(self) -> list:
        return [str(v) for v in (self.a, self.b, self.c, self.d)]

    @classmethod
    def from_json(cls, obj) -> "Quaternion":
        return cls(*(Fraction(p, q) for p, q in quaternion_ints(obj)))

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        out = []
        for value, unit in ((self.a, ""), (self.b, "i"), (self.c, "j"), (self.d, "k")):
            if value == 0:
                continue
            sign = "-" if value < 0 else ("+" if out else "")
            mag = -value if value < 0 else value
            txt = unit if (mag == 1 and unit) else f"{mag}{unit}"
            out.append(sign + txt)
        return "".join(out)


def quat(a, b=0, c=0, d=0) -> Quaternion:
    """Convenience constructor accepting ints, Fractions, or "p/q" strings."""
    return Quaternion(*(_coerce_rational(v) for v in (a, b, c, d)))


Q_ZERO = quat(0)
Q_ONE = quat(1)
Q_I = quat(0, 1)
Q_J = quat(0, 0, 1)
Q_K = quat(0, 0, 0, 1)


def class_rep(lam: GaussianRational) -> GaussianRational:
    """Representative of the similarity class of lam: imaginary part >= 0."""
    return lam if lam._ints[1] >= 0 else lam.conjugate()


def class_rep_inverse(lam: GaussianRational) -> GaussianRational:
    """Representative of the class of lam^{-1}; equals lam/|lam|^2 when im(lam) >= 0."""
    return class_rep(lam.inverse())


def class_rep_neg_inverse(lam: GaussianRational) -> GaussianRational:
    """Representative of the class of -lam^{-1}.

    For im(lam) >= 0 this is (-re(lam) + im(lam)*i) / |lam|^2; it equals lam
    exactly when lam = i, the only class fixed by negated inversion.
    """
    return class_rep(-lam.inverse())
