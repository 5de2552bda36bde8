"""Exact scalar tower: rationals, complex rationals, and rational quaternions.

Rationals are stdlib ``fractions.Fraction`` (arbitrary precision, always
reduced, positive denominator).  On top of those sit ``GaussianRational``
(exact complex numbers) and ``Quaternion`` (exact quaternions with the
Hamilton product).  Quaternionic spaces are treated as right modules
throughout the package, so similarity classes of eigenvalues are represented
by the unique complex number in the class with nonnegative imaginary part.
``GaussianRational.norm_sq`` and ``inverse`` are computed in integers from
re + im i = (x + y i)/z, one Fraction per returned component.
"""
from __future__ import annotations

import re as _re
from dataclasses import dataclass
from fractions import Fraction

_RATIONAL_RE = _re.compile(r"([+-]?\d+)(?:/([1-9]\d*))?")


def rational_ints(text: str) -> tuple[int, int]:
    """The integers (p, q), q > 0, of the wire form "p/q" or "p" (q = 1),
    as written: not reduced."""
    m = _RATIONAL_RE.fullmatch(text.strip()) if isinstance(text, str) else None
    if m is None:
        raise ValueError(f"not a rational literal: {text!r}")
    p, q = m.groups()
    return int(p), int(q) if q else 1


def parse_rational(text: str) -> Fraction:
    """Parse the wire form of a rational: "p/q" or "p" (integers only)."""
    return Fraction(*rational_ints(text))


def quaternion_ints(obj) -> tuple[tuple[int, int], ...]:
    """The four (p, q) pairs of a quaternion's wire form, a list of four
    rational literals, each as ``rational_ints`` reads it."""
    if not isinstance(obj, (list, tuple)) or len(obj) != 4:
        raise ValueError(f"not a quaternion array: {obj!r}")
    return tuple(map(rational_ints, obj))


def format_rational(x: Fraction) -> str:
    return str(x)


_ZERO = Fraction(0)
_ONE = Fraction(1)


def _coerce_rational(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return parse_rational(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


@dataclass(frozen=True)
class GaussianRational:
    """Exact complex number re + im*i with rational parts."""

    re: Fraction
    im: Fraction

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __truediv__(self, other: "GaussianRational") -> "GaussianRational":
        return self * other.inverse()

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def _ratio(self) -> tuple[int, int, int]:
        """(x, y, z) with self = (x + y i)/z: x = a d, y = c b, z = b d
        for re = a/b and im = c/d."""
        b, d = self.re.denominator, self.im.denominator
        return self.re.numerator * d, self.im.numerator * b, b * d

    def norm_sq(self) -> Fraction:
        x, y, z = self._ratio()
        return Fraction(x * x + y * y, z * z)

    def inverse(self) -> "GaussianRational":
        x, y, z = self._ratio()
        n = x * x + y * y
        return GaussianRational(Fraction(x * z, n), Fraction(-y * z, n))

    def power(self, k: int) -> "GaussianRational":
        """Integer power (negative exponents via the exact inverse)."""
        base = self if k >= 0 else self.inverse()
        out = GR_ONE
        for _ in range(abs(k)):
            out = out * base
        return out

    @property
    def is_real(self) -> bool:
        return self.im == 0

    @property
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def to_quaternion(self) -> "Quaternion":
        return Quaternion(self.re, self.im, _ZERO, _ZERO)

    def to_complex(self) -> complex:
        return complex(float(self.re), float(self.im))

    def to_json(self) -> dict:
        return {"re": format_rational(self.re), "im": format_rational(self.im)}

    @classmethod
    def from_json(cls, obj) -> "GaussianRational":
        if not isinstance(obj, dict) or set(obj) != {"re", "im"}:
            raise ValueError(f"not a complex rational object: {obj!r}")
        return cls(parse_rational(obj["re"]), parse_rational(obj["im"]))

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.im > 0:
            sign, mag = "+", self.im
        else:
            sign, mag = "-", -self.im
        imtxt = "i" if mag == 1 else f"{mag}i"
        if self.re == 0:
            return imtxt if sign == "+" else f"-{imtxt}"
        return f"{self.re}{sign}{imtxt}"


def gr(re, im=0) -> GaussianRational:
    """Convenience constructor accepting ints, Fractions, or "p/q" strings."""
    return GaussianRational(_coerce_rational(re), _coerce_rational(im))


GR_ZERO = gr(0)
GR_ONE = gr(1)
GR_I = gr(0, 1)


_COMPLEX_STRIP = _re.compile(r"[\s*·]")


def parse_complex(text: str) -> GaussianRational:
    """Parse a compact complex literal: "2", "-1/2", "i", "3/5+4/5i", "1-i"."""
    s = _COMPLEX_STRIP.sub("", text)
    if not s:
        raise ValueError("empty complex literal")
    if not s.endswith("i"):
        return gr(parse_rational(s))
    body = s[:-1]
    # find a sign splitting real and imaginary parts (not the leading sign)
    for k in range(len(body) - 1, 0, -1):
        if body[k] in "+-" and body[k - 1] not in "+-/":
            re_part, im_part = body[:k], body[k:]
            break
    else:
        re_part, im_part = "", body
    if im_part in ("", "+"):
        im_val = _ONE
    elif im_part == "-":
        im_val = -_ONE
    else:
        im_val = parse_rational(im_part)
    re_val = parse_rational(re_part) if re_part else _ZERO
    return GaussianRational(re_val, im_val)


@dataclass(frozen=True)
class Quaternion:
    """Exact quaternion a + b*i + c*j + d*k with rational coefficients."""

    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction

    def __add__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.a + other.a, self.b + other.b,
                          self.c + other.c, self.d + other.d)

    def __sub__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.a - other.a, self.b - other.b,
                          self.c - other.c, self.d - other.d)

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.a, -self.b, -self.c, -self.d)

    def __mul__(self, other: "Quaternion") -> "Quaternion":
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
        return [format_rational(v) for v in (self.a, self.b, self.c, self.d)]

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
    return lam if lam.im >= 0 else lam.conjugate()


def class_rep_inverse(lam: GaussianRational) -> GaussianRational:
    """Representative of the class of lam^{-1}; equals lam/|lam|^2 when im(lam) >= 0."""
    if lam.is_zero:
        raise ZeroDivisionError("zero has no inverse class")
    return class_rep(lam.inverse())


def class_rep_neg_inverse(lam: GaussianRational) -> GaussianRational:
    """Representative of the class of -lam^{-1}.

    For im(lam) >= 0 this is (-re(lam) + im(lam)*i) / |lam|^2; it equals lam
    exactly when lam = i, the only class fixed by negated inversion.
    """
    if lam.is_zero:
        raise ZeroDivisionError("zero has no inverse class")
    return class_rep(-lam.inverse())
