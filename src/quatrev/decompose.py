"""Factorizations into two involutions or two skew-involutions.

From a conjugator g carrying A to A^{-1}: if g is an involution then
A = g * (gA) with both factors involutions; if g is a skew-involution then
A = (-g) * (gA) with both factors squaring to -I.  From an involution h
carrying A to -A^{-1}: A = (Ah) * h with the first factor a skew-involution
(hAh = -A^{-1} gives (Ah)^2 = -I) and the second an involution.  Each
factorization re-verifies the factor squares and the product before
returning.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import CertificateError, FlavorError, ShapeError
from .matrix import QMatrix, is_involution, is_skew_involution
from .reversers import (Certificate, FLAVOR_INVOLUTION, FLAVOR_SKEW,
                        TARGET_INVERSE, TARGET_NEG_INVERSE, VerifyReport,
                        check_certificate)

SQUARE_PLUS = "+I"
SQUARE_MINUS = "-I"


@dataclass(frozen=True)
class Factorization:
    s1: QMatrix
    s2: QMatrix
    s1_square: str
    s2_square: str

    def to_json(self) -> dict:
        return {
            "s1": self.s1.to_json(),
            "s2": self.s2.to_json(),
            "s1_square": self.s1_square,
            "s2_square": self.s2_square,
        }

    @classmethod
    def from_json(cls, obj) -> "Factorization":
        return cls(
            s1=QMatrix.from_json(obj["s1"]),
            s2=QMatrix.from_json(obj["s2"]),
            s1_square=obj["s1_square"],
            s2_square=obj["s2_square"],
        )


def _square_kind(m: QMatrix) -> str:
    if is_involution(m):
        return SQUARE_PLUS
    if is_skew_involution(m):
        return SQUARE_MINUS
    raise CertificateError("factor does not square to +I or -I")


def _checked(s1: QMatrix, s2: QMatrix, a: QMatrix,
             want1: str, want2: str) -> Factorization:
    k1, k2 = _square_kind(s1), _square_kind(s2)
    if (k1, k2) != (want1, want2):
        raise CertificateError("factor squares came out wrong")
    if s1 * s2 != a:
        raise CertificateError("factors do not multiply back to the input")
    return Factorization(s1=s1, s2=s2, s1_square=k1, s2_square=k2)


def _conjugator(a: QMatrix, cert: Certificate, target: str, flavor: str,
                need: str) -> QMatrix:
    if cert.target != target or cert.flavor != flavor:
        raise FlavorError(f"need {need}")
    if cert.g.n_rows != a.n_rows:
        raise ShapeError("certificate size does not match the matrix")
    return cert.g


def product_two_involutions(a: QMatrix, cert: Certificate) -> Factorization:
    """A = g * (gA) with g an involution conjugating A to its inverse."""
    g = _conjugator(a, cert, TARGET_INVERSE, FLAVOR_INVOLUTION,
                    "an involution certificate for the inverse")
    return _checked(g, g * a, a, SQUARE_PLUS, SQUARE_PLUS)


def product_two_skew_involutions(a: QMatrix, cert: Certificate) -> Factorization:
    """A = (-g) * (gA) with g a skew-involution conjugating A to its inverse."""
    g = _conjugator(a, cert, TARGET_INVERSE, FLAVOR_SKEW,
                    "a skew-involution certificate for the inverse")
    return _checked(-g, g * a, a, SQUARE_MINUS, SQUARE_MINUS)


def product_involution_skew(a: QMatrix, cert: Certificate) -> Factorization:
    """A = (Ah) * h with h an involution carrying A to -A^{-1}."""
    h = _conjugator(a, cert, TARGET_NEG_INVERSE, FLAVOR_INVOLUTION,
                    "an involution certificate for the negated inverse")
    return _checked(a * h, h, a, SQUARE_MINUS, SQUARE_PLUS)


def verify_certificate(a: QMatrix, cert: Certificate) -> VerifyReport:
    """Recompute every certificate check from scratch against A."""
    return check_certificate(cert.g, a, cert.target, cert.flavor)
