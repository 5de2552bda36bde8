"""Factorizations into two involutions or two skew-involutions.

A certificate that passes ``verify_certificate`` splits A by algebra alone:
A g A = g with g^2 = I gives A = g (gA) and (gA)^2 = g (AgA) = I; with
g^2 = -I it gives A = (-g)(gA) and (gA)^2 = g^2 = -I; and A h A = -h with
h^2 = I gives A = (Ah) h and (Ah)^2 = (AhA) h = -I.  That one check stands
for the factor squares and the product.  A "general" certificate (its
square unchecked) gives no factorization.  ``factorize`` runs the same
checks as ``verify_certificate`` and keeps the first product of the
residual, g A for the inverse (A (g A)) and A g for the negated inverse
((A g) A): that is the factor gA or Ah, so the split multiplies nothing.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import CertificateError, FlavorError
from .matrix import QMatrix, conjugator_checks
from .reversers import (Certificate, FLAVOR_GENERAL, FLAVOR_INVOLUTION,
                        FLAVOR_SKEW, TARGET_INVERSE, TARGET_NEG_INVERSE,
                        VerifyReport, check_certificate)

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


# (target, flavor) -> (residual sign, square sign, split of A into (s1, s2)
# from g and the residual's first product P, s1^2, s2^2); P is g A for the
# inverse and A g for the negated inverse
_SPLITS = {
    (TARGET_INVERSE, FLAVOR_INVOLUTION):
        (1, 1, lambda g, p: (g, p), SQUARE_PLUS, SQUARE_PLUS),
    (TARGET_INVERSE, FLAVOR_SKEW):
        (1, -1, lambda g, p: (-g, p), SQUARE_MINUS, SQUARE_MINUS),
    (TARGET_NEG_INVERSE, FLAVOR_INVOLUTION):
        (-1, 1, lambda g, p: (p, g), SQUARE_MINUS, SQUARE_PLUS),
}


def verify_certificate(a: QMatrix, cert: Certificate) -> VerifyReport:
    """Recompute every certificate check from scratch against A."""
    return check_certificate(cert.g, a, cert.target, cert.flavor)


def factorize(a: QMatrix, cert: Certificate) -> Factorization:
    """A = s1 s2 read off a certificate that passes ``verify_certificate``;
    the factor other than +-g is the product the residual check formed."""
    split = _SPLITS.get((cert.target, cert.flavor))
    if split is None:
        if not verify_certificate(a, cert).ok:
            raise CertificateError("certificate failed verification")
        return _split(a, cert)
    checks, first = conjugator_checks(cert.g, a, *split[:2])
    if not all(checks):
        raise CertificateError("certificate failed verification")
    return _split(a, cert, QMatrix._of_ints(*first))


def _split(a: QMatrix, cert: Certificate, first=None) -> Factorization:
    """A = s1 s2 from a certificate already checked against A; ``first`` is
    the residual's first product, formed here if not given."""
    split = _SPLITS.get((cert.target, cert.flavor))
    if split is None:
        raise FlavorError(
            "a general certificate gives no factorization; need an "
            "involution or skew-involution certificate"
            if cert.flavor == FLAVOR_GENERAL
            else "need an involution certificate for the negated inverse")
    residual_sign, _, factors, s1_square, s2_square = split
    if first is None:
        first = cert.g * a if residual_sign > 0 else a * cert.g
    return Factorization(*factors(cert.g, first), s1_square, s2_square)


def _of_kind(a: QMatrix, cert: Certificate, target: str, flavor: str,
             need: str) -> Factorization:
    if (cert.target, cert.flavor) != (target, flavor):
        raise FlavorError(f"need {need}")
    return factorize(a, cert)


def product_two_involutions(a: QMatrix, cert: Certificate) -> Factorization:
    """A = g * (gA) with g an involution conjugating A to its inverse."""
    return _of_kind(a, cert, TARGET_INVERSE, FLAVOR_INVOLUTION,
                    "an involution certificate for the inverse")


def product_two_skew_involutions(a: QMatrix, cert: Certificate) -> Factorization:
    """A = (-g) * (gA) with g a skew-involution conjugating A to its inverse."""
    return _of_kind(a, cert, TARGET_INVERSE, FLAVOR_SKEW,
                    "a skew-involution certificate for the inverse")


def product_involution_skew(a: QMatrix, cert: Certificate) -> Factorization:
    """A = (Ah) * h with h an involution carrying A to -A^{-1}."""
    return _of_kind(a, cert, TARGET_NEG_INVERSE, FLAVOR_INVOLUTION,
                    "an involution certificate for the negated inverse")
