"""Factorizations into two involutions or two skew-involutions.

A certificate that passes ``verify_certificate`` splits A by algebra alone:
A g A = g with g^2 = I gives A = g (gA) and (gA)^2 = g (AgA) = I; with
g^2 = -I it gives A = (-g)(gA) and (gA)^2 = g^2 = -I; and A h A = -h with
h^2 = I gives A = (Ah) h and (Ah)^2 = (AhA) h = -I.  That one check stands
for the factor squares and the product.  Each split is read from the kind
table in ``reversers``; other kinds ("general", or a skew-involution for
the negated inverse) give no factorization.  ``factorize``, the one place
a certificate is split, and ``verify_certificate`` both call ``check.check``;
``factorize`` keeps the first product of the residual, g A for the inverse
(A (g A)) and A g for the negated inverse ((A g) A): that is the factor gA
or Ah, so the split multiplies nothing.
"""
from __future__ import annotations

from dataclasses import dataclass

from .check import (FLAVOR_GENERAL, FLAVOR_INVOLUTION, FLAVOR_SKEW,
                    TARGET_INVERSE, TARGET_NEG_INVERSE, VerifyReport, check)
from .errors import CertificateError, FlavorError
from .matrix import QMatrix
from .reversers import _KINDS, Certificate


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


def verify_certificate(a: QMatrix, cert: Certificate) -> VerifyReport:
    """Recompute every certificate check from scratch against A."""
    return check(cert.g._ints, a._ints, cert.target, cert.flavor)[0]


def factorize(a: QMatrix, cert: Certificate) -> Factorization:
    """A = s1 s2 read off a certificate that passes ``verify_certificate``;
    the factor other than +-g is the product the residual check formed."""
    report, first = check(cert.g._ints, a._ints, cert.target, cert.flavor)
    if not report.ok:
        raise CertificateError("certificate failed verification")
    kind = _KINDS.get((cert.target, cert.flavor))
    if kind is None:
        raise FlavorError(
            "a general certificate gives no factorization; need an "
            "involution or skew-involution certificate"
            if cert.flavor == FLAVOR_GENERAL
            else "need an involution certificate for the negated inverse")
    factors, *squares = kind[2:]
    return Factorization(*factors(cert.g, QMatrix._of_ints(*first)), *squares)


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
