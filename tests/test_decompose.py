"""Products of two (skew-)involutions and certificate verification."""
import dataclasses
import json
import pathlib

import pytest

from quatrev.canonical import JordanSpec, jordan_matrix
from quatrev.check import (FLAVOR_INVOLUTION, FLAVOR_SKEW, FLAVORS,
                           TARGET_INVERSE, TARGET_NEG_INVERSE, TARGETS)
from quatrev.decompose import (Factorization, factorize,
                               product_involution_skew,
                               product_two_involutions,
                               product_two_skew_involutions,
                               verify_certificate)
from quatrev.errors import (CertificateError, DomainError, FlavorError,
                            NotConstructible, ShapeError)
from quatrev.matrix import QMatrix, is_involution, is_skew_involution
from quatrev.reversers import Certificate, assemble_reverser
from quatrev.scalar import Q_ONE, gr, quat

from conftest import sweep_blocks


def build(spec_blocks, **kw):
    spec = JordanSpec.of(spec_blocks)
    return jordan_matrix(spec), assemble_reverser(spec, **kw)


def test_product_two_involutions():
    a, cert = build([(gr(2), 1), (gr("1/2"), 1)], flavor="involution")
    f = product_two_involutions(a, cert)
    assert is_involution(f.s1) and is_involution(f.s2)
    assert f.s1 * f.s2 == a
    assert f.s1_square == "+I" and f.s2_square == "+I"


def test_product_two_skew_involutions():
    a, cert = build([(gr(0, 1), 3)], flavor="skew-involution")
    f = product_two_skew_involutions(a, cert)
    assert is_skew_involution(f.s1) and is_skew_involution(f.s2)
    assert f.s1 * f.s2 == a
    assert f.s1_square == "-I" and f.s2_square == "-I"


def test_product_involution_skew():
    a, cert = build([(gr(0, 1), 2)], target="neg-inverse")
    f = product_involution_skew(a, cert)
    assert is_skew_involution(f.s1) and is_involution(f.s2)
    assert f.s1 * f.s2 == a
    assert f.s1_square == "-I" and f.s2_square == "+I"


def test_factorization_flavor_mismatch():
    a, cert = build([(gr(0, 1), 1)])          # skew certificate
    with pytest.raises(FlavorError):
        product_two_involutions(a, cert)
    a2, cert2 = build([(gr(2), 1), (gr("1/2"), 1)])   # involution
    with pytest.raises(FlavorError):
        product_two_skew_involutions(a2, cert2)
    with pytest.raises(FlavorError):
        product_involution_skew(a2, cert2)    # needs neg-inverse target


def test_factorization_json_round_trip():
    a, cert = build([(gr(2), 1), (gr("1/2"), 1)])
    f = product_two_involutions(a, cert)
    again = Factorization.from_json(f.to_json())
    assert again.s1 == f.s1 and again.s2 == f.s2
    assert again.s1_square == f.s1_square


def test_verify_certificate_good():
    a, cert = build([(gr(1), 2), (gr(0, 1), 1)], flavor="skew-involution")
    report = verify_certificate(a, cert)
    assert report.ok
    assert report.to_json()["ok"] is True
    assert report.to_json()["residual_zero"] is True


def test_verify_certificate_catches_tampering():
    a, cert = build([(gr(2), 1), (gr("1/2"), 1)])
    doctored = Certificate.from_json({
        "target": cert.target,
        "flavor": cert.flavor,
        "g": QMatrix.identity(2).to_json(),
        "checks": cert.to_json()["checks"],
    })
    report = verify_certificate(a, doctored)
    assert not report.ok
    assert report.to_json()["residual_zero"] is False


def test_verify_certificate_wrong_flavor_claim():
    a, cert = build([(gr(0, 1), 1)])   # g = j, a skew-involution
    claimed = Certificate.from_json({
        "target": cert.target,
        "flavor": "involution",
        "g": cert.g.to_json(),
        "checks": {"residual_zero": True, "flavor_verified": True,
                   "det_one": True},
    })
    report = verify_certificate(a, claimed)
    assert not report.ok
    assert report.to_json()["flavor_verified"] is False
    assert report.to_json()["residual_zero"] is True


def test_factorize_refuses_kinds_without_a_split():
    # A = i: g = i passes every check for the negated inverse as a
    # skew-involution (i i i = -i, i^2 = -1), a kind with no split
    a = QMatrix([[quat(0, 1)]])
    for flavor, word in (("skew-involution", "negated inverse"),
                         ("general", "general")):
        cert = Certificate(g=a, target=TARGET_NEG_INVERSE, flavor=flavor,
                           residual_zero=True, flavor_verified=True,
                           det_one=True)
        assert verify_certificate(a, cert).ok
        with pytest.raises(FlavorError, match=word):
            factorize(a, cert)


_INPUTS = pathlib.Path(__file__).resolve().parent / "golden" / "inputs"


@pytest.mark.parametrize("tampered", [False, True])
@pytest.mark.parametrize("flavor", FLAVORS)
@pytest.mark.parametrize("target", TARGETS)
@pytest.mark.parametrize("source", ["inv-involution", "inv-skew",
                                    "neg-involution"])
def test_factorize_agrees_with_verify_for_every_kind(source, target, flavor,
                                                     tampered):
    """A dense golden certificate, relabelled to (target, flavor) and maybe
    tampered: ``factorize`` raises CertificateError iff the certificate fails
    ``verify_certificate``, else FlavorError iff its kind has no split, else
    returns s1 s2 = A with the squares it names."""
    a = QMatrix.from_json(json.loads(
        (_INPUTS / f"{source}.dense-matrix.json").read_text()))
    obj = json.loads((_INPUTS / f"{source}.dense-cert.json").read_text())
    obj.update(target=target, flavor=flavor)
    if tampered:
        obj["g"]["entries"][0][0][0] = "17"
    cert = Certificate.from_json(obj)
    if not verify_certificate(a, cert).ok:
        with pytest.raises(CertificateError):
            factorize(a, cert)
    elif (target, flavor) not in ((TARGET_INVERSE, FLAVOR_INVOLUTION),
                                  (TARGET_INVERSE, FLAVOR_SKEW),
                                  (TARGET_NEG_INVERSE, FLAVOR_INVOLUTION)):
        with pytest.raises(FlavorError):
            factorize(a, cert)
    else:
        f = factorize(a, cert)
        assert f.s1 * f.s2 == a
        for s, square in ((f.s1, f.s1_square), (f.s2, f.s2_square)):
            assert (is_involution if square == "+I"
                    else is_skew_involution)(s)


def test_factorize_keeps_the_checked_product():
    # the factor other than +-g is the residual's first product, formed here:
    # g A for the inverse, A g for the negated inverse
    for blocks, kw, factors in (
            ([(gr(2), 2), (gr("1/2"), 2)], {}, lambda g, a: (g, g * a)),
            ([(gr(0, 1), 3)], {"flavor": "skew-involution"},
             lambda g, a: (-g, g * a)),
            ([(gr(0, 1), 3)], {"target": "neg-inverse"},
             lambda g, a: (a * g, g))):
        a, cert = build(blocks, **kw)
        f = factorize(a, cert)
        assert (f.s1, f.s2) == factors(cert.g, a)


def test_factorize_rejects_sizes_and_names_as_verify_does():
    _, cert = build([(gr(2), 1), (gr("1/2"), 1)])
    small = QMatrix([[quat(2)]])
    for target in TARGETS:
        for flavor in FLAVORS:
            other = dataclasses.replace(cert, target=target, flavor=flavor)
            for fn in (verify_certificate, factorize):
                with pytest.raises(ShapeError, match="sizes do not match"):
                    fn(small, other)
    with pytest.raises(DomainError, match="unknown target"):
        factorize(small, dataclasses.replace(cert, target="inverse?"))


def test_verify_certificate_singular_matrix():
    a = QMatrix([[quat(1), quat(0)], [quat(0), quat(0)]])
    _, cert = build([(gr(2), 1), (gr("1/2"), 1)])
    report = verify_certificate(a, cert)
    assert report.residual_zero is False
    assert report.ok is False
    assert report.det_one is True


def test_product_involution_skew_singular_certificate():
    # s1 = A h needs no inverse: a singular h is caught by the square checks
    a, _ = build([(gr(0, 1), 2)], target="neg-inverse")
    h = QMatrix([[quat(1), quat(1)], [quat(1), quat(1)]])
    cert = Certificate(g=h, target=TARGET_NEG_INVERSE,
                       flavor=FLAVOR_INVOLUTION, residual_zero=True,
                       flavor_verified=True, det_one=True)
    with pytest.raises(CertificateError):
        product_involution_skew(a, cert)


# (target, flavor) -> factorization and the squares it reports
_PRODUCTS = {
    (TARGET_INVERSE, FLAVOR_INVOLUTION): (product_two_involutions,
                                          ("+I", "+I")),
    (TARGET_INVERSE, FLAVOR_SKEW): (product_two_skew_involutions,
                                    ("-I", "-I")),
    (TARGET_NEG_INVERSE, FLAVOR_INVOLUTION): (product_involution_skew,
                                              ("-I", "+I")),
}


def _tampered(g):
    rows = [list(row) for row in g.entries]
    rows[0][0] = rows[0][0] + Q_ONE
    return QMatrix(rows)


def test_sweep_factor_checks_and_refusals():
    """Factorizations trust the one certificate check; this re-derives the
    factor squares and the product for every admitted certificate of the
    total-size <= 5 sweep (802 certificates, about 3 s), and checks that
    a tampered g and a certificate of another kind are refused."""
    done = 0
    for blocks in sweep_blocks(max_total=5):
        spec = JordanSpec.of(blocks)
        a = jordan_matrix(spec)
        ident = QMatrix.identity(a.n_rows)
        square = {"+I": ident, "-I": -ident}
        for kind, (product, squares) in _PRODUCTS.items():
            try:
                cert = assemble_reverser(spec, *kind)
            except NotConstructible:
                continue
            f = product(a, cert)
            assert (f.s1_square, f.s2_square) == squares
            assert f.s1 * f.s1 == square[f.s1_square]
            assert f.s2 * f.s2 == square[f.s2_square]
            assert f.s1 * f.s2 == a
            with pytest.raises(CertificateError):
                product(a, dataclasses.replace(cert, g=_tampered(cert.g)))
            for other, _ in _PRODUCTS.values():
                if other is not product:
                    with pytest.raises(FlavorError):
                        other(a, cert)
            done += 1
    assert done == 802
