"""A sweep whose non-real non-unit class has its partners.

``EIG_POOL`` holds 1+i without its inverse-class partner (1+i)/2 or its
negated-inverse partner (-1+i)/2, so no spec of the main sweep holding 1+i
is reversible or negatively reversible, and the sweep cannot see a fault in
how such a pair is found or built.  ``PARTNER_POOL`` holds all three, with
i, -1, 2 and -1/2 beside them.  Over its total-size <= 6 sweep, the closed
form of ``test_dimension_oracle`` decides every "reversible" and
"negatively reversible", and every kind the flags admit assembles, passes
``verify_certificate`` and factors back to A; every other kind is refused.
"""
from conftest import sweep_blocks
from quatrev.canonical import JordanSpec, jordan_matrix
from quatrev.classify import classify_psl
from quatrev.decompose import factorize, verify_certificate
from quatrev.errors import NotConstructible
from quatrev.reversers import (FLAVOR_INVOLUTION, FLAVOR_SKEW, TARGET_INVERSE,
                               TARGET_NEG_INVERSE, _KINDS, assemble_reverser)
from quatrev.scalar import parse_complex
from test_dimension_oracle import dimensions

PARTNER_POOL = tuple(map(parse_complex, (
    "1+i", "1/2+1/2i", "-1/2+1/2i", "i", "-1", "2", "-1/2")))


def _admits(cls, target, flavor):
    if target == TARGET_NEG_INVERSE:
        return cls.neg_reversible
    if flavor == FLAVOR_INVOLUTION:
        return cls.strongly_reversible
    return cls.reversible


def test_partner_pool_sweep():
    specs = [JordanSpec.of(blocks)
             for blocks in sweep_blocks(max_total=6, pool=PARTNER_POOL)]
    assert len(specs) == 6741
    assert sorted(_KINDS) == sorted([(TARGET_INVERSE, FLAVOR_INVOLUTION),
                                     (TARGET_INVERSE, FLAVOR_SKEW),
                                     (TARGET_NEG_INVERSE, FLAVOR_INVOLUTION)])
    one_plus_i = PARTNER_POOL[0]
    reversible = neg_reversible = certificates = 0
    for spec in specs:
        cls = classify_psl(spec)
        dim_c, dim_plus, dim_minus = dimensions(spec)
        assert cls.reversible == (dim_plus == dim_c), spec
        assert cls.neg_reversible == (dim_minus == dim_c), spec
        if one_plus_i in spec.classes():
            reversible += cls.reversible
            neg_reversible += cls.neg_reversible
        a = jordan_matrix(spec)
        for target, flavor in _KINDS:
            if not _admits(cls, target, flavor):
                try:
                    assemble_reverser(spec, target, flavor)
                except NotConstructible:
                    continue
                raise AssertionError(f"{spec}: built {target} {flavor}")
            cert = assemble_reverser(spec, target, flavor)
            assert verify_certificate(a, cert).ok, spec
            f = factorize(a, cert)
            assert f.s1 * f.s2 == a, spec
            certificates += 1
    assert (reversible, neg_reversible) == (57, 31)
    assert certificates == 361
