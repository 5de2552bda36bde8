"""Reversing conjugators: single blocks, shapes, Weyr form, assembly."""
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (NotSingleBlock, conjugacy_residual,
                      naive_block_reverser, neg_i_closed_form, rng_for,
                      rand_gr, single_block_conjugator, sub_block,
                      toeplitz_build)
from quatrev.canonical import (JordanSpec, jordan_block, jordan_matrix,
                               basic_weyr_matrix)
from quatrev.classify import neg_inverse_pairing
from quatrev.errors import (CertificateError, DomainError, NotConstructible,
                            SpecError)
from quatrev.matrix import (QMatrix, block_diagonal, is_involution,
                            is_skew_involution, qdet)
from quatrev.partitions import Partition, weyr_structure_of
from quatrev.reversers import (_KINDS, FLAVOR_INVOLUTION, FLAVOR_SKEW,
                               TARGET_INVERSE, TARGET_NEG_INVERSE, TARGETS,
                               Certificate, ReversibleShape, assemble_reverser,
                               block_reverser, certify, neg_reverser_i_matrix,
                               shape_matrix, shape_reverser,
                               check_certificate, weyr_reverser, _place)
from quatrev.scalar import (GR_I, Q_J, GaussianRational, class_rep_neg_inverse,
                            gr, quat)


def cm(rows):
    """Rows of complex literals to a matrix whose entries lie in C."""
    from quatrev.scalar import parse_complex
    return QMatrix([[parse_complex(str(x)).to_quaternion() for x in row]
                    for row in rows])


# -- single-block reverser ----------------------------------------------


def test_block_reverser_frozen_n2():
    assert block_reverser(gr(2), 2) == cm([["-1/4", 0], [0, 1]])


def test_block_reverser_frozen_n3():
    assert block_reverser(gr(2), 3) == cm([
        ["1/16", "1/8", 0],
        [0, "-1/4", 0],
        [0, 0, 1],
    ])


_BIG = 2**40
_rational = st.builds(Fraction, st.integers(-_BIG, _BIG).filter(bool),
                      st.integers(1, _BIG))


def _unit(s, t, turn):
    """(s^2 - t^2 + 2st i)/(s^2 + t^2), times i^turn: unit modulus."""
    z = GaussianRational(Fraction(s * s - t * t, s * s + t * t),
                         Fraction(2 * s * t, s * s + t * t))
    for _ in range(turn):
        z = z * GR_I
    return z


_eigenvalue = st.one_of(
    _rational.map(gr),
    _rational.map(lambda x: gr(0, x)),
    st.builds(_unit, st.integers(1, 2**20), st.integers(0, 2**20),
              st.integers(0, 3)),
    st.builds(GaussianRational, _rational, _rational),
    st.sampled_from([gr(1, 1), gr(-1, 1), gr("1/2", "-1/2")]))


@settings(max_examples=60, deadline=None)
@given(_eigenvalue, st.integers(1, 30))
def test_block_reverser_matches_recurrence(lam, n):
    assert block_reverser(lam, n) == naive_block_reverser(lam, n)


def test_block_reverser_matches_recurrence_on_fixed_values():
    for lam in (gr(1), gr(-1), gr(2), gr(-2), gr("1/2"), gr("-1/3"), gr(3),
                GR_I, gr("3/5", "4/5"), gr("4/5", "3/5"), gr(1, 1),
                gr("1/2", "-1/2")):
        for n in range(1, 25):
            assert block_reverser(lam, n) == naive_block_reverser(lam, n)


def test_block_reverser_identities_random():
    rng = rng_for("omega-ids")
    for _ in range(12):
        lam = rand_gr(rng, nonzero=True)
        for n in (1, 2, 3, 5):
            om = block_reverser(lam, n)
            j = jordan_block(lam, n)
            jinv_blk = jordan_block(lam.inverse(), n)
            assert om * jinv_blk == j.inverse() * om
            assert om.inverse() == block_reverser(lam.inverse(), n)


@pytest.mark.parametrize("lam", [gr(2), gr("-1/3"), gr(-1), gr(1), gr(0, 1),
                                 gr("3/5", "4/5"), gr("-4/5", "3/5"),
                                 gr(1, 1), gr("1/2", "1/2"), gr(0, 3)])
def test_pair_blocks_closed_form_inverses(lam):
    # every row of the construction table writes the partner block as
    # sign * B^{-1} in closed form, from Omega(lam)^{-1} = Omega(1/lam),
    # (M j)^{-1} = -j M^{-1} and D^{-1} = D; check against elimination
    pair_rows = [(TARGET_INVERSE, FLAVOR_INVOLUTION, lam.inverse()),
                 (TARGET_INVERSE, FLAVOR_SKEW, lam.inverse()),
                 (TARGET_NEG_INVERSE, FLAVOR_INVOLUTION, -lam.inverse())]
    if not lam.is_real:
        pair_rows += [(TARGET_INVERSE, flavor, lam.inverse().conjugate())
                      for flavor in (FLAVOR_INVOLUTION, FLAVOR_SKEW)]
    single_rows = []
    if lam.norm_sq() == 1:
        single_rows.append((TARGET_INVERSE, FLAVOR_SKEW))
    if lam.is_real and lam.norm_sq() == 1:
        single_rows.append((TARGET_INVERSE, FLAVOR_INVOLUTION))
    if lam == GR_I:
        single_rows.append((TARGET_NEG_INVERSE, FLAVOR_INVOLUTION))
    for n in (1, 2, 5, 8):
        for target, flavor, partner in pair_rows:
            a = block_diagonal([jordan_block(lam, n),
                                jordan_block(partner, n)])
            g = _place(a, target, flavor, [(0, n, lam, partner, n)]).g
            top, bottom = sub_block(g, 0, n, n), sub_block(g, n, 0, n)
            inv = top.inverse()
            assert bottom == (-inv if flavor == FLAVOR_SKEW else inv)
        for target, flavor in single_rows:
            b = _place(jordan_block(lam, n), target, flavor,
                       [(0, 0, lam, lam, n)]).g
            assert b.inverse() == (-b if flavor == FLAVOR_SKEW else b)


def test_block_reverser_rejects_zero():
    with pytest.raises(DomainError):
        block_reverser(gr(0), 2)


# -- canonical reversible shapes ----------------------------------------


SHAPES = [
    (ReversibleShape.REAL_UNIT_BLOCK, gr(1), 3),
    (ReversibleShape.REAL_UNIT_BLOCK, gr(-1), 4),
    (ReversibleShape.RECIPROCAL_PAIR, gr(2), 2),
    (ReversibleShape.RECIPROCAL_PAIR, gr(1, 1), 3),
    (ReversibleShape.UNIT_BLOCK, gr(0, 1), 2),
    (ReversibleShape.UNIT_BLOCK, gr("3/5", "4/5"), 3),
    (ReversibleShape.UNIT_BLOCK_PAIR, gr("3/5", "4/5"), 2),
]


@pytest.mark.parametrize("shape,param,n", SHAPES)
def test_shape_reverser_certifies(shape, param, n):
    a = shape_matrix(shape, param, n)
    cert = shape_reverser(shape, param, n)
    g = cert.g
    assert conjugacy_residual(g, a, a.inverse()).is_zero
    assert qdet(g) == 1
    if shape is ReversibleShape.UNIT_BLOCK:
        assert is_skew_involution(g)
        assert cert.flavor == "skew-involution"
    else:
        assert is_involution(g)
        assert cert.flavor == "involution"


def test_shape_matrix_literal_inverse_block():
    # the reciprocal-pair shape presents the literal inverse, with im < 0
    a = shape_matrix(ReversibleShape.RECIPROCAL_PAIR, gr(1, 1), 1)
    assert a.entry(1, 1) == gr("1/2", "-1/2").to_quaternion()


def test_shape_param_validation():
    with pytest.raises(SpecError):
        shape_matrix(ReversibleShape.REAL_UNIT_BLOCK, gr(2), 2)
    with pytest.raises(SpecError):
        shape_matrix(ReversibleShape.RECIPROCAL_PAIR, gr(0, 1), 2)
    with pytest.raises(SpecError):
        shape_matrix(ReversibleShape.UNIT_BLOCK, gr(2), 2)


# -- unit-modulus helpers ------------------------------------------------


def test_skew_reverser_unit_block():
    for alpha, n in [(gr(0, 1), 1), (gr(0, 1), 4), (gr("3/5", "4/5"), 3),
                     (gr(1), 2), (gr(-1), 3)]:
        cert = assemble_reverser(JordanSpec.of([(alpha, n)]),
                                 flavor="skew-involution")
        a = jordan_block(alpha, n)
        assert is_skew_involution(cert.g)
        assert conjugacy_residual(cert.g, a, a.inverse()).is_zero


def test_skew_reverser_unit_block_rejects_nonunit():
    with pytest.raises(NotConstructible):
        assemble_reverser(JordanSpec.of([(gr(2), 2)]),
                          flavor="skew-involution")


def test_skew_reverser_pair():
    for lam, n in [(gr(2), 1), (gr(2), 3), (gr(1, 1), 2)]:
        spec = JordanSpec.of([(lam, n), (lam.inverse(), n)])
        cert = assemble_reverser(spec, flavor="skew-involution")
        a = jordan_matrix(spec)
        assert is_skew_involution(cert.g)
        assert conjugacy_residual(cert.g, a, a.inverse()).is_zero


# -- Weyr-form reverser --------------------------------------------------


@pytest.mark.parametrize("parts", [[1], [2], [3], [2, 1], [2, 2], [3, 1],
                                   [3, 2, 1], [4, 2], [2, 2, 1, 1]])
def test_weyr_reverser_reverses(parts):
    alpha = gr("3/5", "4/5")
    p = Partition.of(parts)
    w = weyr_structure_of(p)
    aw = basic_weyr_matrix(alpha, w)
    om = weyr_reverser(alpha, p)
    tau = om * QMatrix.scalar(p.total, Q_J)
    assert conjugacy_residual(tau, aw, aw.inverse()).is_zero


def test_weyr_reverser_single_block_matches_block_form():
    # a single Jordan block has the all-ones Weyr structure and the Weyr
    # matrix is the block itself, so the two reversers coincide
    alpha = gr("3/5", "4/5")
    for n in (1, 2, 4):
        assert weyr_reverser(alpha, Partition.of([n])) == \
            block_reverser(alpha, n)


def test_weyr_reverser_rejects_nonunit():
    with pytest.raises(DomainError):
        weyr_reverser(gr(2), Partition.of([2]))


# -- negative-inverse machinery -----------------------------------------


def test_neg_reverser_i_frozen_n5():
    g = neg_reverser_i_matrix(5)
    assert g == cm([
        [1, "-3i", -3, "i", 0],
        [0, -1, "2i", 1, 0],
        [0, 0, 1, "-i", 0],
        [0, 0, 0, -1, 0],
        [0, 0, 0, 0, 1],
    ])


def test_neg_reverser_i_frozen_n2():
    # last column above the corner is forced to zero
    assert neg_reverser_i_matrix(2) == cm([[-1, 0], [0, 1]])


def test_neg_reverser_i_certificates():
    for n in (1, 2, 3, 4, 5, 6):
        cert = assemble_reverser(JordanSpec.of([(GR_I, n)]),
                                 target="neg-inverse")
        a = jordan_block(gr(0, 1), n)
        assert is_involution(cert.g)
        assert conjugacy_residual(cert.g, a, -(a.inverse())).is_zero
        assert cert.g == neg_reverser_i_matrix(n)


def test_neg_reverser_i_matches_closed_form():
    for n in range(1, 25):
        assert neg_reverser_i_matrix(n) == neg_i_closed_form(n)


def test_neg_reverser_pair():
    for lam, n in [(gr(1), 1), (gr(2), 3), (gr(1, 1), 2), (gr(-1), 2)]:
        nu = class_rep_neg_inverse(lam)
        spec = JordanSpec.of([(lam, n), (nu, n)])
        cert = assemble_reverser(spec, target="neg-inverse")
        a = jordan_matrix(spec)
        assert is_involution(cert.g)
        assert conjugacy_residual(cert.g, a, -(a.inverse())).is_zero


def test_neg_inverse_self_paired_class_stays_single():
    # the class of i is its own negated-inverse partner: two J(i, 2) blocks
    # get Omega(i) D each on the diagonal, never an antidiagonal pair
    spec = JordanSpec.of([(GR_I, 2), (GR_I, 2)])
    g = assemble_reverser(spec, target="neg-inverse").g
    blk = neg_reverser_i_matrix(2)
    assert sub_block(g, 0, 0, 2) == blk and sub_block(g, 2, 2, 2) == blk
    assert sub_block(g, 0, 2, 2).is_zero and sub_block(g, 2, 0, 2).is_zero


def neg_pair_oracle(lam1, lam2, n):
    """(B, partner block) from the Jordan chain of the partner block."""
    p0 = single_block_conjugator(-(jordan_block(lam1, n).inverse()), lam2)
    return p0.inverse(), p0


NEG_PAIR_EIGENVALUES = [gr(1), gr(-1), gr(2), gr("-1/2"), gr("1/3"),
                        gr(5), gr("3/5", "4/5"), gr("-4/5", "3/5"),
                        gr(1, 1), gr("-1/2", "1/2"), gr(0, 3),
                        gr(0, "1/3"), gr(2, 1)]


def test_neg_pair_blocks_match_jordan_chain_oracle(sweep_specs):
    checked = 0
    specs = [s for s in sweep_specs if neg_inverse_pairing(s)[0]]
    specs += [JordanSpec.of([(lam, n), (class_rep_neg_inverse(lam), n)])
              for lam in NEG_PAIR_EIGENVALUES for n in (1, 2, 5, 8)]
    for spec in specs:
        pairing, _ = neg_inverse_pairing(spec)
        g = assemble_reverser(spec, target="neg-inverse").g
        offsets = spec.block_offsets()
        for ia, ib in pairing.pairs:
            (lam1, n), (lam2, _) = spec.blocks[ia], spec.blocks[ib]
            top, bottom = neg_pair_oracle(lam1, lam2, n)
            assert sub_block(g, offsets[ia], offsets[ib], n) == top
            assert sub_block(g, offsets[ib], offsets[ia], n) == bottom
            checked += 1
    assert checked > 100


def test_single_block_conjugator_frozen():
    m = -(jordan_block(gr(2), 2).inverse())
    p = single_block_conjugator(m, gr("-1/2"))
    assert p == cm([[4, 0], [0, 1]])


def test_single_block_conjugator_rejects_split():
    m = block_diagonal([jordan_block(gr(2), 1), jordan_block(gr(3), 1)])
    with pytest.raises(NotSingleBlock):
        single_block_conjugator(m, gr(2))


# -- certificates and assembly ------------------------------------------


def test_certify_and_json_round_trip():
    spec = JordanSpec.of([(gr(2), 1), (gr("1/2"), 1)])
    cert = assemble_reverser(spec)
    again = Certificate.from_json(cert.to_json())
    assert again.g == cert.g
    assert again.target == cert.target and again.flavor == cert.flavor
    assert cert.to_json()["checks"] == {"residual_zero": True,
                                        "flavor_verified": True,
                                        "det_one": True}


def test_certify_rejects_wrong_flavor():
    a = jordan_matrix(JordanSpec.of([(gr(1), 1)]))
    with pytest.raises(CertificateError):
        certify(QMatrix.identity(1), a, "inverse", "skew-involution")


def test_certify_rejects_bad_residual():
    a = jordan_matrix(JordanSpec.of([(gr(2), 2)]))
    with pytest.raises(CertificateError):
        certify(QMatrix.identity(2), a, "inverse", "involution")


def test_check_certificate_targets():
    a = jordan_matrix(JordanSpec.of([(gr(2), 1), (gr("1/2"), 1)]))
    swap = QMatrix([[quat(0), quat(1)], [quat(1), quat(0)]])
    report = check_certificate(swap, a, "inverse", "involution")
    assert (report.residual_zero, report.flavor_verified,
            report.det_one) == (True, True, True)
    # the same g lands on A^{-1}, not on -A^{-1}
    report = check_certificate(swap, a, "neg-inverse", "general")
    assert not report.residual_zero and report.flavor_verified
    b = jordan_matrix(JordanSpec.of([(gr(2), 1), (gr("-1/2"), 1)]))
    report = check_certificate(swap, b, "neg-inverse", "involution")
    assert report.ok
    assert not check_certificate(swap, b, "inverse", "involution").ok
    with pytest.raises(DomainError):
        check_certificate(swap, a, "bogus", "involution")
    with pytest.raises(DomainError):
        check_certificate(swap, a, "inverse", "bogus")


def test_assemble_strongly_reversible_mixed():
    spec = JordanSpec.of([(gr(2), 1), (gr("1/2"), 1), (gr(1), 2),
                          (gr("3/5", "4/5"), 1), (gr("3/5", "4/5"), 1)])
    cert = assemble_reverser(spec, flavor="involution")
    a = jordan_matrix(spec)
    assert is_involution(cert.g)
    assert conjugacy_residual(cert.g, a, a.inverse()).is_zero


def test_assemble_any_prefers_involution_when_strong():
    spec = JordanSpec.of([(gr(2), 1), (gr("1/2"), 1)])
    assert assemble_reverser(spec).flavor == "involution"
    spec2 = JordanSpec.of([(gr(0, 1), 1)])
    assert assemble_reverser(spec2).flavor == "skew-involution"


def test_assemble_skew_for_every_reversible_shape():
    specs = [
        JordanSpec.of([(gr(0, 1), 3)]),
        JordanSpec.of([(gr(1, 1), 2), (gr("1/2", "1/2"), 2)]),
        JordanSpec.of([(gr(1), 2), (gr(-1), 1)]),
        JordanSpec.of([(gr("3/5", "4/5"), 2), (gr("3/5", "4/5"), 2),
                       (gr(2), 1), (gr("1/2"), 1)]),
    ]
    for spec in specs:
        cert = assemble_reverser(spec, flavor="skew-involution")
        a = jordan_matrix(spec)
        assert is_skew_involution(cert.g)
        assert conjugacy_residual(cert.g, a, a.inverse()).is_zero


def test_assemble_refuses_odd_unit_involution():
    spec = JordanSpec.of([(gr(0, 1), 2)])
    with pytest.raises(NotConstructible) as err:
        assemble_reverser(spec, flavor="involution")
    assert "odd" in str(err.value)


def test_assemble_refuses_irreversible():
    with pytest.raises(NotConstructible):
        assemble_reverser(JordanSpec.of([(gr(2), 1)]))
    with pytest.raises(NotConstructible):
        assemble_reverser(JordanSpec.of([(gr(1, 1), 1)]), target="inverse")


def test_assemble_neg_inverse():
    spec = JordanSpec.of([(gr(0, 1), 2), (gr(1), 1), (gr(-1), 1)])
    cert = assemble_reverser(spec, target="neg-inverse")
    a = jordan_matrix(spec)
    assert is_involution(cert.g)
    assert conjugacy_residual(cert.g, a, -(a.inverse())).is_zero


def test_assemble_neg_inverse_skew_not_constructible():
    spec = JordanSpec.of([(gr(0, 1), 2)])
    with pytest.raises(NotConstructible):
        assemble_reverser(spec, target="neg-inverse", flavor="skew-involution")


@pytest.mark.parametrize("target", TARGETS)
@pytest.mark.parametrize("flavor", [FLAVOR_INVOLUTION, FLAVOR_SKEW])
def test_assemble_constructs_exactly_the_kind_table(target, flavor):
    # pairs 2 with 1/2 and -2 with -1/2 for the inverse, 2 with -1/2 and
    # -2 with 1/2 for the negated inverse: every refusal is the kind's
    spec = JordanSpec.of([(gr(2), 1), (gr("1/2"), 1), (gr(-2), 1),
                          (gr("-1/2"), 1)])
    if (target, flavor) in _KINDS:
        cert = assemble_reverser(spec, target, flavor)
        assert (cert.target, cert.flavor) == (target, flavor)
    else:
        with pytest.raises(NotConstructible):
            assemble_reverser(spec, target, flavor)


def test_assemble_refuses_non_neg_reversible():
    with pytest.raises(NotConstructible):
        assemble_reverser(JordanSpec.of([(gr(1), 2)]), target="neg-inverse")


# -- reverser coset control ---------------------------------------------


def test_coset_elements_fail_involution_for_odd_multiplicity():
    # single unit block: reversible, but never strongly; every reverser is
    # (commuting Toeplitz) * (skew reverser) and none should square to I
    rng = rng_for("coset-control")
    alpha = gr("3/5", "4/5")
    for n in (1, 2, 3):
        a = jordan_block(alpha, n)
        base = assemble_reverser(JordanSpec.of([(alpha, n)]),
                                 flavor="skew-involution").g
        for _ in range(10):
            coeffs = [rand_gr(rng).to_quaternion() for _ in range(n)]
            while coeffs[0].is_zero:
                coeffs[0] = rand_gr(rng, nonzero=True).to_quaternion()
            f = toeplitz_build(coeffs)
            g = f * base
            assert conjugacy_residual(g, a, a.inverse()).is_zero
            assert not is_involution(g)
