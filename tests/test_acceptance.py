"""Top-level acceptance checks.

Each test covers one acceptance criterion end to end and prints a single
summary line on success; every identity below is exact (rational arithmetic,
zero tolerance) except the timed numeric round trip at the end.
"""
import time

from conftest import (EIG_POOL, rand_gr, rand_invertible, rand_qmatrix,
                      rng_for, toeplitz_build)
from quatrev.canonical import (JordanSpec, basic_weyr_matrix, jordan_block,
                               jordan_matrix, jordan_weyr_permutation,
                               weyr_centralizer_sample)
from quatrev.classify import (classify_psl, is_neg_reversible, is_reversible,
                              is_strongly_reversible)
from quatrev.decompose import (product_involution_skew,
                               product_two_involutions,
                               product_two_skew_involutions)
from quatrev.matrix import QMatrix, qdet
from quatrev.numeric import jordan_spec_numeric, qmatrix_to_float
from quatrev.partitions import Partition, weyr_structure_of
from quatrev.reversers import (FLAVOR_INVOLUTION, FLAVOR_SKEW,
                               TARGET_INVERSE, TARGET_NEG_INVERSE,
                               ReversibleShape, assemble_reverser,
                               block_reverser, neg_reverser_i_matrix,
                               shape_matrix, shape_reverser, weyr_reverser)
from quatrev.scalar import Q_J, gr, parse_complex


def cm(rows):
    return QMatrix([[parse_complex(s).to_quaternion() for s in row]
                    for row in rows])


def ok(num, text):
    print(f"acceptance {num}/9 PASS — {text}")


def all_partitions(n):
    def rec(remaining, cap):
        if remaining == 0:
            yield ()
            return
        for first in range(min(cap, remaining), 0, -1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest
    return list(rec(n, n))


def test_1_frozen_negative_reverser_size_five():
    a = jordan_block(gr(0, 1), 5)
    g = neg_reverser_i_matrix(5)
    expected_g = cm([
        ["1", "-3i", "-3", "i", "0"],
        ["0", "-1", "2i", "1", "0"],
        ["0", "0", "1", "-i", "0"],
        ["0", "0", "0", "-1", "0"],
        ["0", "0", "0", "0", "1"],
    ])
    # (0,3) of row one is -3*1 + i*i = -4, fixed by the factors above
    expected_ga = cm([
        ["i", "4", "-6i", "-4", "i"],
        ["0", "-i", "-3", "3i", "1"],
        ["0", "0", "i", "2", "-i"],
        ["0", "0", "0", "-i", "-1"],
        ["0", "0", "0", "0", "i"],
    ])
    assert g == expected_g
    assert g * a == expected_ga
    assert a.inverse() * g == -expected_ga
    assert g * g == QMatrix.identity(5)
    assert g * a * g.inverse() == -(a.inverse())
    ok(1, "frozen 5x5 negative reverser, its products, and g^2 = I")


def test_2_block_reverser_identities():
    rng = rng_for("acceptance-block-reverser")
    for _ in range(50):
        lam = rand_gr(rng, nonzero=True)
        lam_inv = lam.inverse()
        for n in range(1, 9):
            om = block_reverser(lam, n)
            om_inv = block_reverser(lam_inv, n)
            j_lam = jordan_block(lam, n)
            j_inv = jordan_block(lam_inv, n)
            assert om * j_inv == j_lam.inverse() * om
            assert om * om_inv == QMatrix.identity(n)
    ok(2, "block reverser intertwines J(1/lam) with J(lam)^-1 and "
          "inverts by eigenvalue swap (50 eigenvalues, n <= 8)")


def test_3_canonical_shape_conjugators():
    rows = [
        (ReversibleShape.REAL_UNIT_BLOCK, [gr(1), gr(-1)], "+I"),
        (ReversibleShape.RECIPROCAL_PAIR, [gr(2), gr(1, 1)], "+I"),
        (ReversibleShape.UNIT_BLOCK, [gr(0, 1), gr("3/5", "4/5")], "-I"),
        (ReversibleShape.UNIT_BLOCK_PAIR, [gr(0, 1), gr("3/5", "4/5")], "+I"),
    ]
    cases = 0
    for shape, params, square in rows:
        for param in params:
            for n in range(1, 7):
                a = shape_matrix(shape, param, n)
                g = shape_reverser(shape, param, n).g
                assert g * a == a.inverse() * g
                gg = g * g
                ident = QMatrix.identity(g.n_rows)
                assert gg == (ident if square == "+I" else -ident)
                assert qdet(g) == 1
                cases += 1
    ok(3, f"all four canonical shapes: zero residual, correct square, "
          f"unit determinant ({cases} cases, n <= 6)")


def test_4_skew_factorization_of_every_reversible_spec(sweep_specs):
    done = 0
    for spec in sweep_specs:
        if not is_reversible(spec):
            continue
        a = jordan_matrix(spec)
        cert = assemble_reverser(spec, TARGET_INVERSE, FLAVOR_SKEW)
        fact = product_two_skew_involutions(a, cert)
        neg_ident = -QMatrix.identity(a.n_rows)
        assert fact.s1 * fact.s1 == neg_ident
        assert fact.s2 * fact.s2 == neg_ident
        assert fact.s1 * fact.s2 == a
        done += 1
    assert done > 0
    ok(4, f"every reversible spec splits into two skew-involutions "
          f"({done} specs, total size <= 6)")


def test_5_involution_certificates_and_negative_control(sweep_specs):
    done = 0
    for spec in sweep_specs:
        if not is_strongly_reversible(spec):
            continue
        a = jordan_matrix(spec)
        cert = assemble_reverser(spec, TARGET_INVERSE, FLAVOR_INVOLUTION)
        assert cert.g * a == a.inverse() * cert.g
        assert cert.g * cert.g == QMatrix.identity(a.n_rows)
        fact = product_two_involutions(a, cert)
        assert fact.s1 * fact.s2 == a
        done += 1
    assert done > 0

    # negative control: a lone non-real unit-modulus block is reversible,
    # yet no element of the full reverser coset squares to the identity
    alpha = gr("3/5", "4/5")
    rng = rng_for("acceptance-coset")
    sampled = 0
    for n in range(1, 6):
        a = jordan_block(alpha, n)
        base = assemble_reverser(JordanSpec.of([(alpha, n)]),
                                 TARGET_INVERSE, FLAVOR_SKEW).g
        ident = QMatrix.identity(n)
        for _ in range(20):
            coeffs = [rand_gr(rng, nonzero=True).to_quaternion()]
            coeffs += [rand_gr(rng).to_quaternion() for _ in range(n - 1)]
            g = toeplitz_build(coeffs) * base
            assert g * a == a.inverse() * g
            assert g * g != ident
            sampled += 1
    assert sampled == 100
    ok(5, f"involution certificates for all parity-passing specs ({done}) "
          f"and 100 coset samples with no involution among them")


def test_6_negated_inverse_machinery(sweep_specs):
    done = 0
    for spec in sweep_specs:
        cls = classify_psl(spec)
        assert cls.psl_strongly_reversible == cls.psl_reversible
        assert cls.psl_reversible == (cls.reversible or cls.neg_reversible)
        if not cls.neg_reversible:
            continue
        a = jordan_matrix(spec)
        cert = assemble_reverser(spec, TARGET_NEG_INVERSE, FLAVOR_INVOLUTION)
        h = cert.g
        assert h * h == QMatrix.identity(a.n_rows)
        assert h * a == -(a.inverse()) * h
        fact = product_involution_skew(a, cert)
        assert fact.s1 * fact.s1 == -QMatrix.identity(a.n_rows)
        assert fact.s2 == h
        assert fact.s1 * fact.s2 == a
        done += 1
    assert done > 0
    ok(6, f"involutions onto the negated inverse for {done} specs; "
          f"projective reversibility equals plain-or-negated reversibility "
          f"on all {len(sweep_specs)} sweep specs")


def test_7_weyr_layer(sweep_specs):
    # conjugation duality against an independent diagram count
    def diagram_conjugate(parts):
        return tuple(sum(1 for a in parts if a >= i)
                     for i in range(1, parts[0] + 1))

    rng = rng_for("acceptance-partitions")
    for _ in range(500):
        n = rng.randint(1, 40)
        parts = []
        remaining = n
        while remaining:
            s = rng.randint(1, remaining)
            parts.append(s)
            remaining -= s
        p = Partition.of(parts)
        conj = p.conjugate()
        assert conj.parts == diagram_conjugate(p.parts)
        assert conj.conjugate() == p

    # permutation from chain basis to level basis
    checked = 0
    for lam in (gr(2), gr("3/5", "4/5")):
        for n in range(1, 9):
            for parts in all_partitions(n):
                p = Partition.of(parts)
                aj = jordan_matrix(JordanSpec.of([(lam, s) for s in parts]))
                aw = basic_weyr_matrix(lam, weyr_structure_of(p))
                perm = jordan_weyr_permutation(p)
                assert perm * aj * perm.inverse() == aw
                checked += 1

    # random centralizer elements commute with the basic Weyr matrix
    alpha = gr("3/5", "4/5")
    plist = [Partition.of(parts) for n in range(1, 9)
             for parts in all_partitions(n)]
    for seed in range(100):
        p = plist[seed % len(plist)]
        w = weyr_structure_of(p)
        k = weyr_centralizer_sample(w, seed)
        aw = basic_weyr_matrix(alpha, w)
        assert k * aw == aw * k

    # the blocked reverser times j reverses the basic Weyr matrix
    reversed_count = 0
    for n in range(1, 7):
        for parts in all_partitions(n):
            p = Partition.of(parts)
            om = weyr_reverser(alpha, p)
            tau = om * QMatrix.scalar(p.total, Q_J)
            aw = basic_weyr_matrix(alpha, weyr_structure_of(p))
            assert tau * aw == aw.inverse() * tau
            reversed_count += 1
    ok(7, f"partition duality (500 random), {checked} chain-to-level "
          f"conjugations, 100 centralizer samples, {reversed_count} "
          f"level-form reversals")


def test_8_determinant_layer(sweep_specs):
    rng = rng_for("acceptance-qdet")
    for _ in range(100):
        m = rand_qmatrix(rng, rng.randint(1, 3))
        assert qdet(m) >= 0
    for _ in range(200):
        a = rand_qmatrix(rng, 3)
        b = rand_qmatrix(rng, 3)
        assert qdet(a * b) == qdet(a) * qdet(b)

    certified = 0
    for spec in sweep_specs:
        if spec.total_size > 4:
            continue
        targets = []
        if is_reversible(spec):
            targets.append((TARGET_INVERSE, FLAVOR_SKEW))
        if is_strongly_reversible(spec):
            targets.append((TARGET_INVERSE, FLAVOR_INVOLUTION))
        if is_neg_reversible(spec):
            targets.append((TARGET_NEG_INVERSE, FLAVOR_INVOLUTION))
        for target, flavor in targets:
            cert = assemble_reverser(spec, target, flavor)
            assert qdet(cert.g) == 1
            certified += 1
    assert certified > 0
    ok(8, f"determinant nonnegative (100 draws), multiplicative (200 "
          f"pairs), and exactly 1 on {certified} produced conjugators")


def test_9_numeric_round_trip():
    rng = rng_for("acceptance-numeric")
    started = time.perf_counter()
    for _ in range(50):
        blocks = []
        remaining = rng.randint(1, 5)
        while remaining:
            size = rng.randint(1, remaining)
            blocks.append((rng.choice(EIG_POOL), size))
            remaining -= size
        spec = JordanSpec.of(blocks)
        a = jordan_matrix(spec)
        s = rand_invertible(rng, spec.total_size, -3, 3)
        f = qmatrix_to_float(s.inverse() * a * s)
        got, snap = jordan_spec_numeric(f, candidates=EIG_POOL)
        assert got == spec
        assert snap.all_snapped
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    ok(9, f"50 conjugated specs recovered exactly from floats in "
          f"{elapsed:.2f}s")
