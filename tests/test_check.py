"""The certificate check against its Fraction-domain oracle ``naive_check``,
the integer form each matrix stores for it, and the boundary of the checker
module ``check``."""
import ast
import pathlib
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import complex_matrix, naive_check, naive_qdet, sweep_blocks
from test_golden import CASES, run_case
from quatrev import check as checker
from quatrev.canonical import JordanSpec, jordan_matrix
from quatrev.decompose import factorize, verify_certificate
from quatrev.errors import NotConstructible, SingularError
from quatrev.matrix import QMatrix, is_involution, is_skew_involution, qdet
from quatrev.check import (FLAVOR_GENERAL, FLAVOR_INVOLUTION, FLAVOR_SKEW,
                           FLAVORS, TARGET_INVERSE, TARGET_NEG_INVERSE,
                           TARGETS, VerifyReport)
from quatrev.reversers import assemble_reverser, check_certificate
from quatrev.scalar import Q_ZERO, Quaternion, gr, quat

REQUESTS = [(t, f) for t in TARGETS for f in FLAVORS]
KINDS = [(TARGET_INVERSE, FLAVOR_INVOLUTION), (TARGET_INVERSE, FLAVOR_SKEW),
         (TARGET_NEG_INVERSE, FLAVOR_INVOLUTION)]

# denominators: small, and near 2^60 and 3^38 (both about 60 bits)
DENOMS = {
    "small": (1, 2, 3, 5, 6),
    "2^60": (2**60 - 1, 2**60, 2**60 + 1, 2**60 + 3),
    "3^38": (3**38 - 2, 3**38, 3**38 + 2),
}

# admitted certificates of total size n: one for each of 40 seeded sweep
# specs, all of whose blocks have size 1 if ``diagonal``
_BASES = {}


def _bases(n, diagonal=False):
    if (n, diagonal) not in _BASES:
        found = []
        specs = [b for b in sweep_blocks(max_total=n)
                 if sum(s for _, s in b) == n
                 and not (diagonal and any(s > 1 for _, s in b))]
        for blocks in random.Random(n).sample(specs, min(40, len(specs))):
            spec = JordanSpec.of(blocks)
            for kind in KINDS:
                try:
                    found.append((jordan_matrix(spec),
                                  assemble_reverser(spec, *kind).g))
                    break
                except NotConstructible:
                    continue
        _BASES[n, diagonal] = found
    return _BASES[n, diagonal]


def _scalar(rng, dens, nonzero=False):
    while True:
        x = Quaternion(*(Fraction(rng.randint(-9, 9), rng.choice(dens))
                         for _ in range(4)))
        if not (nonzero and x.is_zero):
            return x


def _random(rng, n, dens, density):
    return QMatrix([[_scalar(rng, dens) if rng.random() < density else Q_ZERO
                     for _ in range(n)] for _ in range(n)])


def _conjugator(rng, n, dens, steps):
    """S and S^-1: a quaternion diagonal times ``steps`` transvections
    I + x e_ij, each inverted exactly by I - x e_ij."""
    diag = [_scalar(rng, dens, nonzero=True) for _ in range(n)]
    s = QMatrix.diagonal(diag)
    s_inv = QMatrix.diagonal([d.inverse() for d in diag])
    for _ in range(steps if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        x = _scalar(rng, dens)
        rows = [[Q_ZERO] * n for _ in range(n)]
        rows[i][j] = x
        e = QMatrix(rows)
        ident = QMatrix.identity(n)
        s, s_inv = s * (ident + e), (ident - e) * s_inv
    return s, s_inv


def _tamper(rng, g, dens):
    rows = [list(row) for row in g.entries]
    i, j = rng.randrange(g.n_rows), rng.randrange(g.n_cols)
    parts = [rows[i][j].a, rows[i][j].b, rows[i][j].c, rows[i][j].d]
    parts[rng.randrange(4)] += Fraction(1, rng.choice(dens))
    rows[i][j] = Quaternion(*parts)
    return QMatrix(rows)


def _singular(rng, a):
    rows = [list(row) for row in a.entries]
    i = rng.randrange(a.n_rows)
    if a.n_rows > 1 and rng.random() < 0.5:
        rows[i] = rows[(i + 1) % a.n_rows]
    else:
        rows[i] = [Q_ZERO] * a.n_cols
    return QMatrix(rows)


def _chain_ends(a):
    """The j with a_{j,j+1} = 0, and n - 1: for an upper bidiagonal A, the
    ends of its Jordan chains."""
    n = a.n_rows
    return [j for j in range(n) if j == n - 1 or a.entry(j, j + 1).is_zero]


# the cases whose A keeps the bidiagonal shape of a Jordan matrix: conjugated
# by a diagonal S, so ``check`` tests the square on A's chain ends alone
CHAIN_CASES = ("centralizer-scaled", "chain-ends-only", "zero-diagonal",
               "diagonal-a")


def pair_for(seed, n, denoms, case):
    """An (A, g) pair of size n: a sweep certificate conjugated by a dense or
    sparse S with the given denominators, then altered as ``case`` says.
    For the ``CHAIN_CASES`` S is diagonal, so A stays upper bidiagonal.

    - "centralizer-scaled": g times c*I on A's first Jordan block, c real
      and c^2 != 1; c*I there commutes with A, so the residual still passes,
      and the square fails;
    - "chain-ends-only": g is random save on A's chain-end columns, where
      it is u*e_j with u^2 = +-1, so g^2 = +-I on those columns alone and
      the residual fails (unless every column is a chain end);
    - "zero-diagonal": one diagonal entry of A set to 0, a singular A;
    - "diagonal-a": a certificate for a diagonal Jordan matrix.
    """
    rng = random.Random(seed)
    dens = DENOMS[denoms]
    a, g = rng.choice(_bases(n, diagonal=case == "diagonal-a"))
    steps = 0 if case in CHAIN_CASES else rng.choice([0, 1, n])
    s, s_inv = _conjugator(rng, n, dens, steps)
    a, g = s * a * s_inv, s * g * s_inv
    if case == "centralizer-scaled":
        c = rng.choice([1, -1]) * (1 + Fraction(1, rng.choice(dens)))
        first = _chain_ends(a)[0]
        g = g * QMatrix.diagonal([quat(c) if j <= first else quat(1)
                                  for j in range(n)])
    elif case == "chain-ends-only":
        units = rng.choice([(quat(1), quat(-1)), UNIT_PURE])
        rows = [list(row) for row in
                _random(rng, n, dens, rng.choice([0.3, 1.0])).entries]
        for j in _chain_ends(a):
            u = rng.choice(units)
            for i in range(n):
                rows[i][j] = u if i == j else Q_ZERO
        g = QMatrix(rows)
    elif case == "zero-diagonal":
        rows = [list(row) for row in a.entries]
        i = rng.randrange(n)
        rows[i][i] = Q_ZERO
        a = QMatrix(rows)
    elif case == "tampered":
        g = _tamper(rng, g, dens)
    elif case == "scaled":
        g = g * QMatrix.scalar(n, _scalar(rng, dens, nonzero=True))
    elif case == "singular":
        a = _singular(rng, a)
    elif case == "random-g":
        g = _random(rng, n, dens, rng.choice([0.0, 0.3, 1.0]))
    elif case == "random-a":
        a = _random(rng, n, dens, rng.choice([0.0, 0.3, 1.0]))
    return a, g


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 6),
       st.sampled_from(sorted(DENOMS)),
       st.sampled_from(["as-built", "tampered", "scaled", "singular",
                        "random-g", "random-a", *CHAIN_CASES]))
def test_check_matches_naive_check(seed, n, denoms, case):
    a, g = pair_for(seed, n, denoms, case)
    for target, flavor in REQUESTS:
        assert (check_certificate(g, a, target, flavor)
                == naive_check(g, a, target, flavor)), (target, flavor)


def test_check_matches_naive_check_on_fixed_cases():
    """Each case at each size once, so every run sees a passing check, a
    tampered g and a singular A with 60-bit denominators, and on a
    bidiagonal A a passed residual with a failed square and a failed
    residual with g^2 = +-I on the chain ends alone."""
    seen = set()
    for n in range(1, 7):
        for i, case in enumerate(["as-built", "tampered", "singular",
                                  "scaled", *CHAIN_CASES]):
            a, g = pair_for(n * 10 + i, n, ("2^60", "3^38")[n % 2], case)
            for target, flavor in REQUESTS:
                report = check_certificate(g, a, target, flavor)
                assert report == naive_check(g, a, target, flavor)
                seen.add((case, report.ok))
                if flavor != FLAVOR_GENERAL:
                    seen.add((case, report.residual_zero,
                              report.flavor_verified))
    assert ("as-built", True) in seen and ("tampered", False) in seen
    assert ("centralizer-scaled", True, False) in seen
    assert ("chain-ends-only", False, False) in seen
    assert ("diagonal-a", True) in seen


def test_sweep_certificates_match_naive_check():
    """Every admitted certificate of the total-size <= 5 sweep (802), under
    the (target, flavor) of each of the three kinds, so both residual signs
    and both squares are tested on passing and failing certificates."""
    done = 0
    for blocks in sweep_blocks(max_total=5):
        spec = JordanSpec.of(blocks)
        a = jordan_matrix(spec)
        for kind in KINDS:
            try:
                g = assemble_reverser(spec, *kind).g
            except NotConstructible:
                continue
            for target, flavor in KINDS:
                assert (check_certificate(g, a, target, flavor)
                        == naive_check(g, a, target, flavor))
            done += 1
    assert done == 802


def _inverse(m):
    try:
        return m.inverse()
    except SingularError:
        return SingularError


# name -> op on (m, other): each reads m's stored integer form, the check
# also other's
_OPS = {
    "qdet": lambda m, _: qdet(m),
    "inverse": lambda m, _: _inverse(m),
    "is_involution": lambda m, _: is_involution(m),
    "is_skew_involution": lambda m, _: is_skew_involution(m),
    "check": lambda m, other: [check_certificate(m, other, *request)
                               for request in REQUESTS],
}


def _fresh(m):
    return QMatrix(m.entries)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 6),
       st.sampled_from(sorted(DENOMS)), st.sampled_from([0.3, 1.0]),
       st.booleans(),
       st.lists(st.tuples(st.sampled_from(sorted(_OPS)), st.integers(0, 1)),
                min_size=1, max_size=8))
def test_stored_integer_form_stays_correct(seed, n, denoms, density, in_c,
                                           ops):
    """Any sequence of the operations that read the stored integer form
    gives what each gives on a fresh matrix, and leaves the form equal to a
    fresh scaling, rows as tuples; with ``in_c`` the matrices lie in C."""
    rng = random.Random(seed)
    ms = [_random(rng, n, DENOMS[denoms], density) for _ in range(2)]
    if in_c:
        ms = [complex_matrix([[x.complex_parts()[0] for x in row]
                              for row in m.entries]) for m in ms]
    for name, i in ops:
        m, other = ms[i], ms[1 - i]
        assert _OPS[name](m, other) == _OPS[name](_fresh(m), _fresh(other))
    for m in ms:
        d, rows = m._ints
        assert (d, rows) == _fresh(m)._ints
        assert isinstance(rows, tuple)
        assert all(isinstance(row, tuple) for row in rows)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 6),
       st.sampled_from(sorted(DENOMS)), st.sampled_from([0.0, 0.3, 1.0]))
def test_negation_keeps_the_reduced_form(seed, n, denoms, density):
    """-M is born in the form a fresh scaling of its negated entries gets:
    negation keeps d and the gcd."""
    m = _random(random.Random(seed), n, DENOMS[denoms], density)
    assert (-m)._ints == QMatrix([[-x for x in row]
                                  for row in m.entries])._ints
    assert -(-m) == m


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 6),
       st.sampled_from(sorted(DENOMS)))
# the third tamper puts 1/(2^60 - 1) into a zero entry of g = diag(-1, 1, 1,
# 1) and the result is still a valid involution certificate
@example(seed=387, n=4, denoms="2^60")
def test_tampered_copy_fails_after_original_passed(seed, n, denoms):
    """A tampered copy of a passing g checks as the Fraction oracle does
    (a tamper can land on another valid certificate), and checking it does
    not change the original's result."""
    rng = random.Random(seed)
    a, g = pair_for(seed, n, denoms, "as-built")
    kind = next(k for k in KINDS if check_certificate(g, a, *k).ok)
    for _ in range(3):
        tampered = _tamper(rng, g, DENOMS[denoms])
        assert (check_certificate(tampered, a, *kind)
                == naive_check(tampered, a, *kind))
        assert check_certificate(g, a, *kind).ok


# unit pure quaternions, each squaring to -1
UNIT_PURE = (quat(0, 1), quat(0, 0, 1), quat(0, 0, 0, 1),
             quat(0, "3/5", "4/5"), quat(0, "1/3", "-2/3", "2/3"),
             quat(0, "-2/7", "3/7", "6/7"))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 5),
       st.sampled_from(sorted(DENOMS)), st.booleans())
def test_square_of_plus_minus_identity_forces_det_one(seed, n, denoms, skew):
    """g = S D S^-1 with D = diag(+-1) or diag(unit pure quaternions) squares
    to +-I, so qdet(g)^2 = 1 and, qdet being nonnegative, qdet(g) = 1; the
    check reports det_one under the matching flavor."""
    rng = random.Random(seed)
    diag = [rng.choice(UNIT_PURE) if skew else rng.choice((quat(1), quat(-1)))
            for _ in range(n)]
    s, s_inv = _conjugator(rng, n, DENOMS[denoms], rng.choice([1, n, 2 * n]))
    g = s * QMatrix.diagonal(diag) * s_inv
    assert naive_qdet(g) == 1
    flavor = FLAVOR_SKEW if skew else FLAVOR_INVOLUTION
    assert (check_certificate(g, QMatrix.identity(n), TARGET_INVERSE, flavor)
            == VerifyReport(True, True, True))


# one passing certificate of each kind: (target, flavor) -> Jordan blocks
_KIND_SPECS = {
    (TARGET_INVERSE, FLAVOR_INVOLUTION): [(gr(2), 2), (gr("1/2"), 2),
                                          (gr(-1), 1)],
    (TARGET_INVERSE, FLAVOR_SKEW): [(gr(0, 1), 2), (gr(2), 1),
                                    (gr("1/2"), 1)],
    (TARGET_NEG_INVERSE, FLAVOR_INVOLUTION): [(gr(0, 1), 1), (gr(2), 1),
                                              (gr("-1/2"), 1)],
}


class _Eliminated(Exception):
    pass


def test_passed_square_skips_the_elimination(monkeypatch):
    """With the Study determinant made to raise, a passing certificate of
    each kind still verifies and factorizes; "general" and a tampered g
    still reach the elimination."""
    built = [(jordan_matrix(JordanSpec.of(blocks)),
              assemble_reverser(JordanSpec.of(blocks), *kind))
             for kind, blocks in _KIND_SPECS.items()]

    def eliminated(d, rows):
        raise _Eliminated

    monkeypatch.setattr(checker, "_study_det", eliminated)
    rng = random.Random(17)
    for a, cert in built:
        assert verify_certificate(a, cert).ok
        fact = factorize(a, cert)
        assert fact.s1 * fact.s2 == a
        with pytest.raises(_Eliminated):
            check_certificate(cert.g, a, cert.target, FLAVOR_GENERAL)
        with pytest.raises(_Eliminated):
            check_certificate(_tamper(rng, cert.g, DENOMS["small"]), a,
                              cert.target, cert.flavor)


class _Squared(Exception):
    pass


def test_canonical_a_with_a_passed_residual_never_forms_g_squared(
        monkeypatch):
    """With the full square made to raise, a certificate of each kind still
    verifies and factorizes on its Jordan matrix, and g times 2*I on the
    first Jordan block still fails its square: the square is tested on the
    chain ends alone.  A dense A, a singular bidiagonal A and a failed
    residual still form g^2; "general" tests no square at all."""
    built = [(jordan_matrix(JordanSpec.of(blocks)),
              assemble_reverser(JordanSpec.of(blocks), *kind))
             for kind, blocks in _KIND_SPECS.items()]

    def squared(d, rows, sign, halves=None):
        raise _Squared

    monkeypatch.setattr(checker, "_squares_to", squared)
    for a, cert in built:
        n = a.n_rows
        assert verify_certificate(a, cert).ok
        fact = factorize(a, cert)
        assert fact.s1 * fact.s2 == a
        first = _chain_ends(a)[0]
        scaled = cert.g * QMatrix.diagonal([quat(2) if j <= first else quat(1)
                                            for j in range(n)])
        report = check_certificate(scaled, a, cert.target, cert.flavor)
        assert report.residual_zero and not report.flavor_verified
        assert report == naive_check(scaled, a, cert.target, cert.flavor)
        s = QMatrix([[quat(1) if j <= i else Q_ZERO for j in range(n)]
                     for i in range(n)])
        s_inv = s.inverse()
        assert any(not (s * a * s_inv).entry(i, j).is_zero
                   for i in range(n) for j in range(i))
        zero = [list(row) for row in a.entries]
        zero[0][0] = Q_ZERO
        dense = (s * cert.g * s_inv, s * a * s_inv, cert.target)
        # g = 0 passes the residual A 0 A = +-0
        singular = (QMatrix.zeros(n), QMatrix(zero), cert.target)
        failed = (cert.g, a, next(t for t in TARGETS if t != cert.target))
        for g, a_, target in (dense, singular, failed):
            with pytest.raises(_Squared):
                check_certificate(g, a_, target, cert.flavor)
        assert check_certificate(cert.g, a, cert.target, FLAVOR_GENERAL).ok


# -- the residual on a complex bidiagonal A ----------------------------------

# the components each entry of a random X may use: C, Cj, C or Cj, all of H
_HALVES = {"C": ((0, 1),), "Cj": ((2, 3),), "mixed": ((0, 1), (2, 3)),
           "H": ((0, 1, 2, 3),)}


def _flat(rows):
    return [e for row in rows for e in row]


def _bidiagonal_pair(seed, n, denoms, halves):
    """(A, X): a complex upper bidiagonal A, its superdiagonal partly zero and
    one diagonal entry zero one time in three, and an X whose entries use
    ``halves``, both with the given denominators."""
    rng = random.Random(seed)
    dens = DENOMS[denoms]

    def gaussian():
        return Quaternion(*(Fraction(rng.randint(-9, 9), rng.choice(dens))
                            for _ in range(2)), 0, 0)

    rows = [[gaussian() if j == i or j == i + 1 and rng.random() < 0.6
             else Q_ZERO for j in range(n)] for i in range(n)]
    if rng.random() < 1 / 3:
        i = rng.randrange(n)
        rows[i][i] = Q_ZERO

    def entry():
        parts = rng.choice(_HALVES[halves])
        return Quaternion(*(Fraction(rng.randint(-9, 9), rng.choice(dens))
                            if c in parts else 0 for c in range(4)))

    x = QMatrix([[entry() if rng.random() < 0.6 else Q_ZERO
                  for _ in range(n)] for _ in range(n)])
    return QMatrix(rows), x, rng


def _cancelled(x_rows, rng, parts, side, first, second, a, b):
    """X's integer rows with x[first] and x[second] set so that entry
    ``first`` of X A (side "right") or of A X ("left") cancels to zero, for
    the complex entries a, b of A that meet them there: -w b and w a on the
    right, -b w and a w on the left, w random in ``parts``; a and b commute,
    so the two terms sum to zero."""
    half = rng.choice(parts)
    w = (0,) * 4
    while not any(w):
        w = tuple(rng.randint(-9, 9) if c in half else 0 for c in range(4))
    if side == "right":
        u, v = checker._hmul(w, b), checker._hmul(w, a)
    else:
        u, v = checker._hmul(b, w), checker._hmul(a, w)
    rows = [list(row) for row in x_rows]
    (i, j), (k, m) = first, second
    rows[i][j], rows[k][m] = tuple(-c for c in u), v
    return rows, first, side


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 6),
       st.sampled_from(sorted(DENOMS)), st.sampled_from(sorted(_HALVES)))
@example(seed=5, n=1, denoms="2^60", halves="H")
def test_bidiagonal_kernels_match_the_general_product(seed, n, denoms,
                                                      halves):
    """X A and A X from the two kernels equal ``_product``'s, on X in C, Cj,
    both or all of H; an entry that cancels to zero comes out None."""
    a, x, rng = _bidiagonal_pair(seed, n, denoms, halves)
    (_, a_rows), (_, x_rows) = a._ints, x._ints
    bands, _ = checker._bidiagonal(a_rows)
    assert bands is not None
    diag, sup = bands
    cases = [(x_rows, None, None)]
    # a cancelling entry (i, j) of X A: x_ij a_jj + x_{i,j-1} a_{j-1,j} = 0
    right = [j for j in range(1, n) if diag[j] and sup[j - 1]]
    if right:
        i, j = rng.randrange(n), rng.choice(right)
        a_jj, a_up = a_rows[j][j], a_rows[j - 1][j]
        cases.append(_cancelled(x_rows, rng, _HALVES[halves], "right",
                                (i, j), (i, j - 1), a_jj, a_up))
    # a cancelling entry (i, k) of A X: a_ii x_ik + a_{i,i+1} x_{i+1,k} = 0
    left = [i for i in range(n - 1) if diag[i] and sup[i]]
    if left:
        i, k = rng.choice(left), rng.randrange(n)
        a_ii, a_up = a_rows[i][i], a_rows[i][i + 1]
        cases.append(_cancelled(x_rows, rng, _HALVES[halves], "left",
                                (i, k), (i + 1, k), a_ii, a_up))
    for rows, pos, side in cases:
        xa = checker._times_bidiagonal(_flat(rows), *bands)
        ax = checker._bidiagonal_times(*bands, _flat(rows))
        assert xa == _flat(checker._product(rows, a_rows))
        assert ax == _flat(checker._product(a_rows, rows))
        if side:
            i, j = pos
            assert (xa if side == "right" else ax)[i * n + j] is None


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 5),
       st.sampled_from(sorted(DENOMS)), st.sampled_from(sorted(_HALVES)))
@example(seed=5, n=1, denoms="2^60", halves="H")
def test_check_on_a_complex_bidiagonal_a_matches_naive_check(seed, n, denoms,
                                                              halves):
    a, g, _ = _bidiagonal_pair(seed, n, denoms, halves)
    for target, flavor in REQUESTS:
        assert (check_certificate(g, a, target, flavor)
                == naive_check(g, a, target, flavor)), (target, flavor)


class _Multiplied(Exception):
    pass


def test_complex_bidiagonal_a_never_runs_the_general_product(monkeypatch):
    """With ``_product`` and ``_hamilton`` made to raise, a certificate of
    each kind still verifies and factorizes on its Jordan matrix.  A dense A
    and the conjugate of J by a quaternion diagonal S, upper bidiagonal with
    entries off C, still reach ``_product``."""
    others, built = [], []
    for kind, blocks in _KIND_SPECS.items():
        spec = JordanSpec.of(blocks)
        a, cert = jordan_matrix(spec), assemble_reverser(spec, *kind)
        n = a.n_rows
        built.append((a, cert))
        low = QMatrix([[quat(1) if j <= i else Q_ZERO for j in range(n)]
                       for i in range(n)])
        diag = QMatrix.diagonal([(quat(1, 0, 1), quat(1, 1, 0, 1),
                                  quat(2, 0, 0, 1))[i % 3] for i in range(n)])
        for s in (low, diag):
            s_inv = s.inverse()
            others.append((s * cert.g * s_inv, s * a * s_inv, cert))
        _, rows = others[-1][1]._ints
        assert any(e[2] or e[3] for row in rows for e in row if e)
        assert checker._bidiagonal(rows)[0] is None
        assert checker._bidiagonal(rows)[1] is not None

    def multiplied(*args):
        raise _Multiplied

    monkeypatch.setattr(checker, "_product", multiplied)
    monkeypatch.setattr(checker, "_hamilton", multiplied)
    facts = []
    for a, cert in built:
        assert verify_certificate(a, cert).ok
        facts.append(factorize(a, cert))
    for g, a, cert in others:
        with pytest.raises(_Multiplied):
            check_certificate(g, a, cert.target, cert.flavor)
    monkeypatch.undo()      # multiplying the factors runs ``_product``
    for (a, _), fact in zip(built, facts):
        assert fact.s1 * fact.s2 == a


# -- the one checker module --------------------------------------------------

_SRC = pathlib.Path(checker.__file__).resolve().parent


def _imports(name):
    """(module, level) of every import statement in quatrev/<name>.py."""
    tree = ast.parse((_SRC / f"{name}.py").read_text(encoding="utf-8"))
    return [(alias.name, 0) for node in ast.walk(tree)
            if isinstance(node, ast.Import) for alias in node.names] + [
        (node.module or "", node.level) for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)]


def test_checker_imports_only_the_standard_library_and_errors():
    """``check`` and ``errors`` are the trusted base of ``quatrev verify``:
    ``check`` imports the standard library and ``.errors`` alone, and
    ``errors`` nothing from the package."""
    for module, level in _imports("check"):
        assert (module, level) == ("errors", 1) or (
            level == 0 and module.split(".")[0] in sys.stdlib_module_names
            and module.split(".")[0] != "quatrev"), module
    assert all(level == 0 and module.split(".")[0] != "quatrev"
               for module, level in _imports("errors"))


def _defined(name):
    """Names a module binds at top level by def, class or assignment."""
    tree = ast.parse((_SRC / f"{name}.py").read_text(encoding="utf-8"))
    out = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, ast.Assign):
            out |= {n.id for t in node.targets for n in ast.walk(t)
                    if isinstance(n, ast.Name)}
    return out


def test_the_certificate_contract_is_written_once():
    """The kernels, the literal grammar, the kind names and signs and the
    report are defined in ``check`` and nowhere else; the two call layers
    it replaced are gone, and ``check`` has no entry point of its own."""
    once = {"_product", "_eliminate", "_hmul", "_conj_norm", "_half",
            "_hamilton", "_bidiagonal", "_times_bidiagonal",
            "_bidiagonal_times", "_squares_to", "_study_det", "_cleared",
            "_over", "_form", "rational_ints", "quaternion_ints",
            "_RATIONAL_RE", "_INTEGER_RE", "_RESIDUAL_SIGN", "_SQUARE_SIGN",
            "TARGETS", "FLAVORS", "VerifyReport", "check", "verify"}
    gone = {"conjugator_checks", "_kind_checks", "format_rational",
            "_chain_ends"}
    modules = [p.stem for p in _SRC.glob("*.py")]
    assert once <= _defined("check")
    for name in modules:
        if name != "check":
            assert not (once | gone) & _defined(name), name
    source = (_SRC / "check.py").read_text(encoding="utf-8")
    assert "__main__" not in source and "environ" not in source


def test_verify_runs_no_package_code_outside_cli_check_and_errors():
    """``quatrev verify`` on every golden verify case, the package already
    imported, executes code in no quatrev module but ``cli``, ``check`` and
    ``errors``."""
    cases = [c for c in CASES if c["argv"][0] == "verify"]
    assert len(cases) == 8
    ran = set()

    def tracer(frame, event, arg):
        path = pathlib.Path(frame.f_code.co_filename)
        if path.parent == _SRC:
            ran.add(path.stem)

    for case in cases:
        old = sys.gettrace()
        sys.settrace(tracer)
        try:
            code, _, _ = run_case(case)
        finally:
            sys.settrace(old)
        assert code == case["exit"], case["name"]
    assert ran <= {"cli", "check", "errors"}, ran
    assert {"cli", "check"} <= ran
