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

# admitted certificates of total size n: one for each of 40 seeded sweep specs
_BASES = {}


def _bases(n):
    if n not in _BASES:
        found = []
        specs = [b for b in sweep_blocks(max_total=n)
                 if sum(s for _, s in b) == n]
        for blocks in random.Random(n).sample(specs, min(40, len(specs))):
            spec = JordanSpec.of(blocks)
            for kind in KINDS:
                try:
                    found.append((jordan_matrix(spec),
                                  assemble_reverser(spec, *kind).g))
                    break
                except NotConstructible:
                    continue
        _BASES[n] = found
    return _BASES[n]


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


def pair_for(seed, n, denoms, case):
    """An (A, g) pair of size n: a sweep certificate conjugated by a dense or
    sparse S with the given denominators, then altered as ``case`` says."""
    rng = random.Random(seed)
    dens = DENOMS[denoms]
    a, g = rng.choice(_bases(n))
    s, s_inv = _conjugator(rng, n, dens, rng.choice([0, 1, n]))
    a, g = s * a * s_inv, s * g * s_inv
    if case == "tampered":
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
                        "random-g", "random-a"]))
def test_check_matches_naive_check(seed, n, denoms, case):
    a, g = pair_for(seed, n, denoms, case)
    for target, flavor in REQUESTS:
        assert (check_certificate(g, a, target, flavor)
                == naive_check(g, a, target, flavor)), (target, flavor)


def test_check_matches_naive_check_on_fixed_cases():
    """Each case at each size once, so every run sees a passing check, a
    tampered g and a singular A with 60-bit denominators."""
    seen = set()
    for n in range(1, 7):
        for i, case in enumerate(["as-built", "tampered", "singular",
                                  "scaled"]):
            a, g = pair_for(n * 10 + i, n, ("2^60", "3^38")[n % 2], case)
            for target, flavor in REQUESTS:
                report = check_certificate(g, a, target, flavor)
                assert report == naive_check(g, a, target, flavor)
                seen.add((case, report.ok))
    assert ("as-built", True) in seen and ("tampered", False) in seen


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
            "_hamilton", "_squares_to", "_study_det", "_cleared", "_over",
            "_form", "rational_ints", "quaternion_ints", "_RATIONAL_RE",
            "_INTEGER_RE", "_RESIDUAL_SIGN", "_SQUARE_SIGN", "TARGETS",
            "FLAVORS", "VerifyReport", "check", "verify"}
    gone = {"conjugator_checks", "_kind_checks", "format_rational"}
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
