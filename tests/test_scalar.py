"""Exact scalar layer: rationals, Gaussian rationals, quaternions."""
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import naive_gr_inverse, naive_norm_sq
from quatrev.classify import _is_unit
from quatrev.scalar import (GR_I, GR_ONE, GR_ZERO, GaussianRational,
                            Q_I, Q_J, Q_K, Q_ONE, Quaternion, class_rep,
                            class_rep_inverse, class_rep_neg_inverse,
                            format_rational, gr, parse_complex,
                            parse_rational, quat)

fractions_st = st.fractions(min_value=-1000, max_value=1000,
                            max_denominator=10**4)


def test_parse_rational_round_trip():
    for text in ["0", "5", "-7", "2/3", "-11/4", "100/7"]:
        assert format_rational(parse_rational(text)) == text


def test_parse_rational_rejects_junk():
    for bad in ["", "1.5", "2/0", "2/-3", "+ 1", "a/b", "1/03"]:
        with pytest.raises(ValueError):
            parse_rational(bad)


# the accepted set of ``parse_rational``: optional sign, digits, and an
# optional "/" with a denominator whose first digit is an ASCII 1-9
_LITERAL = re.compile(r"^[+-]?\d+(?:/[1-9]\d*)?$")


def _outcome(parse, text):
    try:
        return parse(text)
    except ValueError:
        return ValueError


def _reference(text):
    if not _LITERAL.match(text.strip()):
        raise ValueError(text)
    return Fraction(text.strip())


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.from_regex(_LITERAL, fullmatch=True),
    st.text(alphabet="0123456789\u0663\u0660+-/ \t\n_.e", max_size=14),
    st.sampled_from(["1/0", "1/\u0663", "\u0663", " +7 ", "1" * 5000,
                     "2/" + "3" * 5000, "-0", "007/10"])))
def test_parse_rational_accepts_what_fraction_parses(text):
    got = _outcome(parse_rational, text)
    assert got == _outcome(_reference, text)
    if got is not ValueError:
        assert got == Fraction(text)


def test_parse_rational_edge_literals():
    for bad in ["1/0", "1/\u0663", "1" * 5000]:
        with pytest.raises(ValueError):
            parse_rational(bad)
    with pytest.raises(ValueError):
        Fraction("1" * 5000)
    assert parse_rational("\u0663") == 3
    assert parse_rational(" +7 ") == 7


def test_parse_complex_forms():
    assert parse_complex("2") == gr(2)
    assert parse_complex("-1/2") == gr("-1/2")
    assert parse_complex("i") == GR_I
    assert parse_complex("-i") == gr(0, -1)
    assert parse_complex("3/5+4/5i") == gr("3/5", "4/5")
    assert parse_complex("1-i") == gr(1, -1)
    assert parse_complex("-2/3i") == gr(0, "-2/3")


def test_gaussian_field_ops():
    x = gr("1/2", 3)
    y = gr(-2, "1/4")
    assert (x + y) - y == x
    assert x * y == y * x
    assert (x / y) * y == x
    assert x * x.inverse() == GR_ONE
    assert GR_I * GR_I == -GR_ONE


def test_gaussian_conjugate_and_norm():
    x = gr("3/5", "4/5")
    assert x * x.conjugate() == gr(x.norm_sq())
    assert x.norm_sq() == 1
    assert x.conjugate() == gr("3/5", "-4/5")


def test_gaussian_power():
    x = gr(1, 1)
    assert x.power(2) == gr(0, 2)
    assert x.power(0) == GR_ONE
    assert x.power(-2) == gr(0, 2).inverse()


def test_gaussian_json_round_trip():
    x = gr("-7/3", "5/2")
    assert GaussianRational.from_json(x.to_json()) == x
    assert x.to_json() == {"re": "-7/3", "im": "5/2"}


@settings(max_examples=60, deadline=None)
@given(fractions_st, fractions_st, fractions_st, fractions_st)
def test_gaussian_mul_matches_complex_rule(a, b, c, d):
    x, y = GaussianRational(a, b), GaussianRational(c, d)
    z = x * y
    assert z.re == a * c - b * d
    assert z.im == a * d + b * c


def test_hamilton_table():
    assert Q_I * Q_J == Q_K
    assert Q_J * Q_K == Q_I
    assert Q_K * Q_I == Q_J
    assert Q_J * Q_I == -Q_K
    assert Q_I * Q_I == -Q_ONE
    assert Q_J * Q_J == -Q_ONE
    assert Q_K * Q_K == -Q_ONE


def test_j_conjugates_complex():
    # j z = conj(z) j for any complex z
    z = gr("2/3", "-5").to_quaternion()
    zc = gr("2/3", "5").to_quaternion()
    assert Q_J * z == zc * Q_J


def test_quaternion_inverse_and_norm():
    q = quat(1, -2, 3, "1/2")
    assert q * q.inverse() == Q_ONE
    assert q.inverse() * q == Q_ONE
    assert q.norm_sq() == Fraction(1) + 4 + 9 + Fraction(1, 4)
    assert q * q.conjugate() == quat(q.norm_sq())


def test_quaternion_complex_parts():
    q = quat(1, 2, 3, 4)
    z1, z2 = q.complex_parts()
    assert z1 == gr(1, 2) and z2 == gr(3, 4)
    assert z1.to_quaternion() + z2.to_quaternion() * Q_J == q


def test_quaternion_json_round_trip():
    q = quat("1/3", -2, 0, "7/5")
    assert Quaternion.from_json(q.to_json()) == q
    assert q.to_json() == ["1/3", "-2", "0", "7/5"]


@settings(max_examples=40, deadline=None)
@given(*(st.integers(-50, 50) for _ in range(12)))
def test_quaternion_associative(a1, b1, c1, d1, a2, b2, c2, d2, a3, b3, c3, d3):
    p = quat(a1, b1, c1, d1)
    q = quat(a2, b2, c2, d2)
    r = quat(a3, b3, c3, d3)
    assert (p * q) * r == p * (q * r)


@settings(max_examples=40, deadline=None)
@given(*(st.integers(-50, 50) for _ in range(8)))
def test_quaternion_norm_multiplicative(a1, b1, c1, d1, a2, b2, c2, d2):
    p = quat(a1, b1, c1, d1)
    q = quat(a2, b2, c2, d2)
    assert (p * q).norm_sq() == p.norm_sq() * q.norm_sq()


def test_class_rep_folds_to_upper_half():
    assert class_rep(gr(2, -3)) == gr(2, 3)
    assert class_rep(gr(2, 3)) == gr(2, 3)
    assert class_rep(gr(-1)) == gr(-1)


def test_class_rep_inverse_values():
    # for unit modulus the inverse class is the class itself
    u = gr("3/5", "4/5")
    assert class_rep_inverse(u) == u
    assert class_rep_inverse(gr(2)) == gr("1/2")
    assert class_rep_inverse(gr(1, 1)) == gr("1/2", "1/2")
    assert class_rep_inverse(GR_I) == GR_I


def test_class_rep_neg_inverse_values():
    assert class_rep_neg_inverse(gr(2)) == gr("-1/2")
    assert class_rep_neg_inverse(gr(-2)) == gr("1/2")
    assert class_rep_neg_inverse(GR_I) == GR_I
    u = gr("3/5", "4/5")
    assert class_rep_neg_inverse(u) == gr("-3/5", "4/5")
    # only i is its own negative-inverse class
    vals = [gr(1), gr(-1), gr(2), u, gr(1, 1), GR_I]
    fixed = [v for v in vals if class_rep_neg_inverse(v) == v]
    assert fixed == [GR_I]


def test_class_rep_rejects_zero():
    with pytest.raises(ZeroDivisionError):
        class_rep_inverse(GR_ZERO)
    with pytest.raises(ZeroDivisionError):
        class_rep_neg_inverse(GR_ZERO)


@settings(max_examples=60, deadline=None)
@given(fractions_st, fractions_st)
def test_neg_inverse_is_exact_neg_of_inverse(a, b):
    # on class representatives (im >= 0) the two maps differ by a sign
    x = GaussianRational(a, abs(b))
    if x.is_zero:
        return
    assert class_rep_neg_inverse(x) == -(x.inverse())
    assert class_rep_inverse(x) == class_rep(x.inverse())


# Fraction parts with signs, zeros and denominators up to 2^60 + 3
_big_parts = st.builds(
    Fraction,
    st.integers(-9, 9) | st.integers(-2**62, 2**62),
    st.integers(1, 7) | st.integers(1, 2**60 + 3)
    | st.sampled_from([2**60 - 1, 2**60, 2**60 + 1, 2**60 + 3]))


def _circle_point(m, k):
    """((m^2 - k^2) + 2mk i) / (m^2 + k^2), a point of modulus 1."""
    q = m * m + k * k
    return GaussianRational(Fraction(m * m - k * k, q), Fraction(2 * m * k, q))


@settings(max_examples=300, deadline=None)
@given(st.builds(GaussianRational, _big_parts, _big_parts)
       | st.builds(_circle_point, st.integers(-2**29, 2**29),
                   st.integers(1, 2**29)))
@example(GR_ZERO)
@example(GaussianRational(Fraction(0), Fraction(-3, 2**60 + 3)))
@example(GaussianRational(Fraction(-5, 2**60 - 1), Fraction(0)))
@example(gr("3/5", "-4/5"))
def test_integer_norm_and_inverse_match_fraction_chain(lam):
    want = naive_norm_sq(lam)
    assert lam.norm_sq() == want
    assert _is_unit(lam) == (want == 1)
    if lam.is_zero:
        with pytest.raises(ZeroDivisionError):
            lam.inverse()
        return
    inv = lam.inverse()
    assert inv == naive_gr_inverse(lam)
    assert lam * inv == GR_ONE
