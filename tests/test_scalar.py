"""Exact scalar layer: rationals, Gaussian rationals, quaternions."""
import re
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import (PairModel, circle_point, hostile_parts,
                      naive_gr_inverse, naive_norm_sq, round_trips)
from quatrev.canonical import JordanSpec
from quatrev.classify import _is_unit
from quatrev.scalar import (GR_I, GR_ONE, GR_ZERO, GaussianRational,
                            Q_I, Q_J, Q_K, Q_ONE, Quaternion, class_rep,
                            class_rep_inverse, class_rep_neg_inverse,
                            gr, parse_complex,
                            parse_integer, parse_rational, quat)

fractions_st = st.fractions(min_value=-1000, max_value=1000,
                            max_denominator=10**4)


def test_parse_rational_round_trip():
    for text in ["0", "5", "-7", "2/3", "-11/4", "100/7"]:
        assert str(parse_rational(text)) == text


def test_parse_rational_rejects_junk():
    for bad in ["", "1.5", "2/0", "2/-3", "+ 1", "a/b", "1/03"]:
        with pytest.raises(ValueError):
            parse_rational(bad)


# the accepted set of ``parse_rational``: optional sign, ASCII digits, and
# an optional "/" with a denominator whose first digit is 1-9, nothing around
_LITERAL = re.compile(r"[+-]?[0-9]+(?:/[1-9][0-9]*)?")


def _outcome(parse, text):
    try:
        return parse(text)
    except ValueError:
        return ValueError


def _reference(text):
    if not _LITERAL.fullmatch(text):
        raise ValueError(text)
    return Fraction(text)


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.from_regex(_LITERAL, fullmatch=True),
    st.text(alphabet="0123456789\u0663\u0660+-/ \t\n_.e", max_size=14),
    st.sampled_from(["1/0", "1/\u0663", "1/1\u0663", "\u0663", " +7 ",
                     "+7", "7\n", "1" * 5000,
                     "2/" + "3" * 5000, "-0", "007/10"])))
def test_parse_rational_accepts_what_fraction_parses(text):
    got = _outcome(parse_rational, text)
    assert got == _outcome(_reference, text)
    if got is not ValueError:
        assert got == Fraction(text)


def test_parse_rational_edge_literals():
    for bad in ["1/0", "1/\u0663", "1/1\u0663", "\u0663", " +7 ", "7\n",
                "1" * 5000]:
        with pytest.raises(ValueError):
            parse_rational(bad)
    with pytest.raises(ValueError):
        Fraction("1" * 5000)
    assert parse_rational("+7") == 7


def _integer_reference(text):
    if not re.fullmatch(r"[+-]?[0-9]+", text):
        raise ValueError(text)
    return int(text)


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.from_regex(r"[+-]?[0-9]+", fullmatch=True),
    st.text(alphabet="0123456789\u0663+- \t\n_/", max_size=8),
    st.sampled_from(["1_0", "\u0663", " 3", "3 ", "3\n", "3/1", "-0"])))
def test_parse_integer_is_a_rationals_numerator(text):
    """Block sizes, partition parts and exponents, and ``--n`` are read by
    ``parse_integer``: a sign and ASCII digits, nothing else."""
    assert _outcome(parse_integer, text) == _outcome(_integer_reference, text)


def test_parse_complex_forms():
    assert parse_complex("2") == gr(2)
    assert parse_complex("-1/2") == gr("-1/2")
    assert parse_complex("i") == GR_I
    assert parse_complex("-i") == gr(0, -1)
    assert parse_complex("3/5+4/5i") == gr("3/5", "4/5")
    assert parse_complex("1-i") == gr(1, -1)
    assert parse_complex("-2/3i") == gr(0, "-2/3")
    assert parse_complex("+i") == GR_I
    assert parse_complex("1/2i") == gr(0, "1/2")
    for text, im in (("2*i", 2), ("2\u00b7i", 2), ("1 i", 1)):
        assert parse_complex(text) == gr(0, im)
    assert parse_complex("3/5 + 4/5 i") == gr("3/5", "4/5")
    assert parse_complex(" 2 ") == gr(2)
    # whitespace only between tokens, "*" or "·" only before i: none of
    # these is read as 12, 1/23, 2 or i
    for bad in ("1*2", "1 2", "1\u00b72", "1/2*3", "1/2 3", "2*", "*2", "*i",
                "", " ", "- 2", "1+-i", "2i+1", "ii"):
        with pytest.raises(ValueError, match="not a complex literal"):
            parse_complex(bad)


def _tokens(x: GaussianRational) -> list[str]:
    """``str(x)`` cut into its tokens: the real part, the sign between the
    parts, the imaginary coefficient and i; a leading sign stays with what
    follows it, as a rational's sign does."""
    if not x.im:
        return [str(x.re)]
    sign = "-" if x.im < 0 else "+"
    tokens = ([] if abs(x.im) == 1 else [str(abs(x.im))]) + ["i"]
    if x.re:
        return [str(x.re), sign, *tokens]
    return [sign.strip("+") + tokens[0], *tokens[1:]]


_parts = st.one_of(st.sampled_from([Fraction(0), Fraction(1), Fraction(-1)]),
                   fractions_st)


def _fraction_str(x: GaussianRational) -> str:
    """``str(x)`` written from the Fractions re and im."""
    re, im = x.re, x.im
    if not im:
        return str(re)
    imtxt = "i" if abs(im) == 1 else f"{abs(im)}i"
    if not re:
        return imtxt if im > 0 else f"-{imtxt}"
    return f"{re}{'+' if im > 0 else '-'}{imtxt}"


@settings(max_examples=500, deadline=None)
@given(st.builds(GaussianRational, _parts | hostile_parts,
                 _parts | hostile_parts))
@example(GaussianRational(Fraction(1, 2), Fraction(-1, 3)))   # z = 6
@example(GaussianRational(Fraction(2), Fraction(5, 3)))
@example(GaussianRational(Fraction(-3, 4), Fraction(1)))
@example(GaussianRational(Fraction(0), Fraction(-1)))
def test_str_is_the_fraction_rendering(x):
    assert str(x) == _fraction_str(x)


@settings(max_examples=300, deadline=None)
@given(st.builds(GaussianRational, _parts, _parts), st.data())
def test_parse_complex_reads_str_with_spaces_only_between_tokens(x, data):
    tokens = _tokens(x)
    assert "".join(tokens) == str(x)
    assert parse_complex(str(x)) == x
    gaps = st.sampled_from(["", " ", "  ", "\t"])
    spaced = data.draw(gaps) + "".join(
        token + (data.draw(st.sampled_from(["*", "\u00b7", " * "]))
                 if token[-1:].isdigit() and nxt == "i" else data.draw(gaps))
        for token, nxt in zip(tokens, tokens[1:] + [""]))
    assert parse_complex(spaced) == x
    numbers = [t for t in tokens if len(t) > 1 and t != "-i"]
    assume(numbers)
    number = data.draw(st.sampled_from(numbers))
    cut = data.draw(st.integers(1, len(number) - 1))
    junk = data.draw(st.sampled_from([" ", "*", "\u00b7"]))
    broken = "".join(tokens).replace(number, number[:cut] + junk
                                     + number[cut:], 1)
    with pytest.raises(ValueError):
        parse_complex(broken)


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


def test_gaussian_copies_and_pickles_and_stays_immutable():
    for x in (GR_ZERO, GR_I, gr("-3/4", "5/6"), gr(2**70 + 1, "1/3")):
        for y in round_trips(x):
            assert type(y) is GaussianRational
            assert y == x and hash(y) == hash(x) and y._ints == x._ints
            with pytest.raises(AttributeError, match="immutable"):
                y._ints = (1, 0, 1)


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


@settings(max_examples=300, deadline=None)
@given(st.builds(GaussianRational, _big_parts, _big_parts)
       | st.builds(circle_point, st.integers(-2**29, 2**29),
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


@settings(max_examples=300, deadline=None)
@given(hostile_parts, hostile_parts, hostile_parts, hostile_parts)
@example(Fraction(0), Fraction(0), Fraction(1, 2**60 + 1), Fraction(0))
@example(Fraction(3, 2**60 - 1), Fraction(-5, 3**38),
         Fraction(3, 2**60 - 1), Fraction(-5, 3**38))
@example(Fraction(1, 2**60), Fraction(1, 2**60), Fraction(0), Fraction(-1))
def test_integer_triple_agrees_with_fraction_pair_model(a, b, c, d):
    """The triple (x, y, z) and the Fraction pair (re, im) are one number:
    equality, hash, parts, arithmetic, inverse, norm, class
    representative, text and JSON agree with the naive model."""
    x, y = GaussianRational(a, b), GaussianRational(c, d)
    mx, my = PairModel(a, b), PairModel(c, d)
    assert PairModel.of(x) == mx
    assert (x == y) == (mx == my)
    if x == y:
        assert hash(x) == hash(y)
    # one number reached along other paths has the same triple and hash
    for same in (x + y - y, -(-x), x.conjugate().conjugate(),
                 GaussianRational(Fraction(2 * a.numerator, 2 * a.denominator),
                                  b)):
        assert same == x and hash(same) == hash(x)
    assert PairModel.of(x + y) == mx + my
    assert PairModel.of(x - y) == mx - my
    assert PairModel.of(x * y) == mx * my
    assert PairModel.of(-x) == -mx
    assert PairModel.of(x.conjugate()) == mx.conjugate()
    assert x.norm_sq() == mx.norm_sq()
    assert x.is_zero == (mx.norm_sq() == 0)
    assert x.is_real == (b == 0)
    assert PairModel.of(class_rep(x)) == mx.class_rep()
    assert str(x) == mx.text()
    assert x.to_json() == mx.to_json()
    assert GaussianRational.from_json(x.to_json()) == x
    if x.is_zero:
        with pytest.raises(ZeroDivisionError):
            x.inverse()
        return
    assert PairModel.of(x.inverse()) == mx.inverse()
    assert PairModel.of(y / x) == my * mx.inverse()


def test_triple_reads_make_no_fraction(monkeypatch):
    """Equality, hashing, class_rep, inverse and the sort in
    ``JordanSpec.of`` work on the integer triple alone."""
    lam, half = gr("3/5", "-4/5"), gr("-1/2")
    mu = gr(2**60 + 1, Fraction(1, 3**38))
    blocks = [(lam, 2), (mu, 1), (half, 3), (lam, 3)]

    def refuse(*args, **kwargs):
        raise AssertionError("a Fraction was made")

    monkeypatch.setattr(Fraction, "__new__", refuse)
    assert lam != mu and lam == lam.conjugate().conjugate()
    assert len({lam, mu, lam.conjugate().conjugate()}) == 2
    assert class_rep(lam) == lam.conjugate()
    assert class_rep_inverse(lam) == class_rep(lam.inverse())
    assert mu.inverse().inverse() == mu
    assert JordanSpec.of(blocks).blocks == ((half, 3), (lam.conjugate(), 3),
                                            (lam.conjugate(), 2), (mu, 1))


_MIXED = {"gr(1)*2": lambda: gr(1) * 2, "2*gr(1)": lambda: 2 * gr(1),
          "gr(1)+1": lambda: gr(1) + 1, "1+gr(1)": lambda: 1 + gr(1),
          "gr(1)-1": lambda: gr(1) - 1, "gr(1)/2": lambda: gr(1) / 2,
          "gr(1)*1/2": lambda: gr(1) * Fraction(1, 2),
          "gr(1)+quat(1)": lambda: gr(1) + quat(1),
          "quat(1)*2": lambda: quat(1) * 2,
          "2*quat(1)": lambda: 2 * quat(1),
          "quat(1)+1": lambda: quat(1) + 1,
          "1+quat(1)": lambda: 1 + quat(1),
          "quat(1)-1": lambda: quat(1) - 1,
          "quat(1)*gr(1)": lambda: quat(1) * gr(1)}


@pytest.mark.parametrize("apply", _MIXED.values(), ids=_MIXED.keys())
def test_binary_operators_refuse_other_types(apply):
    """Every binary operator of both scalar types returns NotImplemented
    for an operand of another type, so Python raises TypeError."""
    with pytest.raises(TypeError):
        apply()


def test_scalars_never_equal_other_types():
    assert (gr(1) == 1) is False and (gr(1) != 1) is True
    assert (gr(1) == Fraction(1)) is False and (1 == gr(1)) is False
    assert (quat(1) == 1) is False and (quat(1) != 1) is True
    assert (gr(1) == quat(1)) is False


def test_gaussian_rational_is_immutable():
    x = gr(1, 2)
    with pytest.raises(AttributeError):
        x.re = Fraction(3)
    with pytest.raises(AttributeError):
        x._ints = (3, 0, 1)
    with pytest.raises(AttributeError):
        del x._ints
    assert x == gr(1, 2)
