"""Matrices decoded from JSON straight into their stored integer form.

``QMatrix.from_json`` reads each literal as the integers (p, q) it spells
and builds the matrix in its integer form, reduced by one gcd, with no
entry made until one is read.  Against the matrix built from the same
entries as Fractions, the stored form, equality, hash, entries and
``to_json`` bytes agree, for unreduced, signed, padded, Unicode-digit and
~2^60 literals; hostile objects raise the entries-built decoder's error.
"""
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quatrev.errors import ShapeError
from quatrev.matrix import QMatrix
from quatrev.reversers import Certificate
from quatrev.scalar import Quaternion, parse_rational

_ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤"
                              "٥٦٧٨٩")


def _entries_built(obj):
    """Decode by building every entry as four Fractions first: the decoder
    the integer form replaced, kept as the oracle."""
    if not isinstance(obj, dict) or not {"n", "m", "entries"} <= set(obj):
        raise ValueError("not a matrix object")
    entries = obj["entries"]
    if (not isinstance(entries, list)
            or not all(isinstance(row, list) for row in entries)):
        raise ValueError("matrix entries must be a list of rows")
    if not all(isinstance(obj[k], int) and not isinstance(obj[k], bool)
               for k in ("n", "m")):
        raise ValueError("matrix dimensions must be integers")
    rows = []
    for row in entries:
        out = []
        for x in row:
            if not isinstance(x, (list, tuple)) or len(x) != 4:
                raise ValueError(f"not a quaternion array: {x!r}")
            out.append(Quaternion(*map(parse_rational, x)))
        rows.append(out)
    mat = QMatrix(rows)
    if (mat.n_rows, mat.n_cols) != (obj["n"], obj["m"]):
        raise ValueError("matrix dimensions disagree with entries")
    return mat


def _outcome(decode, obj):
    try:
        return decode(obj)
    except (ValueError, ShapeError) as exc:
        return type(exc), str(exc)


@st.composite
def literals(draw):
    """A wire literal and its value: unreduced, signed, padded, written in
    Arabic-Indic digits, or ~2^60 in size."""
    p = draw(st.one_of(st.integers(-9, 9),
                       st.integers(-2 ** 62, 2 ** 62),
                       st.sampled_from([0, 2 ** 60, -(2 ** 60) - 1])))
    q = draw(st.sampled_from([1, 1, 2, 3, 7, 2 ** 60, 2 ** 60 + 1]))
    k = draw(st.integers(1, 6))
    num, den = str(p * k), str(q * k)
    if draw(st.booleans()):
        num = num[0] + num[1:].translate(_ARABIC_INDIC)
        den = den[0] + den[1:].translate(_ARABIC_INDIC)
    if p >= 0 and draw(st.booleans()):
        num = draw(st.sampled_from(["+", "-" if p == 0 else "+"])) + num
    text = num if den == "1" and draw(st.booleans()) else f"{num}/{den}"
    if draw(st.booleans()):
        text = draw(st.sampled_from([" ", "\t", " \n"])) + text + " "
    return text, Fraction(p, q)


@st.composite
def matrix_objects(draw):
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    zero = st.sampled_from(["0", "-0/7", "+0", " 0 "]).map(
        lambda t: (t, Fraction(0)))
    quats = st.one_of(st.lists(literals(), min_size=4, max_size=4),
                      st.lists(zero, min_size=4, max_size=4))
    cells = draw(st.lists(st.lists(quats, min_size=m, max_size=m),
                          min_size=n, max_size=n))
    obj = {"n": n, "m": m,
           "entries": [[[t for t, _ in c] for c in row] for row in cells]}
    return obj, QMatrix([[Quaternion(*(v for _, v in c)) for c in row]
                         for row in cells])


@settings(max_examples=150, deadline=None)
@given(matrix_objects())
def test_decode_matches_the_entries_built_matrix(drawn):
    obj, built = drawn
    m = QMatrix.from_json(obj)
    assert m._entries is None  # no entry made before one is read
    assert m._ints == QMatrix(built.entries)._ints
    assert m == built and built == m and hash(m) == hash(built)
    assert m.entries == built.entries
    text = json.dumps(m.to_json())
    assert text == json.dumps(built.to_json())
    assert json.dumps(QMatrix.from_json(json.loads(text)).to_json()) == text
    assert _outcome(_entries_built, obj) == built
    cert = Certificate.from_json({"target": "inverse", "flavor": "general",
                                  "g": obj})
    assert cert.g._ints == built._ints


HOSTILE = [
    ({"n": 2, "m": 2, "entries": [[["1", "0", "0", "0"], ["1", "0", "0", "0"]],
                                  [["1", "0", "0", "0"]]]},
     (ShapeError, "ragged rows")),
    ({"n": 0, "m": 0, "entries": []},
     (ShapeError, "matrix must have at least one row and column")),
    ({"n": 1, "m": 0, "entries": [[]]},
     (ShapeError, "matrix must have at least one row and column")),
    ({"n": 1, "m": 1, "entries": [[["1", "0", "0"]]]},
     (ValueError, "not a quaternion array: ['1', '0', '0']")),
    ({"n": 1, "m": 1, "entries": [[["1", 0, "0", "0"]]]},
     (ValueError, "not a rational literal: 0")),
    ({"n": 1, "m": 1, "entries": [[["1", "0", None, "0"]]]},
     (ValueError, "not a rational literal: None")),
    ({"n": 1, "m": 1, "entries": [[["1/0", "0", "0", "0"]]]},
     (ValueError, "not a rational literal: '1/0'")),
    ({"n": True, "m": 1, "entries": [[["1", "0", "0", "0"]]]},
     (ValueError, "matrix dimensions must be integers")),
    ({"n": 2, "m": 1, "entries": [[["1", "0", "0", "0"]]]},
     (ValueError, "matrix dimensions disagree with entries")),
    # a bad entry is reported before the shape
    ({"n": 2, "m": 2, "entries": [[["1", "0", "0", "0"]],
                                  [["x", "0", "0", "0"], ["1", "0", "0", "0"]]]},
     (ValueError, "not a rational literal: 'x'")),
    ({"n": 1, "m": 1, "entries": {"0": []}},
     (ValueError, "matrix entries must be a list of rows")),
    (["n", "m", "entries"], (ValueError, "not a matrix object")),
]


@pytest.mark.parametrize("obj, expected", HOSTILE)
def test_hostile_objects_keep_their_errors(obj, expected):
    assert _outcome(QMatrix.from_json, obj) == expected
    assert _outcome(_entries_built, obj) == expected


_JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 3),
              st.sampled_from(["0", "1/2", "-3", "1/0", "x", " 2 ", ""])),
    lambda inner: st.lists(inner, max_size=4), max_leaves=24)


@settings(max_examples=300, deadline=None)
@given(st.fixed_dictionaries({"n": st.one_of(st.integers(0, 3), _JSON),
                              "m": st.one_of(st.integers(0, 3), _JSON),
                              "entries": _JSON}))
def test_any_object_decodes_like_the_entries_built_decoder(obj):
    assert _outcome(QMatrix.from_json, obj) == _outcome(_entries_built, obj)
