"""End-to-end command-line coverage: subcommands, exit codes, file I/O."""
import ast
import contextlib
import io
import json
import math
import pathlib
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quatrev.canonical import JordanSpec, jordan_matrix
from quatrev import cli
from quatrev.cli import (EXIT_NOT_CONSTRUCTIBLE, EXIT_NUMERIC, EXIT_OK,
                         EXIT_PARSE, EXIT_VERIFY_FAILED, main)
from quatrev.numeric import float_matrix_to_json, qmatrix_to_float
from quatrev.scalar import gr

from conftest import rand_invertible, rng_for


def run(*argv, stdin=None):
    out, err = io.StringIO(), io.StringIO()
    old_stdin = sys.stdin
    if stdin is not None:
        sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    except SystemExit as exc:  # argparse's own usage errors
        code = exc.code
    finally:
        sys.stdin = old_stdin
    return code, out.getvalue(), err.getvalue()


def test_classify_jordan_ok():
    code, out, _ = run("classify", "--jordan", "[(i,2),(2,1),(1/2,1)]")
    assert code == EXIT_OK
    data = json.loads(out)
    cls = data["classification"]
    assert cls["reversible"] is True
    assert cls["strongly_reversible"] is False
    assert cls["psl_reversible"] is True
    sizes = [b["size"] for b in data["spec"]["blocks"]]
    assert sorted(sizes) == [1, 1, 2]


def test_classify_witness_text():
    code, out, _ = run("classify", "--jordan", "[(2,1),(1/2,1)]")
    assert code == EXIT_OK
    pairing = json.loads(out)["classification"]["witness_pairing"]
    assert pairing["inverse"].startswith("pair ")
    assert pairing["neg_inverse"].startswith("none")


def test_classify_zero_eigenvalue_is_parse_error():
    code, _, err = run("classify", "--jordan", "[(0,2)]")
    assert code == EXIT_PARSE
    assert "nonzero" in err


def test_classify_garbage_spec():
    code, _, _ = run("classify", "--jordan", "banana")
    assert code == EXIT_PARSE


def test_classify_needs_exactly_one_input():
    assert run("classify")[0] == EXIT_PARSE
    assert run("classify", "--jordan", "[(2,1)]",
               "--matrix", "x.json")[0] == EXIT_PARSE


def test_certify_and_verify_round_trip(tmp_path):
    cert_path = tmp_path / "cert.json"
    mat_path = tmp_path / "m.json"
    code, _, _ = run("certify", "--jordan", "[(2,1),(1/2,1)]",
                     "--flavor", "involution", "--emit-matrix",
                     "--out", str(cert_path))
    assert code == EXIT_OK
    doc = json.loads(cert_path.read_text())
    assert doc["flavor"] == "involution"
    assert doc["checks"] == {"residual_zero": True, "flavor_verified": True,
                             "det_one": True}
    mat_path.write_text(json.dumps(doc["matrix"]))
    code2, out2, _ = run("verify", "--matrix", str(mat_path),
                         "--cert", str(cert_path))
    assert code2 == EXIT_OK
    assert json.loads(out2)["ok"] is True


def test_verify_detects_tampering(tmp_path):
    cert_path = tmp_path / "cert.json"
    mat_path = tmp_path / "m.json"
    run("certify", "--jordan", "[(2,1),(1/2,1)]", "--flavor", "involution",
        "--emit-matrix", "--out", str(cert_path))
    doc = json.loads(cert_path.read_text())
    mat_path.write_text(json.dumps(doc["matrix"]))
    doc["g"]["entries"][0][0] = ["17", "0", "0", "0"]
    cert_path.write_text(json.dumps(doc))
    code, out, _ = run("verify", "--matrix", str(mat_path),
                       "--cert", str(cert_path))
    assert code == EXIT_VERIFY_FAILED
    assert json.loads(out)["ok"] is False


def test_verify_reads_stdin():
    code, cert_text, _ = run("certify", "--jordan", "[(i,1)]",
                             "--flavor", "skew-involution")
    assert code == EXIT_OK
    mat_json = json.dumps(jordan_matrix(
        JordanSpec.of([(gr(0, 1), 1)])).to_json())
    code2, out2, _ = run("verify", "--matrix", mat_json, "--cert", "-",
                         stdin=cert_text)
    assert code2 == EXIT_OK
    assert json.loads(out2)["ok"] is True


def test_certify_refuses_unattainable_flavor():
    # lone odd unit class: reversible but not strongly reversible
    code, _, err = run("certify", "--jordan", "[(i,1)]",
                       "--flavor", "involution")
    assert code == EXIT_NOT_CONSTRUCTIBLE
    assert err.strip() != ""


def test_certify_irreversible():
    code, _, _ = run("certify", "--jordan", "[(2,1)]")
    assert code == EXIT_NOT_CONSTRUCTIBLE


def test_certify_neg_inverse_target():
    code, out, _ = run("certify", "--jordan", "[(i,3)]",
                       "--target", "neg-inverse")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["target"] == "neg-inverse"
    assert doc["checks"]["residual_zero"] is True


def test_decompose_skew_pair():
    code, out, _ = run("decompose", "--jordan", "[(2,1),(1/2,1)]",
                       "--flavor", "skew-involution")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["s1_square"] == "-I" and data["s2_square"] == "-I"


def test_decompose_involutions():
    code, out, _ = run("decompose", "--jordan", "[(1,2)]",
                       "--flavor", "involution")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["s1_square"] == "+I" and data["s2_square"] == "+I"


def test_decompose_neg_inverse_mixes_flavors():
    code, out, _ = run("decompose", "--jordan", "[(i,2)]",
                       "--target", "neg-inverse")
    assert code == EXIT_OK
    data = json.loads(out)
    assert {data["s1_square"], data["s2_square"]} == {"+I", "-I"}


def test_decompose_refusal_exit_code():
    code, _, _ = run("decompose", "--jordan", "[(i,1)]",
                     "--flavor", "involution")
    assert code == EXIT_NOT_CONSTRUCTIBLE


def test_decompose_from_matrix_and_cert(tmp_path):
    cert_path = tmp_path / "cert.json"
    mat_path = tmp_path / "m.json"
    run("certify", "--jordan", "[(1,2),(-1,1)]", "--flavor", "involution",
        "--emit-matrix", "--out", str(cert_path))
    doc = json.loads(cert_path.read_text())
    mat_path.write_text(json.dumps(doc["matrix"]))
    code, out, _ = run("decompose", "--matrix", str(mat_path),
                       "--cert", str(cert_path))
    assert code == EXIT_OK
    assert json.loads(out)["s1_square"] == "+I"
    # the certificate names its kind: --target/--flavor go with --jordan only
    for flag, value in (("--flavor", "involution"), ("--target", "inverse")):
        code, out, err = run("decompose", "--matrix", str(mat_path),
                             "--cert", str(cert_path), flag, value)
        assert (code, out) == (EXIT_PARSE, "")
        _one_line_error(err)


def test_omega_subcommand():
    code, out, _ = run("omega", "--lambda", "2", "--n", "2")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["entries"][0][0] == ["-1/4", "0", "0", "0"]
    assert data["entries"][0][1] == ["0", "0", "0", "0"]
    assert data["entries"][1][1] == ["1", "0", "0", "0"]


def test_omega_comma_scalar_form():
    code, out, _ = run("omega", "--lambda", "3/5,4/5", "--n", "1")
    assert code == EXIT_OK
    # unit modulus: omega(λ, 1) is the 1x1 identity
    assert json.loads(out)["entries"][0][0] == ["1", "0", "0", "0"]


def test_omega_negative_lambda_spaced_or_attached():
    # argparse took every one of these but "-2" for an option
    for literal in ("-1/2", "-i", "-1/2+i", "-3/5,4/5", "-2"):
        spaced = run("omega", "--lambda", literal, "--n", "3")
        attached = run("omega", f"--lambda={literal}", "--n", "3")
        assert spaced == attached, literal
        assert spaced[0] == EXIT_OK and spaced[2] == "", literal


def test_omega_rejects_zero():
    code, _, _ = run("omega", "--lambda", "0", "--n", "2")
    assert code == EXIT_PARSE


def test_omega_rejects_empty_scalar_halves():
    # an empty real or imaginary half of "re,im" is not read as 0, 1 or -1
    for literal in (",", "1,", ",2", "1,-"):
        code, out, err = run("omega", "--lambda", literal, "--n", "1")
        assert code == EXIT_PARSE, literal
        assert out == ""
        assert len(err.strip().splitlines()) == 1


def test_weyr_subcommand():
    code, out, _ = run("weyr", "--partition", "3,2,2")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data == {"partition": [3, 2, 2], "conjugate": [3, 3, 1],
                    "weyr_structure": [3, 3, 1]}


def test_weyr_exponent_form():
    code, out, _ = run("weyr", "--partition", "[3^2,1^1]")
    assert code == EXIT_OK
    assert json.loads(out)["partition"] == [3, 3, 1]


def test_weyr_bad_partition():
    code, _, _ = run("weyr", "--partition", "3,0")
    assert code == EXIT_PARSE


def test_classify_float_matrix(tmp_path):
    spec = JordanSpec.of([(gr(2), 1), (gr("1/2"), 1)])
    s = rand_invertible(rng_for("cli-numeric"), 2, -3, 3)
    f = qmatrix_to_float(s.inverse() * jordan_matrix(spec) * s)
    path = tmp_path / "f.json"
    path.write_text(json.dumps(float_matrix_to_json(f)))
    code, out, _ = run("classify", "--matrix", str(path))
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["approximate"] is False
    assert data["classification"]["strongly_reversible"] is True
    got = JordanSpec.from_json(data["spec"])
    assert got == spec


def test_classify_float_matrix_tolerance_flags(tmp_path):
    spec = JordanSpec.of([(gr(0, 1), 2)])
    s = rand_invertible(rng_for("cli-numeric-tol"), 2, -3, 3)
    f = qmatrix_to_float(s.inverse() * jordan_matrix(spec) * s)
    path = tmp_path / "f.json"
    path.write_text(json.dumps(float_matrix_to_json(f)))
    code, out, _ = run("classify", "--matrix", str(path),
                       "--rank-tol", "1e-7", "--eig-tol", "1e-8",
                       "--unit-tol", "1e-8")
    assert code == EXIT_OK
    assert json.loads(out)["classification"]["neg_reversible"] is True


def test_tolerance_flags_must_be_finite_and_not_negative():
    """A tolerance is an unsigned ASCII decimal matched whole: float() alone
    also reads "1_0e-9", Arabic-Indic or full-width digits and padding."""
    f_json = '{"n": 1, "entries": [[[2.0, 0, 0, 0]]]}'
    for flag in ("--rank-tol", "--eig-tol", "--unit-tol"):
        for value in ("nan", "inf", "-inf", "-1", "-1e-9", "1e999", "x", "",
                      "1_0e-9", "\u0663", "\uff11", " 1e-9 ", "+1", "0x1"):
            code, out, err = run("classify", "--matrix", f_json,
                                 f"{flag}={value}")
            assert code == EXIT_PARSE and out == "", (flag, value)
            _one_line_error(err)
            assert f"argument {flag}: " in err
        code, out, _ = run("classify", "--matrix", f_json, flag, "0")
        assert code == EXIT_OK and out
        for value in (".5", "1.", "1e300"):  # read; the run may then exit 3
            assert "argument" not in run("classify", "--matrix", f_json,
                                         f"{flag}={value}")[2]


def test_classify_singular_float_exit(tmp_path):
    path = tmp_path / "z.json"
    path.write_text(json.dumps(float_matrix_to_json(np.zeros((2, 2, 4)))))
    code, _, err = run("classify", "--matrix", str(path))
    assert code == EXIT_NUMERIC
    assert "numeric" in err


def test_classify_tiny_eigenvalue_never_snaps_to_zero():
    # the class sits within unit_tol of 0 but the matrix is invertible: it
    # stays unsnapped, or is a singular recovery if it rounds to 0 as well
    tiny = '{"n":1,"entries":[[[3e-9,0,0,0]]]}'
    code, out, _ = run("classify", "--matrix", tiny)
    assert code == EXIT_OK
    assert json.loads(out)["spec"]["blocks"][0]["re"] == "3/1000000000"
    for extra in ((), ("--unit-tol", "0")):
        code, out, err = run("classify", "--matrix",
                             tiny.replace("3e-9", "1e-300"), *extra)
        assert (code, out) == (EXIT_NUMERIC, "")
        assert err == ("numeric recovery failed: class 1e-300+0j has no "
                       "nonzero rational approximation\n")


def test_nul_byte_in_a_path_is_a_parse_error():
    for argv in (("weyr", "--partition", "3,2,2", "--out", "\x00"),
                 ("verify", "--matrix", "a\x00b", "--cert", "x")):
        code, out, err = run(*argv)
        assert (code, out) == (EXIT_PARSE, "")
        _one_line_error(err)
        assert "embedded null byte" in err


def test_inline_json_matrix_input():
    m = jordan_matrix(JordanSpec.of([(gr(0, 1), 1)]))
    f_json = json.dumps(float_matrix_to_json(qmatrix_to_float(m)))
    code, out, _ = run("classify", "--matrix", f_json)
    assert code == EXIT_OK
    assert json.loads(out)["classification"]["neg_reversible"] is True


def test_out_flag_writes_file_and_keeps_stdout_quiet(tmp_path):
    path = tmp_path / "w.json"
    code, out, _ = run("weyr", "--partition", "4,1", "--out", str(path))
    assert code == EXIT_OK
    assert out == ""
    assert json.loads(path.read_text())["conjugate"] == [2, 1, 1, 1]


def test_output_deterministic():
    a = run("certify", "--jordan", "[(1,2),(i,2)]",
            "--flavor", "skew-involution", "--emit-matrix")
    b = run("certify", "--jordan", "[(1,2),(i,2)]",
            "--flavor", "skew-involution", "--emit-matrix")
    assert a == b


def test_missing_subcommand_is_usage_error():
    code, _, _ = run()
    assert code == EXIT_PARSE


def test_unknown_flag_is_usage_error():
    code, _, _ = run("classify", "--no-such-flag")
    assert code == EXIT_PARSE


def _certified_pair():
    code, out, _ = run("certify", "--jordan", "[(2,1),(1/2,1)]",
                       "--flavor", "involution", "--emit-matrix")
    assert code == EXIT_OK
    doc = json.loads(out)
    return doc.pop("matrix"), doc


def test_verify_rejects_unknown_target_or_flavor():
    matrix, doc = _certified_pair()
    for key in ("flavor", "target"):
        bad = dict(doc, **{key: "bogus"})
        code, out, err = run("verify", "--matrix", json.dumps(matrix),
                             "--cert", json.dumps(bad))
        assert code == EXIT_PARSE
        assert out == ""
        assert "bogus" in err and len(err.strip().splitlines()) == 1


def test_verify_rejects_malformed_matrix():
    matrix, doc = _certified_pair()
    bad_matrices = [
        dict(matrix, entries=5),
        dict(matrix, entries=[5, 6]),
        dict(matrix, n=True),
        dict(matrix, m="2"),
    ]
    for bad in bad_matrices:
        code, out, err = run("verify", "--matrix", json.dumps(bad),
                             "--cert", json.dumps(doc))
        assert code == EXIT_PARSE
        assert out == ""
        assert err.startswith("error: ")
        assert len(err.strip().splitlines()) == 1
    code, _, err = run("verify", "--matrix", json.dumps(matrix),
                       "--cert", json.dumps(dict(doc, g=dict(doc["g"],
                                                             entries=5))))
    assert code == EXIT_PARSE and err.startswith("error: ")


def test_verify_singular_matrix_reports_failure():
    matrix, doc = _certified_pair()
    singular = {"n": 2, "m": 2, "entries": [[["1", "0", "0", "0"]] * 2] * 2}
    code, out, _ = run("verify", "--matrix", json.dumps(singular),
                       "--cert", json.dumps(doc))
    assert code == EXIT_VERIFY_FAILED
    assert json.loads(out) == {"residual_zero": False, "flavor_verified": True,
                               "det_one": True, "ok": False}


# an error line quotes at most two clipped inputs: 512 bytes hold them
ERR_LINE_BYTES = 512


def _one_line_error(err):
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    assert len(err.encode("utf-8")) <= ERR_LINE_BYTES, err[:200]


def test_compact_spec_must_be_blocks_only():
    for text in ("[(2,1) junk (1/2,1)]", "[(2,1)(1/2,1)]", "[(2,1),]",
                 "[(2,1)],(1/2,1)", "[,(2,1)]"):
        code, out, err = run("classify", "--jordan", text)
        assert code == EXIT_PARSE, text
        assert out == ""
        _one_line_error(err)
    code, out, _ = run("classify", "--jordan", "[ (2, 1) , (1/2,1) ]")
    assert code == EXIT_OK
    assert len(json.loads(out)["spec"]["blocks"]) == 2


def test_spec_json_rejects_bool_size():
    text = '{"blocks": [{"re": "1", "im": "0", "size": true}]}'
    code, out, err = run("classify", "--jordan", text)
    assert code == EXIT_PARSE and out == ""
    _one_line_error(err)
    assert run("certify", "--jordan", text)[0] == EXIT_PARSE


def test_classify_non_finite_float_matrix(tmp_path):
    for literal in ("NaN", "Infinity", "-Infinity"):
        path = tmp_path / "f.json"
        path.write_text('{"n": 1, "entries": [[[%s, 0, 0, 0]]]}' % literal)
        code, out, err = run("classify", "--matrix", str(path))
        assert code == EXIT_PARSE and out == ""
        _one_line_error(err)
        assert "finite" in err


def test_classify_malformed_float_fields():
    for text in ('{"n": [1], "entries": [[[1, 0, 0, 0]]]}',
                 '{"n": null, "entries": [[[1, 0, 0, 0]]]}',
                 '{"n": 1e400, "entries": [[[1, 0, 0, 0]]]}',
                 '{"n": 1, "entries": [[[{"a": 1}, 0, 0, 0]]]}',
                 '{"entries": 7}',
                 '{"n": 1.9, "entries": [[[1, 0, 0, 0]]]}',
                 '{"n": true, "entries": [[[1, 0, 0, 0]]]}',
                 '{"n": "1", "entries": [[[1, 0, 0, 0]]]}',
                 # numpy would read each of these entries as a float
                 '{"n": 1, "entries": [[["1_0", 0, 0, 0]]]}',
                 '{"n": 1, "entries": [[[" 2 ", 0, 0, 0]]]}',
                 '{"n": 1, "entries": [[["\u0663", 0, 0, 0]]]}',
                 '{"n": 1, "entries": [[[true, 0, 0, 0]]]}'):
        code, out, err = run("classify", "--matrix", text)
        assert code == EXIT_PARSE, text
        assert out == ""
        _one_line_error(err)


def test_classify_overflowing_float_matrix(tmp_path):
    path = tmp_path / "f.json"
    path.write_text('{"n": 1, "entries": [[[1e308, 0, 0, 0]]]}')
    code, out, err = run("classify", "--matrix", str(path))
    assert code == EXIT_NUMERIC and out == ""
    _one_line_error(err)


def test_linalg_failure_is_a_numeric_exit(monkeypatch):
    import quatrev.numeric

    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(quatrev.numeric, "classify_numeric", fail)
    f_json = json.dumps(float_matrix_to_json(np.ones((1, 1, 4))))
    code, out, err = run("classify", "--matrix", f_json)
    assert code == EXIT_NUMERIC and out == ""
    _one_line_error(err)
    assert "SVD did not converge" in err


def test_decompose_general_certificate_names_its_flavor():
    inputs = pathlib.Path(__file__).resolve().parent / "golden" / "inputs"
    code, out, err = run("decompose",
                         "--matrix", str(inputs / "inv-skew.matrix.json"),
                         "--cert", str(inputs / "inv-general.cert.json"))
    assert code == EXIT_NOT_CONSTRUCTIBLE
    assert out == ""
    assert "general" in err and "skew-involution certificate for" not in err
    _one_line_error(err)


def test_decompose_tampered_certificate_stderr():
    inputs = pathlib.Path(__file__).resolve().parent / "golden" / "inputs"
    code, out, err = run(
        "decompose", "--matrix", str(inputs / "inv-involution.matrix.json"),
        "--cert", str(inputs / "inv-involution.tampered-cert.json"))
    assert code == EXIT_VERIFY_FAILED
    assert out == ""
    assert err == "certificate failed verification\n"


def test_usage_and_write_errors_are_one_line(tmp_path):
    for argv in (("omega", "--lambda", "2", "--n", "x"), ("certify",),
                 ("classify", "--no-such-flag"),
                 ("weyr", "--partition", "2", "--out", str(tmp_path))):
        code, out, err = run(*argv)
        assert code == EXIT_PARSE, argv
        assert out == ""
        _one_line_error(err)


# -- hostile input: any text or JSON into any subcommand -------------------

_GOLDEN_INPUTS = sorted(
    str(p) for p in
    (pathlib.Path(__file__).resolve().parent / "golden" / "inputs").iterdir())


def _sizes_at_most_12(text):
    return all(int(d) <= 12 for d in re.findall(r"\d+", text))


_json_doc = st.recursive(
    st.none() | st.booleans() | st.integers(-20, 12) | st.text(max_size=8)
    | st.sampled_from([0.5, -1.5, 1e-12, math.nan, math.inf, -math.inf]),
    lambda kids: (st.lists(kids, max_size=4)
                  | st.dictionaries(
                      st.sampled_from(["n", "m", "entries", "blocks",
                                       "eigenvalue", "size", "target",
                                       "flavor", "g", "checks", "re", "im"])
                      | st.text(max_size=6), kids, max_size=4)),
    max_leaves=12).map(json.dumps)
_compact_spec = st.lists(
    st.tuples(st.sampled_from(["1", "-1", "2", "1/2", "-1/2", "i", "-i",
                               "3/5+4/5i", "1+i", "0", "x", ""]),
              st.integers(-1, 12)),
    max_size=3).map(lambda blocks: "[" + ",".join(
        f"({lam},{size})" for lam, size in blocks) + "]")
class _Long(str):
    """A long text value whose repr is short, so that a failing example
    is reported without echoing all of it."""

    def __repr__(self):
        return f"_Long({str.__repr__(self[:24])}... {len(self)} chars)"


# values far longer than an error message may quote: a run of one
# character, a spec block, a spec JSON and a matrix entry
_LONG = 100_000
_long_value = (
    st.builds(lambda c, k: _Long(c * k),
              st.sampled_from(["x", "(", "[", "{", " ", "-", "é", "\n"]),
              st.sampled_from([65, _LONG]))
    | st.sampled_from([_Long(text) for text in (
        "[(" + "x" * _LONG + ",1)]",
        json.dumps({"blocks": [{"re": "x" * _LONG, "im": "0", "size": 1}]}),
        json.dumps({"n": 1, "m": 1,
                    "entries": [[["1", "0", "0", "0", "x" * _LONG]]]}))]))
_any_value = st.one_of(
    st.text(max_size=24).filter(lambda t: "/" not in t and "\\" not in t),
    _json_doc, _compact_spec, _long_value,
    st.sampled_from(["-", "", ".", "general", "1e-9", "nan", "-inf", "-1"]),
).filter(_sizes_at_most_12)
_inputs = st.sampled_from(_GOLDEN_INPUTS)
_kinds = st.sampled_from(["inverse", "neg-inverse"])
_flavors = st.sampled_from(["any", "involution", "skew-involution"])
_tolerance = st.sampled_from(["1e-9", "0", "-1", "nan", "inf", "1e300"])
# each flag's well-formed values, drawn about as often as hostile ones
_FLAGS = {
    "classify": {"--jordan": _compact_spec, "--matrix": _inputs,
                 "--rank-tol": _tolerance, "--eig-tol": _tolerance,
                 "--unit-tol": _tolerance},
    "certify": {"--jordan": _compact_spec, "--target": _kinds,
                "--flavor": _flavors, "--emit-matrix": None},
    "verify": {"--matrix": _inputs, "--cert": _inputs},
    "decompose": {"--jordan": _compact_spec, "--matrix": _inputs,
                  "--cert": _inputs, "--target": _kinds, "--flavor": _flavors},
    "omega": {"--lambda": st.sampled_from(["2", "1/2", "i", "3/5+4/5i",
                                           "2,0", "0"]),
              "--n": st.integers(-1, 12).map(str)},
    "weyr": {"--partition": st.sampled_from(["3,2,2", "[3^2,1^1]", "1"])},
}


# decompose takes one input: --jordan (with optional --target and --flavor)
# or both --matrix and --cert; mode -> (flags always given, optional flags)
_DECOMPOSE_MODES = {"jordan": (("--jordan",), ("--target", "--flavor")),
                    "matrix": (("--matrix", "--cert"), ())}


@st.composite
def _hostile_argv(draw):
    command = draw(st.sampled_from(sorted(_FLAGS)))
    argv = [command]
    flags, required = _FLAGS[command], ()
    if command == "decompose":
        # the mode first, so that 4 in 5 draws reach one of the two paths;
        # the rest draw every flag freely, mostly a mix that must exit 2
        mode = draw(st.sampled_from(["jordan", "jordan", "matrix", "matrix",
                                     "mixed"]))
        if mode != "mixed":
            required, optional = _DECOMPOSE_MODES[mode]
            flags = {f: flags[f] for f in required + optional}
    for flag, good in flags.items():
        how = draw(st.sampled_from(["well-formed", "hostile"]
                                   + ["absent"] * (flag not in required)))
        if how != "absent":
            argv.append(flag)
        if how != "absent" and good is not None:
            argv.append(draw(good if how == "well-formed" else _any_value))
    if draw(st.sampled_from([False, False, True])):
        argv += ["--out", draw(_any_value)]
    return argv


def test_cli_hostile_inputs_end_in_a_documented_exit(tmp_path, monkeypatch):
    """Any text or JSON for any flag of any subcommand, in process: the exit
    code (argparse's included) is 0, 2, 3, 4 or 5, no exception escapes,
    and stderr holds at most one line of at most ``ERR_LINE_BYTES`` bytes
    and no traceback, however long the input.

    Drawn values and stdin carry no number above 12, so ``--n`` and every
    spec block size stay at most 12; drawn text holds no path separator, so
    nothing outside the test's temporary directory is written and only the
    golden inputs are read from outside it.  The unbounded-size defect
    (there is no ``--max-size`` cap, while reverser entries grow like
    lambda^(-2n)) is still open and not covered here.
    """
    monkeypatch.chdir(tmp_path)

    @settings(max_examples=250, deadline=None, database=None)
    @given(_hostile_argv(),
           (st.text(max_size=40) | _json_doc).filter(_sizes_at_most_12))
    def check(argv, stdin):
        code, _, err = run(*argv, stdin=stdin)
        assert code in {EXIT_OK, EXIT_PARSE, EXIT_NUMERIC,
                        EXIT_NOT_CONSTRUCTIBLE, EXIT_VERIFY_FAILED}, argv
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) <= 1, (argv, err)
        assert len(err.encode("utf-8")) <= ERR_LINE_BYTES, err[:200]

    check()


@pytest.mark.parametrize("argv", [
    ("[(1,2),(-1,1)]", "--flavor", "involution"),
    ("[(2,1),(1/2,1)]", "--flavor", "skew-involution"),
    ("[(i,2)]", "--target", "neg-inverse")])
def test_decompose_jordan_is_decompose_of_its_certificate(argv):
    """``decompose --jordan`` prints what ``decompose --matrix A --cert C``
    prints for the A and C that ``certify --emit-matrix`` writes: both
    modes factor through ``factorize``, one kind each."""
    code, out, _ = run("certify", "--jordan", *argv, "--emit-matrix")
    assert code == EXIT_OK
    cert = json.loads(out)
    given = run("decompose", "--matrix", json.dumps(cert.pop("matrix")),
                "--cert", json.dumps(cert))
    assert run("decompose", "--jordan", *argv) == given
    assert given[0] == EXIT_OK and given[2] == ""


def test_cli_imports_no_private_name_from_the_package():
    tree = ast.parse(pathlib.Path(cli.__file__).read_text(encoding="utf-8"))
    private = [alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and (
                   node.level or node.module.split(".")[0] == "quatrev")
               for alias in node.names if alias.name.startswith("_")]
    assert private == []


def test_json_rational_takes_ascii_digits_only():
    """A rational in JSON is ASCII digits with nothing around them, so one
    certificate text decodes to one g: an Arabic-Indic digit, spaces, or a
    non-ASCII digit in a denominator exit 2 with one line."""
    matrix, doc = _certified_pair()
    for text in ("٣", " +7 ", "1/1٣"):
        entries = json.loads(json.dumps(matrix["entries"]))
        entries[0][0][0] = text
        bad_g = dict(doc, g=dict(doc["g"], entries=entries))
        spec = {"blocks": [{"re": text, "im": "0", "size": 1}]}
        for argv in (("verify", "--matrix",
                      json.dumps(dict(matrix, entries=entries)),
                      "--cert", json.dumps(doc)),
                     ("verify", "--matrix", json.dumps(matrix),
                      "--cert", json.dumps(bad_g)),
                     ("classify", "--jordan", json.dumps(spec))):
            code, out, err = run(*argv)
            assert code == EXIT_PARSE, (text, argv[:2])
            assert out == "" and err.startswith("error: ")
            _one_line_error(err)


# -- input nested too deeply to parse, output too long to write ------------

_DEEP = 100_000   # beyond any interpreter's C recursion limit


def test_deeply_nested_json_is_one_line_exit_2(tmp_path):
    """JSON nested deeper than ``json`` can parse exits 2 with one fixed
    line, not a RecursionError, at every entry point that reads JSON."""
    deep = tmp_path / "deep.json"
    deep.write_text("[" * _DEEP, encoding="utf-8")
    spec = tmp_path / "deep-spec.json"
    spec.write_text('{"blocks":' + "[" * _DEEP, encoding="utf-8")
    matrix, doc = _certified_pair()
    good_matrix, good_cert = json.dumps(matrix), json.dumps(doc)
    cases = [
        (("verify", "--matrix", str(deep), "--cert", str(deep)), None),
        (("verify", "--matrix", "-", "--cert", good_cert), "[" * _DEEP),
        (("verify", "--matrix", good_matrix, "--cert", str(deep)), None),
        (("decompose", "--matrix", str(deep), "--cert", good_cert), None),
        (("classify", "--matrix", str(deep)), None),
        (("classify", "--jordan", str(spec)), None),
        (("certify", "--jordan", str(spec)), None),
        (("decompose", "--jordan", str(spec)), None),
    ]
    for argv, stdin in cases:
        code, out, err = run(*argv, stdin=stdin)
        assert (code, out) == (EXIT_PARSE, ""), argv
        assert err == "error: invalid JSON: nested too deeply\n", argv


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this interpreter has no int-to-str limit")
def test_entry_beyond_the_int_to_str_limit_is_one_line_exit_2():
    """An omega entry longer than Python's int-to-str limit exits 2 with
    one line that names no limit, under the default limit and a lower one;
    one size smaller writes its matrix."""
    lam = "1/1" + "0" * 100
    old = sys.get_int_max_str_digits()
    try:
        for limit in (4300, 1000):
            sys.set_int_max_str_digits(limit)
            code, out, err = run("omega", "--lambda", lam, "--n", "23")
            assert (code, out) == (EXIT_PARSE, "")
            assert err == ("error: a matrix entry has too many digits to "
                           "write as text\n")
        sys.set_int_max_str_digits(4300)
        code, out, _ = run("omega", "--lambda", lam, "--n", "22")
        assert code == EXIT_OK and json.loads(out)["n"] == 22
    finally:
        sys.set_int_max_str_digits(old)


def test_long_input_is_quoted_clipped(tmp_path):
    """A 100,000-character matrix entry exits 2 with one line that quotes
    a clipped prefix of it, ending in "...": the error names the input
    without echoing all of it."""
    f = tmp_path / "long.json"
    f.write_text(json.dumps({"n": 1, "m": 1, "entries": [
        [["1", "0", "0", "0", "x" * _LONG]]]}), encoding="utf-8")
    code, out, err = run("verify", "--matrix", str(f), "--cert", str(f))
    assert (code, out) == (EXIT_PARSE, "")
    _one_line_error(err)
    assert err.startswith("error: not a quaternion array: ['1', '0', '0'")
    assert err.endswith("xxx...\n")
