"""Golden CLI corpus: every case's stdout and stderr must match its
recorded bytes.

Each entry of ``golden/cases.json`` names an argv (``{inputs}`` expands to
``golden/inputs``) and its exit code; ``golden/<name>.out`` holds the exact
stdout and ``golden/<name>.err`` the exact stderr (empty for exit 0), with
the inputs directory written back as ``{inputs}``.  The inputs are certificates of three specs, one per (target,
flavor) kind, as ``certify`` writes them, the same pairs conjugated to
dense S^{-1} A S, S^{-1} g S by a fixed random S with j and k parts, a
skew certificate relabelled "general", that one and an involution
certificate each with a tampered entry, a ``decompose`` given both input
modes, ``classify --jordan`` on compact specs (the README example with its
witness text, an irreversible block) and on malformed ones (spec JSON
without "im", with a block that is not an object or blocks that are not a
list, a block without a comma, a bad eigenvalue, a size that is not ASCII
digits), ``weyr`` on a partition in both spellings and on parts and
exponents that are not ASCII digits, ``omega`` on such a ``--n`` (an
argparse usage error, exit 2), numbers joined by a space or "*" (an
``omega --lambda`` of "1*2" or "1 2,0", a compact spec eigenvalue "1/2 3",
a ``weyr`` partition "3 2,1"; each exits 2), and
float matrices for ``classify --matrix`` (dense conjugates that snap with a
size-2 block, fail on the 1+i, (1+i)/2 pair with exit 3, or keep unsnapped
classes, 1x1 inputs whose class lies within unit_tol of 0, and exit-2
inputs: a ``--rank-tol`` of "1_0e-9", an entry "1_0", ``true``, "1/2" or
"x", each refused in one message as not a JSON number), ``verify`` and
``decompose`` given a 4x4 matrix with a 5x5 certificate, and an ``omega``
whose entries are too long to write under Python's int-to-str limit (each
exits 2), ``certify`` refusals (exit 4) of an irreversible spec, of a spec
not conjugate to minus its inverse, and of an involution for a unit class
of odd count, and ``weyr`` with five stray arguments (exit 2, the first
three named).
After a deliberate output change, re-record with
``PYTHONPATH=src python tests/test_golden.py --record`` and review the diff.
"""
import contextlib
import io
import json
import pathlib
import sys

import pytest

from quatrev.cli import main

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


def run_case(case):
    inputs = str(GOLDEN / "inputs")
    argv = [a.replace("{inputs}", inputs) for a in case["argv"]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's own usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue().replace(inputs, "{inputs}")


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_golden_stdout(case):
    code, out, err = run_case(case)
    assert code == case["exit"]
    expected = (GOLDEN / f"{case['name']}.out").read_bytes()
    assert out.encode("utf-8") == expected
    assert err.encode("utf-8") == (GOLDEN / f"{case['name']}.err").read_bytes()


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    for case in CASES:
        code, out, err = run_case(case)
        if code != case["exit"]:
            sys.exit(f"{case['name']}: exit {code}, expected {case['exit']}")
        (GOLDEN / f"{case['name']}.out").write_bytes(out.encode("utf-8"))
        (GOLDEN / f"{case['name']}.err").write_bytes(err.encode("utf-8"))
