"""numpy stays behind the float front end.

``quatrev.numeric`` is the only module that imports numpy, and only
``classify --matrix`` reaches it.  So ``import quatrev`` and every exact
subcommand run without loading numpy.  Each case runs in a fresh
interpreter, because the test process itself has numpy loaded.
"""
import os
import pathlib
import subprocess
import sys

import pytest

TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
INPUTS = TESTS / "golden" / "inputs"

# runs the CLI on argv, then prints its exit code and whether numpy loaded
PROBE = """
import contextlib, io, sys
from quatrev.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(code, "numpy" in sys.modules)
"""


def fresh(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, *args], env=env, check=True,
                          capture_output=True, text=True)
    return done.stdout.split()


def test_import_quatrev_leaves_numpy_out():
    assert fresh("-c", "import quatrev, sys; print('numpy' in sys.modules)"
                 ) == ["False"]


@pytest.mark.parametrize("argv", [
    ["certify", "--jordan", "[(i,2),(3/5+4/5i,1),(2,1),(1/2,1)]",
     "--emit-matrix"],
    ["verify", "--matrix", "{inputs}/inv-skew.dense-matrix.json",
     "--cert", "{inputs}/inv-skew.dense-cert.json"],
    ["decompose", "--matrix", "{inputs}/neg-involution.dense-matrix.json",
     "--cert", "{inputs}/neg-involution.dense-cert.json"],
    ["decompose", "--jordan", "[(2,1),(1/2,1)]", "--flavor",
     "skew-involution"],
    ["omega", "--lambda", "3/5+4/5i", "--n", "5"],
    ["weyr", "--partition", "3,2,2"],
    ["classify", "--jordan", "[(i,2),(2,1),(1/2,1)]"],
], ids=lambda argv: argv[0] + "-" + argv[1].lstrip("-"))
def test_exact_subcommands_leave_numpy_out(argv):
    argv = [a.replace("{inputs}", str(INPUTS)) for a in argv]
    assert fresh("-c", PROBE, *argv) == ["0", "False"]


def test_classify_matrix_loads_numpy():
    assert fresh("-c", PROBE, "classify", "--matrix",
                 str(INPUTS / "jordan-two.float-matrix.json")
                 ) == ["0", "True"]
