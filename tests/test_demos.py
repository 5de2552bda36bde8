"""Demos 01-04 print exactly their recorded output under ``python -W error``.

Each demo runs in a fresh interpreter with ``src`` first on its path, and
its stdout must equal ``golden/demos/<demo>.out`` byte for byte, with
nothing on stderr.  Demo 05 is left out: it prints float eigenvalues to 12
digits, which depend on the LAPACK build.  After a deliberate output
change, re-record with ``PYTHONPATH=src python tests/test_demos.py
--record`` and review the diff.
"""
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
RECORDED = ROOT / "tests" / "golden" / "demos"
DEMOS = sorted(p for p in (ROOT / "demos").glob("0[1-4]_*.py"))


def run_demo(path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-W", "error", str(path)],
                          capture_output=True, env=env, timeout=120)


def test_four_demos_are_pinned():
    assert [p.stem for p in DEMOS] == [
        "01_exact_scalars", "02_classification", "03_certificates",
        "04_weyr_duality"]


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_output_unchanged(path):
    done = run_demo(path)
    assert done.returncode == 0, done.stderr.decode()
    assert done.stderr == b""
    assert done.stdout == (RECORDED / f"{path.stem}.out").read_bytes()


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    for path in DEMOS:
        done = run_demo(path)
        if done.returncode or done.stderr:
            sys.exit(f"{path.name}: exit {done.returncode}\n"
                     f"{done.stderr.decode()}")
        (RECORDED / f"{path.stem}.out").write_bytes(done.stdout)
