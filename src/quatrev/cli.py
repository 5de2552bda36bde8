"""Command-line interface.

Subcommands: classify, certify, verify, decompose, omega, weyr.  Inputs are
JSON files ("-" for stdin), inline JSON, or compact literals for specs and
scalars.  Exit codes: 0 success, 2 parse error, 3 numeric recovery failure,
4 not constructible, 5 failed verification.
"""
from __future__ import annotations

import argparse
import json
import re
import sys

import numpy as np

from .canonical import JordanSpec, jordan_matrix
from .classify import classify_psl
from .decompose import (product_involution_skew, product_two_involutions,
                        product_two_skew_involutions, verify_certificate)
from .errors import (FlavorError, NotConstructible, PairingError,
                     QuatrevError, RankProfileError, SingularError, SpecError)
from .matrix import QMatrix
from .numeric import (NumericConfig, classify_numeric, float_matrix_from_json)
from .partitions import parse_partition, weyr_structure_of
from .reversers import (FLAVOR_INVOLUTION, FLAVOR_SKEW, TARGET_INVERSE,
                        TARGET_NEG_INVERSE, assemble_reverser, block_reverser,
                        Certificate)
from .scalar import GaussianRational, parse_complex, parse_rational

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_NUMERIC = 3
EXIT_NOT_CONSTRUCTIBLE = 4
EXIT_VERIFY_FAILED = 5


class _CliParseError(Exception):
    pass


def _read_text(arg: str) -> str:
    if arg == "-":
        return sys.stdin.read()
    if arg.lstrip().startswith(("{", "[")):
        return arg
    try:
        with open(arg, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise _CliParseError(f"cannot read {arg}: {exc}") from exc


def _load_json(arg: str):
    text = _read_text(arg)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise _CliParseError(f"invalid JSON: {exc}") from exc


_COMPACT_BLOCK = re.compile(r"\(([^()]*)\)")
_COMPACT_BODY = re.compile(r"\s*\([^()]*\)\s*(?:,\s*\([^()]*\)\s*)*")


def _parse_spec(arg: str) -> JordanSpec:
    """Accept spec JSON (file/inline/stdin) or compact "[(i,5),(1,2)]"."""
    text = _read_text(arg).strip()
    if text.startswith("{"):
        try:
            return JordanSpec.from_json(json.loads(text))
        except (json.JSONDecodeError, ValueError, KeyError, TypeError) as exc:
            raise _CliParseError(f"bad spec JSON: {exc}") from exc
    body = text
    if body.startswith("[") and body.endswith("]"):
        body = body[1:-1]
    if body.strip() and not _COMPACT_BODY.fullmatch(body):
        raise _CliParseError(f"bad spec literal {text!r}: expected "
                             "comma-separated (eigenvalue, size) blocks")
    blocks = []
    for match in _COMPACT_BLOCK.finditer(body):
        item = match.group(1)
        head, sep, tail = item.rpartition(",")
        if not sep:
            raise _CliParseError(f"bad block literal: ({item})")
        try:
            blocks.append((parse_complex(head), int(tail.strip())))
        except ValueError as exc:
            raise _CliParseError(f"bad block literal: ({item})") from exc
    if not blocks:
        raise _CliParseError(f"no Jordan blocks found in {text!r}")
    try:
        return JordanSpec.of(blocks)
    except SpecError as exc:
        raise _CliParseError(str(exc)) from exc


def _parse_scalar(text: str):
    """Accept "re,im" rational pairs or compact complex literals."""
    try:
        if "," in text:
            halves = ["".join(half.split()) for half in text.split(",", 1)]
            if not all(halves):
                raise ValueError("empty real or imaginary part")
            return GaussianRational(*(parse_rational(h) for h in halves))
        return parse_complex(text)
    except ValueError as exc:
        raise _CliParseError(f"bad scalar literal {text!r}: {exc}") from exc


def _emit(obj, out_path):
    text = json.dumps(obj, indent=2) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _numeric_config(args) -> NumericConfig:
    kw = {}
    if args.rank_tol is not None:
        kw["rank_tol"] = args.rank_tol
    if args.eig_tol is not None:
        kw["eig_cluster_tol"] = args.eig_tol
    if args.unit_tol is not None:
        kw["unit_tol"] = args.unit_tol
    return NumericConfig(**kw)


def cmd_classify(args) -> int:
    if (args.jordan is None) == (args.matrix is None):
        raise _CliParseError("classify needs exactly one of --jordan/--matrix")
    if args.jordan is not None:
        if args.mode == "numeric":
            raise _CliParseError("--jordan input is exact; drop --mode numeric")
        spec = _parse_spec(args.jordan)
        out = {"spec": spec.to_json(),
               "classification": classify_psl(spec).to_json()}
        _emit(out, args.out)
        return EXIT_OK
    if args.mode == "exact":
        raise _CliParseError("--matrix input runs the numeric pipeline; "
                             "drop --mode exact")
    try:
        f = float_matrix_from_json(_load_json(args.matrix))
    except ValueError as exc:
        raise _CliParseError(str(exc)) from exc
    # an overflow or NaN inside the float pipeline is a recovery failure,
    # not a warning followed by a result
    with np.errstate(over="raise", invalid="raise"):
        out = classify_numeric(f, _numeric_config(args))
    _emit(out, args.out)
    return EXIT_OK


def cmd_certify(args) -> int:
    spec = _parse_spec(args.jordan)
    cert = assemble_reverser(spec, target=args.target, flavor=args.flavor)
    out = cert.to_json()
    if args.emit_matrix:
        out["matrix"] = jordan_matrix(spec).to_json()
    _emit(out, args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        a = QMatrix.from_json(_load_json(args.matrix))
        cert = Certificate.from_json(_load_json(args.cert))
    except ValueError as exc:
        raise _CliParseError(str(exc)) from exc
    report = verify_certificate(a, cert)
    _emit(report.to_json(), args.out)
    return EXIT_OK if report.ok else EXIT_VERIFY_FAILED


def cmd_decompose(args) -> int:
    if args.jordan is not None:
        spec = _parse_spec(args.jordan)
        a = jordan_matrix(spec)
        cert = assemble_reverser(spec, target=args.target, flavor=args.flavor)
    else:
        if args.matrix is None or args.cert is None:
            raise _CliParseError(
                "decompose needs --jordan or both --matrix and --cert")
        try:
            a = QMatrix.from_json(_load_json(args.matrix))
            cert = Certificate.from_json(_load_json(args.cert))
        except ValueError as exc:
            raise _CliParseError(str(exc)) from exc
        if not verify_certificate(a, cert).ok:
            print("certificate failed verification", file=sys.stderr)
            return EXIT_VERIFY_FAILED
    if cert.target == TARGET_NEG_INVERSE:
        fact = product_involution_skew(a, cert)
    elif cert.flavor == FLAVOR_INVOLUTION:
        fact = product_two_involutions(a, cert)
    else:
        fact = product_two_skew_involutions(a, cert)
    _emit(fact.to_json(), args.out)
    return EXIT_OK


def cmd_omega(args) -> int:
    lam = _parse_scalar(args.lam)
    if lam.is_zero:
        raise _CliParseError("eigenvalue must be nonzero")
    mat = block_reverser(lam, args.n).to_quaternion()
    _emit(mat.to_json(), args.out)
    return EXIT_OK


def cmd_weyr(args) -> int:
    try:
        p = parse_partition(args.partition)
    except SpecError as exc:
        raise _CliParseError(str(exc)) from exc
    conj = p.conjugate()
    out = {
        "partition": list(p.parts),
        "conjugate": list(conj.parts),
        "weyr_structure": list(weyr_structure_of(p).sizes),
    }
    _emit(out, args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="quatrev",
        description="Reversibility certificates in quaternionic special "
                    "linear groups")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, numeric=False):
        p.add_argument("--out", default=None, help="write JSON here instead "
                       "of stdout")
        if numeric:
            p.add_argument("--mode", choices=["exact", "numeric"],
                           default=None)
            p.add_argument("--rank-tol", dest="rank_tol", type=float,
                           default=None)
            p.add_argument("--eig-tol", dest="eig_tol", type=float,
                           default=None)
            p.add_argument("--unit-tol", dest="unit_tol", type=float,
                           default=None)

    p = sub.add_parser("classify", help="reversibility flags of a spec or "
                       "float matrix")
    p.add_argument("--jordan", default=None)
    p.add_argument("--matrix", default=None)
    common(p, numeric=True)
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("certify", help="construct a conjugator certificate")
    p.add_argument("--jordan", required=True)
    p.add_argument("--target", choices=[TARGET_INVERSE, TARGET_NEG_INVERSE],
                   default=TARGET_INVERSE)
    p.add_argument("--flavor", choices=["any", FLAVOR_INVOLUTION, FLAVOR_SKEW],
                   default="any")
    p.add_argument("--emit-matrix", action="store_true",
                   help="include the certified Jordan matrix in the output")
    common(p)
    p.set_defaults(fn=cmd_certify)

    p = sub.add_parser("verify", help="re-check a certificate against a matrix")
    p.add_argument("--matrix", required=True)
    p.add_argument("--cert", required=True)
    common(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("decompose", help="factor into two (skew-)involutions")
    p.add_argument("--jordan", default=None)
    p.add_argument("--matrix", default=None)
    p.add_argument("--cert", default=None)
    p.add_argument("--target", choices=[TARGET_INVERSE, TARGET_NEG_INVERSE],
                   default=TARGET_INVERSE)
    p.add_argument("--flavor", choices=["any", FLAVOR_INVOLUTION, FLAVOR_SKEW],
                   default="any")
    common(p)
    p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser("omega", help="print the upper-triangular block "
                       "reverser for one eigenvalue")
    p.add_argument("--lambda", dest="lam", required=True,
                   help='complex eigenvalue, e.g. "2,0" or "3/5+4/5i"')
    p.add_argument("--n", type=int, required=True)
    common(p)
    p.set_defaults(fn=cmd_omega)

    p = sub.add_parser("weyr", help="conjugate partition and Weyr structure")
    p.add_argument("--partition", required=True,
                   help='"3,2,2" or "[3^2,1^1]"')
    common(p)
    p.set_defaults(fn=cmd_weyr)

    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except _CliParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (PairingError, RankProfileError, SingularError,
            np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numeric recovery failed: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (NotConstructible, FlavorError) as exc:
        print(f"not constructible: {exc}", file=sys.stderr)
        return EXIT_NOT_CONSTRUCTIBLE
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except QuatrevError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
