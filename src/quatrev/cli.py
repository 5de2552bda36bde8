"""Command-line interface.

Subcommands: classify, certify, verify, decompose, omega, weyr.  Inputs are
JSON files ("-" for stdin), inline JSON, or compact literals for specs and
scalars, each number matched whole by one ``scalar`` grammar (ASCII digits,
whitespace only between tokens); tolerance flags are unsigned ASCII
decimals and float-matrix entries JSON numbers.  Each ``cmd_*`` returns
its exit code and JSON document for ``main`` to write; ``decompose``
factors through ``factorize`` in both modes.  Exit codes: 0 success,
2 parse error, 3 numeric recovery failure, 4 not constructible, 5 failed
verification.  numpy is imported only by ``classify --matrix``, the one
subcommand that runs the float front end.
"""
from __future__ import annotations

import argparse
import json
import math
import re
import sys

from .canonical import JordanSpec, jordan_matrix
from .classify import classify_psl
from .check import verify
from .decompose import factorize
from .errors import (CertificateError, FlavorError, NotConstructible,
                     PairingError, QuatrevError, RankProfileError,
                     SingularError, clipped, quoted)
from .matrix import QMatrix
from .partitions import parse_partition, weyr_structure_of
from .reversers import (FLAVOR_INVOLUTION, FLAVOR_SKEW, TARGET_INVERSE,
                        TARGET_NEG_INVERSE, assemble_reverser, block_reverser,
                        Certificate)
from .scalar import (DECIMAL_RE, GaussianRational, parse_complex,
                     parse_integer, parse_rational)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_NUMERIC = 3
EXIT_NOT_CONSTRUCTIBLE = 4
EXIT_VERIFY_FAILED = 5


class _CliParseError(Exception):
    pass


def _io_error(verb: str, path: str, exc: Exception) -> _CliParseError:
    """"cannot VERB PATH: reason", the path clipped; an OSError's reason is
    its strerror, without the path it repeats."""
    reason = exc.strerror if isinstance(exc, OSError) and exc.strerror else exc
    return _CliParseError(f"cannot {verb} {clipped(path)}: {reason}")


def _read_text(arg: str) -> str:
    if arg == "-":
        return sys.stdin.read()
    if arg.lstrip().startswith(("{", "[")):
        return arg
    try:
        with open(arg, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        raise _io_error("read", arg, exc) from exc


_TOO_DEEP = "invalid JSON: nested too deeply"


def _load_json(arg: str):
    text = _read_text(arg)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise _CliParseError(f"invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise _CliParseError(_TOO_DEEP) from exc


_COMPACT_BLOCK = re.compile(r"\(([^()]*)\)")
_COMPACT_BODY = re.compile(r"\s*\([^()]*\)\s*(?:,\s*\([^()]*\)\s*)*")


def _parse_spec(arg: str) -> JordanSpec:
    """Accept spec JSON (file/inline/stdin) or compact "[(i,5),(1,2)]"."""
    text = _read_text(arg).strip()
    if text.startswith("{"):
        try:
            return JordanSpec.from_json(json.loads(text))
        except ValueError as exc:  # json.JSONDecodeError included
            raise _CliParseError(f"bad spec JSON: {exc}") from exc
        except RecursionError as exc:
            raise _CliParseError(_TOO_DEEP) from exc
    body = text
    if body.startswith("[") and body.endswith("]"):
        body = body[1:-1]
    if body.strip() and not _COMPACT_BODY.fullmatch(body):
        raise _CliParseError(f"bad spec literal {quoted(text)}: expected "
                             "comma-separated (eigenvalue, size) blocks")
    blocks = []
    for match in _COMPACT_BLOCK.finditer(body):
        item = match.group(1)
        try:
            head, tail = item.rsplit(",", 1)  # no comma: a ValueError
            blocks.append((parse_complex(head), parse_integer(tail.strip())))
        except ValueError as exc:
            raise _CliParseError(
                f"bad block literal: ({clipped(item)})") from exc
    if not blocks:
        raise _CliParseError(f"no Jordan blocks found in {quoted(text)}")
    return JordanSpec.of(blocks)  # a SpecError exits 2 like a parse error


def _parse_scalar(text: str):
    """Accept "re,im" rational pairs or compact complex literals."""
    try:
        if "," in text:
            return GaussianRational(*(parse_rational(half.strip())
                                      for half in text.split(",", 1)))
        return parse_complex(text)
    except ValueError as exc:
        raise _CliParseError(
            f"bad scalar literal {quoted(text)}: {exc}") from exc


def _emit(obj, out_path):
    text = json.dumps(obj, indent=2) + "\n"
    if not out_path:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        raise _io_error("write", out_path, exc) from exc


def _tolerance(text: str) -> float:
    """A tolerance flag's value: an unsigned ASCII decimal (``DECIMAL_RE``,
    matched whole) that is finite as a float."""
    if DECIMAL_RE.fullmatch(text) and (value := float(text)) < math.inf:
        return value
    raise argparse.ArgumentTypeError(
        f"expected a finite number >= 0, got {quoted(text)}")


def _integer(text: str) -> int:
    """An integer flag's value, read as ``scalar.parse_integer`` reads it."""
    try:
        return parse_integer(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _one_of(names):
    """A flag's type for a fixed set of values: argparse's "invalid choice"
    message, with the value quoted as every other echo of input is."""
    def check(text: str) -> str:
        if text in names:
            return text
        raise argparse.ArgumentTypeError(
            f"invalid choice: {quoted(text)} "
            f"(choose from {', '.join(map(repr, names))})")
    return check


def cmd_classify(args) -> tuple[int, dict]:
    if (args.jordan is None) == (args.matrix is None):
        raise _CliParseError("classify needs exactly one of --jordan/--matrix")
    if args.jordan is not None:
        spec = _parse_spec(args.jordan)
        return EXIT_OK, {"spec": spec.to_json(),
                         "classification": classify_psl(spec).to_json()}
    import numpy as np
    from .numeric import (NumericConfig, classify_numeric,
                          float_matrix_from_json)
    try:
        f = float_matrix_from_json(_load_json(args.matrix))
    except ValueError as exc:
        raise _CliParseError(str(exc)) from exc
    given = {"rank_tol": args.rank_tol, "eig_cluster_tol": args.eig_tol,
             "unit_tol": args.unit_tol}
    config = NumericConfig(**{k: v for k, v in given.items() if v is not None})
    # an overflow or NaN inside the float pipeline is a recovery failure,
    # not a warning followed by a result; so is a numpy linear-algebra error
    try:
        with np.errstate(over="raise", invalid="raise"):
            out = classify_numeric(f, config)
    except np.linalg.LinAlgError as exc:
        raise RankProfileError(str(exc)) from exc
    return EXIT_OK, out


def cmd_certify(args) -> tuple[int, dict]:
    spec = _parse_spec(args.jordan)
    cert = assemble_reverser(spec, target=args.target, flavor=args.flavor)
    out = cert.to_json()
    if args.emit_matrix:
        out["matrix"] = jordan_matrix(spec).to_json()
    return EXIT_OK, out


def _read_inputs(args, read):
    """read(--matrix document, --cert document); a ValueError exits 2."""
    try:
        return read(_load_json(args.matrix), _load_json(args.cert))
    except ValueError as exc:
        raise _CliParseError(str(exc)) from exc


def cmd_verify(args) -> tuple[int, dict]:
    report = _read_inputs(args, verify)
    return EXIT_OK if report.ok else EXIT_VERIFY_FAILED, report.to_json()


def cmd_decompose(args) -> tuple[int, dict]:
    if args.jordan is not None and (args.matrix, args.cert) == (None, None):
        spec = _parse_spec(args.jordan)
        a = jordan_matrix(spec)
        cert = assemble_reverser(spec, target=args.target or TARGET_INVERSE,
                                 flavor=args.flavor or "any")
    elif (args.jordan is None and None not in (args.matrix, args.cert)
          and (args.target, args.flavor) == (None, None)):
        a, cert = _read_inputs(args, lambda m, c: (QMatrix.from_json(m),
                                                   Certificate.from_json(c)))
    else:
        raise _CliParseError(
            "decompose needs either --jordan (with optional --target and "
            "--flavor) or both --matrix and --cert")
    return EXIT_OK, factorize(a, cert).to_json()


def cmd_omega(args) -> tuple[int, dict]:
    # a zero eigenvalue or size is block_reverser's DomainError: exit 2
    return EXIT_OK, block_reverser(_parse_scalar(args.lam), args.n).to_json()


def cmd_weyr(args) -> tuple[int, dict]:
    p = parse_partition(args.partition)  # a SpecError exits 2
    return EXIT_OK, {"partition": list(p.parts),
                     "conjugate": list(p.conjugate().parts),
                     "weyr_structure": list(weyr_structure_of(p).sizes)}


class _Parser(argparse.ArgumentParser):
    """Usage errors end in one line and exit 2, like every other error: each
    argument they echo is clipped as ``errors.clipped`` clips input, and at
    most three stray arguments are named."""

    def parse_known_args(self, args=None, namespace=None):
        self._argv = sys.argv[1:] if args is None else args
        return super().parse_known_args(args, namespace)

    def parse_args(self, args=None, namespace=None):
        # argparse would echo every stray argument: name the first three
        namespace, stray = self.parse_known_args(args, namespace)
        if stray:
            more = f" and {len(stray) - 3} more" if len(stray) > 3 else ""
            self.error(f"unrecognized arguments: {' '.join(stray[:3])}{more}")
        return namespace

    def error(self, text):
        # an echo is an argument, or its value after "=" or a one-letter flag
        echoes = {e for a in self._argv
                  for e in (a, a.partition("=")[2], a[2:]) if clipped(e) != e}
        for e in sorted(echoes, key=len, reverse=True):
            text = text.replace(repr(e), quoted(e)).replace(e, clipped(e))
        self.exit(EXIT_PARSE, f"{self.prog}: error: {_one_line(text)}\n")


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(
        prog="quatrev",
        description="Reversibility certificates in quaternionic special "
                    "linear groups")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, numeric=False):
        p.add_argument("--out", default=None, help="write JSON here instead "
                       "of stdout")
        if numeric:
            for flag in ("--rank-tol", "--eig-tol", "--unit-tol"):
                p.add_argument(flag, type=_tolerance)

    def kind(p):
        for flag, names in (("--target", (TARGET_INVERSE, TARGET_NEG_INVERSE)),
                            ("--flavor", ("any", FLAVOR_INVOLUTION,
                                          FLAVOR_SKEW))):
            p.add_argument(flag, default=names[0], type=_one_of(names),
                           metavar="{" + ",".join(names) + "}")

    p = sub.add_parser("classify", help="reversibility flags of a spec or "
                       "float matrix")
    p.add_argument("--jordan", default=None)
    p.add_argument("--matrix", default=None)
    common(p, numeric=True)
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("certify", help="construct a conjugator certificate")
    p.add_argument("--jordan", required=True)
    kind(p)
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
    kind(p)
    common(p)
    # None marks --target/--flavor not given: they go with --jordan only
    p.set_defaults(fn=cmd_decompose, target=None, flavor=None)

    p = sub.add_parser("omega", help="print the upper-triangular block "
                       "reverser for one eigenvalue")
    p.add_argument("--lambda", dest="lam", required=True,
                   help='complex eigenvalue, e.g. "2,0", "3/5+4/5i" or -1/2')
    p.add_argument("--n", type=_integer, required=True)
    common(p)
    p.set_defaults(fn=cmd_omega)

    p = sub.add_parser("weyr", help="conjugate partition and Weyr structure")
    p.add_argument("--partition", required=True,
                   help='"3,2,2" or "[3^2,1^1]"')
    common(p)
    p.set_defaults(fn=cmd_weyr)

    return top


# first match wins: (exception types, stderr prefix, exit code)
_FAILURES = (
    ((PairingError, RankProfileError, SingularError, FloatingPointError),
     "numeric recovery failed: ", EXIT_NUMERIC),
    ((NotConstructible, FlavorError), "not constructible: ",
     EXIT_NOT_CONSTRUCTIBLE),
    ((CertificateError,), "", EXIT_VERIFY_FAILED),
    ((_CliParseError, QuatrevError), "error: ", EXIT_PARSE),
)


def _one_line(text: str) -> str:
    """Echoed input may hold line breaks; the message stays on one line."""
    return " ".join(text.splitlines())


def _attach_lambda(argv):
    """``--lambda V`` as ``--lambda=V`` when V starts with "-": argparse
    reads such a V (-1/2, -i, -1/2+i) as an option unless it is a plain
    negative number."""
    out = []
    for arg in argv:
        if out and out[-1] == "--lambda" and arg.startswith("-"):
            out[-1] = f"--lambda={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    args = build_parser().parse_args(
        _attach_lambda(sys.argv[1:] if argv is None else argv))
    try:
        code, doc = args.fn(args)
        _emit(doc, args.out)
        return code
    except tuple(t for types, _, _ in _FAILURES for t in types) as exc:
        prefix, code = next((prefix, code) for types, prefix, code
                            in _FAILURES if isinstance(exc, types))
        print(prefix + _one_line(str(exc)), file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
