"""The four benchmark workloads: sweep, ladder, third-party and cli.

Each workload builds its inputs from the seed (``build``), starts a timed
phase (``begin``, which returns the operation stream and any problems found
while starting), runs one operation at a time (``run_op``, timed), and checks
each result (``check``, untimed).  ``probe`` runs only in the traced run,
after the operation and outside its timing.

Checks return (failed, wrong): ``failed`` marks the operation as failed,
``wrong`` additionally marks the run's output as incorrect.  The only failures
that are not wrong are numeric recoveries that fail honestly in third-party:
an exception, or a different spec that is reported as not snapped.
"""
from __future__ import annotations

import dataclasses
import json
import os
import random
import subprocess
import sys
from collections import defaultdict
from fractions import Fraction

from quatrev.canonical import JordanSpec, jordan_matrix
from quatrev.classify import classify_psl
from quatrev.decompose import (product_involution_skew,
                               product_two_involutions,
                               product_two_skew_involutions,
                               verify_certificate)
from quatrev.errors import (NotConstructible, PairingError, RankProfileError,
                            SingularError)
from quatrev.matrix import QMatrix
from quatrev.numeric import (NumericConfig, classify_numeric,
                             float_matrix_from_json, float_matrix_to_json,
                             jordan_spec_numeric, qmatrix_to_float)
from quatrev.partitions import parse_partition, weyr_structure_of
from quatrev.reversers import (FLAVOR_INVOLUTION, FLAVOR_SKEW,
                               TARGET_INVERSE, TARGET_NEG_INVERSE,
                               Certificate, assemble_reverser)
from quatrev.scalar import Quaternion, class_rep_inverse, gr

from spans import probe_recover, probe_verify, record_entry_bits

# the eigenvalue pool of the exhaustive sweep: real reciprocal pairs, units,
# and 1+i, whose inverse class (1+i)/2 is outside the pool
POOL = (gr(1), gr(-1), gr(2), gr("1/2"), gr(-2), gr("-1/2"),
        gr(0, 1), gr("3/5", "4/5"), gr(1, 1))
SWEEP_MAX_TOTAL = 6
# admitted certificates of the total-size <= 6 sweep, by (target, flavor)
SWEEP_SPECS = 17589
SWEEP_ADMITTED = {(TARGET_INVERSE, FLAVOR_SKEW): 1422,
                  (TARGET_INVERSE, FLAVOR_INVOLUTION): 442,
                  (TARGET_NEG_INVERSE, FLAVOR_INVOLUTION): 123}

# (target, flavor) -> factorization and the squares of its two factors
FACTOR = {(TARGET_INVERSE, FLAVOR_SKEW): (product_two_skew_involutions,
                                          ("-I", "-I")),
          (TARGET_INVERSE, FLAVOR_INVOLUTION): (product_two_involutions,
                                                ("+I", "+I")),
          (TARGET_NEG_INVERSE, FLAVOR_INVOLUTION): (product_involution_skew,
                                                    ("-I", "+I"))}

RECOVERY_ERRORS = (PairingError, RankProfileError, SingularError)


def _rng(workload, seed):
    return random.Random(f"quatrev-bench:{workload}:{seed}")


def admitted_kinds(spec):
    cls = classify_psl(spec)
    kinds = []
    if cls.reversible:
        kinds.append((TARGET_INVERSE, FLAVOR_SKEW))
    if cls.strongly_reversible:
        kinds.append((TARGET_INVERSE, FLAVOR_INVOLUTION))
    if cls.neg_reversible:
        kinds.append((TARGET_NEG_INVERSE, FLAVOR_INVOLUTION))
    return kinds


def sweep_blocks(max_total=SWEEP_MAX_TOTAL):
    """Every multiset of (eigenvalue, size) blocks with bounded total size."""
    atoms = [(v, s) for v in POOL for s in range(1, max_total + 1)]
    out = []

    def rec(start, budget, acc):
        if acc:
            out.append(tuple(acc))
        for k in range(start, len(atoms)):
            if atoms[k][1] <= budget:
                acc.append(atoms[k])
                rec(k, budget - atoms[k][1], acc)
                acc.pop()

    rec(0, max_total, [])
    return out


def stratified(groups, rng):
    """Shuffle each group and interleave them so that every prefix of the
    result holds the groups in proportion to their sizes."""
    groups = [rng.sample(g, len(g)) for g in groups if g]
    total = sum(len(g) for g in groups)
    taken = [0] * len(groups)
    out = []
    for t in range(1, total + 1):
        k = max(range(len(groups)),
                key=lambda k: len(groups[k]) * t / total - taken[k])
        out.append(groups[k][taken[k]])
        taken[k] += 1
    return out


def paired_spec(rng, total):
    """A reversible spec of the given size drawn from the whole pool: each
    non-unit block comes with its inverse-class partner of the same size."""
    blocks = []
    remaining = total
    while remaining:
        lam = rng.choice(POOL)
        if lam.norm_sq() == 1:
            size = rng.randint(1, remaining)
            blocks.append((lam, size))
        elif remaining >= 2:
            size = rng.randint(1, remaining // 2)
            blocks += [(lam, size), (class_rep_inverse(lam), size)]
            size *= 2
        else:
            continue
        remaining -= size
    return JordanSpec.of(blocks)


def random_invertible(rng, n):
    """Random invertible n x n matrix of small-integer quaternions and its
    inverse."""
    while True:
        s = QMatrix([[Quaternion(*(Fraction(rng.randint(-2, 2))
                                   for _ in range(4)))
                      for _ in range(n)] for _ in range(n)])
        try:
            return s, s.inverse()
        except SingularError:
            continue


def dense_conjugate(rng, spec, kind):
    """(S^-1 A S, certificate with S^-1 g S) for the canonical matrix A."""
    cert = assemble_reverser(spec, *kind)
    s, s_inv = random_invertible(rng, spec.total_size)
    a = s_inv * jordan_matrix(spec) * s
    return a, dataclasses.replace(cert, g=s_inv * cert.g * s)


def spec_literal(spec):
    return "[" + ",".join(f"({lam},{size})" for lam, size in spec.blocks) + "]"


def encode(tr, obj, **kw):
    with tr.span("json.encode_s"):
        return json.dumps(obj, **kw)


# ---------------------------------------------------------------------------
# sweep and ladder: assemble -> verify -> factor on canonical matrices

class Sweep:
    """Certificates sampled from the exhaustive total-size <= 6 sweep."""

    name = "sweep"
    pass_seconds = None    # runs for the time it is given

    def build(self, seed, tr):
        return [JordanSpec.of(blocks) for blocks in sweep_blocks()]

    def begin(self, specs, seed, tr):
        strata = defaultdict(list)
        for spec in specs:
            with tr.span("classify.busy_s", calls="classify.calls"):
                kinds = admitted_kinds(spec)
            for kind in kinds:
                strata[(kind, spec.total_size)].append((spec, kind))
        counts = {kind: sum(len(v) for (k, _), v in strata.items()
                            if k == kind) for kind in FACTOR}
        problems = []
        if len(specs) != SWEEP_SPECS or counts != SWEEP_ADMITTED:
            problems.append(f"sweep admitted {counts} of {len(specs)} specs")
        return stratified([strata[k] for k in sorted(strata)],
                          _rng(self.name, seed)), problems

    def run_op(self, item, tr):
        spec, kind = item
        with tr.span("canonical.jordan_matrix_s"):
            a = jordan_matrix(spec)
        try:
            with tr.span("reversers.assemble_s",
                         calls="reversers.assemble_calls"):
                cert = assemble_reverser(spec, *kind)
        except NotConstructible:
            tr.count("reversers.not_constructible")
            raise
        with tr.span("decompose.verify_s", calls="decompose.verify_calls"):
            report = verify_certificate(a, cert)
        with tr.span("decompose.factor_s"):
            fact = FACTOR[kind][0](a, cert)
        return a, cert, report, fact

    def check(self, item, result, tr):
        a, _, report, fact = result
        if not report.ok:
            tr.count("decompose.verify_not_ok")
        want = FACTOR[item[1]][1]
        ident = QMatrix.identity(a.n_rows)
        square = {"+I": ident, "-I": -ident}
        bad = (not report.ok or (fact.s1_square, fact.s2_square) != want
               or fact.s1 * fact.s1 != square[want[0]]
               or fact.s2 * fact.s2 != square[want[1]]
               or fact.s1 * fact.s2 != a)
        return bad, bad

    def probe(self, item, result, tr):
        a, cert, _, _ = result
        record_entry_bits(tr, cert.g)
        probe_verify(tr, a, cert)


def ladder_items():
    """The size ladder plus distinct extras: nine at n = 16, one at n = 8."""
    skew, inv, neg = ((TARGET_INVERSE, FLAVOR_SKEW),
                      (TARGET_INVERSE, FLAVOR_INVOLUTION),
                      (TARGET_NEG_INVERSE, FLAVOR_INVOLUTION))
    unit, unit2 = "3/5+4/5i", "4/5+3/5i"
    items = []
    for n in (8, 16, 24):
        h = n // 2
        items += [([("i", n)], skew), ([("i", n)], neg),
                  ([("2", h), ("1/2", h)], inv), ([(unit, h)] * 2, inv)]
    # The extras give a pass the 22 samples a tail latency needs (for 22
    # samples the tail and the median are both about the 12th-smallest).
    # With 5 specs at n = 8, 13 at n = 16 and 4 at n = 24 that position lies
    # in the middle of the n = 16 group, whose cost is about ten times that
    # of n = 8 and a third of that of n = 24, so noise cannot move it to
    # another size.
    items += [([("-2", 8), ("-1/2", 8)], inv), ([(unit2, 8)] * 2, inv),
              ([("2", 8), ("-1/2", 8)], neg), ([("-2", 8), ("1/2", 8)], neg),
              ([("3", 8), ("1/3", 8)], inv), ([("-3", 8), ("-1/3", 8)], skew),
              ([("i", 8)] * 2, skew), ([("i", 8)] * 2, inv),
              ([("-1", 16)], inv)]
    items += [([("-2", 4), ("-1/2", 4)], inv)]
    return [(JordanSpec.of(blocks), kind) for blocks, kind in items]


class Ladder(Sweep):
    """Large specs whose reversers grow like lambda^(-2n)."""

    name = "ladder"
    pass_seconds = 50      # one pass on the host of bench/README.md

    def build(self, seed, tr):
        items = ladder_items()
        _rng(self.name, seed).shuffle(items)
        return items

    def begin(self, items, seed, tr):
        return items, []


# ---------------------------------------------------------------------------
# third-party: decode a dense (matrix, certificate) pair and re-check it

@dataclasses.dataclass(frozen=True)
class ThirdPartyInput:
    spec: JordanSpec
    matrix_text: str
    cert_text: str
    float_text: str


class ThirdParty:
    """Dense conjugates S^-1 A S of reversible specs, checked from JSON."""

    name = "third-party"
    # Whole passes, so that a seed's honest recovery failures come out the
    # same in every run; a pass takes about 3-4 s on the host of
    # bench/README.md.
    pass_seconds = 3
    # inputs per matrix size; the median latency falls inside the size-5 group
    sizes = {4: 10, 5: 20, 6: 10}

    def build(self, seed, tr):
        # The specs and their certificate kinds are one fixed draw from the
        # whole pool, not filtered; the seed picks S and the order.  Input
        # cost and the honest recovery failures then depend little on the
        # seed.
        fixed = _rng(self.name, "specs")
        rng = _rng(self.name, seed)
        by_size = []
        for total, count in self.sizes.items():
            group = []
            for _ in range(count):
                spec = paired_spec(fixed, total)
                kind = fixed.choice(admitted_kinds(spec))
                a, cert = dense_conjugate(rng, spec, kind)
                group.append(ThirdPartyInput(
                    spec, encode(tr, a.to_json()), encode(tr, cert.to_json()),
                    encode(tr, float_matrix_to_json(qmatrix_to_float(a)))))
            by_size.append(group)
        return stratified(by_size, rng)

    def begin(self, pool, seed, tr):
        return pool, []

    def run_op(self, item, tr):
        with tr.span("json.decode_s"):
            a = QMatrix.from_json(json.loads(item.matrix_text))
            cert = Certificate.from_json(json.loads(item.cert_text))
            f = float_matrix_from_json(json.loads(item.float_text))
        with tr.span("decompose.verify_s", calls="decompose.verify_calls"):
            report = verify_certificate(a, cert)
        with tr.span("numeric.recover_s", calls="numeric.recover_calls"):
            try:
                recovered = jordan_spec_numeric(f, candidates=POOL)
            except RECOVERY_ERRORS as exc:
                recovered = exc
        return a, cert, f, report, recovered

    def check(self, item, result, tr):
        _, _, _, report, recovered = result
        if not report.ok:
            tr.count("decompose.verify_not_ok")
            return True, True
        if isinstance(recovered, Exception):
            tr.count("numeric.recover_failed")
            return True, False
        spec, snap = recovered
        if spec == item.spec and snap.all_snapped:
            return False, False
        tr.count("numeric.recover_failed")
        # a wrong spec reported as snapped is also a wrong answer
        return True, snap.all_snapped

    def probe(self, item, result, tr):
        a, cert, f, _, _ = result
        tr.count("json.bytes", len(item.matrix_text) + len(item.cert_text)
                 + len(item.float_text))
        record_entry_bits(tr, cert.g)
        probe_verify(tr, a, cert)
        probe_recover(tr, f)


# ---------------------------------------------------------------------------
# cli: one cold process per operation

@dataclasses.dataclass(frozen=True)
class CliInput:
    argv: tuple[str, ...]
    exit_code: int
    stdout: bytes
    verify: tuple | None = None    # (matrix, certificate) the child verifies
    floats: object = None          # float matrix the child recovers from
    g: QMatrix | None = None       # certificate matrix produced or verified


MALFORMED = (("verify", "--matrix", '{"n": 1', "--cert", "{}"),
             ("weyr", "--partition", "3,x"),
             ("classify", "--jordan", "[no blocks]"))


class Cli:
    """The quatrev command, started cold for every operation."""

    name = "cli"
    pass_seconds = None
    rounds = 3

    def __init__(self, root, env):
        self.root = root
        self.env = env
        self.maxrss_kb = 0    # largest ru_maxrss of a cli child

    def build(self, seed, tr):
        rng = _rng(self.name, seed)
        pool = []
        for _ in range(self.rounds):
            batch = [self._certify(rng, tr), self._decompose(rng, tr),
                     self._verify(rng, tr), self._classify_jordan(rng, tr),
                     self._classify_matrix(rng, tr), self._weyr(rng, tr),
                     CliInput(rng.choice(MALFORMED), 2, b"")]
            rng.shuffle(batch)
            pool += batch
        return pool

    @staticmethod
    def _out(tr, obj):
        return encode(tr, obj, indent=2).encode() + b"\n"

    def _certify(self, rng, tr):
        spec = paired_spec(rng, rng.randint(2, 4))
        kind = rng.choice(admitted_kinds(spec))
        cert = assemble_reverser(spec, *kind)
        out = cert.to_json()
        out["matrix"] = jordan_matrix(spec).to_json()
        return CliInput(("certify", "--jordan", spec_literal(spec),
                         "--target", kind[0], "--flavor", kind[1],
                         "--emit-matrix"), 0, self._out(tr, out), g=cert.g)

    def _decompose(self, rng, tr):
        spec = paired_spec(rng, rng.randint(2, 4))
        kind = rng.choice(admitted_kinds(spec))
        a = jordan_matrix(spec)
        cert = assemble_reverser(spec, *kind)
        fact = FACTOR[kind][0](a, cert)
        return CliInput(("decompose", "--jordan", spec_literal(spec),
                         "--target", kind[0], "--flavor", kind[1]), 0,
                        self._out(tr, fact.to_json()), g=cert.g)

    def _verify(self, rng, tr):
        spec = paired_spec(rng, rng.randint(2, 3))
        a, cert = dense_conjugate(rng, spec, rng.choice(admitted_kinds(spec)))
        report = verify_certificate(a, cert)
        return CliInput(("verify", "--matrix", encode(tr, a.to_json()),
                         "--cert", encode(tr, cert.to_json())),
                        0 if report.ok else 5,
                        self._out(tr, report.to_json()), verify=(a, cert),
                        g=cert.g)

    def _classify_jordan(self, rng, tr):
        blocks = []
        remaining = rng.randint(2, 5)
        while remaining:
            size = rng.randint(1, remaining)
            blocks.append((rng.choice(POOL), size))
            remaining -= size
        spec = JordanSpec.of(blocks)
        out = {"spec": spec.to_json(),
               "classification": classify_psl(spec).to_json()}
        return CliInput(("classify", "--jordan", spec_literal(spec)), 0,
                        self._out(tr, out))

    def _classify_matrix(self, rng, tr):
        spec = paired_spec(rng, rng.randint(2, 3))
        a, _ = dense_conjugate(rng, spec, (TARGET_INVERSE, FLAVOR_SKEW))
        text = encode(tr, float_matrix_to_json(qmatrix_to_float(a)))
        f = float_matrix_from_json(json.loads(text))
        try:
            code, out = 0, self._out(tr, classify_numeric(f, NumericConfig()))
        except RECOVERY_ERRORS:
            code, out = 3, b""
        return CliInput(("classify", "--matrix", text), code, out, floats=f)

    def _weyr(self, rng, tr):
        parts = sorted((rng.randint(1, 4) for _ in range(rng.randint(2, 5))),
                       reverse=True)
        text = ",".join(map(str, parts))
        p = parse_partition(text)
        out = {"partition": list(p.parts),
               "conjugate": list(p.conjugate().parts),
               "weyr_structure": list(weyr_structure_of(p).sizes)}
        return CliInput(("weyr", "--partition", text), 0, self._out(tr, out))

    def begin(self, pool, seed, tr):
        return pool, []

    def run_op(self, item, tr):
        """Run the command; return (exit code, stdout).  The child is reaped
        with wait4 so that its own peak RSS is known."""
        with tr.span("cli.process_s"):
            child = subprocess.Popen(
                [sys.executable, "-m", "quatrev.cli", *item.argv],
                cwd=self.root, env=self.env, stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL)
            try:
                with child.stdout:
                    stdout = child.stdout.read()
                _, status, usage = os.wait4(child.pid, 0)
            except BaseException:
                child.kill()
                child.wait()
                raise
        child.returncode = os.waitstatus_to_exitcode(status)
        self.maxrss_kb = max(self.maxrss_kb, usage.ru_maxrss)
        return child.returncode, stdout

    def check(self, item, result, tr):
        code, stdout = result
        bad = code != item.exit_code or stdout != item.stdout
        return bad, bad

    def probe(self, item, result, tr):
        tr.count("json.bytes", len(result[1])
                 + sum(len(arg) for arg in item.argv if arg[:1] == "{"))
        if item.g is not None:
            record_entry_bits(tr, item.g)
        if item.verify is not None:
            probe_verify(tr, *item.verify)
        if item.floats is not None:
            probe_recover(tr, item.floats)
