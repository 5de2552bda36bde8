"""In-memory spans and counters for the traced run, plus the layer probes.

Spans are recorded only around the benchmark's own calls into the package's
public functions; nothing inside ``quatrev`` is patched.  A span is
(name, start_ns, end_ns, op_id), where op_id is the operation that caused it
(None during set-up).  Spans stay in memory and are written out once, when
the run ends.

Spans, counters and peaks are named after the per-layer metrics they feed
(see BENCHMARK.json): a span adds its seconds to ``values[name]`` and, if
given a ``calls`` name, one to ``values[calls]``.
"""
from __future__ import annotations

import contextlib
import json
import time
from collections import Counter

from quatrev.errors import PairingError, RankProfileError
from quatrev.matrix import is_involution, is_skew_involution, qdet
from quatrev.numeric import phi_eigenvalues, weyr_structure_numeric
from quatrev.reversers import FLAVOR_INVOLUTION, FLAVOR_SKEW, TARGET_INVERSE

_NULL = contextlib.nullcontext()


class NullTracer:
    """Stand-in for untraced runs: records nothing and runs no probe."""

    enabled = False
    op_id = None

    def span(self, name, calls=None):
        return _NULL

    def count(self, name, k=1):
        pass

    def peak(self, name, value):
        pass


class Tracer:
    """Collects spans, counters and peaks for one traced run."""

    enabled = True

    def __init__(self):
        self.op_id = None
        self.spans: list[tuple[str, int, int, int | None]] = []
        self.values: Counter = Counter()

    @contextlib.contextmanager
    def span(self, name, calls=None):
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self.spans.append((name, start, end, self.op_id))
            self.values[name] += (end - start) / 1e9
            if calls:
                self.values[calls] += 1

    def count(self, name, k=1):
        self.values[name] += k

    def peak(self, name, value):
        self.values[name] = max(self.values[name], value)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, op_id in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start,
                                     "end_ns": end, "op": op_id}) + "\n")


def probe_verify(tr, a, cert):
    """Re-run the stages of ``verify_certificate`` on its exact operands."""
    g = cert.g
    tr.count("matrix.probe_calls")
    with tr.span("matrix.qdet_s"):
        qdet(g)
    with tr.span("matrix.inverse_s"):
        a_inv = a.inverse()
    with tr.span("matrix.mul_s"):
        g * a
        (a_inv if cert.target == TARGET_INVERSE else -a_inv) * g
    with tr.span("matrix.square_s"):
        if cert.flavor == FLAVOR_INVOLUTION:
            is_involution(g)
        elif cert.flavor == FLAVOR_SKEW:
            is_skew_involution(g)


def probe_recover(tr, f):
    """Re-run the numeric stages of ``jordan_spec_numeric`` on its input."""
    with tr.span("numeric.eigvals_s"):
        try:
            classes = phi_eigenvalues(f)
        except PairingError:
            return
    with tr.span("numeric.rank_s"):
        for lam, _ in classes:
            try:
                weyr_structure_numeric(f, lam)
            except RankProfileError:
                pass


def record_entry_bits(tr, g):
    """Bit length of every rational component of g: max(|num|, den)."""
    bits = [max(abs(q.numerator).bit_length(), q.denominator.bit_length())
            for row in g.entries for x in row for q in (x.a, x.b, x.c, x.d)]
    tr.count("scalar.entry_bits_total", sum(bits))
    tr.peak("scalar.max_entry_bits", max(bits))
