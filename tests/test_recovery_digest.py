"""Pin every output of spec recovery on the recovery corpus by one SHA-256.

For each (spec, float matrix) of ``conftest.recovery_corpus`` and each
configuration of ``RECOVERY_CONFIGS``, the digest takes the recovered spec
and its snap report from ``jordan_spec_numeric`` (candidates: the recovery
pool), or the exception's type and message, and the classes of
``phi_eigenvalues``, or its exception.  A change to the float pipeline
that alters a single byte of these, or a single bit of a float, changes the
digest.  After a deliberate output change, print the new one with
``PYTHONPATH=src python tests/test_recovery_digest.py [count]``.
"""
import hashlib
import json
import sys

from conftest import RECOVERY_CONFIGS, RECOVERY_POOL, recovery_corpus
from quatrev.errors import QuatrevError
from quatrev.numeric import jordan_spec_numeric, phi_eigenvalues

RECOVERY_100_DIGEST = (
    "521a3c9b484310880144f8cc2fc53f0447f5fc99a69f2be9d0b954fa97048cc5")


def _line(h, tag, obj):
    h.update(f"{tag} {json.dumps(obj, sort_keys=True)}\n".encode("utf-8"))


def recovery_digest(count):
    """(hex SHA-256, recoveries, failures) over the corpus's outputs."""
    h = hashlib.sha256()
    recovered = failed = 0
    for spec, f in recovery_corpus(count):
        _line(h, "input", [spec.to_json(), f.tolist()])
        for cfg in RECOVERY_CONFIGS:
            _line(h, "config", [cfg.rank_tol, cfg.eig_cluster_tol,
                                cfg.unit_tol])
            try:
                got, snap = jordan_spec_numeric(f, cfg, RECOVERY_POOL)
            except QuatrevError as exc:
                _line(h, "failed", [type(exc).__name__, str(exc)])
                failed += 1
            else:
                _line(h, "recovered", [got.to_json(), snap.to_json()])
                recovered += 1
            try:
                classes = phi_eigenvalues(f, cfg)
            except QuatrevError as exc:
                _line(h, "unpaired", [type(exc).__name__, str(exc)])
            else:
                _line(h, "classes", [[z.real, z.imag, m] for z, m in classes])
    return h.hexdigest(), recovered, failed


def test_recovery_outputs_unchanged():
    assert recovery_digest(100) == (RECOVERY_100_DIGEST, 279, 21)


if __name__ == "__main__":
    print(*recovery_digest(int(sys.argv[1]) if sys.argv[1:] else 100))
