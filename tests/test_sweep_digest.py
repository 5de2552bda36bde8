"""Pin every output of the total-size <= 5 sweep by one SHA-256.

For each spec of ``conftest.sweep_blocks`` and each request (target in
``TARGETS`` x flavor any / involution / skew-involution), the digest takes
the certificate JSON, its ``verify_certificate`` report and its
``factorize`` result, or the ``NotConstructible`` message.  A change to any
kernel that alters a single byte of these changes the digest.  After a
deliberate output change, print the new one with
``PYTHONPATH=src python tests/test_sweep_digest.py [max_total]``.
"""
import hashlib
import json
import sys

from conftest import sweep_blocks
from quatrev.canonical import JordanSpec, jordan_matrix
from quatrev.decompose import factorize, verify_certificate
from quatrev.errors import NotConstructible
from quatrev.reversers import (FLAVOR_INVOLUTION, FLAVOR_SKEW, TARGETS,
                               assemble_reverser)

REQUESTS = [(t, f) for t in TARGETS
            for f in ("any", FLAVOR_INVOLUTION, FLAVOR_SKEW)]

SWEEP_5_DIGEST = (
    "b44d2f5e9d85c08b4b15705548731636218a507d69360b3bb541f88319d1b5ce")


def _line(h, tag, obj):
    h.update(f"{tag} {json.dumps(obj, sort_keys=True)}\n".encode("utf-8"))


def sweep_digest(max_total):
    """(hex SHA-256, certificates, refusals) over the sweep's outputs."""
    h = hashlib.sha256()
    certs = refusals = 0
    for blocks in sweep_blocks(max_total=max_total):
        spec = JordanSpec.of(blocks)
        a = jordan_matrix(spec)
        for target, flavor in REQUESTS:
            _line(h, "request", [[str(v), s] for v, s in spec.blocks]
                  + [target, flavor])
            try:
                cert = assemble_reverser(spec, target, flavor)
            except NotConstructible as exc:
                _line(h, "refused", str(exc))
                refusals += 1
                continue
            _line(h, "certificate", cert.to_json())
            _line(h, "report", verify_certificate(a, cert).to_json())
            _line(h, "factors", factorize(a, cert).to_json())
            certs += 1
    return h.hexdigest(), certs, refusals


def test_sweep_outputs_unchanged():
    assert sweep_digest(5) == (SWEEP_5_DIGEST, 1417, 29219)


if __name__ == "__main__":
    print(*sweep_digest(int(sys.argv[1]) if sys.argv[1:] else 5))
