"""Pin every output of the benchmark's size ladder by one SHA-256.

For each of the 22 ladder specs (n = 8, 16 and 24; reverser entries up to
52 bits) and its requested (target, flavor), the digest takes the
certificate JSON, its ``verify_certificate`` report and its ``factorize``
result.  The sweep digest only reaches n <= 6; this one covers the large
complex and complex-times-j products.  The specs are written out here
because the tests do not import the benchmark package; they are the ones
``bench/workloads.py`` ``ladder_items`` lists, in its order.  After a
deliberate output change, print the new digest with
``PYTHONPATH=src python tests/test_ladder_digest.py``.
"""
import hashlib
import json

from quatrev.canonical import JordanSpec, jordan_matrix
from quatrev.decompose import factorize, verify_certificate
from quatrev.reversers import (FLAVOR_INVOLUTION, FLAVOR_SKEW,
                               TARGET_INVERSE, TARGET_NEG_INVERSE,
                               assemble_reverser)

SKEW = (TARGET_INVERSE, FLAVOR_SKEW)
INV = (TARGET_INVERSE, FLAVOR_INVOLUTION)
NEG = (TARGET_NEG_INVERSE, FLAVOR_INVOLUTION)
UNIT, UNIT2 = "3/5+4/5i", "4/5+3/5i"

LADDER = [
    ([("i", 8)], SKEW), ([("i", 8)], NEG),
    ([("2", 4), ("1/2", 4)], INV), ([(UNIT, 4)] * 2, INV),
    ([("i", 16)], SKEW), ([("i", 16)], NEG),
    ([("2", 8), ("1/2", 8)], INV), ([(UNIT, 8)] * 2, INV),
    ([("i", 24)], SKEW), ([("i", 24)], NEG),
    ([("2", 12), ("1/2", 12)], INV), ([(UNIT, 12)] * 2, INV),
    ([("-2", 8), ("-1/2", 8)], INV), ([(UNIT2, 8)] * 2, INV),
    ([("2", 8), ("-1/2", 8)], NEG), ([("-2", 8), ("1/2", 8)], NEG),
    ([("3", 8), ("1/3", 8)], INV), ([("-3", 8), ("-1/3", 8)], SKEW),
    ([("i", 8)] * 2, SKEW), ([("i", 8)] * 2, INV),
    ([("-1", 16)], INV),
    ([("-2", 4), ("-1/2", 4)], INV),
]

LADDER_DIGEST = (
    "b05e149597b657097d1cee5dcffcf9f991b913107bacc98eea4d0b0d3feb0f58")


def _line(h, tag, obj):
    h.update(f"{tag} {json.dumps(obj, sort_keys=True)}\n".encode("utf-8"))


def ladder_digest():
    """(hex SHA-256, certificates) over the ladder's outputs."""
    h = hashlib.sha256()
    for blocks, (target, flavor) in LADDER:
        spec = JordanSpec.of(blocks)
        a = jordan_matrix(spec)
        _line(h, "request", [[str(v), s] for v, s in spec.blocks]
              + [target, flavor])
        cert = assemble_reverser(spec, target, flavor)
        _line(h, "certificate", cert.to_json())
        _line(h, "report", verify_certificate(a, cert).to_json())
        _line(h, "factors", factorize(a, cert).to_json())
    return h.hexdigest(), len(LADDER)


def test_ladder_outputs_unchanged():
    assert ladder_digest() == (LADDER_DIGEST, 22)


if __name__ == "__main__":
    print(*ladder_digest())
