"""Explicit conjugators carrying an element to its inverse or negated inverse.

The basic building block is Omega(lam), an upper-triangular matrix defined
by a second-order recurrence from the bottom row and written from its closed
form in integers; it intertwines J(1/lam, n) with J(lam, n)^{-1} and its
inverse is the same matrix at 1/lam.  Every conjugator is a direct sum over
single blocks and inverse-partner pairs of blocks, read from one table of
the three constructible kinds (target, flavor), ``_KINDS``:

    target       block                       B           partner block
    inverse      pair, partner 1/lam1        Omega       +-Omega(1/lam1)
    inverse      pair, partner conj(1/lam1)  Omega j     -+j Omega(1/lam1)
    inverse      single +-1, involution      Omega       -
    inverse      single, skew-involution     Omega j     -
    neg-inverse  pair (partner -1/lam1)      Omega D     D Omega(1/lam1)
    neg-inverse  single i                    Omega D     -

with Omega = Omega(lam1), D = diag((-1)^(s-1-k)), the upper sign for
involutions and the lower for skew-involutions.  Omega D carries
J(-1/lam, s) to -J(lam, s)^{-1} and D^2 = I.  Singles sit on the diagonal
and pairs on the antidiagonal of their two blocks.  Every constructor
returns a ``Certificate`` that has already verified its residual, its
flavor (involution or skew-involution), and determinant one.

Each fact about a kind is written here once: a target's residual sign and
a flavor's square sign in two maps, and a constructible kind's modifiers
and split of A into two factors (read by ``decompose``) in ``_KINDS``.
``certify``, ``check_certificate`` and ``decompose.factorize`` reach
``conjugator_checks`` through one helper, ``_kind_checks``.

Every block of a conjugator comes from one memo, ``_block``, keyed by
(lam, size, modifier, side, sign) and bounded at ``_BLOCK_MEMO`` = 256
blocks (the total-size <= 6 sweep asks for 84).  A block is the table's
algebra formed by the one integer matrix product, with X the diagonal
modifier: Omega(lam1) X, or s X^{-1} Omega(1/lam1) for a partner.  The memo
holds blocks only: no check is ever cached, so every certificate is checked
from scratch.
"""
from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass
from enum import Enum

from .canonical import JordanSpec, jordan_block, jordan_matrix, offsets
from .classify import (involution_pairing, inverse_pairing,
                       neg_inverse_pairing, odd_unit_classes)
from .errors import (CertificateError, DomainError, NotConstructible,
                     SpecError, quoted)
from .matrix import QMatrix, block_diagonal, conjugator_checks, place_blocks
from .scalar import GR_I, GaussianRational

TARGET_INVERSE = "inverse"
TARGET_NEG_INVERSE = "neg-inverse"

FLAVOR_INVOLUTION = "involution"
FLAVOR_SKEW = "skew-involution"
FLAVOR_GENERAL = "general"

SQUARE_PLUS, SQUARE_MINUS = "+I", "-I"

# target -> r in A g A = r g; flavor -> s in g^2 = s I (0: untested)
_RESIDUAL_SIGN = {TARGET_INVERSE: 1, TARGET_NEG_INVERSE: -1}
_SQUARE_SIGN = {FLAVOR_INVOLUTION: 1, FLAVOR_SKEW: -1, FLAVOR_GENERAL: 0}

TARGETS = tuple(_RESIDUAL_SIGN)
FLAVORS = tuple(_SQUARE_SIGN)

# B = Omega(lam1) X for a modifier X; a pair's partner block is
# s X^{-1} Omega(1/lam1) for the flavor's square sign s, so that g^2 = s I.
# A partner conj(1/lam1), not the literal 1/lam1, needs the j to conjugate it.
_PLAIN, _J, _D = "1", "j", "D"
_J_IF_CONJ = "1 or j"   # j iff the partner is not the literal 1/lam1

# The constructible kinds: (target, flavor) -> (single-block modifier, pair
# modifier, split of A into (s1, s2) from g and the residual's first product
# P, s1^2, s2^2); P is g A for the inverse and A g for the negated inverse.
_KINDS = {
    (TARGET_INVERSE, FLAVOR_INVOLUTION):
        (_PLAIN, _J_IF_CONJ, lambda g, p: (g, p), SQUARE_PLUS, SQUARE_PLUS),
    (TARGET_INVERSE, FLAVOR_SKEW):
        (_J, _J_IF_CONJ, lambda g, p: (-g, p), SQUARE_MINUS, SQUARE_MINUS),
    (TARGET_NEG_INVERSE, FLAVOR_INVOLUTION):
        (_D, _D, lambda g, p: (p, g), SQUARE_MINUS, SQUARE_PLUS),
}


@dataclass(frozen=True)
class Certificate:
    """A conjugator together with the checks it passed on construction."""

    g: QMatrix
    target: str
    flavor: str
    residual_zero: bool
    flavor_verified: bool
    det_one: bool

    def to_json(self) -> dict:
        return {
            "target": self.target,
            "flavor": self.flavor,
            "g": self.g.to_json(),
            "checks": {
                "residual_zero": self.residual_zero,
                "flavor_verified": self.flavor_verified,
                "det_one": self.det_one,
            },
        }

    @classmethod
    def from_json(cls, obj) -> "Certificate":
        if not isinstance(obj, dict) or not {"target", "flavor", "g"} <= set(obj):
            raise ValueError("not a certificate object")
        if obj["target"] not in TARGETS:
            raise ValueError(
                f"unknown certificate target {quoted(obj['target'])}")
        if obj["flavor"] not in FLAVORS:
            raise ValueError(
                f"unknown certificate flavor {quoted(obj['flavor'])}")
        checks = obj.get("checks", {})
        if not isinstance(checks, dict):
            raise ValueError("certificate checks must be an object")
        return cls(
            g=QMatrix.from_json(obj["g"]),
            target=obj["target"],
            flavor=obj["flavor"],
            residual_zero=bool(checks.get("residual_zero", False)),
            flavor_verified=bool(checks.get("flavor_verified", False)),
            det_one=bool(checks.get("det_one", False)),
        )


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of the three certificate checks, each recomputed exactly."""

    residual_zero: bool
    flavor_verified: bool
    det_one: bool

    @property
    def ok(self) -> bool:
        return self.residual_zero and self.flavor_verified and self.det_one

    def to_json(self) -> dict:
        return {**asdict(self), "ok": self.ok}


def check_certificate(g: QMatrix, a: QMatrix, target: str,
                      flavor: str) -> VerifyReport:
    """Run the three certificate checks on g against A, exactly.

    The residual is tested as A g A = g (target "inverse") or A g A = -g
    ("neg-inverse"), which for invertible A says g A g^{-1} = +-A^{-1}
    without forming A^{-1}; for singular A it fails whenever det g = 1.
    The flavor check is g^2 = I or g^2 = -I, skipped only for "general".
    All three run in integers (``conjugator_checks``; the ``matrix``
    docstring gives the scaled identities).
    For an involution or skew-involution whose square passes, det_one is
    read off the square: qdet(g)^2 = qdet(g^2) = 1 and qdet >= 0.  The
    elimination runs only for "general" or a failed square.
    """
    return VerifyReport(*_kind_checks(g, a, target, flavor)[0])


def _kind_checks(g: QMatrix, a: QMatrix, target: str, flavor: str):
    """``conjugator_checks`` with the signs of the kind (target, flavor)."""
    if target not in _RESIDUAL_SIGN:
        raise DomainError(f"unknown target {quoted(target)}")
    if flavor not in _SQUARE_SIGN:
        raise DomainError(f"unknown flavor {quoted(flavor)}")
    return conjugator_checks(g, a, _RESIDUAL_SIGN[target],
                             _SQUARE_SIGN[flavor])


def certify(g: QMatrix, a: QMatrix, target: str, flavor: str) -> Certificate:
    """Check residual, flavor, and determinant; raise if anything fails."""
    report = check_certificate(g, a, target, flavor)
    if not report.residual_zero:
        raise CertificateError("conjugacy residual is nonzero")
    if not report.flavor_verified:
        raise CertificateError(f"conjugator is not a {flavor}")
    if not report.det_one:
        raise CertificateError("conjugator determinant is not 1")
    return Certificate(g=g, target=target, flavor=flavor,
                       residual_zero=True, flavor_verified=True, det_one=True)


def _inverse_powers(lam: GaussianRational, top: int):
    """(den, power): lam^(-t) = (x + y i)/den for (x, y) = power[t] and
    0 <= t <= top, all ints over one den = q^top, from one table of integer
    powers: 1/lam = (a + b i)/q gives lam^(-t) = (a + b i)^t q^(top-t) / den.
    """
    a, b, q = lam.inverse()._ints
    power = [(1, 0)]
    for _ in range(top):
        u, v = power[-1]
        power.append((u * a - v * b, u * b + v * a))
    return q ** top, [(u * q ** (top - t), v * q ** (top - t))
                      for t, (u, v) in enumerate(power)]


def block_reverser(lam: GaussianRational, n: int) -> QMatrix:
    """Upper-triangular intertwiner of J(1/lam, n) with J(lam, n)^{-1}.

    Bottom-right entry 1, last column otherwise zero, and each remaining
    entry x[i][j] = -(1/lam) x[i+1][j] - (1/lam^2) x[i+1][j+1].  For
    m = n-1-i, k = n-1-j that is x[i][j] = (-1)^m C(m-1, k-1) lam^-(m+k),
    1 <= k <= m: a path from the corner takes m steps, k of them diagonal,
    the first diagonal to leave the last column.  Its inverse is the same
    construction at 1/lam.  Entries grow like lam^{-2n}, which is why
    everything stays in exact arbitrary-precision integers over one
    denominator, written straight from the power table.
    """
    if n < 1:
        raise DomainError("size must be positive")
    if lam.is_zero:
        raise DomainError("eigenvalue must be nonzero")
    den, power = _inverse_powers(lam, 2 * n - 2)
    rows = [[None] * n for _ in range(n)]
    rows[n - 1][n - 1] = (den, 0, 0, 0)
    for m in range(1, n):
        for k in range(1, m + 1):
            c = (-1) ** m * math.comb(m - 1, k - 1)
            x, y = power[m + k]
            rows[n - 1 - m][n - 1 - k] = (c * x, c * y, 0, 0)
    return QMatrix._of_ints(den, rows)


def weyr_reverser(alpha: GaussianRational, p) -> QMatrix:
    """Weyr-form analogue of the block reverser for a unit-modulus class.

    For Jordan sizes p with largest part r, the matrix is blocked along the
    conjugate structure (n_1, ..., n_r); block (i, j) is entry (i, j) of
    Omega(alpha) (size r) times the truncated identity.  Multiplying by j
    on the right gives the conjugator that reverses the basic Weyr matrix.
    """
    if alpha.norm_sq() != 1:
        raise DomainError("eigenvalue must have unit modulus")
    sizes = p.conjugate().parts
    den, omega = block_reverser(alpha, len(sizes))._ints
    offs = offsets(sizes)
    n = sum(sizes)
    rows = [[None] * n for _ in range(n)]
    for i, omega_row in enumerate(omega):
        for j, z in enumerate(omega_row):
            if z is not None:
                # truncated identity: rows sizes[i], cols sizes[j]
                for t in range(min(sizes[i], sizes[j])):
                    rows[offs[i] + t][offs[j] + t] = z
    return QMatrix._of_ints(den, rows)


class ReversibleShape(Enum):
    """The four canonical reversible Jordan shapes with standard conjugators."""

    REAL_UNIT_BLOCK = "real-unit-block"    # J(mu,n), mu = +-1
    RECIPROCAL_PAIR = "reciprocal-pair"    # J(lam,n) + J(1/lam,n), |lam| != 1
    UNIT_BLOCK = "unit-block"              # J(alpha,n), |alpha| = 1, im > 0
    UNIT_BLOCK_PAIR = "unit-block-pair"    # J(alpha,n) + J(alpha,n)


def _check_shape_param(shape: ReversibleShape, param: GaussianRational):
    if shape is ReversibleShape.REAL_UNIT_BLOCK:
        if not (param.is_real and param.re * param.re == 1):
            raise SpecError("shape needs eigenvalue +1 or -1")
    elif shape is ReversibleShape.RECIPROCAL_PAIR:
        if param.is_zero or param.norm_sq() == 1:
            raise SpecError("shape needs a nonzero eigenvalue off the unit circle")
        if param.im < 0:
            raise SpecError("use the class representative (imaginary part >= 0)")
    else:
        if param.norm_sq() != 1 or param.im <= 0:
            raise SpecError("shape needs a non-real unit-modulus eigenvalue")


def shape_matrix(shape: ReversibleShape, param: GaussianRational,
                 n: int) -> QMatrix:
    """The literal Jordan matrix of the shape (second block at 1/lam as is)."""
    _check_shape_param(shape, param)
    if shape is ReversibleShape.REAL_UNIT_BLOCK:
        return jordan_block(param, n)
    if shape is ReversibleShape.RECIPROCAL_PAIR:
        return block_diagonal([jordan_block(param, n),
                               jordan_block(param.inverse(), n)])
    if shape is ReversibleShape.UNIT_BLOCK:
        return jordan_block(param, n)
    return block_diagonal([jordan_block(param, n), jordan_block(param, n)])


# ---------------------------------------------------------------------------
# building g from the kind table


_BLOCK_MEMO = 256


@functools.lru_cache(maxsize=_BLOCK_MEMO)
def _block(lam: GaussianRational, s: int, mod: str, left: bool,
           sign: int) -> QMatrix:
    """The block Omega(lam) (sign X), or with ``left`` (sign X^{-1})
    Omega(lam), for the size-s diagonal modifier X = 1, j or D, memoized.

    D = diag((-1)^(s-1-k)) is its own inverse and j^{-1} = -j; the block is
    one integer product (a plain block of sign +1 is Omega itself).  Key:
    (lam, s, mod, left, sign), all hashable values.  Bound: ``_BLOCK_MEMO``
    least recently used entries, so the memo holds at most ``_BLOCK_MEMO``
    times the largest block built (a size-s block has s(s+1)/2 nonzero
    entries over one denominator).  Sharing one block between certificates
    is safe because matrices are immutable: placement copies its integer
    form into a new matrix.  Only construction is memoized; every check of
    a certificate built from it runs afresh.
    """
    omega = block_reverser(lam, s)
    if mod == _PLAIN and sign > 0:
        return omega
    rows = [[None] * s for _ in range(s)]
    for k in range(s):
        c = -sign if mod == _D and (s - 1 - k) % 2 else sign
        rows[k][k] = (0, 0, -c if left else c, 0) if mod == _J else (c, 0, 0, 0)
    x = QMatrix._of_ints(1, rows)
    return x * omega if left else omega * x


def _place(a: QMatrix, target: str, flavor: str, blocks) -> Certificate:
    """Build g from the kind table and certify it against A.

    ``blocks`` holds (row, col, lam1, lam2, s): a single block (row == col)
    goes on the diagonal, a pair's B at (row, col) and its partner block at
    (col, row).
    """
    single_mod, pair_mod = _KINDS[(target, flavor)][:2]
    sign = _SQUARE_SIGN[flavor]
    placements = []
    for row, col, lam1, lam2, s in blocks:
        if row == col:
            placements.append((row, row,
                               _block(lam1, s, single_mod, False, 1)))
            continue
        lam1_inv = lam1.inverse()
        mod = pair_mod
        if mod == _J_IF_CONJ:
            mod = _PLAIN if lam2 == lam1_inv else _J
        placements.append((row, col, _block(lam1, s, mod, False, 1)))
        placements.append((col, row, _block(lam1_inv, s, mod, True, sign)))
    return certify(place_blocks(a.n_rows, placements), a, target, flavor)


def shape_reverser(shape: ReversibleShape, param: GaussianRational,
                   n: int) -> Certificate:
    """Standard conjugator for each canonical shape, verified on construction."""
    a = shape_matrix(shape, param, n)
    partner = (param.inverse() if shape is ReversibleShape.RECIPROCAL_PAIR
               else param)
    col = 0 if shape in (ReversibleShape.REAL_UNIT_BLOCK,
                         ReversibleShape.UNIT_BLOCK) else n
    flavor = (FLAVOR_SKEW if shape is ReversibleShape.UNIT_BLOCK
              else FLAVOR_INVOLUTION)
    return _place(a, TARGET_INVERSE, flavor, [(0, col, param, partner, n)])


def neg_reverser_i_matrix(n: int) -> QMatrix:
    """Involution conjugating J(i, n) to minus its inverse: Omega(i) D."""
    return _block(GR_I, n, _D, False, 1)


# ---------------------------------------------------------------------------
# assembly over full specs


def assemble_reverser(spec: JordanSpec, target: str = TARGET_INVERSE,
                      flavor: str = "any") -> Certificate:
    """Full conjugator certificate for the canonical matrix of a spec.

    ``flavor`` may be "involution", "skew-involution", or "any"; "any"
    resolves to an involution when one exists, otherwise a skew-involution.
    Raises ``NotConstructible`` naming the failing criterion.
    """
    if target not in TARGETS:
        raise DomainError(f"unknown target {quoted(target)}")
    if flavor not in ("any", FLAVOR_INVOLUTION, FLAVOR_SKEW):
        raise DomainError(f"unknown flavor {quoted(flavor)}")

    if flavor != "any" and (target, flavor) not in _KINDS:
        raise NotConstructible(
            f"no {flavor} construction for the "
            f"{'negated inverse' if target == TARGET_NEG_INVERSE else target}"
            "; request an involution")
    if target == TARGET_NEG_INVERSE:
        pairing, reason = neg_inverse_pairing(spec)
        if pairing is None:
            raise NotConstructible(
                f"not conjugate to the negative of its inverse: {reason}")
        flavor = FLAVOR_INVOLUTION
    else:
        pairing, reason = inverse_pairing(spec)
        if pairing is None:
            raise NotConstructible(f"not conjugate to its inverse: {reason}")
        odd = odd_unit_classes(spec) if flavor != FLAVOR_SKEW else None
        if odd and flavor == FLAVOR_INVOLUTION:
            lam, size = odd[0]
            raise NotConstructible(
                f"no involution conjugator: unit-modulus class {lam} occurs "
                f"an odd number of times at block size {size}")
        if flavor == FLAVOR_SKEW or odd:
            flavor = FLAVOR_SKEW
        else:
            flavor = FLAVOR_INVOLUTION
            pairing, _ = involution_pairing(spec)

    offsets = spec.block_offsets()
    blocks = [(offsets[ia], offsets[ib], spec.blocks[ia][0],
               spec.blocks[ib][0], spec.blocks[ia][1])
              for ia, ib in [(i, i) for i in pairing.singletons]
              + list(pairing.pairs)]
    return _place(jordan_matrix(spec), target, flavor, blocks)
