"""Explicit conjugators carrying an element to its inverse or negated inverse.

The basic building block is Omega(lam), an upper-triangular matrix defined
by a second-order recurrence from the bottom row and written from its closed
form in integers; it intertwines J(1/lam, n) with J(lam, n)^{-1} and its
inverse is the same matrix at 1/lam.  Every conjugator is a direct sum over
single blocks and inverse-partner pairs of blocks, read from one table keyed
by (target, flavor):

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
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from enum import Enum

from .canonical import JordanSpec, jordan_block, jordan_matrix, offsets
from .classify import (involution_pairing, inverse_pairing,
                       neg_inverse_pairing, odd_unit_classes)
from .errors import (CertificateError, DomainError, NotConstructible,
                     SpecError)
from .matrix import (CMatrix, QMatrix, block_diagonal, conjugator_checks,
                     place_blocks)
from .scalar import GR_I, GaussianRational

TARGET_INVERSE = "inverse"
TARGET_NEG_INVERSE = "neg-inverse"

FLAVOR_INVOLUTION = "involution"
FLAVOR_SKEW = "skew-involution"
FLAVOR_GENERAL = "general"

TARGETS = (TARGET_INVERSE, TARGET_NEG_INVERSE)
FLAVORS = (FLAVOR_INVOLUTION, FLAVOR_SKEW, FLAVOR_GENERAL)


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
            raise ValueError(f"unknown certificate target {obj['target']!r}")
        if obj["flavor"] not in FLAVORS:
            raise ValueError(f"unknown certificate flavor {obj['flavor']!r}")
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
    All three run in integers (``conjugator_checks``): Abar Gbar Abar =
    +-alpha^2 Gbar, Gbar^2 = +-gamma^2 I and qdet(Gbar) = gamma^(2n), for
    Abar = alpha*A and Gbar = gamma*G with integer entries, are the identities
    above times the positive reals alpha^2 gamma, gamma^2 and gamma^(2n).
    For an involution or skew-involution whose square passes, det_one is
    read off the square: qdet(g)^2 = qdet(g^2) = 1 and qdet >= 0.  The
    elimination runs only for "general" or a failed square.
    """
    if target not in TARGETS:
        raise DomainError(f"unknown target {target!r}")
    if flavor not in FLAVORS:
        raise DomainError(f"unknown flavor {flavor!r}")
    square_sign = {FLAVOR_INVOLUTION: 1, FLAVOR_SKEW: -1}.get(flavor, 0)
    return VerifyReport(*conjugator_checks(
        g, a, 1 if target == TARGET_INVERSE else -1, square_sign)[0])


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
    re, im = lam.re, lam.im
    d = math.lcm(re.denominator, im.denominator)
    x = re.numerator * (d // re.denominator)
    y = im.numerator * (d // im.denominator)
    # 1/lam = d (x - y i) / (x^2 + y^2), reduced to lowest terms over q
    norm = x * x + y * y
    g = math.gcd(norm, d * x, d * y)
    a, b, q = d * x // g, -d * y // g, norm // g
    power = [(1, 0)]
    for _ in range(top):
        u, v = power[-1]
        power.append((u * a - v * b, u * b + v * a))
    return q ** top, [(u * q ** (top - t), v * q ** (top - t))
                      for t, (u, v) in enumerate(power)]


def block_reverser(lam: GaussianRational, n: int) -> CMatrix:
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
    return CMatrix._of_ints(den, rows)


def weyr_reverser(alpha: GaussianRational, p) -> CMatrix:
    """Weyr-form analogue of the block reverser for a unit-modulus class.

    For Jordan sizes p with largest part r, the matrix is blocked along the
    conjugate structure (n_1, ..., n_r); block (i, j) is
    (-1)^(r-i) C(r-i-1, j-i) conj(alpha)^(2r-i-j) times the truncated
    identity, the last block column is zero apart from the identity corner,
    and out-of-range binomials vanish.  Multiplying by j on the right gives
    the conjugator that reverses the basic Weyr matrix.
    """
    if alpha.norm_sq() != 1:
        raise DomainError("eigenvalue must have unit modulus")
    sizes = p.conjugate().parts
    r = len(sizes)
    den, power = _inverse_powers(alpha, 2 * r - 2)  # conj(alpha) = 1/alpha
    offs = offsets(sizes)
    n = sum(sizes)
    rows = [[None] * n for _ in range(n)]
    for i in range(1, r + 1):
        for j in range(i, max(i + 1, r)):   # block column r: corner only
            c = (-1) ** (r - i) * math.comb(max(r - i - 1, 0), j - i)
            x, y = power[2 * r - i - j]
            # truncated identity: rows sizes[i-1], cols sizes[j-1]
            for t in range(min(sizes[i - 1], sizes[j - 1])):
                rows[offs[i - 1] + t][offs[j - 1] + t] = (c * x, c * y, 0, 0)
    return CMatrix._of_ints(den, rows)


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
# the construction table

# Each block, or inverse-partner pair of blocks, gets B = Omega(lam1) X for a
# modifier X; the partner block of a pair is sign * X^{-1} Omega(1/lam1), so
# that g^2 = sign * I.  A partner J(lam2) with lam2 = conj(1/lam1) rather than
# the literal 1/lam1 needs the j, which turns it into its complex conjugate.
_PLAIN, _J, _D = "1", "j", "D"
_J_IF_CONJUGATE = "1 or j"   # j iff the partner is not the literal 1/lam1

# (target, flavor) -> (sign of g^2, single-block modifier, pair modifier)
_CONSTRUCTIONS = {
    (TARGET_INVERSE, FLAVOR_INVOLUTION): (1, _PLAIN, _J_IF_CONJUGATE),
    (TARGET_INVERSE, FLAVOR_SKEW): (-1, _J, _J_IF_CONJUGATE),
    (TARGET_NEG_INVERSE, FLAVOR_INVOLUTION): (1, _D, _D),
}


def _modified(m: CMatrix, mod: str, left: bool = False,
              sign: int = 1) -> QMatrix:
    """sign * M X, or with ``left`` sign * X^{-1} M, for X = 1, j or D.

    D = diag((-1)^(s-1-k)) is its own inverse: it flips every other column
    (right) or row (left), counted from the last.  j^{-1} = -j, and M j and
    -j M act on each entry alone: z j = (0, 0, re z, im z) and
    -j z = (0, 0, -re z, im z).  Works on M's integer form, entry by entry.
    """
    d, rows = m._ints
    last = m.n_rows - 1
    out = []
    for r, row in enumerate(rows):
        out_row = []
        for c, z in enumerate(row):
            if z is None:
                out_row.append(None)
                continue
            re, im = z[0], z[1]
            if (sign < 0) != (mod == _D and (last - (r if left else c)) % 2):
                re, im = -re, -im
            out_row.append((0, 0, -re if left else re, im) if mod == _J
                           else (re, im, 0, 0))
        out.append(out_row)
    return QMatrix._of_ints(d, out)


def _place(a: QMatrix, target: str, flavor: str, blocks) -> Certificate:
    """Build g from the table and certify it against A.

    ``blocks`` holds (row, col, lam1, lam2, s): a single block (row == col)
    goes on the diagonal, a pair's B at (row, col) and its partner block at
    (col, row).
    """
    sign, single_mod, pair_mod = _CONSTRUCTIONS[(target, flavor)]
    placements = []
    for row, col, lam1, lam2, s in blocks:
        omega = block_reverser(lam1, s)
        if row == col:
            placements.append((row, row, _modified(omega, single_mod)))
            continue
        lam1_inv = lam1.inverse()
        mod = pair_mod
        if mod == _J_IF_CONJUGATE:
            mod = _PLAIN if lam2 == lam1_inv else _J
        placements.append((row, col, _modified(omega, mod)))
        placements.append((col, row, _modified(block_reverser(lam1_inv, s),
                                               mod, left=True, sign=sign)))
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


def neg_reverser_i_matrix(n: int) -> CMatrix:
    """Involution conjugating J(i, n) to minus its inverse: Omega(i) D."""
    return _modified(block_reverser(GR_I, n), _D).to_cmatrix()


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
        raise DomainError(f"unknown target {target!r}")
    if flavor not in ("any", FLAVOR_INVOLUTION, FLAVOR_SKEW):
        raise DomainError(f"unknown flavor {flavor!r}")

    if target == TARGET_NEG_INVERSE:
        if flavor == FLAVOR_SKEW:
            raise NotConstructible(
                "no skew-involution construction for the negated inverse; "
                "request an involution")
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
