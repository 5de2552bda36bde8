"""Explicit conjugators carrying an element to its inverse or negated inverse.

The basic building block is an upper-triangular matrix built by a
second-order recurrence from the bottom row; it intertwines J(1/lam, n)
with J(lam, n)^{-1} and its inverse is the same matrix at 1/lam.  Block
constructions stack these along antidiagonals for paired blocks, multiply
by j for non-real unit-modulus classes, and use an explicit Jordan-chain
change of basis for negated-inverse pairs.  Every constructor returns a
``Certificate`` that has already verified its residual, its flavor
(involution or skew-involution), and determinant one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .canonical import JordanSpec, jordan_block, jordan_matrix
from .classify import (inverse_pairing, neg_inverse_pairing,
                       odd_unit_classes)
from .errors import (CertificateError, DomainError, NotConstructible,
                     NotSingleBlock, ShapeError, SingularError, SpecError)
from .matrix import (CMatrix, QMatrix, block_diagonal, is_involution,
                     is_skew_involution, place_blocks, qdet)
from .scalar import (GR_I, GR_ONE, GR_ZERO, Q_J, GaussianRational,
                     class_rep, class_rep_neg_inverse, gr)

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
        return {
            "residual_zero": self.residual_zero,
            "flavor_verified": self.flavor_verified,
            "det_one": self.det_one,
            "ok": self.ok,
        }


def check_certificate(g: QMatrix, a: QMatrix, target: str,
                      flavor: str) -> VerifyReport:
    """Run the three certificate checks on g against A, exactly.

    The residual is tested as A g A = g (target "inverse") or A g A = -g
    ("neg-inverse"), which for invertible A says g A g^{-1} = +-A^{-1}
    without forming A^{-1}; for singular A it fails whenever det g = 1.
    The flavor check is g^2 = I or g^2 = -I, skipped only for "general".
    """
    if target not in TARGETS:
        raise DomainError(f"unknown target {target!r}")
    if flavor not in FLAVORS:
        raise DomainError(f"unknown flavor {flavor!r}")
    if not (a.is_square and g.is_square and a.n_rows == g.n_rows):
        raise ShapeError("matrix and certificate sizes do not match")
    residual_zero = a * g * a == (g if target == TARGET_INVERSE else -g)
    if flavor == FLAVOR_INVOLUTION:
        flavor_ok = is_involution(g)
    elif flavor == FLAVOR_SKEW:
        flavor_ok = is_skew_involution(g)
    else:
        flavor_ok = True
    return VerifyReport(residual_zero=residual_zero,
                        flavor_verified=flavor_ok, det_one=qdet(g) == 1)


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


def _c_jordan(lam: GaussianRational, n: int) -> CMatrix:
    grid = [[GR_ZERO] * n for _ in range(n)]
    for i in range(n):
        grid[i][i] = lam
        if i + 1 < n:
            grid[i][i + 1] = GR_ONE
    return CMatrix(grid)


def block_reverser(lam: GaussianRational, n: int) -> CMatrix:
    """Upper-triangular intertwiner of J(1/lam, n) with J(lam, n)^{-1}.

    Bottom-right entry 1, last column otherwise zero, and each remaining
    entry x[i][j] = -(1/lam) x[i+1][j] - (1/lam^2) x[i+1][j+1].  Its inverse
    is the same construction at 1/lam.  Entries grow like lam^{-2n}, which
    is why everything stays in exact arbitrary-precision rationals.
    """
    if n < 1:
        raise DomainError("size must be positive")
    if lam.is_zero:
        raise DomainError("eigenvalue must be nonzero")
    li = lam.inverse()
    li2 = li * li
    x = [[GR_ZERO] * n for _ in range(n)]
    x[n - 1][n - 1] = GR_ONE
    for i in range(n - 2, -1, -1):
        for j in range(i, n - 1):
            x[i][j] = -(li * x[i + 1][j]) - li2 * x[i + 1][j + 1]
    return CMatrix(x)


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
    abar = alpha.conjugate()
    offs = []
    acc = 0
    for s in sizes:
        offs.append(acc)
        acc += s
    n = acc
    grid = [[GR_ZERO] * n for _ in range(n)]

    def put_scaled_identity(bi, bj, coef):
        # truncated identity: rows sizes[bi], cols sizes[bj], identity on top
        for t in range(min(sizes[bi], sizes[bj])):
            grid[offs[bi] + t][offs[bj] + t] = coef

    for i in range(1, r + 1):
        sign = GR_ONE if (r - i) % 2 == 0 else -GR_ONE
        put_scaled_identity(i - 1, i - 1, sign * abar.power(2 * (r - i)))
        for j in range(i + 1, r + 1):
            if j == r:
                continue
            c = math.comb(r - i - 1, j - i)
            if c == 0:
                continue
            coef = sign * gr(c) * abar.power(2 * r - i - j)
            put_scaled_identity(i - 1, j - 1, coef)
    return CMatrix(grid)


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


def shape_reverser(shape: ReversibleShape, param: GaussianRational,
                   n: int) -> Certificate:
    """Standard conjugator for each canonical shape, verified on construction."""
    a = shape_matrix(shape, param, n)
    if shape is ReversibleShape.REAL_UNIT_BLOCK:
        g = block_reverser(param, n).to_quaternion()
        return certify(g, a, TARGET_INVERSE, FLAVOR_INVOLUTION)
    if shape is ReversibleShape.RECIPROCAL_PAIR:
        # the second block is the literal J(1/lam), so no j even for a
        # non-real lam; Omega(lam)^{-1} = Omega(1/lam)
        g = place_blocks(2 * n, [
            (0, n, block_reverser(param, n).to_quaternion()),
            (n, 0, block_reverser(param.inverse(), n).to_quaternion()),
        ])
        return certify(g, a, TARGET_INVERSE, FLAVOR_INVOLUTION)
    if shape is ReversibleShape.UNIT_BLOCK:
        g = block_reverser(param, n).to_quaternion().scale_right(Q_J)
        return certify(g, a, TARGET_INVERSE, FLAVOR_SKEW)
    top, bottom = _involution_pair(param, n)
    g = place_blocks(2 * n, [(0, n, top), (n, 0, bottom)])
    return certify(g, a, TARGET_INVERSE, FLAVOR_INVOLUTION)


def skew_reverser_unit_block(alpha: GaussianRational, n: int) -> Certificate:
    """Skew-involution reversing J(alpha, n) for any unit-modulus alpha.

    Allows alpha = +-1 as the endpoints of the unit upper half circle.
    """
    alpha = class_rep(alpha)
    if alpha.norm_sq() != 1:
        raise DomainError("eigenvalue must have unit modulus")
    a = jordan_block(alpha, n)
    g = block_reverser(alpha, n).to_quaternion().scale_right(Q_J)
    return certify(g, a, TARGET_INVERSE, FLAVOR_SKEW)


def skew_reverser_pair(lam: GaussianRational, n: int) -> Certificate:
    """Skew-involution reversing the literal pair J(lam, n) + J(1/lam, n)."""
    if lam.is_zero or lam.norm_sq() == 1:
        raise SpecError("pair shape needs a nonzero eigenvalue off the unit circle")
    a = block_diagonal([jordan_block(lam, n),
                        jordan_block(lam.inverse(), n)])
    omega = block_reverser(lam, n)
    omega_inv = block_reverser(lam.inverse(), n)
    g = place_blocks(2 * n, [
        (0, n, omega.to_quaternion()),
        (n, 0, (-omega_inv).to_quaternion()),
    ])
    return certify(g, a, TARGET_INVERSE, FLAVOR_SKEW)


def single_block_conjugator(m: CMatrix, mu: GaussianRational) -> CMatrix:
    """P with P M P^{-1} = J(mu, n), via the Jordan chain grown from e_n.

    The chain basis is ((M - mu I)^{n-1} e_n, ..., (M - mu I) e_n, e_n);
    if it fails to be a basis the matrix is not similar to a single block
    with cyclic last coordinate and ``NotSingleBlock`` is raised.
    """
    if not m.is_square:
        raise SpecError("input must be square")
    n = m.n_rows
    nilp = m - CMatrix.scalar(n, mu)
    col = CMatrix([[GR_ONE if i == n - 1 else GR_ZERO] for i in range(n)])
    chain = [col]
    for _ in range(n - 1):
        col = nilp * col
        chain.insert(0, col)
    s = CMatrix([[chain[j].entries[i][0] for j in range(n)]
                 for i in range(n)])
    try:
        p = s.inverse()
    except SingularError as exc:
        raise NotSingleBlock("the last coordinate does not generate a full "
                             "Jordan chain") from exc
    if p * (m * s) != _c_jordan(mu, n):
        raise NotSingleBlock("matrix is not similar to a single Jordan block "
                             f"at {mu}")
    return p


def neg_reverser_pair(lam: GaussianRational, n: int) -> Certificate:
    """Involution conjugating J(lam,n) + J(-1/lam rep, n) to minus its inverse.

    Built as the antidiagonal of P and P^{-1}, where P carries the partner
    block onto -J(lam, n)^{-1} via its Jordan chain.
    """
    lam = class_rep(lam)
    if lam.is_zero:
        raise SpecError("eigenvalue must be nonzero")
    partner = class_rep_neg_inverse(lam)
    if partner == lam:
        raise SpecError("the class of i pairs with itself; use the "
                        "single-block construction")
    m = -(_c_jordan(lam, n).inverse())
    p0 = single_block_conjugator(m, partner)   # p0 m p0^{-1} = J(partner, n)
    p = p0.inverse()                           # p J(partner,n) p^{-1} = m
    a = block_diagonal([jordan_block(lam, n), jordan_block(partner, n)])
    g = place_blocks(2 * n, [(0, n, p.to_quaternion()),
                             (n, 0, p0.to_quaternion())])
    return certify(g, a, TARGET_NEG_INVERSE, FLAVOR_INVOLUTION)


def _neg_i_recurrence(n: int) -> CMatrix:
    x = [[GR_ZERO] * n for _ in range(n)]
    x[n - 1][n - 1] = GR_ONE
    for i in range(n - 2, -1, -1):
        for j in range(i, n - 1):
            x[i][j] = GR_I * x[i + 1][j] - x[i + 1][j + 1]
    return CMatrix(x)


def _neg_i_closed_form(n: int) -> CMatrix:
    minus_i = -GR_I
    x = [[GR_ZERO] * n for _ in range(n)]
    for i in range(n):
        sign = GR_ONE if (n - 1 - i) % 2 == 0 else -GR_ONE
        x[i][i] = sign
        for j in range(i + 1, n - 1):
            c = math.comb(n - i - 2, j - i)
            if c:
                x[i][j] = sign * gr(c) * minus_i.power(j - i)
    return CMatrix(x)


def neg_reverser_i_matrix(n: int) -> CMatrix:
    """Involution conjugating J(i, n) to minus its inverse (matrix only).

    Computed by the recurrence x[i][j] = i*x[i+1][j] - x[i+1][j+1] from a
    unit bottom-right corner, and independently by its closed form; the two
    are asserted equal.
    """
    if n < 1:
        raise DomainError("size must be positive")
    by_rec = _neg_i_recurrence(n)
    by_form = _neg_i_closed_form(n)
    assert by_rec == by_form, "recurrence and closed form disagree"
    return by_rec


def neg_reverser_i(n: int) -> Certificate:
    """Certificate form of the J(i, n) negated-inverse involution."""
    g = neg_reverser_i_matrix(n).to_quaternion()
    a = jordan_block(GR_I, n)
    return certify(g, a, TARGET_NEG_INVERSE, FLAVOR_INVOLUTION)


# ---------------------------------------------------------------------------
# assembly over full specs


def _strong_pairing(spec: JordanSpec):
    """Pairs for the involution construction: non-unit inverse partners plus
    duplicated non-real unit blocks; +-1 blocks stay single."""
    pairing, reason = inverse_pairing(spec)
    if pairing is None:
        raise NotConstructible(f"not conjugate to its inverse: {reason}")
    odd = odd_unit_classes(spec)
    if odd:
        lam, size = odd[0]
        raise NotConstructible(
            f"no involution conjugator: unit-modulus class {lam} occurs an "
            f"odd number of times at block size {size}")
    pairs = list(pairing.pairs)
    singles = []
    by_class: dict[tuple, list[int]] = {}
    for idx in pairing.singletons:
        lam, size = spec.blocks[idx]
        if lam.im == 0:
            singles.append(idx)
        else:
            by_class.setdefault((lam, size), []).append(idx)
    for indices in by_class.values():
        for k in range(0, len(indices), 2):
            pairs.append((indices[k], indices[k + 1]))
    return pairs, singles


def _involution_pair(lam1: GaussianRational, s: int):
    """Antidiagonal blocks (B, B^{-1}) with B = Omega(lam1), or Omega(lam1) j
    for a non-real lam1; the inverses are closed forms, Omega(lam)^{-1} =
    Omega(1/lam) and (M j)^{-1} = -j M^{-1}."""
    top = block_reverser(lam1, s).to_quaternion()
    inv = block_reverser(lam1.inverse(), s).to_quaternion()
    if lam1.im == 0:
        return top, inv
    return top.scale_right(Q_J), inv.scale_left(-Q_J)


def _skew_pair(lam1: GaussianRational, s: int):
    """Antidiagonal blocks (B, -B^{-1}), B as in ``_involution_pair``."""
    top, inv = _involution_pair(lam1, s)
    return top, -inv


def _neg_pair(lam1: GaussianRational, lam2: GaussianRational, s: int):
    m = -(_c_jordan(lam1, s).inverse())
    p0 = single_block_conjugator(m, lam2)
    return p0.inverse().to_quaternion(), p0.to_quaternion()


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

    a = jordan_matrix(spec)
    n = spec.total_size
    offsets = spec.block_offsets()
    placements = []

    if target == TARGET_NEG_INVERSE:
        if flavor == FLAVOR_SKEW:
            raise NotConstructible(
                "no skew-involution construction for the negated inverse; "
                "request an involution")
        pairing, reason = neg_inverse_pairing(spec)
        if pairing is None:
            raise NotConstructible(
                f"not conjugate to the negative of its inverse: {reason}")
        for idx in pairing.singletons:
            _, s = spec.blocks[idx]
            placements.append((offsets[idx], offsets[idx],
                               neg_reverser_i_matrix(s).to_quaternion()))
        for ia, ib in pairing.pairs:
            lam1, s = spec.blocks[ia]
            lam2 = spec.blocks[ib][0]
            top, bottom = _neg_pair(lam1, lam2, s)
            placements.append((offsets[ia], offsets[ib], top))
            placements.append((offsets[ib], offsets[ia], bottom))
        g = place_blocks(n, placements)
        return certify(g, a, target, FLAVOR_INVOLUTION)

    pairing, reason = inverse_pairing(spec)
    if pairing is None:
        raise NotConstructible(f"not conjugate to its inverse: {reason}")

    use_involution = (flavor == FLAVOR_INVOLUTION
                      or (flavor == "any" and not odd_unit_classes(spec)))
    if use_involution:
        pairs, singles = _strong_pairing(spec)
        for idx in singles:
            mu, s = spec.blocks[idx]
            placements.append((offsets[idx], offsets[idx],
                               block_reverser(mu, s).to_quaternion()))
        for ia, ib in pairs:
            lam1, s = spec.blocks[ia]
            top, bottom = _involution_pair(lam1, s)
            placements.append((offsets[ia], offsets[ib], top))
            placements.append((offsets[ib], offsets[ia], bottom))
        g = place_blocks(n, placements)
        return certify(g, a, target, FLAVOR_INVOLUTION)

    for idx in pairing.singletons:
        mu, s = spec.blocks[idx]
        placements.append((offsets[idx], offsets[idx],
                           block_reverser(mu, s).to_quaternion()
                           .scale_right(Q_J)))
    for ia, ib in pairing.pairs:
        lam1, s = spec.blocks[ia]
        top, bottom = _skew_pair(lam1, s)
        placements.append((offsets[ia], offsets[ib], top))
        placements.append((offsets[ib], offsets[ia], bottom))
    g = place_blocks(n, placements)
    return certify(g, a, target, FLAVOR_SKEW)
