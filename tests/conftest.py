"""Shared helpers: seeded random generators, the exhaustive spec sweep, and
independent oracles for the library's closed forms and checks."""
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import strategies as st

from quatrev.canonical import JordanSpec, jordan_block, jordan_matrix
from quatrev.classify import (involution_pairing, inverse_pairing,
                              neg_inverse_pairing)
from quatrev.errors import (PairingError, QuatrevError, RankProfileError,
                            ShapeError, SingularError)
from quatrev.matrix import QMatrix, place_blocks, qdet
from quatrev.numeric import (_NO_PAIRING, _ROUNDS_TO_ZERO, ClassSnap,
                             NumericConfig, SnapReport, _radius_ladder,
                             phi_embed_float, qmatrix_to_float,
                             weyr_structure_numeric)
from quatrev.check import (FLAVOR_INVOLUTION, FLAVOR_SKEW, TARGET_INVERSE,
                           TARGET_NEG_INVERSE, VerifyReport)
from quatrev.reversers import (_KINDS, _D, _PLAIN, _J, _J_IF_CONJ,
                               block_reverser)
from quatrev.scalar import (GR_I, GR_ONE, GR_ZERO, Q_J, Q_ONE, Q_ZERO,
                            GaussianRational, Quaternion, class_rep_inverse,
                            gr)

# eigenvalue pool used by the sweep: real reciprocal pairs, units, and a
# non-unit complex value, 1+i, whose inverse-class partner (1+i)/2 and
# negated-inverse partner (-1+i)/2 are not in it, so that no sweep spec
# holding 1+i is reversible or negatively reversible
EIG_POOL = (gr(1), gr(-1), gr(2), gr("1/2"), gr(-2), gr("-1/2"),
            gr(0, 1), gr("3/5", "4/5"), gr(1, 1))
SWEEP_MAX_TOTAL = 6
# the pool with (1+i)/2, the inverse-class partner of 1+i, for spec recovery
RECOVERY_POOL = EIG_POOL + (gr("1/2", "1/2"),)
RECOVERY_CONFIGS = (NumericConfig(), NumericConfig(eig_cluster_tol=0),
                    NumericConfig(unit_tol=0))


def rng_for(name: str) -> random.Random:
    return random.Random(f"quatrev:{name}")


def rand_fraction(rng, lo=-9, hi=9, max_den=5) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


def rand_gr(rng, nonzero=False) -> GaussianRational:
    while True:
        x = GaussianRational(rand_fraction(rng), rand_fraction(rng))
        if not (nonzero and x.is_zero):
            return x


def rand_quat(rng, lo=-9, hi=9, max_den=3) -> Quaternion:
    return Quaternion(*(rand_fraction(rng, lo, hi, max_den)
                        for _ in range(4)))


def rand_qmatrix(rng, n, lo=-9, hi=9, max_den=3) -> QMatrix:
    return QMatrix([[rand_quat(rng, lo, hi, max_den) for _ in range(n)]
                    for _ in range(n)])


def rand_invertible(rng, n, lo=-2, hi=2) -> QMatrix:
    """Random integer quaternionic matrix with nonzero determinant."""
    while True:
        m = QMatrix([[Quaternion(*(Fraction(rng.randint(lo, hi))
                                   for _ in range(4)))
                      for _ in range(n)] for _ in range(n)])
        if qdet(m) != 0:
            return m


@dataclass(frozen=True)
class PairModel:
    """A complex rational as the pair of Fractions (re, im), with every
    operation written by Fraction arithmetic: the naive model that
    ``GaussianRational``'s integer triple must agree with."""

    re: Fraction
    im: Fraction

    @classmethod
    def of(cls, lam: GaussianRational) -> "PairModel":
        return cls(lam.re, lam.im)

    def exact(self) -> GaussianRational:
        return GaussianRational(self.re, self.im)

    def __add__(self, other):
        return PairModel(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return PairModel(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        return PairModel(self.re * other.re - self.im * other.im,
                         self.re * other.im + self.im * other.re)

    def __neg__(self):
        return PairModel(-self.re, -self.im)

    def conjugate(self):
        return PairModel(self.re, -self.im)

    def norm_sq(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def inverse(self):
        n = self.norm_sq()
        return PairModel(self.re / n, -self.im / n)

    def class_rep(self):
        return self if self.im >= 0 else self.conjugate()

    def text(self) -> str:
        if self.im == 0:
            return str(self.re)
        mag = abs(self.im)
        imtxt = "i" if mag == 1 else f"{mag}i"
        if self.re == 0:
            return imtxt if self.im > 0 else f"-{imtxt}"
        return f"{self.re}{'+' if self.im > 0 else '-'}{imtxt}"

    def to_json(self) -> dict:
        return {"re": str(self.re), "im": str(self.im)}


# rational parts with hostile denominators: 2^60 +- 1, 2^60, 3^38, small
# ones and zero parts
HOSTILE_DENOMINATORS = (2**60 - 1, 2**60, 2**60 + 1, 3**38)
hostile_parts = (
    st.just(Fraction(0))
    | st.builds(Fraction,
                st.integers(-9, 9) | st.integers(-2**64, 2**64)
                | st.sampled_from([2**60 + 1, -(2**60 - 1), 3**38, -3**38]),
                st.integers(1, 12) | st.sampled_from(HOSTILE_DENOMINATORS)))


def circle_point(m, k) -> GaussianRational:
    """((m^2 - k^2) + 2mk i) / (m^2 + k^2), a point of modulus 1."""
    q = m * m + k * k
    return GaussianRational(Fraction(m * m - k * k, q), Fraction(2 * m * k, q))


# eigenvalues with small parts, so that two distinct ones lie far apart at
# the float front end's unit_tol; the listed ones hold partner classes
_small_parts = st.fractions(min_value=-4, max_value=4, max_denominator=6)
SMALL_EIGENVALUES = (
    st.sampled_from([gr(1), gr(-1), gr(2), gr("1/2"), gr(-2), gr("-1/2"),
                     gr(0, 1), gr("3/5", "4/5"), gr("-3/5", "4/5"),
                     gr(1, 1), gr("1/2", "1/2"), gr("-1/2", "1/2")])
    | st.builds(circle_point, st.integers(-4, 4), st.integers(1, 4))
    | st.builds(GaussianRational, _small_parts, _small_parts).filter(
        lambda lam: not lam.is_zero))
# a block's partner: none, its inverse, its negated inverse or itself
_PARTNERS = (None, GaussianRational.inverse,
             lambda lam: -lam.inverse(), lambda lam: lam)


@st.composite
def jordan_specs(draw):
    """Random specs of at most eight blocks of size at most 3, each drawn
    block followed by a drawn partner of its size about as often as not."""
    blocks = []
    drawn = st.lists(st.tuples(SMALL_EIGENVALUES, st.integers(1, 3)),
                     min_size=1, max_size=4)
    for lam, size in draw(drawn):
        blocks.append((lam, size))
        partner = draw(st.sampled_from(_PARTNERS + (None,) * 2))
        if partner is not None:
            blocks.append((partner(lam), size))
    return JordanSpec.of(blocks)


def naive_norm_sq(lam: GaussianRational) -> Fraction:
    """re^2 + im^2 by chained Fraction products; independent oracle for
    ``GaussianRational.norm_sq``."""
    return PairModel.of(lam).norm_sq()


def naive_gr_inverse(lam: GaussianRational) -> GaussianRational:
    """conj(lam) / |lam|^2 by Fraction divisions; independent oracle for
    ``GaussianRational.inverse``."""
    return PairModel.of(lam).inverse().exact()


def naive_mul(x, y):
    """Entrywise Fraction-loop product; independent oracle for ``*``."""
    z = Q_ZERO
    cols = y.transpose().entries
    out = []
    for row in x.entries:
        live = [(j, a) for j, a in enumerate(row) if not a.is_zero]
        out_row = []
        for col in cols:
            acc = z
            for j, a in live:
                if not col[j].is_zero:
                    acc = acc + a * col[j]
            out_row.append(acc)
        out.append(out_row)
    return QMatrix(out)


def naive_modified(m, mod, left=False, sign=1):
    """The entries of sign * M X or sign * X^-1 M by the Fraction product,
    X = 1, j or D (j^-1 = -j, D^-1 = D); oracle for ``reversers._block``."""
    n = m.n_rows
    x = {_PLAIN: [Q_ONE] * n, _J: [Q_J] * n,
         _D: [Q_ONE if (n - 1 - k) % 2 == 0 else -Q_ONE for k in range(n)]}
    diag = x[mod]
    if left and mod == _J:
        diag = [-q for q in diag]
    xm = QMatrix.diagonal(diag)
    out = naive_mul(xm, m) if left else naive_mul(m, xm)
    return [[q if sign > 0 else -q for q in row] for row in out.entries]


def naive_check(g: QMatrix, a: QMatrix, target: str,
                flavor: str) -> VerifyReport:
    """The three certificate checks on Fraction entries: A g A = +-g,
    g^2 = +-I and qdet(g) = 1; independent oracle for ``check_certificate``."""
    residual = naive_mul(naive_mul(a, g), a) == (
        g if target == TARGET_INVERSE else -g)
    square = naive_mul(g, g)
    ident = QMatrix.identity(g.n_rows)
    flavor_ok = {FLAVOR_INVOLUTION: square == ident,
                 FLAVOR_SKEW: square == -ident}.get(flavor, True)
    return VerifyReport(residual_zero=residual, flavor_verified=flavor_ok,
                        det_one=naive_qdet(g) == 1)


def complex_entries(m: QMatrix) -> list[list[GaussianRational]]:
    """The entries of a matrix whose entries lie in C, as complex
    rationals (their j, k parts are dropped)."""
    return [[m.entry(i, j).complex_parts()[0] for j in range(m.n_cols)]
            for i in range(m.n_rows)]


def complex_matrix(rows) -> QMatrix:
    """The matrix of rows of complex rationals, entries in C."""
    return QMatrix([[z.to_quaternion() for z in row] for row in rows])


def naive_block_reverser(lam: GaussianRational, n: int) -> QMatrix:
    """Omega(lam) by its recurrence from the bottom row: corner 1, last
    column otherwise zero, x[i][j] = -(1/lam) x[i+1][j] - (1/lam^2)
    x[i+1][j+1]; independent oracle for ``block_reverser``."""
    li = lam.inverse()
    li2 = li * li
    x = [[GR_ZERO] * n for _ in range(n)]
    x[n - 1][n - 1] = GR_ONE
    for i in range(n - 2, -1, -1):
        for j in range(i, n - 1):
            x[i][j] = -(li * x[i + 1][j]) - li2 * x[i + 1][j + 1]
    return complex_matrix(x)


def toeplitz_build(coeffs) -> QMatrix:
    """Upper-triangular Toeplitz matrix from diagonal coefficients.

    Entry (i, j) is coeffs[j - i] for j >= i; these are exactly the matrices
    commuting with a single nilpotent Jordan block.
    """
    n = len(coeffs)
    return QMatrix([[coeffs[j - i] if j >= i else Q_ZERO
                     for j in range(n)] for i in range(n)])


def naive_inverse(x):
    """Gauss-Jordan on Fraction entries; independent oracle for ``inverse``."""
    if not x.is_square:
        raise ShapeError("only square matrices have inverses")
    n = x.n_rows
    z, o = Q_ZERO, Q_ONE
    work = [list(row) + [o if i == j else z for j in range(n)]
            for i, row in enumerate(x.entries)]
    for col in range(n):
        pivot_row = next((r for r in range(col, n)
                          if work[r][col] != z), None)
        if pivot_row is None:
            raise SingularError("matrix is singular")
        if pivot_row != col:
            work[col], work[pivot_row] = work[pivot_row], work[col]
        pinv = work[col][col].inverse()
        work[col] = [pinv * e for e in work[col]]
        for r in range(n):
            if r == col:
                continue
            factor = work[r][col]
            if factor == z:
                continue
            work[r] = [e - factor * y for e, y in zip(work[r], work[col])]
    return QMatrix([row[n:] for row in work])


def naive_qdet(a: QMatrix) -> Fraction:
    """Elimination on Fraction quaternions, product of |pivot|^2; independent
    oracle for ``qdet``."""
    if not a.is_square:
        raise ShapeError("determinant needs a square matrix")
    n = a.n_rows
    rows = [list(row) for row in a.entries]
    det = Fraction(1)
    for col in range(n):
        pivot_row = next((r for r in range(col, n)
                          if not rows[r][col].is_zero), None)
        if pivot_row is None:
            return Fraction(0)
        rows[col], rows[pivot_row] = rows[pivot_row], rows[col]
        top = rows[col]
        pivot = top[col]
        det *= pivot.norm_sq()
        pinv = pivot.inverse()
        live = [(j, top[j]) for j in range(col + 1, n) if not top[j].is_zero]
        for row in rows[col + 1:]:
            x = row[col]
            if x.is_zero:
                continue
            factor = x * pinv
            for j, y in live:
                row[j] = row[j] - factor * y
    return det


def cofactor_det(c: QMatrix) -> GaussianRational:
    """Naive Laplace expansion of a matrix with entries in C; independent
    check for the fast determinant."""
    return _laplace(complex_entries(c))


def _laplace(rows) -> GaussianRational:
    if len(rows) == 1:
        return rows[0][0]
    total = GR_ZERO
    for j, piv in enumerate(rows[0]):
        if piv.is_zero:
            continue
        term = piv * _laplace([row[:j] + row[j + 1:] for row in rows[1:]])
        total = total - term if j % 2 else total + term
    return total


def det_bareiss(c: QMatrix) -> GaussianRational:
    """Fraction-free (Bareiss) elimination of a matrix with entries in C;
    independent oracle for ``qdet``."""
    n = c.n_rows
    m = complex_entries(c)
    sign = 1
    prev = GR_ONE
    for k in range(n - 1):
        if m[k][k].is_zero:
            swap = next((r for r in range(k + 1, n)
                         if not m[r][k].is_zero), None)
            if swap is None:
                return GR_ZERO
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) / prev
            m[i][k] = GR_ZERO
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return -det if sign < 0 else det


def conjugacy_residual(g: QMatrix, a: QMatrix, b: QMatrix) -> QMatrix:
    """Residual g*A - B*g; zero iff g A g^{-1} = B (g must be invertible)."""
    if not (g.is_square and a.is_square and b.is_square):
        raise ShapeError("conjugacy residual needs square matrices")
    if not g.n_rows == a.n_rows == b.n_rows:
        raise ShapeError("conjugacy residual needs equal sizes")
    if qdet(g) == 0:
        raise SingularError("conjugating matrix is singular")
    return g * a - b * g


class NotSingleBlock(QuatrevError):
    """The input matrix is not similar to a single Jordan block."""


def single_block_conjugator(m: QMatrix, mu: GaussianRational) -> QMatrix:
    """P with P M P^{-1} = J(mu, n), via the Jordan chain grown from e_n.

    The chain basis is ((M - mu I)^{n-1} e_n, ..., (M - mu I) e_n, e_n);
    if it fails to be a basis the matrix is not similar to a single block
    with cyclic last coordinate and ``NotSingleBlock`` is raised.  Oracle
    for the negated-inverse pair blocks: an intertwiner whose last column
    is e_n is unique.
    """
    n = m.n_rows
    nilp = m - QMatrix.scalar(n, mu.to_quaternion())
    col = QMatrix([[Q_ONE if i == n - 1 else Q_ZERO] for i in range(n)])
    chain = [col]
    for _ in range(n - 1):
        col = nilp * col
        chain.insert(0, col)
    s = QMatrix([[chain[j].entries[i][0] for j in range(n)]
                 for i in range(n)])
    try:
        p = s.inverse()
    except SingularError as exc:
        raise NotSingleBlock("the last coordinate does not generate a full "
                             "Jordan chain") from exc
    if p * (m * s) != jordan_block(mu, n):
        raise NotSingleBlock("matrix is not similar to a single Jordan block "
                             f"at {mu}")
    return p


# each constructible kind's pairing, as ``assemble_reverser`` chooses it
_NAIVE_PAIRING = {(TARGET_INVERSE, FLAVOR_INVOLUTION): involution_pairing,
                  (TARGET_INVERSE, FLAVOR_SKEW): inverse_pairing,
                  (TARGET_NEG_INVERSE, FLAVOR_INVOLUTION): neg_inverse_pairing}


def naive_place(spec: JordanSpec, target: str, flavor: str) -> QMatrix:
    """g for a spec and a constructible kind, every block built afresh
    (``block_reverser``, then ``naive_modified``, then ``place_blocks``)
    with no memo; oracle for the blocks ``assemble_reverser`` reads from
    ``_block``.
    """
    pairing = _NAIVE_PAIRING[(target, flavor)](spec)[0]
    single_mod, pair_mod = _KINDS[(target, flavor)][:2]
    sign = -1 if flavor == FLAVOR_SKEW else 1
    offs = spec.block_offsets()
    placements = []
    for i in pairing.singletons:
        lam, s = spec.blocks[i]
        placements.append((offs[i], offs[i], QMatrix(
            naive_modified(block_reverser(lam, s), single_mod))))
    for ia, ib in pairing.pairs:
        (lam1, s), (lam2, _) = spec.blocks[ia], spec.blocks[ib]
        lam1_inv = lam1.inverse()
        mod = pair_mod
        if mod == _J_IF_CONJ:
            mod = _PLAIN if lam2 == lam1_inv else _J
        placements.append((offs[ia], offs[ib], QMatrix(
            naive_modified(block_reverser(lam1, s), mod))))
        placements.append((offs[ib], offs[ia], QMatrix(
            naive_modified(block_reverser(lam1_inv, s), mod, left=True,
                           sign=sign))))
    return place_blocks(spec.total_size, placements)


def neg_i_closed_form(n: int) -> QMatrix:
    """Binomial closed form of the J(i, n) negated-inverse involution."""
    minus_i = -GR_I
    x = [[GR_ZERO] * n for _ in range(n)]
    for i in range(n):
        sign = GR_ONE if (n - 1 - i) % 2 == 0 else -GR_ONE
        x[i][i] = sign
        for j in range(i + 1, n - 1):
            c = math.comb(n - i - 2, j - i)
            if c:
                x[i][j] = sign * gr(c) * minus_i.power(j - i)
    return complex_matrix(x)


def sub_block(g, r0, c0, n):
    """The n x n block of g whose top-left corner is (r0, c0)."""
    return type(g)([row[c0:c0 + n] for row in g.entries[r0:r0 + n]])


def sweep_blocks(max_total=SWEEP_MAX_TOTAL, pool=EIG_POOL):
    """Every multiset of (eigenvalue, size) blocks with total size bounded."""
    atoms = [(v, s) for v in pool for s in range(1, max_total + 1)]
    out = []

    def rec(start, budget, acc):
        if acc:
            out.append(tuple(acc))
        for k in range(start, len(atoms)):
            v, s = atoms[k]
            if s <= budget:
                acc.append((v, s))
                rec(k, budget - s, acc)
                acc.pop()

    rec(0, max_total, [])
    return out


@pytest.fixture(scope="session")
def sweep_specs():
    return [JordanSpec.of(blocks) for blocks in sweep_blocks()]


def recovery_corpus(count):
    """count (spec, float matrix) pairs: S^-1 A S in floats for a Jordan
    matrix A of total size 2-6 with blocks of size at most 3 from
    ``RECOVERY_POOL`` (a non-unit block half the time with its inverse-class
    partner) and a random S of small-integer quaternions."""
    rng = rng_for("recovery")
    out = []
    for _ in range(count):
        left, blocks = rng.randint(2, 6), []
        while left:
            lam, size = rng.choice(RECOVERY_POOL), rng.randint(1, min(3, left))
            blocks.append((lam, size))
            left -= size
            if lam.norm_sq() != 1 and size <= left and rng.random() < 0.5:
                blocks.append((class_rep_inverse(lam), size))
                left -= size
        spec = JordanSpec.of(blocks)
        s = rand_invertible(rng, spec.total_size)
        out.append((spec, qmatrix_to_float(
            s.inverse() * jordan_matrix(spec) * s)))
    return out


def _naive_clusters(folded, radius):
    clusters = []
    for v in folded:
        if clusters and abs(v - clusters[-1][-1]) <= radius:
            clusters[-1].append(complex(v))
        else:
            clusters.append([complex(v)])
    return clusters


def _naive_classes(clusters, radius):
    out = []
    for group in clusters:
        if len(group) % 2 != 0:
            return None
        rep = complex(np.mean(group))
        if abs(rep.imag) <= radius:
            rep = complex(rep.real, 0.0)
        out.append((rep, len(group) // 2))
    return out


def naive_persistent_classes(f, cfg):
    """Candidate class lists of the float matrix f, most persistent first:
    the whole spectrum re-clustered, chain by chain, at every radius of the
    ladder; independent oracle for ``numeric._persistent_classes``."""
    vals = np.linalg.eigvals(phi_embed_float(f))
    folded = np.where(vals.imag < 0, np.conj(vals), vals)
    folded = folded[np.lexsort((folded.imag, folded.real))]
    runs = []
    for radius in _radius_ladder(folded, cfg):
        classes = _naive_classes(_naive_clusters(folded, radius), radius)
        if classes is None:
            continue
        signature = tuple(classes)
        if runs and runs[-1]["signature"] == signature:
            runs[-1]["octaves"] += 1
        else:
            runs.append({"signature": signature, "octaves": 1,
                         "classes": classes})
    runs.sort(key=lambda r: (-r["octaves"], len(r["classes"])))
    return [r["classes"] for r in runs]


def naive_phi_eigenvalues(f, cfg):
    """Oracle for ``phi_eigenvalues``."""
    candidates = naive_persistent_classes(f, cfg)
    if not candidates:
        raise PairingError(_NO_PAIRING)
    return candidates[0]


def _naive_snap(z, candidates, tol):
    for cand in candidates:
        if not cand.is_zero and abs(z - cand.to_complex()) <= tol:
            return cand
    re = Fraction(z.real).limit_denominator(64)
    im = abs(Fraction(z.imag).limit_denominator(64))
    guess = GaussianRational(re, im)
    if not guess.is_zero and abs(z - guess.to_complex()) <= tol:
        return guess
    return None


def naive_jordan_spec_numeric(f, cfg, candidates=()):
    """Spec recovery with every float quantity recomputed where it is used:
    the embedding and its 2-norm per class (``weyr_structure_numeric``), the
    clustering per radius and each candidate's complex value per class;
    independent oracle for ``jordan_spec_numeric``."""
    z = phi_embed_float(f)
    svals = np.linalg.svd(z, compute_uv=False)
    if svals[0] == 0 or svals[-1] <= cfg.rank_tol * svals[0]:
        raise SingularError("matrix is singular at the working tolerance")
    last_err = None
    for classes in naive_persistent_classes(f, cfg):
        try:
            blocks, snaps = [], []
            for rep, mult in classes:
                w = weyr_structure_numeric(f, rep, cfg)
                if w.total != mult:
                    raise RankProfileError(
                        f"class {rep:.6g}: rank profile totals {w.total} but "
                        f"the spectrum gives multiplicity {mult}")
                sizes = w.to_partition().conjugate().parts
                snapped = _naive_snap(rep, candidates, cfg.unit_tol)
                snaps.append(ClassSnap(value=rep, snapped=snapped,
                                       multiplicity=mult, jordan_sizes=sizes))
                eig = snapped if snapped is not None else GaussianRational(
                    Fraction(rep.real).limit_denominator(10 ** 12),
                    Fraction(abs(rep.imag)).limit_denominator(10 ** 12))
                if eig.is_zero:
                    raise SingularError(_ROUNDS_TO_ZERO.format(rep))
                blocks.extend((eig, s) for s in sizes)
            return JordanSpec.of(blocks), SnapReport(tuple(snaps))
        except RankProfileError as err:
            last_err = err
    if last_err is not None:
        raise last_err
    raise PairingError(_NO_PAIRING)
