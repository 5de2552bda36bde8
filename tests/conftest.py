"""Shared helpers: seeded random generators, the exhaustive spec sweep, and
independent oracles for the library's closed forms and checks."""
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from quatrev.canonical import JordanSpec, jordan_block, jordan_matrix
from quatrev.errors import (NotSingleBlock, PairingError, RankProfileError,
                            ShapeError, SingularError)
from quatrev.matrix import CMatrix, QMatrix, qdet
from quatrev.numeric import (_NO_PAIRING, _ROUNDS_TO_ZERO, ClassSnap,
                             NumericConfig, SnapReport, _radius_ladder,
                             phi_embed_float, qmatrix_to_float,
                             weyr_structure_numeric)
from quatrev.reversers import (FLAVOR_INVOLUTION, FLAVOR_SKEW,
                               TARGET_INVERSE, VerifyReport)
from quatrev.scalar import (GR_I, GR_ONE, GR_ZERO, Q_ZERO, GaussianRational,
                            Quaternion, class_rep_inverse, gr)

# eigenvalue pool used by the sweep: real reciprocal pairs, units, and a
# non-unit complex value whose inverse-class partner is in the pool too
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


def naive_norm_sq(lam: GaussianRational) -> Fraction:
    """re^2 + im^2 by chained Fraction products; independent oracle for
    ``GaussianRational.norm_sq``."""
    return lam.re * lam.re + lam.im * lam.im


def naive_gr_inverse(lam: GaussianRational) -> GaussianRational:
    """conj(lam) / |lam|^2 by Fraction divisions; independent oracle for
    ``GaussianRational.inverse``."""
    n = naive_norm_sq(lam)
    return GaussianRational(lam.re / n, -lam.im / n)


def naive_mul(x, y):
    """Entrywise Fraction-loop product; independent oracle for ``*``."""
    z = x._szero
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
    return type(x)(out)


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


def naive_block_reverser(lam: GaussianRational, n: int) -> CMatrix:
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
    return CMatrix(x)


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
    z, o = x._szero, x._sone
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
    return type(x)([row[n:] for row in work])


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


def cofactor_det(c: CMatrix) -> GaussianRational:
    """Naive Laplace expansion; independent check for the fast determinant."""
    n = c.n_rows
    if n == 1:
        return c.entry(0, 0)
    total = None
    for j in range(n):
        piv = c.entry(0, j)
        if piv.is_zero:
            continue
        minor = CMatrix([[c.entry(r, k) for k in range(n) if k != j]
                         for r in range(1, n)])
        term = piv * cofactor_det(minor)
        if j % 2:
            term = -term
        total = term if total is None else total + term
    if total is None:
        return c.entry(0, 0) - c.entry(0, 0)
    return total


def det_bareiss(c: CMatrix) -> GaussianRational:
    """Fraction-free (Bareiss) elimination; independent oracle for ``qdet``."""
    n = c.n_rows
    m = [list(row) for row in c.entries]
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


def single_block_conjugator(m: CMatrix, mu: GaussianRational) -> CMatrix:
    """P with P M P^{-1} = J(mu, n), via the Jordan chain grown from e_n.

    The chain basis is ((M - mu I)^{n-1} e_n, ..., (M - mu I) e_n, e_n);
    if it fails to be a basis the matrix is not similar to a single block
    with cyclic last coordinate and ``NotSingleBlock`` is raised.  Oracle
    for the negated-inverse pair blocks: an intertwiner whose last column
    is e_n is unique.
    """
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
    if p * (m * s) != jordan_block(mu, n).to_cmatrix():
        raise NotSingleBlock("matrix is not similar to a single Jordan block "
                             f"at {mu}")
    return p


def neg_i_closed_form(n: int) -> CMatrix:
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
    return CMatrix(x)


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
