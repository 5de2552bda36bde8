"""Dense exact matrices over rational quaternions and complex rationals.

``QMatrix`` holds quaternion entries, ``CMatrix`` complex-rational entries;
a CMatrix embeds into a QMatrix with zero j,k parts.  Both share one
arithmetic core written for noncommutative entries: row operations multiply
from the left only, which is what keeps elimination valid over the
quaternions with the right-module convention.

The complex embedding sends A = A1 + A2*j to the 2n x 2n complex matrix
[[A1, A2], [-conj(A2), conj(A1)]].  Its determinant, the Study
determinant, is the determinant function on quaternionic matrices; ``qdet``
computes it exactly by quaternion Gaussian elimination on A itself, as the
product of the squared norms of the pivots (H. Aslaksen, "Quaternionic
determinants", Math. Intelligencer 18 (1996)).

Arithmetic works on integers.  A matrix is held in one stored integer
form ``(d, rows)`` (``_ints``): d the lcm of every component denominator
and rows the integer 4-tuples of d*M (complex (re, im, 0, 0); None for
zero).  A matrix the package builds (a product, a sum, a negation, a
transpose, a placement of blocks, a Jordan matrix, a block reverser) is
born in that form (``_Dense._of_ints``, reduced by gcd(d, every component)
so that it equals the form of the same entries); its scalar entries are
made when first read, one Fraction per nonzero component, and kept.  So is
a decoded matrix: ``from_json`` reads each literal as the integers (p, q)
it spells, unreduced ("2/4" stays (2, 4); the gcd reduction makes the form
the same).  A matrix built from entries (``inverse``, the public
constructor) gets its form at construction.  Matrices are immutable, so
the form depends only on the matrix, and equality and hashing compare it;
every product and elimination of a check is still recomputed from it.  One
routine, ``_product``, multiplies two forms in plain ints, as FLINT's
``fmpq_mat_mul`` does.  It first reads each operand's half: a quaternion
matrix is Z + W j with Z, W complex (F. Zhang, Linear Algebra Appl. 251,
1997); Jordan matrices, Omega(lam) and Omega D have W = 0 (they lie in C),
Omega j has Z = 0 (it lies in Cj), and a product of two such matrices lies
in one half again.  When each operand lies in one half, every entry pair is
one product of Gaussian integers, 4 multiplications; any other pair (a
dense third-party matrix, entries mixed between the halves) runs the
16-multiplication Hamilton loop, ``_hamilton``.
Elimination (``qdet`` forward, ``inverse`` Gauss-Jordan) is fraction-free,
after Bareiss (Math. Comp. 22, 1968): a row becomes N(p)*row -
(x*conj(p))*pivot row, divided by the gcd of its entries.  The real factors
put on rows are kept as two ints; a real factor c on a row multiplies the
Study determinant by c^2.

The certificate identities stay in integers too: for Abar = alpha*A and
Gbar = gamma*G, alpha, gamma > 0 the lcm of each one's denominators, A G A =
+-G, G^2 = +-I and qdet(G) = 1 (n x n) hold iff Abar Gbar Abar = +-alpha^2
Gbar, Gbar^2 = +-gamma^2 I and qdet(Gbar) = gamma^(2n): each is its original
multiplied through by the positive real alpha^2 gamma, gamma^2 or gamma^(2n).
The Study determinant is multiplicative and never negative, so a passed
square G^2 = +-I gives qdet(G)^2 = qdet(+-I) = 1 and qdet(G) = 1 with no
elimination; ``conjugator_checks`` eliminates only for a "general"
certificate (no square test) or a failed square.
The residual is formed as A (G A) for the inverse and (A G) A for the
negated inverse, so its first product is G A or A G, a factor of the
split ``decompose.factorize`` returns.
"""
from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import ShapeError, SingularError
from .scalar import (GR_ONE, GR_ZERO, Q_ONE, Q_ZERO, GaussianRational,
                     Quaternion, quaternion_ints)

_F_ZERO = Fraction(0)
_Z4 = (0, 0, 0, 0)
_RE, _IM, _J, _K = map(operator.itemgetter, range(4))


def _hmul(p, q):
    """Hamilton product of two integer 4-tuples."""
    p0, p1, p2, p3 = p
    q0, q1, q2, q3 = q
    return (p0 * q0 - p1 * q1 - p2 * q2 - p3 * q3,
            p0 * q1 + p1 * q0 + p2 * q3 - p3 * q2,
            p0 * q2 - p1 * q3 + p2 * q0 + p3 * q1,
            p0 * q3 + p1 * q2 - p2 * q1 + p3 * q0)


def _conj_norm(p):
    """Conjugate and squared norm of an integer 4-tuple."""
    p0, p1, p2, p3 = p
    return (p0, -p1, -p2, -p3), p0 * p0 + p1 * p1 + p2 * p2 + p3 * p3


def _entry(build, s, den):
    """The scalar s/den for an integer 4-tuple s, one Fraction a component."""
    s0, s1, s2, s3 = s
    return build(Fraction(s0, den) if s0 else _F_ZERO,
                 Fraction(s1, den) if s1 else _F_ZERO,
                 Fraction(s2, den) if s2 else _F_ZERO,
                 Fraction(s3, den) if s3 else _F_ZERO)


def _half(rows):
    """0 if every nonzero entry of rows lies in C, (x, y, 0, 0) = x + yi;
    else 2 if every one lies in Cj, (0, 0, x, y) = (x + yi)j; else None.
    Rows with no nonzero entry give 0."""
    live = [*filter(None, itertools.chain.from_iterable(rows))]
    if not any(map(_J, live)) and not any(map(_K, live)):
        return 0
    if not any(map(_RE, live)) and not any(map(_IM, live)):
        return 2
    return None


def _product(a_rows, b_rows, halves=None):
    """A times B from their integer rows, 4-tuples with None for zero;
    ``halves`` gives the ``_half`` of A and of B if the caller has them.

    If all of A's nonzero entries lie in one complex half, C or Cj, and all
    of B's do too, each entry pair is one Gaussian-integer product, read off
    (z1 + w1 j)(z2 + w2 j) = (z1 z2 - w1 conj(w2)) + (z1 w2 + w1 conj(z2)) j:
    B's half is conjugated when A is Cj, negated when both are Cj, and the
    sum lands in Cj when the halves differ.  Row i of the product is then
    the sum of a_ij times row j of B over the nonzero a_ij and b_jk alone,
    its rows tuples.  Any other pair runs ``_hamilton``.
    """
    left, right = halves or (_half(a_rows), _half(b_rows))
    if left is None or right is None:
        return _hamilton(a_rows, [*zip(*b_rows)])
    sign = -1 if left and right else 1
    flip = -sign if left else sign
    b_live = [[(k, sign * e[right], flip * e[right + 1])
               for k, e in enumerate(row) if e] for row in b_rows]
    width = len(b_rows[0])
    re, im = [0] * (width * len(a_rows)), [0] * (width * len(a_rows))
    base = 0    # row i of the product sums into re and im from base = i*width
    for row in a_rows:
        for j, e in enumerate(row):
            if e is None:
                continue
            x, y = e[left], e[left + 1]
            for k, u, v in b_live[j]:
                k += base
                re[k] += x * u - y * v
                im[k] += x * v + y * u
        base += width
    if left != right:
        flat = [(0, 0, s, t) if s or t else None for s, t in zip(re, im)]
    else:
        flat = [(s, t, 0, 0) if s or t else None for s, t in zip(re, im)]
    return [*zip(*[iter(flat)] * width)]


def _hamilton(rows, cols):
    """Rows times columns, all integer 4-tuples with None for zero: all 16
    multiplications of every Hamilton product."""
    out = []
    for row in rows:
        live = [(j, p) for j, p in enumerate(row) if p is not None]
        out_row = []
        for col in cols:
            s0 = s1 = s2 = s3 = 0
            for j, (p0, p1, p2, p3) in live:
                q = col[j]
                if q is None:
                    continue
                q0, q1, q2, q3 = q
                s0 += p0 * q0 - p1 * q1 - p2 * q2 - p3 * q3
                s1 += p0 * q1 + p1 * q0 + p2 * q3 - p3 * q2
                s2 += p0 * q2 - p1 * q3 + p2 * q0 + p3 * q1
                s3 += p0 * q3 + p1 * q2 - p2 * q1 + p3 * q0
            out_row.append((s0, s1, s2, s3) if s0 or s1 or s2 or s3
                           else None)
        out.append(out_row)
    return out


def _squares_to(d, rows, sign, halves=None):
    """Whether (rows/d)^2 = sign*I, tested as rows*rows == sign*d^2*I."""
    unit = (sign * d * d, 0, 0, 0)
    return all(e == (unit if i == j else None) for i, row
               in enumerate(_product(rows, rows, halves))
               for j, e in enumerate(row))


def _eliminate(d, rows, full):
    """Fraction-free quaternion elimination on the integer rows of d*M.

    If ``full``, each row is extended by d times its row of the identity.
    In column ``col`` the first nonzero entry p at or below row ``col`` is
    swapped up as pivot; every row below it (every other row if ``full``)
    with entry x there becomes N(p)*row - (x*conj(p))*pivot row, a left
    multiple that clears x, divided by the gcd of its components.  Returns
    (rows, num, den), num/den (d^n included) the product of every real factor
    put on a row; rows is None if M is singular.  The given rows are only
    read: every changed row is a new list.
    """
    n, num, den = len(rows), d ** len(rows), 1
    rows = [[*row, *((d, 0, 0, 0) if j == i else None for j in range(n))]
            if full else row for i, row in enumerate(rows)]
    for col in range(n):
        k = next((r for r in range(col, n) if rows[r][col]), None)
        if k is None:
            return None, num, den
        rows[col], rows[k] = rows[k], rows[col]
        top = rows[col]
        pbar, norm = _conj_norm(top[col])
        live = [(j, y) for j, y in enumerate(top) if j > col and y]
        for r in range(n) if full else range(col + 1, n):
            row = rows[r]
            if r == col or not row[col]:
                continue
            f0, f1, f2, f3 = _hmul(row[col], pbar)
            new = [e and (norm * e[0], norm * e[1], norm * e[2], norm * e[3])
                   for e in row]
            new[col] = None
            for j, (y0, y1, y2, y3) in live:
                e0, e1, e2, e3 = new[j] or (0, 0, 0, 0)
                e0 -= f0 * y0 - f1 * y1 - f2 * y2 - f3 * y3
                e1 -= f0 * y1 + f1 * y0 + f2 * y3 - f3 * y2
                e2 -= f0 * y2 - f1 * y3 + f2 * y0 + f3 * y1
                e3 -= f0 * y3 + f1 * y2 - f2 * y1 + f3 * y0
                new[j] = (e0, e1, e2, e3) if e0 or e1 or e2 or e3 else None
            g = math.gcd(*(c for e in new if e for c in e))
            if not g:
                return None, num, den
            if g > 1:
                new = [e and (e[0] // g, e[1] // g, e[2] // g, e[3] // g)
                       for e in new]
            rows[r] = new
            num *= norm
            den *= g
    return rows, num, den


def _study_det(d, rows):
    """Study determinant of M from the integer rows of d*M: one Fraction."""
    rows, num, den = _eliminate(d, rows, full=False)
    if rows is None:
        return Fraction(0)
    pivots = math.prod(_conj_norm(row[k])[1] for k, row in enumerate(rows))
    return Fraction(pivots * den * den, num * num)


class _Dense:
    """Shared implementation; subclasses pin the scalar zero/one and how an
    entry splits into, and is built from, four rational components.  The
    stored form ``_ints`` is written once, by ``__init__`` or ``_of_ints``."""

    __slots__ = ("n_rows", "n_cols", "_entries", "_ints")

    _szero = None
    _sone = None

    def __init__(self, rows: Iterable[Iterable]):
        entries = tuple(tuple(row) for row in rows)
        if not entries or not entries[0]:
            raise ShapeError("matrix must have at least one row and column")
        width = len(entries[0])
        if any(len(row) != width for row in entries):
            raise ShapeError("ragged rows")
        z, parts = self._szero, self._parts
        split = [[None if x is z else parts(x) for x in row]
                 for row in entries]
        d = math.lcm(*(f.denominator for row in split for c in row
                       if c is not None for f in c))
        ints = tuple(
            tuple(None if c is None or not any(c) else
                  tuple(f.numerator * (d // f.denominator) for f in c)
                  for c in row)
            for row in split)
        object.__setattr__(self, "_entries", entries)
        object.__setattr__(self, "_ints", (d, ints))
        object.__setattr__(self, "n_rows", len(entries))
        object.__setattr__(self, "n_cols", width)

    @classmethod
    def _of_ints(cls, d, rows):
        """The matrix rows/d, for an int d > 0 and rows of integer 4-tuples
        (None for zero), born in its stored form: d and every component
        divided by their gcd, rows made tuples.  No entry is made."""
        if not rows or not rows[0]:
            raise ShapeError("matrix must have at least one row and column")
        g = (math.gcd(d, *(c for row in rows for e in row if e for c in e))
             if d > 1 else 1)
        if g > 1:
            d //= g
            rows = [[e and (e[0] // g, e[1] // g, e[2] // g, e[3] // g)
                     for e in row] for row in rows]
        m = object.__new__(cls)
        object.__setattr__(m, "_entries", None)
        object.__setattr__(m, "_ints", (d, tuple(map(tuple, rows))))
        object.__setattr__(m, "n_rows", len(rows))
        object.__setattr__(m, "n_cols", len(rows[0]))
        return m

    @property
    def entries(self):
        """The scalar entries, a tuple of tuples; for a matrix born in its
        integer form, made at first read (one Fraction per nonzero
        component, zeros the shared zero) and kept."""
        if self._entries is None:
            d, rows = self._ints
            z, build = self._szero, self._build
            object.__setattr__(self, "_entries", tuple(
                tuple(_entry(build, s, d) if s else z for s in row)
                for row in rows))
        return self._entries

    def __setattr__(self, name, value):
        raise AttributeError("matrices are immutable")

    # -- construction helpers -------------------------------------------

    @classmethod
    def zeros(cls, n_rows: int, n_cols: int | None = None):
        n_cols = n_rows if n_cols is None else n_cols
        return cls([[cls._szero] * n_cols for _ in range(n_rows)])

    @classmethod
    def identity(cls, n: int):
        return cls.scalar(n, cls._sone)

    @classmethod
    def diagonal(cls, values: Sequence):
        return cls([[v if i == j else cls._szero for j in range(len(values))]
                    for i, v in enumerate(values)])

    @classmethod
    def scalar(cls, n: int, value):
        return cls.diagonal([value] * n)

    # -- structure ------------------------------------------------------

    @property
    def is_square(self) -> bool:
        return self.n_rows == self.n_cols

    def entry(self, i: int, j: int):
        return self.entries[i][j]

    def transpose(self):
        d, rows = self._ints
        return self._of_ints(d, [*zip(*rows)])

    def __eq__(self, other) -> bool:
        return type(self) is type(other) and self._ints == other._ints

    def __hash__(self):
        return hash((type(self).__name__, self._ints))

    @property
    def is_zero(self) -> bool:
        return not any(map(any, self._ints[1]))

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other):
        return self._sum(other, 1)

    def __sub__(self, other):
        return self._sum(other, -1)

    def _sum(self, other, sign):
        """self + sign*other: both forms brought to the lcm of their d, a
        zero sum stored as None."""
        self._expect_same_shape(other)
        (alpha, a_rows), (beta, b_rows) = self._ints, other._ints
        d = math.lcm(alpha, beta)
        fa, fb = d // alpha, sign * (d // beta)
        out = []
        for ra, rb in zip(a_rows, b_rows):
            row = []
            for x, y in zip(ra, rb):
                s = tuple(fa * p + fb * q for p, q in
                          zip(x or _Z4, y or _Z4))
                row.append(s if any(s) else None)
            out.append(row)
        return self._of_ints(d, out)

    def __neg__(self):
        d, rows = self._ints
        return self._of_ints(d, [[e and (-e[0], -e[1], -e[2], -e[3])
                                  for e in row] for row in rows])

    def __mul__(self, other):
        if type(self) is not type(other):
            return NotImplemented
        if self.n_cols != other.n_rows:
            raise ShapeError(
                f"cannot multiply {self.n_rows}x{self.n_cols} "
                f"by {other.n_rows}x{other.n_cols}")
        alpha, a_rows = self._ints
        beta, b_rows = other._ints
        return self._of_ints(alpha * beta, _product(a_rows, b_rows))

    def inverse(self):
        """Exact inverse by fraction-free Gauss-Jordan elimination.

        Runs ``_eliminate`` on the integer rows of [d*A | d*I], d the lcm of
        A's denominators.  The left half ends diagonal, p_r in row r, and
        the right half R satisfies R*A = diag(p_r), so row r of the inverse
        is conj(p_r)*R_r / |p_r|^2: one Fraction per nonzero component.
        Raises ``SingularError`` exactly when A is singular.
        """
        if not self.is_square:
            raise ShapeError("only square matrices have inverses")
        rows, _, _ = _eliminate(*self._ints, full=True)
        if rows is None:
            raise SingularError("matrix is singular")
        z, build, n = self._szero, self._build, self.n_rows
        out = []
        for r, row in enumerate(rows):
            pbar, norm = _conj_norm(row[r])
            out.append([_entry(build, _hmul(pbar, e), norm) if e else z
                        for e in row[n:]])
        return type(self)(out)

    def _expect_same_shape(self, other):
        if type(self) is not type(other):
            raise ShapeError(f"mixed matrix types {type(self).__name__} "
                             f"and {type(other).__name__}")
        if (self.n_rows, self.n_cols) != (other.n_rows, other.n_cols):
            raise ShapeError("shape mismatch")

    def __str__(self) -> str:
        rows = [" ".join(str(x) for x in row) for row in self.entries]
        width = max(len(r) for r in rows)
        return "\n".join(r.ljust(width) for r in rows)


class CMatrix(_Dense):
    """Dense matrix over exact complex rationals."""

    _szero = GR_ZERO
    _sone = GR_ONE

    @staticmethod
    def _parts(x):
        return (x.re, x.im, _F_ZERO, _F_ZERO)

    @staticmethod
    def _build(re, im, _j, _k):
        return GaussianRational(re, im)

    def conjugate(self) -> "CMatrix":
        d, rows = self._ints
        return self._of_ints(d, [[e and (e[0], -e[1], 0, 0) for e in row]
                                 for row in rows])

    def to_quaternion(self) -> "QMatrix":
        return QMatrix._of_ints(*self._ints)


class QMatrix(_Dense):
    """Dense matrix over exact quaternions."""

    _szero = Q_ZERO
    _sone = Q_ONE
    _build = Quaternion

    @staticmethod
    def _parts(x):
        return (x.a, x.b, x.c, x.d)

    def to_cmatrix(self) -> CMatrix:
        d, rows = self._ints
        for i, row in enumerate(rows):
            for j, e in enumerate(row):
                if e and (e[2] or e[3]):
                    raise ValueError(
                        f"{self.entries[i][j]} has nonzero j or k part")
        return CMatrix._of_ints(d, rows)

    def to_json(self) -> dict:
        return {"n": self.n_rows, "m": self.n_cols,
                "entries": [[x.to_json() for x in row]
                            for row in self.entries]}

    @classmethod
    def from_json(cls, obj) -> "QMatrix":
        if (not isinstance(obj, dict)
                or not {"n", "m", "entries"} <= set(obj)):
            raise ValueError("not a matrix object")
        entries = obj["entries"]
        if (not isinstance(entries, list)
                or not all(isinstance(row, list) for row in entries)):
            raise ValueError("matrix entries must be a list of rows")
        if not all(isinstance(obj[k], int) and not isinstance(obj[k], bool)
                   for k in ("n", "m")):
            raise ValueError("matrix dimensions must be integers")
        parsed = [[quaternion_ints(x) for x in row] for row in entries]
        if not parsed or not parsed[0]:
            raise ShapeError("matrix must have at least one row and column")
        if any(len(row) != len(parsed[0]) for row in parsed):
            raise ShapeError("ragged rows")
        d = math.lcm(*{q for row in parsed for e in row for p, q in e if p})
        mat = cls._of_ints(d, [tuple(_over(e, d) for e in row)
                               for row in parsed])
        if (mat.n_rows, mat.n_cols) != (obj["n"], obj["m"]):
            raise ValueError("matrix dimensions disagree with entries")
        return mat


def _over(comps, d):
    """The integer 4-tuple of d times the quaternion of four (p, q) pairs,
    each q dividing d or p = 0; None for zero."""
    (p0, q0), (p1, q1), (p2, q2), (p3, q3) = comps
    if p0 or p1 or p2 or p3:
        return p0 * (d // q0), p1 * (d // q1), p2 * (d // q2), p3 * (d // q3)
    return None


def block_diagonal(blocks: Sequence[QMatrix]) -> QMatrix:
    """Direct sum of square blocks."""
    if not all(b.is_square for b in blocks):
        raise ShapeError("direct sum needs square blocks")
    offs = list(itertools.accumulate((b.n_rows for b in blocks), initial=0))
    return place_blocks(offs[-1], [(o, o, b) for o, b in zip(offs, blocks)])


def place_blocks(size: int,
                 placements: Iterable[tuple[int, int, QMatrix]]) -> QMatrix:
    """Write blocks into an otherwise zero size x size matrix, each block's
    integer form brought to the lcm of theirs."""
    placements = [(ri, ci, *block._ints) for ri, ci, block in placements]
    d = math.lcm(*(den for _, _, den, _ in placements))
    grid = [[None] * size for _ in range(size)]
    for ri, ci, den, rows in placements:
        f = d // den
        for i, row in enumerate(rows):
            for j, e in enumerate(row):
                grid[ri + i][ci + j] = e and (f * e[0], f * e[1], f * e[2],
                                              f * e[3])
    return QMatrix._of_ints(d, grid)


def phi_embed(a: QMatrix) -> CMatrix:
    """Complex embedding: A = A1 + A2 j maps to [[A1, A2], [-conj A2, conj A1]]."""
    parts = [[x.complex_parts() for x in row] for row in a.entries]
    top = [[z1 for z1, _ in row] + [z2 for _, z2 in row] for row in parts]
    bottom = [[-z2.conjugate() for _, z2 in row]
              + [z1.conjugate() for z1, _ in row] for row in parts]
    return CMatrix(top + bottom)


def qdet(a: QMatrix) -> Fraction:
    """Study determinant of a quaternionic matrix: det of its complex embedding.

    Runs ``_eliminate`` forward on the integer rows of A.  Row swaps and
    adding left multiples of rows leave the Study determinant unchanged and
    a real factor c on a row multiplies it by c^2, so it is the product of
    |pivot|^2 over the triangular result divided by the square of every real
    factor (the denominator lcm, pivot norms, less row gcds): one Fraction.
    Always an exact nonnegative rational; zero exactly when A is singular.
    """
    if not a.is_square:
        raise ShapeError("determinant needs a square matrix")
    return _study_det(*a._ints)


def is_involution(g: QMatrix) -> bool:
    return g.is_square and _squares_to(*g._ints, 1)


def is_skew_involution(g: QMatrix) -> bool:
    return g.is_square and _squares_to(*g._ints, -1)


def conjugator_checks(g: QMatrix, a: QMatrix, residual_sign: int,
                      square_sign: int):
    """(A g A == residual_sign*g, g^2 == square_sign*I, qdet(g) == 1) for
    square g and A of one size, each tested in integers as the module
    docstring says; square_sign 0 skips the square test (True).  When the
    square test ran and passed, qdet(g) = 1 is read off it; elimination
    runs only for square_sign 0 or a failed square.  Returned with the
    integer form (d, rows) of the first product of the residual: g A for
    residual_sign 1, tested as A (g A), and A g for -1, tested as (A g) A."""
    if not (a.is_square and g.is_square and a.n_rows == g.n_rows):
        raise ShapeError("matrix and certificate sizes do not match")
    alpha, a_rows = a._ints
    gamma, g_rows = g._ints
    ha, hg = _half(a_rows), _half(g_rows)
    # a product of halves h1 and h2 lies in h1 ^ h2: C C, Cj Cj in C
    hf = None if ha is None or hg is None else ha ^ hg
    if residual_sign > 0:
        first = _product(g_rows, a_rows, (hg, ha))
        aga = _product(a_rows, first, (ha, hf))
    else:
        first = _product(a_rows, g_rows, (ha, hg))
        aga = _product(first, a_rows, (hf, ha))
    f = residual_sign * alpha * alpha
    residual = all(e == (x and (f * x[0], f * x[1], f * x[2], f * x[3]))
                   for out_row, g_row in zip(aga, g_rows)
                   for e, x in zip(out_row, g_row))
    square = not square_sign or _squares_to(gamma, g_rows, square_sign,
                                            (hg, hg))
    # qdet is multiplicative and >= 0: g^2 = +-I gives qdet(g)^2 = 1
    det_one = bool(square_sign) and square or _study_det(gamma, g_rows) == 1
    return (residual, square, det_one), (alpha * gamma, first)
