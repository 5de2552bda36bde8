"""Dense exact matrices over the rational quaternions: one type, ``QMatrix``.

A complex matrix is a QMatrix whose entries lie in C (zero j and k parts),
and elimination on such entries stays in C.  The complex embedding sends
A = A1 + A2*j to [[A1, A2], [-conj(A2), conj(A1)]]; its determinant, the
Study determinant, is the determinant on quaternionic matrices, which
``qdet`` computes by elimination on A itself (H. Aslaksen, Math.
Intelligencer 18 (1996)).  A matrix holds only its integer form ``_ints``,
as the certificate checker ``check`` defines it, and products, ``qdet`` and
``inverse`` run ``check``'s integer kernels on it.  Matrices are built in
that form (``_of_ints``), save ``QMatrix(rows)``, ``diagonal`` and ``scalar``,
which take the caller's quaternions; entries are made from the form on each
read.  Matrices are immutable; equality and hashing compare it.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable, Sequence

from .check import (_cleared, _conj_norm, _eliminate, _form, _hmul, _product,
                    _read_matrix, _squares_to, _study_det)
from .errors import QuatrevError, ShapeError, SingularError
from .scalar import Q_ZERO, Quaternion

_F_ZERO = Fraction(0)
_Z4 = (0, 0, 0, 0)


def _entry(s, den):
    """The quaternion s/den for an integer 4-tuple s, one Fraction a
    component."""
    s0, s1, s2, s3 = s
    return Quaternion(Fraction(s0, den) if s0 else _F_ZERO,
                      Fraction(s1, den) if s1 else _F_ZERO,
                      Fraction(s2, den) if s2 else _F_ZERO,
                      Fraction(s3, den) if s3 else _F_ZERO)


class QMatrix:
    """Dense matrix over exact quaternions; a complex matrix is one whose
    entries lie in C, (x, y, 0, 0) = x + yi.  The stored form ``_ints`` is
    written once, by ``_store``."""

    __slots__ = ("n_rows", "n_cols", "_ints")

    def __init__(self, rows: Iterable[Iterable[Quaternion]]):
        self._store(_form(*_cleared([
            [None if x is Q_ZERO else [(f.numerator, f.denominator)
                                       for f in (x.a, x.b, x.c, x.d)]
             for x in row] for row in rows])))

    def _store(self, form):
        """Write a form ``check._form`` made, and the shape it gives."""
        object.__setattr__(self, "_ints", form)
        object.__setattr__(self, "n_rows", len(form[1]))
        object.__setattr__(self, "n_cols", len(form[1][0]))

    @classmethod
    def _of_form(cls, form):
        """The matrix of a form ``check._form`` made; no entry is made."""
        m = object.__new__(cls)
        m._store(form)
        return m

    @classmethod
    def _of_ints(cls, d, rows):
        """The matrix rows/d, born in its stored form (``check._form``)."""
        return cls._of_form(_form(d, rows))

    @property
    def entries(self):
        """The quaternion entries, a tuple of tuples, made from the stored
        form on each read: one Fraction per nonzero component, zeros the
        shared ``Q_ZERO``."""
        d, rows = self._ints
        return tuple(tuple(_entry(s, d) if s else Q_ZERO for s in row)
                     for row in rows)

    def __setattr__(self, name, value):
        raise AttributeError("matrices are immutable")

    def __delattr__(self, name):
        raise AttributeError("matrices are immutable")

    def __reduce__(self):
        # copy and pickle rebuild from the stored form, past __setattr__
        return type(self)._of_form, (self._ints,)

    # -- construction helpers -------------------------------------------

    @classmethod
    def zeros(cls, n_rows: int, n_cols: int | None = None):
        n_cols = n_rows if n_cols is None else n_cols
        return cls._of_ints(1, [[None] * n_cols for _ in range(n_rows)])

    @classmethod
    def identity(cls, n: int):
        return cls._of_ints(1, [[(1, 0, 0, 0) if i == j else None
                                 for j in range(n)] for i in range(n)])

    @classmethod
    def diagonal(cls, values: Sequence[Quaternion]):
        return cls([[v if i == j else Q_ZERO for j in range(len(values))]
                    for i, v in enumerate(values)])

    @classmethod
    def scalar(cls, n: int, value: Quaternion):
        return cls.diagonal([value] * n)

    # -- structure ------------------------------------------------------

    @property
    def is_square(self) -> bool:
        return self.n_rows == self.n_cols

    def entry(self, i: int, j: int) -> Quaternion:
        d, rows = self._ints
        s = rows[i][j]
        return _entry(s, d) if s else Q_ZERO

    def transpose(self):
        d, rows = self._ints
        return self._of_ints(d, [*zip(*rows)])

    def __eq__(self, other) -> bool:
        return isinstance(other, QMatrix) and self._ints == other._ints

    def __hash__(self):
        return hash(self._ints)

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
        if not isinstance(other, QMatrix):
            return NotImplemented
        if (self.n_rows, self.n_cols) != (other.n_rows, other.n_cols):
            raise ShapeError("shape mismatch")
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
        # negation keeps d and the gcd, so the form needs no reduction
        d, rows = self._ints
        return self._of_form((d, tuple(map(tuple, [
            [e and (-e[0], -e[1], -e[2], -e[3]) for e in row]
            for row in rows]))))

    def __mul__(self, other):
        if not isinstance(other, QMatrix):
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
        is conj(p_r)*R_r / |p_r|^2.  The inverse is born in its integer form
        over the lcm of the |p_r|^2; no Fraction is made.
        Raises ``SingularError`` exactly when A is singular.
        """
        if not self.is_square:
            raise ShapeError("only square matrices have inverses")
        rows, _, _ = _eliminate(*self._ints, full=True)
        if rows is None:
            raise SingularError("matrix is singular")
        n = self.n_rows
        pivots = [_conj_norm(row[r]) for r, row in enumerate(rows)]
        d = math.lcm(*(norm for _, norm in pivots))
        return self._of_ints(d, [
            [e and tuple(d // norm * c for c in _hmul(pbar, e))
             for e in row[n:]] for row, (pbar, norm) in zip(rows, pivots)])

    def __str__(self) -> str:
        rows = [" ".join(str(x) for x in row) for row in self.entries]
        width = max(len(r) for r in rows)
        return "\n".join(r.ljust(width) for r in rows)

    def to_json(self) -> dict:
        """The wire form; an entry too long for Python's int-to-str limit
        is a ``QuatrevError``, so the CLI exits 2 with one line."""
        try:
            entries = [[x.to_json() for x in row] for row in self.entries]
        except ValueError as exc:
            raise QuatrevError("a matrix entry has too many digits to "
                               "write as text") from exc
        return {"n": self.n_rows, "m": self.n_cols, "entries": entries}

    @classmethod
    def from_json(cls, obj) -> "QMatrix":
        """The matrix of its wire form, read by ``check._read_matrix``."""
        return cls._of_form(_read_matrix(obj))


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


def phi_embed(a: QMatrix) -> QMatrix:
    """Complex embedding of A = A1 + A2 j: [[A1, A2], [-conj A2, conj A1]],
    a matrix whose entries lie in C, written from A's integer form, where
    an entry (w, x, y, z) is w + x i + (y + z i) j."""
    d, rows = a._ints
    rows = [[e or _Z4 for e in row] for row in rows]
    top = [[(w, x, 0, 0) for w, x, _, _ in row]
           + [(y, z, 0, 0) for _, _, y, z in row] for row in rows]
    bottom = [[(-y, z, 0, 0) for _, _, y, z in row]
              + [(w, -x, 0, 0) for w, x, _, _ in row] for row in rows]
    return QMatrix._of_ints(d, [[e if any(e) else None for e in row]
                                for row in top + bottom])


def qdet(a: QMatrix) -> Fraction:
    """Study determinant of a quaternionic matrix, the determinant of its
    complex embedding (``check._study_det``): an exact nonnegative rational,
    zero exactly when A is singular."""
    if not a.is_square:
        raise ShapeError("determinant needs a square matrix")
    return _study_det(*a._ints)


def is_involution(g: QMatrix) -> bool:
    return g.is_square and _squares_to(*g._ints, 1)


def is_skew_involution(g: QMatrix) -> bool:
    return g.is_square and _squares_to(*g._ints, -1)
