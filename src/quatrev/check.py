"""The certificate checker: all that ``quatrev verify`` runs outside the
command line, written with the standard library and ``errors`` alone.

A certificate says that g carries A to its inverse (target "inverse",
tested as A g A = g; for invertible A that is g A g^{-1} = A^{-1}) or to
its negated inverse ("neg-inverse", A g A = -g), that g is an involution
(g^2 = I), a skew-involution (g^2 = -I) or neither ("general", untested),
and that qdet(g) = 1.  ``check`` recomputes all three; ``verify`` runs it
on two JSON documents and never reads the "checks" a certificate claims.
Each number there matches one rational pattern whole, and a matrix M is
read as its integer form (d, rows): d the lcm of every denominator and
rows the integer 4-tuples of d*M (None for zero), reduced by gcd.

The identities stay in integers: for Abar = alpha*A and Gbar = gamma*G,
alpha, gamma > 0, A G A = +-G, G^2 = +-I and qdet(G) = 1 (n x n) hold iff
Abar Gbar Abar = +-alpha^2 Gbar, Gbar^2 = +-gamma^2 I and qdet(Gbar) =
gamma^(2n), each its original multiplied through by a positive real.  The
Study determinant is multiplicative and never negative, so a passed square
G^2 = +-I gives qdet(G)^2 = qdet(+-I) = 1 and qdet(G) = 1 with no
elimination, which runs only for "general" or a failed square.  The
residual is formed as A (G A) or (A G) A, so its first product, G A or
A G, is a factor of the split ``decompose.factorize`` reads.  Products
(``_product``, in plain ints as FLINT's ``fmpq_mat_mul``) and elimination
(``_eliminate``, fraction-free) never leave the integers either.
"""
from __future__ import annotations

import itertools
import math
import operator
import re as _re
from dataclasses import asdict, dataclass
from fractions import Fraction

from .errors import DomainError, ShapeError, quoted

_INTEGER_RE = _re.compile(r"[+-]?[0-9]+")
_RATIONAL_RE = _re.compile(rf"({_INTEGER_RE.pattern})(?:/([1-9][0-9]*))?")

TARGET_INVERSE = "inverse"
TARGET_NEG_INVERSE = "neg-inverse"
FLAVOR_INVOLUTION = "involution"
FLAVOR_SKEW = "skew-involution"
FLAVOR_GENERAL = "general"

# target -> r in A g A = r g; flavor -> s in g^2 = s I (0: untested)
_RESIDUAL_SIGN = {TARGET_INVERSE: 1, TARGET_NEG_INVERSE: -1}
_SQUARE_SIGN = {FLAVOR_INVOLUTION: 1, FLAVOR_SKEW: -1, FLAVOR_GENERAL: 0}

TARGETS = tuple(_RESIDUAL_SIGN)
FLAVORS = tuple(_SQUARE_SIGN)

_RE, _IM, _J, _K = map(operator.itemgetter, range(4))


def rational_ints(text: str) -> tuple[int, int]:
    """The integers (p, q), q > 0, of the wire form "p/q" or "p" (q = 1),
    as written: not reduced.  ASCII digits only, nothing around them."""
    m = _RATIONAL_RE.fullmatch(text) if isinstance(text, str) else None
    if m is None:
        raise ValueError(f"not a rational literal: {quoted(text)}")
    p, q = m.groups()
    return int(p), int(q) if q else 1


def quaternion_ints(obj) -> tuple[tuple[int, int], ...]:
    """The four (p, q) pairs of a quaternion's wire form, a list of four
    rational literals, each as ``rational_ints`` reads it."""
    if not isinstance(obj, (list, tuple)) or len(obj) != 4:
        raise ValueError(f"not a quaternion array: {quoted(obj)}")
    return tuple(map(rational_ints, obj))


def _cleared(rows):
    """(d, integer rows) for rows whose entries are None (zero) or four
    (p, q) pairs, q > 0: d the lcm of every q with p nonzero, each entry as
    ``_over`` writes it.  Ragged rows are refused."""
    if any(len(row) != len(rows[0]) for row in rows):
        raise ShapeError("ragged rows")
    d = math.lcm(*{q for row in rows for e in row if e for p, q in e if p})
    return d, [[e and _over(e, d) for e in row] for row in rows]


def _over(comps, d):
    """The integer 4-tuple of d times the quaternion of four (p, q) pairs,
    each q dividing d or p = 0; None for zero."""
    (p0, q0), (p1, q1), (p2, q2), (p3, q3) = comps
    if p0 or p1 or p2 or p3:
        return p0 * (d // q0), p1 * (d // q1), p2 * (d // q2), p3 * (d // q3)
    return None


def _form(d, rows):
    """The integer form of rows/d, for an int d > 0 and rows of integer
    4-tuples (None for zero), reduced by gcd; an empty matrix is refused."""
    if not rows or not rows[0]:
        raise ShapeError("matrix must have at least one row and column")
    g = (math.gcd(d, *(c for row in rows for e in row if e for c in e))
         if d > 1 else 1)
    if g > 1:
        d //= g
        rows = [[e and (e[0] // g, e[1] // g, e[2] // g, e[3] // g)
                 for e in row] for row in rows]
    return d, tuple(map(tuple, rows))


def _read_matrix(obj):
    """The integer form of a matrix's wire form {"n", "m", "entries"}."""
    if not isinstance(obj, dict) or not {"n", "m", "entries"} <= set(obj):
        raise ValueError("not a matrix object")
    entries = obj["entries"]
    if (not isinstance(entries, list)
            or not all(isinstance(row, list) for row in entries)):
        raise ValueError("matrix entries must be a list of rows")
    if not all(isinstance(obj[k], int) and not isinstance(obj[k], bool)
               for k in ("n", "m")):
        raise ValueError("matrix dimensions must be integers")
    d, rows = _form(*_cleared(
        [[quaternion_ints(x) for x in row] for row in entries]))
    if (len(rows), len(rows[0])) != (obj["n"], obj["m"]):
        raise ValueError("matrix dimensions disagree with entries")
    return d, rows


def _read_certificate(obj):
    """(target, flavor, integer form of g) of a certificate's wire form; its
    "checks", if present, must be an object, and are not read."""
    if not isinstance(obj, dict) or not {"target", "flavor", "g"} <= set(obj):
        raise ValueError("not a certificate object")
    if obj["target"] not in TARGETS:
        raise ValueError(f"unknown certificate target {quoted(obj['target'])}")
    if obj["flavor"] not in FLAVORS:
        raise ValueError(f"unknown certificate flavor {quoted(obj['flavor'])}")
    if not isinstance(obj.get("checks", {}), dict):
        raise ValueError("certificate checks must be an object")
    return obj["target"], obj["flavor"], _read_matrix(obj["g"])


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

    If all of A's nonzero entries lie in one half of H = C + Cj (F. Zhang,
    Linear Algebra Appl. 251, 1997), and all of B's do too, each entry pair
    is one Gaussian-integer product, read off
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
    """Fraction-free quaternion elimination on the integer rows of d*M,
    after Bareiss (Math. Comp. 22, 1968).

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
    """Study determinant of M from the integer rows of d*M, one Fraction:
    the product of |pivot|^2 over the square of every real factor put on a
    row, since a real factor c multiplies it by c^2 and nothing else does."""
    rows, num, den = _eliminate(d, rows, full=False)
    if rows is None:
        return Fraction(0)
    pivots = math.prod(_conj_norm(row[k])[1] for k, row in enumerate(rows))
    return Fraction(pivots * den * den, num * num)


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


def check(g, a, target: str, flavor: str):
    """The ``VerifyReport`` of the certificate (target, flavor, g) against A,
    from their integer forms g and a, and the integer form of the residual's
    first product: g A for the inverse, A g for the negated inverse."""
    if target not in _RESIDUAL_SIGN:
        raise DomainError(f"unknown target {quoted(target)}")
    if flavor not in _SQUARE_SIGN:
        raise DomainError(f"unknown flavor {quoted(flavor)}")
    (gamma, g_rows), (alpha, a_rows) = g, a
    if not len(a_rows) == len(a_rows[0]) == len(g_rows) == len(g_rows[0]):
        raise ShapeError("matrix and certificate sizes do not match")
    residual_sign, square_sign = _RESIDUAL_SIGN[target], _SQUARE_SIGN[flavor]
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
    det_one = bool(square_sign) and square or _study_det(gamma, g_rows) == 1
    return VerifyReport(residual, square, det_one), (alpha * gamma, first)


def verify(matrix_obj, cert_obj) -> VerifyReport:
    """``check`` of a certificate against a matrix, both decoded JSON; a
    malformed document raises ValueError (ShapeError for its rows)."""
    a = _read_matrix(matrix_obj)
    target, flavor, g = _read_certificate(cert_obj)
    return check(g, a, target, flavor)[0]
