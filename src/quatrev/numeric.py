"""Float front-end: recover an exact Jordan spec from a numeric matrix.

A float quaternionic matrix is stored as an (n, n, 4) array of components.
Its complex embedding is a 2n x 2n complex matrix whose spectrum is closed
under conjugation; eigenvalues are clustered into classes (conjugates
folded onto the closed upper half plane, multiplicities halved), the Weyr
structure of each class is read off rank profiles of powers, and the class
representatives are snapped to exact rationals when close enough to a
candidate or to a small-denominator fraction.  Classification of a spec
containing unsnapped values is advisory only.

``jordan_spec_numeric`` computes each float quantity once per call: the
embedding Phi(A) and its eigenvalues, the singular values of Phi(A) (the
singularity test; the largest is the 2-norm every class compares against),
the gaps between neighbours of the sorted spectrum (a clustering radius
cuts at the gaps beyond it), the mean of each distinct cluster, and the
complex value of each candidate.  Nothing is kept between calls.  A class
never snaps to 0: the matrix passed the singularity test, so 0 is not an
eigenvalue, and a class whose rational approximation is 0 as well is a
``SingularError``.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .canonical import JordanSpec
from .errors import PairingError, RankProfileError, SingularError, clipped
from .matrix import QMatrix
from .partitions import Partition, WeyrStructure
from .scalar import GaussianRational, gr
from . import classify as _classify


@dataclass(frozen=True)
class NumericConfig:
    """Tolerances for the numeric pipeline.

    rank_tol is a relative singular-value threshold (fraction of the largest
    singular value); eig_cluster_tol groups nearby eigenvalues into one
    class; unit_tol controls snapping and unit-circle tests.
    """

    rank_tol: float = 1e-9
    eig_cluster_tol: float = 1e-8
    unit_tol: float = 1e-8


def qmatrix_to_float(a: QMatrix) -> np.ndarray:
    """Exact matrix to an (n, n, 4) float array of components, each c / d
    for c in the integer form over d: rounded as float(Fraction(c, d))."""
    d, rows = a._ints
    return np.array([[[c / d for c in e] if e else [0.0] * 4 for e in row]
                     for row in rows], dtype=float)


def float_matrix_to_json(f: np.ndarray) -> dict:
    return {"n": int(f.shape[0]),
            "entries": [[[float(c) for c in f[i, j]]
                         for j in range(f.shape[1])]
                        for i in range(f.shape[0])]}


def float_matrix_from_json(obj) -> np.ndarray:
    if not isinstance(obj, dict) or "entries" not in obj:
        raise ValueError("not a float matrix object")
    if "n" in obj and type(obj["n"]) is not int:  # a bool is not a size
        raise ValueError("float matrix dimension must be an integer")
    try:
        arr = np.asarray(obj["entries"], dtype=float)
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"float matrix fields must be numbers: {exc}") from exc
    except ValueError as exc:  # numpy's message quotes the whole string
        raise ValueError(clipped(str(exc))) from exc
    if arr.ndim != 3 or arr.shape[0] != arr.shape[1] or arr.shape[2] != 4:
        raise ValueError("float matrix entries must form an n x n x 4 array")
    # numpy reads "1_0", " 2 " and true as floats too
    kinds = {type(x) for row in obj["entries"] for e in row for x in e}
    if not kinds <= {int, float}:
        raise ValueError("float matrix entries must be JSON numbers")
    if not np.isfinite(arr).all():
        raise ValueError("float matrix entries must be finite")
    if obj.get("n", arr.shape[0]) != arr.shape[0]:
        raise ValueError("float matrix dimension disagrees with entries")
    return arr


def phi_embed_float(f: np.ndarray) -> np.ndarray:
    """Complex embedding of a float quaternionic matrix."""
    a1 = f[:, :, 0] + 1j * f[:, :, 1]
    a2 = f[:, :, 2] + 1j * f[:, :, 3]
    top = np.hstack([a1, a2])
    bottom = np.hstack([-np.conj(a2), np.conj(a1)])
    return np.vstack([top, bottom])


def _folded_eigenvalues(z: np.ndarray) -> np.ndarray:
    """Spectrum of the embedding z folded onto im >= 0, sorted by (re, im)."""
    vals = np.linalg.eigvals(z)
    folded = np.where(vals.imag < 0, np.conj(vals), vals)
    return folded[np.lexsort((folded.imag, folded.real))]


def _radius_ladder(folded: np.ndarray, cfg: NumericConfig) -> list[float]:
    """Doubling clustering radii from eig_cluster_tol up to a safety cap.

    A Jordan block of size m scatters its float eigenvalues over a disc of
    radius about eps**(1/m), so no fixed radius suits every input; the
    pipeline widens until the spectrum becomes structurally consistent and
    reports failure only when the cap is passed.
    """
    scale = 1.0
    if folded.size:
        scale = max(scale, float(np.max(np.abs(folded))))
    cap = 0.05 * scale
    r = cfg.eig_cluster_tol
    if r <= 0:
        r = np.finfo(float).eps * scale
    ladder = [r]
    while ladder[-1] <= cap:
        ladder.append(ladder[-1] * 2)
    return ladder


def _persistent_classes(folded: np.ndarray, cfg: NumericConfig
                        ) -> list[list[tuple[complex, int]]]:
    """Candidate class lists, most persistent first.

    Walks the radius ladder, records each distinct even-parity clustering
    together with how many consecutive doublings it survives, and orders
    the candidates by that lifetime (then by coarseness).  A cluster of
    floats scattered by a Jordan block merges over a tiny range of radii
    but the merged form survives until the radius reaches the distance to
    the next true class, so the long-lived reading is the structural one.

    At a radius, neighbours of the sorted spectrum join a cluster when the
    gap between them is at most the radius, so the clusters are the runs
    between the gaps beyond it.  Every cluster must have even size (the
    embedding repeats each class twice, as a conjugate pair or a doubled
    real value); a cluster whose mean sits within the radius of the real
    axis is a real class, so its im is dropped.  The gaps are taken once
    and each run's mean once per call.
    """
    gaps = [abs(v - complex(prev)) for prev, v in zip(folded, folded[1:])]
    means: dict[tuple[int, int], complex] = {}
    runs: list[dict] = []
    for radius in _radius_ladder(folded, cfg):
        # "not gap <= radius" cuts at a NaN gap too
        ends = [k + 1 for k, gap in enumerate(gaps) if not gap <= radius]
        ends.append(len(folded))
        spans = [(start, end) for start, end in zip([0, *ends], ends)
                 if start < end]
        if any((end - start) % 2 for start, end in spans):
            continue
        classes = []
        for span in spans:
            if span not in means:
                means[span] = complex(np.mean(folded[span[0]:span[1]]))
            rep = means[span]
            if abs(rep.imag) <= radius:
                rep = complex(rep.real, 0.0)
            classes.append((rep, (span[1] - span[0]) // 2))
        signature = tuple(classes)
        if runs and runs[-1]["signature"] == signature:
            runs[-1]["octaves"] += 1
        else:
            runs.append({"signature": signature, "octaves": 1,
                         "classes": classes})
    runs.sort(key=lambda r: (-r["octaves"], len(r["classes"])))
    return [r["classes"] for r in runs]


_NO_PAIRING = ("no clustering radius below the cap gives even conjugate "
               "pairs; the spectrum does not look quaternionic")


def phi_eigenvalues(f: np.ndarray,
                    cfg: NumericConfig = NumericConfig()
                    ) -> list[tuple[complex, int]]:
    """Eigenvalue class representatives with quaternionic multiplicities.

    The embedding's spectrum pairs into {z, conj z}; values are folded onto
    im >= 0 and clustered at the most persistent radius on a doubling
    ladder that starts at eig_cluster_tol.  No even-parity clustering below
    the cap means the pairing failed.
    """
    candidates = _persistent_classes(
        _folded_eigenvalues(phi_embed_float(f)), cfg)
    if not candidates:
        raise PairingError(_NO_PAIRING)
    return candidates[0]


def weyr_structure_numeric(f: np.ndarray, lam: complex,
                           cfg: NumericConfig = NumericConfig()
                           ) -> WeyrStructure:
    """Weyr structure of the class of lam from rank profiles of powers.

    Level sizes are successive rank drops of (Phi - lam I)^k, halved when
    lam is real because the embedding doubles real classes.
    """
    z = phi_embed_float(f)
    return _weyr_structure(z, np.linalg.norm(z, 2), lam, cfg)


def _weyr_structure(z: np.ndarray, z_norm: float, lam: complex,
                    cfg: NumericConfig) -> WeyrStructure:
    """``weyr_structure_numeric`` on the embedding z and its 2-norm."""
    two_n = z.shape[0]
    m = z - lam * np.eye(two_n)
    scale = np.linalg.svd(m, compute_uv=False)[0]  # the 2-norm of m
    is_real = lam.imag == 0
    if scale <= cfg.rank_tol * max(1.0, z_norm):
        # the shift annihilates the whole matrix: scalar class
        sizes = [two_n]
    else:
        m = m / scale

        def rank_of(mat):
            svals = np.linalg.svd(mat, compute_uv=False)
            # powers of a nilpotent part eventually collapse below working
            # precision; a relative threshold alone would then count noise
            if svals[0] <= cfg.rank_tol:
                return 0
            return int(np.sum(svals > cfg.rank_tol * svals[0]))

        ranks = [two_n]
        power = np.eye(two_n, dtype=complex)
        sizes = []
        for _ in range(two_n):
            power = power @ m
            ranks.append(rank_of(power))
            drop = ranks[-2] - ranks[-1]
            if drop <= 0:
                break
            sizes.append(drop)
        if not sizes:
            raise RankProfileError(f"{lam:.6g} is not an eigenvalue at "
                                   "this tolerance")
    if is_real:
        if any(s % 2 for s in sizes):
            raise RankProfileError("rank drops at a real class must be even")
        sizes = [s // 2 for s in sizes]
    if any(sizes[i] < sizes[i + 1] for i in range(len(sizes) - 1)):
        raise RankProfileError(f"rank drops {sizes} are not non-increasing")
    return WeyrStructure(tuple(sizes))


@dataclass(frozen=True)
class ClassSnap:
    """How one eigenvalue class was recovered and (maybe) snapped."""

    value: complex
    snapped: Optional[GaussianRational]
    multiplicity: int
    jordan_sizes: tuple[int, ...]

    def to_json(self) -> dict:
        return {
            "value": [self.value.real, self.value.imag],
            "snapped": (None if self.snapped is None
                        else self.snapped.to_json()),
            "multiplicity": self.multiplicity,
            "jordan_sizes": list(self.jordan_sizes),
        }


@dataclass(frozen=True)
class SnapReport:
    """How each eigenvalue class of a recovery snapped to an exact value.

    ``all_snapped`` (``"approximate": false`` in JSON) vouches only for the
    eigenvalue snap.  The Jordan sizes come from float rank profiles and can
    be wrong while every class snaps: an input can come back with one
    Jordan block split into two smaller ones.
    """

    classes: tuple[ClassSnap, ...] = field(default_factory=tuple)

    @property
    def all_snapped(self) -> bool:
        return all(c.snapped is not None for c in self.classes)

    def to_json(self) -> dict:
        return {"classes": [c.to_json() for c in self.classes],
                "approximate": not self.all_snapped}


def _snap_value(z: complex,
                candidates: Sequence[tuple[GaussianRational, complex]],
                tol: float) -> Optional[GaussianRational]:
    """The first candidate within tol of z (each given with its complex
    value; none is 0), else the small-denominator fraction within tol unless
    it is 0, else None.  Never 0: the matrix passed the singularity test, so
    0 is not an eigenvalue."""
    for cand, value in candidates:
        if abs(z - value) <= tol:
            return cand
    re = Fraction(z.real).limit_denominator(64)
    im = Fraction(z.imag).limit_denominator(64)
    guess = GaussianRational(re, im)
    if not guess.is_zero and abs(z - guess.to_complex()) <= tol:
        return guess
    return None


def _approximate_rational(x: float) -> Fraction:
    return Fraction(x).limit_denominator(10 ** 12)


_ROUNDS_TO_ZERO = "class {:.6g} has no nonzero rational approximation"


def jordan_spec_numeric(f: np.ndarray,
                        cfg: NumericConfig = NumericConfig(),
                        candidates: Sequence[GaussianRational] = (),
                        ) -> tuple[JordanSpec, SnapReport]:
    """Recover the Jordan spec of a float matrix, snapping eigenvalues.

    Unsnapped classes enter the spec as high-precision rational
    approximations and are flagged in the report; exact statements should
    only be trusted when the report says every class snapped.  Raises
    ``SingularError`` (the matrix, or a class that rounds to 0),
    ``PairingError`` or ``RankProfileError``.
    """
    z = phi_embed_float(f)
    svals = np.linalg.svd(z, compute_uv=False)
    if svals[0] == 0 or svals[-1] <= cfg.rank_tol * svals[0]:
        raise SingularError("matrix is singular at the working tolerance")
    # svals[0] is the 2-norm of z, as np.linalg.norm(z, 2) computes it
    values = [(c, c.to_complex()) for c in candidates if not c.is_zero]
    last_err: Optional[RankProfileError] = None
    for classes in _persistent_classes(_folded_eigenvalues(z), cfg):
        try:
            return _spec_from_classes(z, svals[0], classes, cfg, values)
        except RankProfileError as err:
            # inconsistent with the rank profiles: try the next reading
            last_err = err
    if last_err is not None:
        raise last_err
    raise PairingError(_NO_PAIRING)


def _spec_from_classes(z: np.ndarray, z_norm: float,
                       classes: list[tuple[complex, int]],
                       cfg: NumericConfig,
                       candidates: Sequence[tuple[GaussianRational, complex]],
                       ) -> tuple[JordanSpec, SnapReport]:
    blocks = []
    snaps = []
    for rep, mult in classes:
        w = _weyr_structure(z, z_norm, rep, cfg)
        if w.total != mult:
            raise RankProfileError(
                f"class {rep:.6g}: rank profile totals {w.total} but the "
                f"spectrum gives multiplicity {mult}")
        sizes = w.to_partition().conjugate().parts
        snapped = _snap_value(rep, candidates, cfg.unit_tol)
        snaps.append(ClassSnap(value=rep, snapped=snapped,
                               multiplicity=mult, jordan_sizes=sizes))
        eig = snapped if snapped is not None else GaussianRational(
            _approximate_rational(rep.real),
            _approximate_rational(abs(rep.imag)))
        if eig.is_zero:
            raise SingularError(_ROUNDS_TO_ZERO.format(rep))
        blocks.extend((eig, s) for s in sizes)
    return JordanSpec.of(blocks), SnapReport(tuple(snaps))


def classify_approximate(spec_classes: Sequence[tuple[complex, int]],
                         cfg: NumericConfig = NumericConfig()) -> dict:
    """Advisory tolerance-based classification of float (eigenvalue, size) blocks.

    Runs the exact path's one routine, ``classify.criteria``, with every
    comparison at unit_tol; use only when snapping failed.
    """
    tol = cfg.unit_tol

    def rep(z):
        return z if z.imag >= 0 else z.conjugate()

    def near(x, y):
        return abs(x - y) <= tol

    _, _, flags = _classify.criteria(
        spec_classes, lambda z: abs(abs(z) - 1.0) <= tol,
        lambda z: abs(z.imag) <= tol, lambda z: near(z, 1j),
        lambda z: rep(1 / z), lambda z: rep(-1 / z), near)
    return {**flags, "approximate": True}


def classify_numeric(f: np.ndarray,
                     cfg: NumericConfig = NumericConfig(),
                     candidates: Sequence[GaussianRational] = ()) -> dict:
    """Full numeric pipeline: recover, snap, classify.

    Returns the recovered spec, the snap report, and either the exact
    classification (all classes snapped) or the advisory approximate one.
    """
    spec, report = jordan_spec_numeric(f, cfg, candidates)
    out = {"spec": spec.to_json(), "snap": report.to_json()}
    if report.all_snapped:
        out["approximate"] = False
        out["classification"] = _classify.classify_psl(spec).to_json()
    else:
        out["approximate"] = True
        blocks = []
        for c in report.classes:
            blocks.extend((c.value, s) for s in c.jordan_sizes)
        out["classification"] = classify_approximate(blocks, cfg)
    return out
