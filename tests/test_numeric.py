"""Float pipeline: eigenvalue clustering, rank profiles, spec recovery."""
import cmath

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import (EIG_POOL, RECOVERY_CONFIGS, RECOVERY_POOL, jordan_specs,
                      naive_jordan_spec_numeric, naive_phi_eigenvalues,
                      rand_invertible, recovery_corpus, rng_for)
from quatrev.canonical import JordanSpec, jordan_matrix
from quatrev.classify import classify_psl
from quatrev.errors import (PairingError, QuatrevError, RankProfileError,
                            SingularError)
from quatrev.numeric import (NumericConfig, classify_approximate,
                             classify_numeric,
                             float_matrix_from_json, float_matrix_to_json,
                             jordan_spec_numeric, phi_eigenvalues,
                             phi_embed_float, qmatrix_to_float,
                             weyr_structure_numeric)
from quatrev.partitions import WeyrStructure
from quatrev.scalar import gr


def conjugated_float(spec, seed):
    rng = rng_for(f"numeric-{seed}")
    a = jordan_matrix(spec)
    s = rand_invertible(rng, spec.total_size, -3, 3)
    return qmatrix_to_float(s.inverse() * a * s)


def test_float_round_trip_json():
    f = conjugated_float(JordanSpec.of([(gr(2), 2)]), 0)
    again = float_matrix_from_json(float_matrix_to_json(f))
    assert np.array_equal(f, again)
    with pytest.raises(ValueError):
        float_matrix_from_json({"entries": [[[1.0, 0.0]]]})


def test_phi_embed_float_matches_exact():
    from quatrev.matrix import phi_embed
    spec = JordanSpec.of([(gr(0, 1), 2)])
    q = jordan_matrix(spec)
    z = phi_embed_float(qmatrix_to_float(q))
    exact = phi_embed(q)
    for i in range(4):
        for j in range(4):
            assert z[i, j] == exact.entry(i, j).complex_parts()[0].to_complex()


def test_phi_eigenvalues_diagonal():
    spec = JordanSpec.of([(gr(2), 1), (gr(0, 1), 1)])
    classes = phi_eigenvalues(qmatrix_to_float(jordan_matrix(spec)))
    vals = sorted((round(z.real, 6), round(z.imag, 6), m)
                  for z, m in classes)
    assert vals == [(0.0, 1.0, 1), (2.0, 0.0, 1)]


def test_phi_eigenvalues_merges_defective_cluster():
    spec = JordanSpec.of([(gr(0, 1), 2)])
    classes = phi_eigenvalues(conjugated_float(spec, 3))
    assert len(classes) == 1
    z, mult = classes[0]
    assert mult == 2 and abs(z - 1j) < 1e-6


def test_pairing_error_on_odd_spectrum():
    # fabricated spectrum with no conjugate structure at any radius
    from quatrev.numeric import _persistent_classes
    folded = np.array([0.0 + 0j, 1.0 + 0j, 10.0 + 0j])
    assert _persistent_classes(folded, NumericConfig()) == []


def test_weyr_structure_numeric_shapes():
    spec = JordanSpec.of([(gr(1), 3), (gr(1), 1)])
    f = conjugated_float(spec, 5)
    w = weyr_structure_numeric(f, 1.0 + 0j)
    assert w == WeyrStructure((2, 1, 1))


def test_weyr_structure_numeric_rejects_non_eigenvalue():
    f = conjugated_float(JordanSpec.of([(gr(1), 2)]), 6)
    with pytest.raises(RankProfileError):
        weyr_structure_numeric(f, 42.0 + 0j)


def test_jordan_spec_numeric_recovers():
    u = gr("3/5", "4/5")
    specs = [
        JordanSpec.of([(gr(2), 1), (gr("1/2"), 1)]),
        JordanSpec.of([(gr(0, 1), 2)]),
        JordanSpec.of([(gr(1), 2), (gr(-1), 1)]),
        JordanSpec.of([(u, 2), (u, 1)]),
        JordanSpec.of([(gr(1, 1), 2), (gr("1/2", "1/2"), 2)]),
        JordanSpec.of([(gr("1/2"), 1), (gr("1/2"), 1), (gr("1/2"), 1)]),
    ]
    for k, spec in enumerate(specs):
        got, snap = jordan_spec_numeric(conjugated_float(spec, 10 + k),
                                        candidates=EIG_POOL)
        assert got == spec
        assert snap.all_snapped
        assert not snap.to_json()["approximate"]


def test_jordan_spec_numeric_without_candidates():
    # small-denominator snapping works with no candidate list at all
    spec = JordanSpec.of([(gr("1/2", "1/2"), 1), (gr(1, 1), 1)])
    got, snap = jordan_spec_numeric(conjugated_float(spec, 20))
    assert got == spec and snap.all_snapped


def test_jordan_spec_numeric_singular():
    f = qmatrix_to_float(jordan_matrix(JordanSpec.of([(gr(1), 2)])))
    f[0, 0, :] = 0.0
    f[0, 1, :] = 0.0
    with pytest.raises(SingularError):
        jordan_spec_numeric(f)


def test_unsnappable_is_flagged_approximate():
    # pi-flavored eigenvalue: nothing rational nearby at tolerance
    spec_like = np.zeros((1, 1, 4))
    spec_like[0, 0, 0] = 3.14159265358979
    got, snap = jordan_spec_numeric(spec_like)
    assert not snap.all_snapped
    assert snap.to_json()["approximate"]


def test_classify_numeric_exact_path():
    spec = JordanSpec.of([(gr(0, 1), 1)])
    out = classify_numeric(qmatrix_to_float(jordan_matrix(spec)))
    assert out["approximate"] is False
    assert out["classification"]["reversible"] is True
    assert out["classification"]["strongly_reversible"] is False


def test_classify_numeric_approximate_path():
    f = np.zeros((2, 2, 4))
    f[0, 0, 0] = 3.14159265358979
    f[1, 1, 0] = 1.0 / 3.14159265358979
    out = classify_numeric(f)
    assert out["approximate"] is True
    assert out["classification"]["approximate"] is True
    # reciprocal pair at tolerance: advisory reversible
    assert out["classification"]["reversible"] is True


@pytest.mark.parametrize("theta,gap", [(0.9, 2e-9), (0.5000043, 5e-9)])
def test_approximate_counts_unit_classes_as_it_pairs_them(theta, gap):
    """Two non-real unit classes within unit_tol are one class of two
    blocks, whichever side of a rounding boundary they fall: an even count,
    so strongly reversible."""
    blocks = [(cmath.exp(1j * theta), 1), (cmath.exp(1j * (theta + gap)), 1)]
    out = classify_approximate(blocks)
    assert out["reversible"] is True
    assert out["strongly_reversible"] is True


@settings(max_examples=300, deadline=None)
@given(jordan_specs())
def test_approximate_flags_are_the_exact_flags(spec):
    """On the complex values of an exact spec's blocks, the float
    classification gives the five flags ``classify_psl`` gives: both run
    ``classify.criteria``, one at unit_tol and one exactly."""
    exact = classify_psl(spec).to_json()
    del exact["witness_pairing"]
    got = classify_approximate([(lam.to_complex(), s) for lam, s in spec.blocks])
    assert got == dict(exact, approximate=True)


def test_tolerances_are_overridable():
    cfg = NumericConfig(rank_tol=1e-6, eig_cluster_tol=1e-5, unit_tol=1e-4)
    spec = JordanSpec.of([(gr(2), 1)])
    got, _ = jordan_spec_numeric(conjugated_float(spec, 30), cfg)
    assert got == spec


def test_recovery_is_deterministic():
    spec = JordanSpec.of([(gr(0, 1), 2), (gr(1), 1)])
    f = conjugated_float(spec, 40)
    a = jordan_spec_numeric(f, candidates=EIG_POOL)
    b = jordan_spec_numeric(f, candidates=EIG_POOL)
    assert a[0] == b[0]
    assert a[1].to_json() == b[1].to_json()


@pytest.fixture(scope="module")
def corpus():
    return recovery_corpus(200)


def _outcome(fn, *args):
    """fn's result, specs and reports as JSON, or its error's type and
    message."""
    try:
        out = fn(*args)
    except QuatrevError as exc:
        return type(exc), str(exc)
    if isinstance(out, tuple):
        return out[0].to_json(), out[1].to_json()
    return out


def test_recovery_matches_naive_oracle(corpus):
    # with and without candidates, at the default tolerances, with no
    # starting cluster radius and with no snapping tolerance
    runs = [(cfg, RECOVERY_POOL) for cfg in RECOVERY_CONFIGS]
    runs.append((NumericConfig(), ()))
    for _, f in corpus:
        for cfg, candidates in runs:
            assert (_outcome(jordan_spec_numeric, f, cfg, candidates)
                    == _outcome(naive_jordan_spec_numeric, f, cfg,
                                candidates))
        for cfg in RECOVERY_CONFIGS:
            assert (_outcome(phi_eigenvalues, f, cfg)
                    == _outcome(naive_phi_eigenvalues, f, cfg))


def test_singularity_svd_gives_the_two_norm(corpus):
    # jordan_spec_numeric takes the embedding's 2-norm from the largest
    # singular value of its singularity test
    for _, f in corpus:
        z = phi_embed_float(f)
        assert np.linalg.norm(z, 2) == np.linalg.svd(z, compute_uv=False)[0]


def test_a_class_never_snaps_to_zero():
    # the guess 0 lies within unit_tol, and 1e-300 also rounds to 0
    tiny = np.zeros((1, 1, 4))
    tiny[0, 0, 0] = 3e-9
    spec, snap = jordan_spec_numeric(tiny)
    assert spec == JordanSpec.of([(gr("3/1000000000"), 1)])
    assert not snap.all_snapped
    tiny[0, 0, 0] = 1e-300
    for cfg in (NumericConfig(), NumericConfig(unit_tol=0)):
        with pytest.raises(SingularError, match="class 1e-300"):
            jordan_spec_numeric(tiny, cfg)
    # a zero candidate is never taken either
    tiny[0, 0, 0] = 3e-9
    spec, _ = jordan_spec_numeric(tiny, candidates=(gr(0),))
    assert spec == JordanSpec.of([(gr("3/1000000000"), 1)])


# Known gap: ``all_snapped`` vouches for the eigenvalues only.  These two
# inputs (the corpus is one seeded sequence, so they are inputs 61 and 98 of
# ``recovery_corpus(400)`` too) come back with a Jordan block split in two,
# J(1,2) and J((1+i)/2,2) each as two blocks of size 1, at the default
# config and with eig_cluster_tol=0, and with ``all_snapped`` true.
@pytest.mark.xfail(strict=True, reason="rank profile splits a Jordan block "
                   "while every eigenvalue snaps")
@pytest.mark.parametrize("index", [61, 98])
@pytest.mark.parametrize("cfg", RECOVERY_CONFIGS[:2])
def test_recovers_the_generating_spec(corpus, index, cfg):
    spec, f = corpus[index]
    got, snap = jordan_spec_numeric(f, cfg, RECOVERY_POOL)
    assert snap.all_snapped
    assert got == spec
