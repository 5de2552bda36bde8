"""Jordan and Weyr canonical forms and the change of basis between them."""
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import circle_point, hostile_parts, rng_for
from quatrev.classify import odd_unit_classes
from quatrev.canonical import (JordanSpec, basic_weyr_matrix, jordan_block,
                               jordan_matrix, jordan_weyr_permutation,
                               weyr_centralizer_sample)
from quatrev.errors import SpecError
from quatrev.matrix import QMatrix
from quatrev.partitions import Partition, weyr_structure_of
from quatrev.scalar import (GR_I, Q_ONE, Q_ZERO, GaussianRational,
                            class_rep, gr, quat)


def test_jordan_block_frozen():
    b = jordan_block(gr(0, 1), 3)
    i = GR_I.to_quaternion()
    assert b == QMatrix([[i, Q_ONE, Q_ZERO],
                         [Q_ZERO, i, Q_ONE],
                         [Q_ZERO, Q_ZERO, i]])


def test_spec_normalizes_and_sorts():
    # conjugate representatives fold to im >= 0; order is (re, im, size desc)
    spec = JordanSpec.of([("1-i", 2), (gr(2), 1), ("1+i", 3)])
    assert [(str(lam), s) for lam, s in spec.blocks] == \
        [("1+i", 3), ("1+i", 2), ("2", 1)]
    assert spec.total_size == 6


# eigenvalues with hostile denominators, repeated values and unit classes
_eigenvalue = (st.builds(GaussianRational, hostile_parts, hostile_parts)
               | st.sampled_from([gr(2), gr("1/2"), gr("3/5", "4/5"),
                                  gr("3/5", "-4/5"), gr(0, 1), gr(-1)])
               | st.builds(circle_point, st.integers(-2**31, 2**31),
                           st.integers(-2**31, 2**31).filter(bool)))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_eigenvalue, st.integers(1, 3)), min_size=1,
                max_size=8))
def test_spec_order_is_the_fraction_order(blocks):
    """``JordanSpec.of`` orders blocks exactly as sorting by the Fraction
    key (re, im, -size) does, and ``odd_unit_classes`` as (re, im, size)."""
    blocks = [(lam, s) for lam, s in blocks if not lam.is_zero]
    assume(blocks)
    reps = [(class_rep(lam), s) for lam, s in blocks]
    spec = JordanSpec.of(blocks)
    assert list(spec.blocks) == sorted(
        reps, key=lambda bl: (bl[0].re, bl[0].im, -bl[1]))
    counts = {}
    for lam, s in reps:
        if lam.im > 0 and lam.norm_sq() == 1:
            counts[(lam, s)] = counts.get((lam, s), 0) + 1
    assert odd_unit_classes(spec) == sorted(
        (bl for bl, c in counts.items() if c % 2),
        key=lambda bl: (bl[0].re, bl[0].im, bl[1]))


def test_spec_string_input_and_json():
    spec = JordanSpec.of([("i", 2), ("-1", 1)])
    again = JordanSpec.from_json(spec.to_json())
    assert again == spec
    assert str(spec) == "J(-1,1) + J(i,2)"


def test_spec_rejects_bad_blocks():
    with pytest.raises(SpecError):
        JordanSpec.of([])
    with pytest.raises(SpecError):
        JordanSpec.of([(gr(0), 2)])
    with pytest.raises(SpecError):
        JordanSpec.of([(gr(1), 0)])
    with pytest.raises(SpecError):
        JordanSpec.of([(gr(1), True)])


def test_spec_classes_and_partition():
    spec = JordanSpec.of([(gr(2), 3), (gr(2), 1), (gr(0, 1), 2)])
    assert spec.classes() == (gr(0, 1), gr(2))
    assert spec.class_partition(gr(2)) == Partition.of([3, 1])
    offs = spec.block_offsets()
    assert offs == (0, 2, 5)   # blocks in canonical order: i^2, 2^3, 2^1


def test_jordan_matrix_layout():
    spec = JordanSpec.of([(gr(2), 2), (gr(3), 1)])
    m = jordan_matrix(spec)
    assert m.entry(0, 0) == quat(2)
    assert m.entry(0, 1) == Q_ONE
    assert m.entry(1, 2).is_zero
    assert m.entry(2, 2) == quat(3)


def test_basic_weyr_matrix_shape():
    w = weyr_structure_of(Partition.of([2, 1]))   # levels (2, 1)
    m = basic_weyr_matrix(gr(5), w)
    # diagonal 5s, then an identity column linking level 1 to level 2
    assert m.entry(0, 0) == quat(5)
    assert m.entry(0, 2) == Q_ONE
    assert m.entry(1, 2).is_zero


def test_jordan_weyr_permutation_conjugates():
    rng = rng_for("jw-perm")
    lams = [gr(2), gr(0, 1), gr("3/5", "4/5")]
    for parts in ([1], [2], [3, 1], [2, 2], [4, 2, 1], [3, 3]):
        p = Partition.of(parts)
        lam = rng.choice(lams)
        spec = JordanSpec.of([(lam, s) for s in p.parts])
        aj = jordan_matrix(spec)
        aw = basic_weyr_matrix(lam, weyr_structure_of(p))
        perm = jordan_weyr_permutation(p)
        assert perm * aj * perm.inverse() == aw


def test_permutation_is_permutation():
    perm = jordan_weyr_permutation(Partition.of([3, 2]))
    rows = perm.entries
    for row in rows:
        assert sum(1 for x in row if x == Q_ONE) == 1
        assert all(x.is_zero or x == Q_ONE for x in row)
    assert perm * perm.transpose() == QMatrix.identity(5)


def test_weyr_centralizer_samples_commute():
    for seed, parts in [(1, [2, 1]), (2, [3, 2, 2]), (3, [1, 1]),
                        (4, [4]), (5, [3, 3, 1])]:
        w = weyr_structure_of(Partition.of(parts))
        lam = gr("3/5", "4/5")
        s = weyr_centralizer_sample(w, seed)
        m = basic_weyr_matrix(lam, w)
        assert s * m == m * s


def test_centralizer_sample_deterministic():
    w = weyr_structure_of(Partition.of([3, 2]))
    assert weyr_centralizer_sample(w, 11) == weyr_centralizer_sample(w, 11)
    assert weyr_centralizer_sample(w, 11) != weyr_centralizer_sample(w, 12)
