"""Partitions and their conjugates."""
import pytest
from hypothesis import given, settings, strategies as st

from quatrev.errors import SpecError
from quatrev.partitions import (Partition, WeyrStructure, parse_partition,
                                weyr_structure_of)


def independent_conjugate(parts):
    """Column counts of the Young diagram, written from scratch."""
    if not parts:
        return ()
    return tuple(sum(1 for p in parts if p > c) for c in range(parts[0]))


def conjugate_closed_form(p: Partition) -> Partition:
    """Closed form on the exponent representation.

    With p = [d1^t1, ..., ds^ts] (d1 > ... > ds), the conjugate is
    [(t1+...+ts)^(ds), (t1+...+t_{s-1})^(d_{s-1}-d_s), ..., (t1)^(d1-d2)].
    """
    form = p.exponent_form
    s = len(form)
    prefix = []
    acc = 0
    for _, t in form:
        acc += t
        prefix.append(acc)
    pairs = []
    for idx in range(s - 1, -1, -1):
        d = form[idx][0]
        d_next = form[idx + 1][0] if idx + 1 < s else 0
        pairs.append((prefix[idx], d - d_next))
    return Partition.from_exponents(pairs)


def test_frozen_conjugates():
    assert Partition.of([2, 2, 1]).conjugate() == Partition.of([3, 2])
    assert Partition.of([3, 3, 1]).conjugate() == Partition.of([3, 2, 2])
    assert Partition.of([5]).conjugate() == Partition.of([1, 1, 1, 1, 1])
    assert Partition.of([1, 1, 1]).conjugate() == Partition.of([3])


def test_partition_validation():
    with pytest.raises(SpecError):
        Partition((1, 2))          # increasing
    with pytest.raises(SpecError):
        Partition((2, 0))          # nonpositive part
    assert Partition.of([1, 3, 2]).parts == (3, 2, 1)


def test_partition_total_and_exponents():
    p = Partition.of([3, 2, 2, 1])
    assert p.total == 8
    assert p.exponent_form == ((3, 1), (2, 2), (1, 1))
    assert Partition.from_exponents([(3, 1), (2, 2), (1, 1)]) == p


partition_st = st.lists(st.integers(1, 12), min_size=1, max_size=10)


@settings(max_examples=150, deadline=None)
@given(partition_st)
def test_conjugate_matches_diagram_and_is_involutive(parts):
    p = Partition.of(parts)
    c = p.conjugate()
    assert c.parts == independent_conjugate(p.parts)
    assert c == conjugate_closed_form(p)
    assert c.conjugate() == p
    assert c.total == p.total


def test_weyr_structure_of():
    # block sizes (3, 2, 2) give level sizes (3, 3, 1)
    assert weyr_structure_of(Partition.of([3, 2, 2])) == \
        WeyrStructure((3, 3, 1))
    w = weyr_structure_of(Partition.of([1]))
    assert w.sizes == (1,) and w.total == 1


def test_weyr_sizes_non_increasing():
    with pytest.raises(SpecError):
        WeyrStructure((1, 2))


def test_parse_partition_forms():
    assert parse_partition("3,2,2") == Partition.of([3, 2, 2])
    assert parse_partition("[3^2,1^1]") == Partition.of([3, 3, 1])
    assert parse_partition(" 4 , 1 ") == Partition.of([4, 1])
    # unordered input is normalized, same as Partition.of
    assert parse_partition("2,3") == Partition.of([3, 2])
    # whitespace is stripped around a part or exponent, never inside one
    for bad in ["", "0", "[2^0]", "x", "1,,2", "3 2,1", "[3^1 0]"]:
        with pytest.raises(SpecError):
            parse_partition(bad)
