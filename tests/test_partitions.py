"""Partition algebra tests: examples, exhaustive laws, and property checks."""

import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from unipotent_atlas.errors import InputError
from unipotent_atlas.partitions import (
    Partition,
    dual,
    double,
    iter_partitions,
    merge,
    multiplicity,
)

partitions_st = st.lists(st.integers(1, 24), min_size=0, max_size=10).map(
    lambda xs: Partition(tuple(xs))
)


def tally_dual(lam: Partition) -> Partition:
    """Independent oracle: column sums of the 0/1 Young-diagram matrix."""
    if not lam:
        return Partition()
    rows = len(lam)
    cols = lam.parts[0]
    matrix = [[1 if j < lam.parts[i] else 0 for j in range(cols)] for i in range(rows)]
    col_sums = [sum(matrix[i][j] for i in range(rows)) for j in range(cols)]
    return Partition(tuple(c for c in col_sums if c))


def test_normalization_and_validation():
    assert Partition((2, 4, 4, 6)).parts == (6, 4, 4, 2)
    assert Partition().parts == ()
    with pytest.raises(InputError):
        Partition((3, 0))
    with pytest.raises(InputError):
        Partition((-1,))


@pytest.mark.parametrize("parts", [(2.5, 1), (2.0,), (True, 1), ("3",), (3, "2")])
def test_non_integer_parts_are_refused(parts):
    # int() used to truncate these: (2.5, 1) became the partition 2,1
    with pytest.raises(InputError, match="must be integers"):
        Partition(parts)


def test_dual_examples():
    assert dual(Partition((5,))) == Partition((1, 1, 1, 1, 1))
    expected = tally_dual(Partition((6, 4, 4, 2)))
    assert expected == Partition((4, 4, 3, 3, 1, 1))
    assert dual(Partition((6, 4, 4, 2))) == expected
    lam = Partition((12, 12, 10, 8, 6, 6, 4, 2))
    assert dual(dual(lam)) == lam


def test_merge_examples():
    assert merge(Partition((8, 4)), Partition((2, 2))) == Partition((8, 4, 2, 2))
    assert merge(Partition((6, 4)), Partition((4, 2))) == Partition((6, 4, 4, 2))
    lam = Partition((5, 3, 1))
    assert merge(lam, Partition()) == lam


def test_double_examples():
    assert double(Partition((2,))) == Partition((2, 2))
    assert double(Partition((3, 1))) == Partition((3, 3, 1, 1))
    assert double(Partition()) == Partition()


def test_multiplicity_examples():
    lam = Partition((4, 4, 2))
    assert multiplicity(lam, 4) == 2
    assert multiplicity(lam, 3) == 0
    assert multiplicity(Partition((1, 1, 1)), 1) == 3
    with pytest.raises(InputError):
        multiplicity(lam, 0)


def test_part_indexing_is_one_based_with_zero_padding():
    lam = Partition((5, 3))
    assert lam.part(1) == 5
    assert lam.part(2) == 3
    assert lam.part(3) == 0
    assert lam.part(99) == 0


def test_dual_involution_exhaustive_small_totals():
    # exhaustive up to total 40 per the stated bound
    for n in range(0, 41):
        for parts in iter_partitions(n):
            lam = Partition(parts)
            assert dual(dual(lam)) == lam


def test_parse_and_print():
    assert Partition.parse("6,4^2,2") == Partition((6, 4, 4, 2))
    assert Partition.parse("0") == Partition()
    assert Partition.parse("") == Partition()
    assert str(Partition((6, 4, 4, 2))) == "6,4^2,2"
    assert str(Partition()) == "0"
    with pytest.raises(InputError):
        Partition.parse("4,x")
    with pytest.raises(InputError):
        Partition.parse("4^0")
    with pytest.raises(InputError):
        Partition.parse("10001")


def test_parse_refuses_an_oversized_total_before_building_the_parts():
    # the whole parts list used to be built first: 3.2 MB here, and a billion
    # parts for "1^1000000000"
    tracemalloc.start()
    try:
        with pytest.raises(InputError, match="partition total 200000 exceeds"):
            Partition.parse("1^200000")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000


@given(partitions_st)
def test_dual_is_involution(lam):
    assert dual(dual(lam)) == lam


@given(partitions_st, partitions_st)
def test_merge_totals_and_commutes(a, b):
    assert merge(a, b).total == a.total + b.total
    assert merge(a, b) == merge(b, a)


@given(partitions_st, partitions_st, partitions_st)
def test_merge_associative(a, b, c):
    assert merge(merge(a, b), c) == merge(a, merge(b, c))


@given(partitions_st)
def test_double_is_self_merge(lam):
    assert double(lam) == merge(lam, lam)


@given(partitions_st)
def test_text_round_trip(lam):
    assert Partition.parse(str(lam)) == lam


def test_iter_partitions_counts():
    assert len(list(iter_partitions(0))) == 1
    assert len(list(iter_partitions(5))) == 7
    assert len(list(iter_partitions(10))) == 42
    assert list(iter_partitions(4, max_part=2)) == [(2, 2), (2, 1, 1), (1, 1, 1, 1)]
