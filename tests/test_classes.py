"""Class parameterization tests: validity, enumeration, splitting, minimal Levi."""

import pytest

from unipotent_atlas.classes import (
    Char,
    ClassParam,
    EpsilonMap,
    Family,
    GroupSpec,
    combine,
    enumerate_classes,
    eps_options,
    is_distinguished,
    is_valid_class,
    minimal_levi,
    splits_in_so,
)
from unipotent_atlas.errors import InputError
from unipotent_atlas.oracle import group_sweep
from unipotent_atlas.partitions import Partition

SO16 = GroupSpec(Family.SO, 16, Char.TWO)


def eps_of(**kv) -> EpsilonMap:
    return EpsilonMap(tuple((int(k), v) for k, v in kv.items()))


def first_eps(G, lam) -> EpsilonMap:
    """lam's canonical eps: the first of each part's eps_options."""
    return EpsilonMap(tuple((x, eps_options(G, x, m)[0]) for x, m in lam.multiplicities().items()))


def test_group_spec_validation():
    with pytest.raises(InputError):
        GroupSpec(Family.SP, 7, Char.TWO)
    with pytest.raises(InputError):
        GroupSpec(Family.SO, 0, Char.TWO)
    assert GroupSpec(Family.SP, 8, Char.GOOD).delta == 1
    assert GroupSpec(Family.SO, 8, Char.GOOD).delta == -1
    assert GroupSpec(Family.SO, 8, Char.TWO).delta == 1
    assert GroupSpec(Family.SO, 13, Char.TWO).rank == 6


def test_group_spec_refuses_a_bool_dim():
    # isinstance(True, int) let this through, described as "SOTrue (p=2)"
    with pytest.raises(InputError, match="must be a positive integer"):
        GroupSpec(Family.SO, True, Char.TWO)


def test_epsilon_map():
    e = EpsilonMap.parse("8:1,4:0,2:1")
    assert e[8] == 1 and e[4] == 0
    assert str(e) == "8:1,4:0,2:1"
    with pytest.raises(InputError):
        EpsilonMap(((4, 2),))
    with pytest.raises(InputError):
        EpsilonMap(((4, 1), (4, 0)))


def test_is_valid_class_examples():
    assert is_valid_class(SO16, Partition((6, 4, 4, 2)), eps_of(**{"6": 1, "4": 1, "2": 1}))
    sp4 = GroupSpec(Family.SP, 4, Char.TWO)
    assert not is_valid_class(sp4, Partition((3, 1)), eps_of(**{"3": -1, "1": -1}))
    so7 = GroupSpec(Family.SO, 7, Char.TWO)
    assert is_valid_class(so7, Partition((2, 2, 1, 1, 1)), eps_of(**{"2": 1, "1": -1}))


def test_is_valid_class_errors_and_branches():
    with pytest.raises(InputError):
        is_valid_class(SO16, Partition((6, 4, 4, 2)), eps_of(**{"6": 1}))
    with pytest.raises(InputError):
        is_valid_class(SO16, Partition((6, 4, 2)), eps_of(**{"6": 1, "4": 1, "2": 1}))
    # forced values at p=2
    assert not is_valid_class(SO16, Partition((6, 4, 4, 2)), eps_of(**{"6": 0, "4": 1, "2": 1}))
    # SO at p=2 in even dimension needs an even number of blocks
    so4 = GroupSpec(Family.SO, 4, Char.TWO)
    o4 = GroupSpec(Family.O, 4, Char.TWO)
    lam = Partition((2, 1, 1))
    e = eps_of(**{"2": 1, "1": -1})
    assert not is_valid_class(so4, lam, e)
    assert is_valid_class(o4, lam, e)
    # good characteristic determines eps completely
    so8 = GroupSpec(Family.SO, 8, Char.GOOD)
    assert is_valid_class(so8, Partition((4, 4)), eps_of(**{"4": -1}))
    assert not is_valid_class(so8, Partition((4, 4)), eps_of(**{"4": 1}))
    assert not is_valid_class(so8, Partition((4, 3, 1)), first_eps(so8, Partition((4, 3, 1))))


def test_enumerate_classes_examples():
    gl3 = GroupSpec(Family.GL, 3, Char.GOOD)
    assert [C.lam.parts for C in enumerate_classes(gl3)] == [(3,), (2, 1), (1, 1, 1)]
    sp2 = GroupSpec(Family.SP, 2, Char.TWO)
    classes = enumerate_classes(sp2)
    assert [(C.lam.parts, C.eps.items) for C in classes] == [
        ((2,), ((2, 1),)),
        ((1, 1), ((1, -1),)),
    ]
    # frozen regression value from the first verified run of the oracle battery
    assert len(enumerate_classes(SO16)) == 80


def test_enumerate_classes_is_duplicate_free_and_valid():
    for G in (
        SO16,
        GroupSpec(Family.SO, 13, Char.TWO),
        GroupSpec(Family.SP, 10, Char.GOOD),
        GroupSpec(Family.SO, 12, Char.GOOD),
        GroupSpec(Family.O, 8, Char.TWO),
    ):
        classes = enumerate_classes(G)
        keys = [(C.data_key(), C.split_tag) for C in classes]
        assert len(set(keys)) == len(keys)
        for C in classes:
            assert is_valid_class(G, C.lam, C.eps)


def test_enumerate_classes_canonical_order():
    # blocks lexicographically decreasing, then eps values, then tag: the order
    # enumeration yields unsorted, on every group up to dim 24
    o_groups = [GroupSpec(Family.O, n, char) for n in (8, 23, 24) for char in Char]
    for G in group_sweep(24) + o_groups:
        classes = enumerate_classes(G)
        assert classes == sorted(classes, key=ClassParam.key), G.describe()
        lams = [C.lam.parts for C in classes]
        assert lams == sorted(lams, reverse=True)


def test_split_classes_are_tagged_in_pairs():
    so4 = GroupSpec(Family.SO, 4, Char.TWO)
    tags = [(C.lam.parts, C.eps.items, C.split_tag) for C in enumerate_classes(so4)]
    assert ((2, 2), ((2, 0),), "I") in tags
    assert ((2, 2), ((2, 0),), "II") in tags
    assert ((2, 2), ((2, 1),), None) in tags


def test_splits_in_so_examples():
    assert splits_in_so(Partition((2, 2)), eps_of(**{"2": 0}))
    assert not splits_in_so(Partition((2, 2)), eps_of(**{"2": 1}))
    assert not splits_in_so(Partition((3, 3, 1, 1)), eps_of(**{"3": 1, "1": 1}))
    # good characteristic: all parts (hence multiplicities) even
    assert splits_in_so(Partition((4, 4, 2, 2)), eps_of(**{"4": -1, "2": -1}))


def test_is_distinguished_examples():
    so13 = GroupSpec(Family.SO, 13, Char.TWO)
    assert is_distinguished(so13, Partition((8, 4, 1)), eps_of(**{"8": 1, "4": 1, "1": -1}))
    so12_good = GroupSpec(Family.SO, 12, Char.GOOD)
    assert not is_distinguished(
        so12_good, Partition((5, 5, 1, 1)), first_eps(so12_good, Partition((5, 5, 1, 1)))
    )
    so12 = GroupSpec(Family.SO, 12, Char.TWO)
    assert is_distinguished(so12, Partition((4, 4, 2, 2)), eps_of(**{"4": 1, "2": 1}))
    assert not is_distinguished(so12, Partition((4, 4, 2, 2)), eps_of(**{"4": 1, "2": 0}))


def test_minimal_levi_examples():
    C = ClassParam(SO16, Partition((6, 4, 4, 2)), eps_of(**{"6": 1, "4": 1, "2": 1}))
    assert minimal_levi(C)[:2] == (Partition(), Partition((6, 4, 4, 2)))
    C = ClassParam(SO16, Partition((4, 4, 2, 2, 1, 1, 1, 1)), eps_of(**{"4": 1, "2": 1, "1": -1}))
    assert minimal_levi(C)[:2] == (Partition((1, 1)), Partition((4, 4, 2, 2)))
    C = ClassParam(SO16, Partition((4, 4, 2, 2, 2, 2)), eps_of(**{"4": 1, "2": 1}))
    assert minimal_levi(C)[:2] == (Partition((2,)), Partition((4, 4, 2, 2)))


def test_minimal_levi_beta_has_even_length_for_even_so():
    for dim in range(2, 25, 2):
        for char in (Char.TWO, Char.GOOD):
            G = GroupSpec(Family.SO, dim, char)
            for C in enumerate_classes(G):
                _, beta, _ = minimal_levi(C)
                assert len(beta) % 2 == 0


def test_combine_examples():
    C = combine(Partition((2,)), Partition((4, 4, 2, 2)), eps_of(**{"4": 1, "2": 1}), SO16)
    assert C.lam == Partition((4, 4, 2, 2, 2, 2))
    assert C.eps[4] == 1 and C.eps[2] == 1
    sp12 = GroupSpec(Family.SP, 12, Char.GOOD)
    C = combine(Partition((4, 2)), Partition(), EpsilonMap(), sp12)
    assert C.lam == Partition((4, 4, 2, 2)) and C.eps[4] == 1 and C.eps[2] == 1
    beta = Partition((6, 4, 4, 2))
    C = combine(Partition(), beta, eps_of(**{"6": 1, "4": 1, "2": 1}), SO16)
    assert C.lam == beta and C.eps[4] == 1


def test_combine_rejects_bad_input():
    with pytest.raises(InputError):
        combine(Partition((3,)), Partition(), EpsilonMap(), SO16)
    with pytest.raises(InputError):
        # odd part of odd multiplicity is not symplectic
        combine(Partition(), Partition((3, 1)), eps_of(**{"3": -1, "1": -1}),
                GroupSpec(Family.SP, 4, Char.TWO))


def test_round_trip_combine_minimal_levi_small():
    for G in (
        SO16,
        GroupSpec(Family.SO, 13, Char.TWO),
        GroupSpec(Family.SP, 12, Char.TWO),
        GroupSpec(Family.SP, 10, Char.GOOD),
        GroupSpec(Family.SO, 11, Char.GOOD),
        GroupSpec(Family.GL, 7, Char.GOOD),
    ):
        for C in enumerate_classes(G):
            alpha, beta, eps_beta = minimal_levi(C)
            assert combine(alpha, beta, eps_beta, G).same_class(C)


def test_class_param_tags_validated():
    with pytest.raises(InputError):
        ClassParam(SO16, Partition((6, 4, 4, 2)), eps_of(**{"6": 1, "4": 1, "2": 1}), "I")
    with pytest.raises(InputError):
        ClassParam(SO16, Partition((6, 4, 4, 2)), eps_of(**{"6": 1, "4": 1, "2": 1}), "III")


@pytest.mark.parametrize("items", [((4, 0.7),), ((4.0, 1),), ((4, True),), ((True, 1),), ((4, "1"),)])
def test_epsilon_map_refuses_non_integer_entries(items):
    # int() used to truncate these: ((4, 0.7),) became the map 4:0
    with pytest.raises(InputError, match="integer pairs"):
        EpsilonMap(items)


def test_class_param_refuses_non_integer_blocks():
    # ClassParam(SO8, Partition((4.5, 4.2)), ...) used to be the class (4, 4)
    so8 = GroupSpec(Family.SO, 8, Char.TWO)
    with pytest.raises(InputError, match="must be integers"):
        ClassParam(so8, Partition((4.5, 4.2)), eps_of(**{"4": 1}))
    assert ClassParam(so8, Partition((4, 4)), eps_of(**{"4": 1})).lam.parts == (4, 4)


def test_class_json_record():
    C = ClassParam(SO16, Partition((6, 4, 4, 2)), eps_of(**{"6": 1, "4": 1, "2": 1}))
    assert C.to_json() == {
        "family": "so",
        "dim": 16,
        "char": "2",
        "lambda": [6, 4, 4, 2],
        "eps": {"6": 1, "4": 1, "2": 1},
        "split": None,
    }
