"""Tests for the subgroup parameterization maps, labels, and diagrams."""

from collections import Counter

import pytest

from unipotent_atlas import balacarter
from unipotent_atlas.balacarter import (
    ParabolicProduct,
    RegularSubgroupDescriptor,
    analyse,
    analyse_all,
    diagram_string,
    is_extra_class,
    iter_parabolic_products,
    iter_regular_subgroups,
    label,
    o_not_so_conjugate,
    phi1,
    phi2,
    psi1,
    psi2,
)
from unipotent_atlas.classes import (
    Char,
    ClassParam,
    EpsilonMap,
    Family,
    GroupSpec,
    canonical_eps,
    enumerate_classes,
)
from unipotent_atlas.errors import InputError
from unipotent_atlas.oracle import group_sweep
from unipotent_atlas.partitions import Partition
from unipotent_atlas.richardson import ParabolicDescriptor, parabolic_from_blocks

SO16 = GroupSpec(Family.SO, 16, Char.TWO)
SO13 = GroupSpec(Family.SO, 13, Char.TWO)
SO19 = GroupSpec(Family.SO, 19, Char.TWO)


def eps_of(**kv):
    return EpsilonMap(tuple((int(k), v) for k, v in kv.items()))


def cls(G, parts, **kv):
    return ClassParam(G, Partition(parts), eps_of(**kv))


def test_psi1_examples():
    X = RegularSubgroupDescriptor(Partition(), ((6, True), (4, True), (4, True), (2, True)))
    C = psi1(X, SO16)
    assert C.lam == Partition((6, 4, 4, 2))
    assert C.eps[6] == C.eps[4] == C.eps[2] == 1
    so4 = GroupSpec(Family.SO, 4, Char.TWO)
    C = psi1(RegularSubgroupDescriptor(Partition((2,)), ()), so4)
    assert C.lam == Partition((2, 2)) and C.eps[2] == 0
    gl5 = GroupSpec(Family.GL, 5, Char.GOOD)
    C = psi1(RegularSubgroupDescriptor(Partition((5,)), ()), gl5)
    assert C.lam == Partition((5,))


def test_psi1_odd_factor_blocks():
    # a full odd orthogonal factor is connected; its regular class has two blocks
    so9 = GroupSpec(Family.SO, 9, Char.TWO)
    X = RegularSubgroupDescriptor(Partition(), ((5, True), (4, True)))
    C = psi1(X, so9)
    assert C.lam == Partition((4, 4, 1))


def test_psi1_validation():
    with pytest.raises(InputError):
        # factor dimensions must fill the module
        psi1(RegularSubgroupDescriptor(Partition((2,)), ((6, True),)), SO16)
    with pytest.raises(InputError):
        # even-dimensional SO at p=2 needs evenly many factors
        psi1(RegularSubgroupDescriptor(Partition((5,)), ((6, True),)), SO16)
    with pytest.raises(InputError):
        # two odd-dimensional orthogonal factors cannot embed at p=2
        psi1(RegularSubgroupDescriptor(Partition((4,)), ((5, True), (3, True))), SO16)
    with pytest.raises(InputError):
        # p=2 orthogonal factors must be full
        psi1(RegularSubgroupDescriptor(Partition(), ((6, False), (4, False), (4, False), (2, False))), SO16)


@pytest.mark.parametrize("cl_parts", [((4.7, True),), ((4.0, True),), ((True, True),), ((4, 1),)])
def test_regular_subgroup_descriptor_refuses_non_integer_factors(cl_parts):
    # int() and bool() used to coerce these: (4.7, True) became a factor of dim 4
    with pytest.raises(InputError, match=r"\(int, bool\) pairs"):
        RegularSubgroupDescriptor(Partition(), cl_parts)


def test_phi1_examples():
    C = cls(SO16, (6, 4, 4, 2), **{"6": 1, "4": 1, "2": 1})
    X = phi1(C)
    assert X.gl_parts == Partition()
    assert X.cl_parts == ((6, True), (4, True), (4, True), (2, True))
    sp14 = GroupSpec(Family.SP, 14, Char.GOOD)
    C = ClassParam(sp14, Partition((6, 4, 4)), canonical_eps(sp14, Partition((6, 4, 4))))
    X = phi1(C)
    assert X.gl_parts == Partition((4,)) and X.cl_parts == ((6, False),)
    C = cls(SO19, (6, 4, 4, 2, 2, 1), **{"6": 1, "4": 1, "2": 1, "1": -1})
    X = phi1(C)
    assert X.cl_parts == ((6, True), (4, True), (4, True), (2, True), (2, True), (1, True))


def test_phi1_image_conditions():
    # the factor dimensions satisfy the published image constraints
    for G in (SO16, SO13, GroupSpec(Family.SP, 12, Char.TWO)):
        for C in enumerate_classes(G):
            dims = [m for m, _ in phi1(C).cl_parts]
            assert sum(1 for m in dims if m == 1) <= 1
            assert all(m % 2 == 0 for m in dims if m != 1)
            assert all(dims.count(m) <= 2 for m in dims)
    for G in (GroupSpec(Family.SO, 13, Char.GOOD), GroupSpec(Family.SO, 12, Char.GOOD)):
        for C in enumerate_classes(G):
            dims = [m for m, _ in phi1(C).cl_parts]
            assert all(m % 2 == 1 for m in dims)
            assert len(set(dims)) == len(dims)
    for C in enumerate_classes(GroupSpec(Family.SP, 12, Char.GOOD)):
        dims = [m for m, _ in phi1(C).cl_parts]
        assert all(m % 2 == 0 for m in dims)
        assert len(set(dims)) == len(dims)


def test_psi2_examples():
    P = ParabolicProduct(
        Partition((2,)),
        (
            parabolic_from_blocks(GroupSpec(Family.SO, 8, Char.TWO), Partition((4, 4))),
            parabolic_from_blocks(GroupSpec(Family.SO, 4, Char.TWO), Partition((2, 2))),
        ),
    )
    C = psi2(P, SO16)
    assert C.lam == Partition((4, 4, 2, 2, 2, 2))
    assert C.eps[4] == 1 and C.eps[2] == 1
    sp10 = GroupSpec(Family.SP, 10, Char.TWO)
    C = psi2(ParabolicProduct(Partition(), (ParabolicDescriptor.borel(sp10),)), sp10)
    assert C.lam == Partition((10,))
    P = ParabolicProduct(
        Partition(),
        (
            parabolic_from_blocks(GroupSpec(Family.SO, 12, Char.TWO), Partition((8, 4))),
            parabolic_from_blocks(GroupSpec(Family.SO, 4, Char.TWO), Partition((2, 2))),
        ),
    )
    assert psi2(P, SO16).lam == Partition((8, 4, 2, 2))


def test_psi2_validation():
    so12 = GroupSpec(Family.SO, 12, Char.TWO)
    d4 = parabolic_from_blocks(GroupSpec(Family.SO, 4, Char.TWO), Partition((2, 2)))
    with pytest.raises(InputError):
        psi2(ParabolicProduct(Partition(), (d4, d4, d4, d4)), SO16)
    with pytest.raises(InputError):
        psi2(ParabolicProduct(Partition((1,)), (d4,)), so12)


def test_phi2_examples():
    C = cls(SO13, (8, 4, 1), **{"8": 1, "4": 1, "1": -1})
    P = phi2(C)
    assert len(P.parabolics) == 1
    assert (P.parabolics[0].c, P.parabolics[0].m0) == ((3, 1), 1)
    C = cls(SO16, (6, 4, 4, 2), **{"6": 1, "4": 1, "2": 1})
    P = phi2(C)
    assert sorted(d.group.dim for d in P.parabolics) == [6, 10]
    C = cls(SO19, (6, 4, 4, 2, 2, 1), **{"6": 1, "4": 1, "2": 1, "1": -1})
    P = phi2(C)
    assert len(P.parabolics) == 3  # three factors are genuinely needed
    assert sorted(d.group.dim for d in P.parabolics) == [3, 6, 10]


def test_phi2_large_golden_case():
    so60 = GroupSpec(Family.SO, 60, Char.TWO)
    lam = Partition((12, 12, 10, 8, 6, 6, 4, 2))
    C = ClassParam(so60, lam, eps_of(**{"12": 1, "10": 1, "8": 1, "6": 1, "4": 1, "2": 1}))
    P = phi2(C)
    by_dim = {d.group.dim: (d.c, d.m0) for d in P.parabolics}
    assert by_dim == {36: ((1, 2, 1, 2), 2), 24: ((2, 1, 2), 2)}


def test_is_extra_examples():
    assert is_extra_class(cls(SO16, (8, 4, 2, 2), **{"8": 1, "4": 1, "2": 1}))
    assert not is_extra_class(cls(SO13, (8, 4, 1), **{"8": 1, "4": 1, "1": -1}))
    so12_good = GroupSpec(Family.SO, 12, Char.GOOD)
    for C in enumerate_classes(so12_good):
        assert not is_extra_class(C)


def test_labels_table_of_extras():
    expected = {
        (8, 4, 2, 2): "D6(a1)D2",
        (6, 4, 4, 2): "D5(a1)D3",
        (6, 4, 2, 2, 1, 1): "D5(a1)D2",
        (4, 4, 2, 2, 2, 2): "A1D4(a1)D2",
        (4, 4, 2, 2, 1, 1, 1, 1): "D4(a1)D2",
    }
    got = {}
    for C in enumerate_classes(SO16):
        if C.split_tag != "II" and is_extra_class(C):
            got[C.lam.parts] = label(C)
    assert got == expected


def test_label_examples():
    assert label(cls(SO13, (8, 4, 1), **{"8": 1, "4": 1, "1": -1})) == "B6(a2)"
    assert label(cls(SO16, (14, 2), **{"14": 1, "2": 1})) == "D8"
    assert label(cls(SO13, (12, 1), **{"12": 1, "1": -1})) == "B6"
    sp8 = GroupSpec(Family.SP, 8, Char.TWO)
    assert label(cls(sp8, (4, 4), **{"4": 1})) == "C2C2"
    assert label(cls(sp8, (1,) * 8, **{"1": -1})) == "0"
    gl6 = GroupSpec(Family.GL, 6, Char.GOOD)
    assert label(ClassParam(gl6, Partition((3, 2, 1)), canonical_eps(gl6, Partition((3, 2, 1))))) == "A2A1"
    # rank >= 2 simple factors in the parabolic's Levi force the diagram fallback
    assert label(cls(SO16, (6, 6, 2, 2), **{"6": 1, "2": 1})) == "D8[x xo xoo (o,o)]"


def test_labels_injective_on_distinct_classes_dim_16():
    for char in (Char.TWO, Char.GOOD):
        for dim in range(2, 17):
            groups = [GroupSpec(Family.SO, dim, char)]
            if dim % 2 == 0:
                groups.append(GroupSpec(Family.SP, dim, char))
            for G in groups:
                seen = {}
                for C in enumerate_classes(G):
                    if C.split_tag == "II":
                        continue
                    text = label(C)
                    assert seen.setdefault(text, C.data_key()) == C.data_key(), (
                        f"{G.describe()}: label {text} is shared"
                    )


def test_diagram_strings():
    P = parabolic_from_blocks(GroupSpec(Family.SO, 36, Char.TWO), Partition((12, 12, 6, 6)))
    assert diagram_string(P).split(" ") == ["x", "xo", "xo", "xoo", "xooo", "xooo", "(o,o)"]
    sp4 = GroupSpec(Family.SP, 4, Char.TWO)
    assert diagram_string(ParabolicDescriptor.borel(sp4)) == "x x"
    P = parabolic_from_blocks(GroupSpec(Family.SO, 12, Char.TWO), Partition((8, 4)))
    assert diagram_string(P) == "x x x xo o"
    P = parabolic_from_blocks(GroupSpec(Family.SO, 13, Char.TWO), Partition((8, 4, 1)))
    assert diagram_string(P) == "x x x xo o"


def test_o_not_so_conjugate():
    so4 = GroupSpec(Family.SO, 4, Char.TWO)
    classes = {(C.lam.parts, C.eps.items, C.split_tag): C for C in enumerate_classes(so4)}
    c_i = classes[((2, 2), ((2, 0),), "I")]
    c_ii = classes[((2, 2), ((2, 0),), "II")]
    assert o_not_so_conjugate(c_i, c_ii)
    assert not o_not_so_conjugate(c_i, c_i)
    c_reg = classes[((2, 2), ((2, 1),), None)]
    assert not o_not_so_conjugate(c_reg, c_reg)
    C = cls(SO16, (6, 4, 4, 2), **{"6": 1, "4": 1, "2": 1})
    assert not o_not_so_conjugate(C, C)
    so12_good = GroupSpec(Family.SO, 12, Char.GOOD)
    C = ClassParam(so12_good, Partition((5, 5, 1, 1)), canonical_eps(so12_good, Partition((5, 5, 1, 1))))
    assert not o_not_so_conjugate(C, C)
    with pytest.raises(InputError):
        o_not_so_conjugate(C, cls(SO13, (12, 1), **{"12": 1, "1": -1}))


def test_right_inverse_laws_exhaustive_dim_24():
    for G in group_sweep(24):
        for C in enumerate_classes(G):
            assert psi1(phi1(C), G).same_class(C), (G.describe(), str(C.lam))
            assert psi2(phi2(C), G).same_class(C), (G.describe(), str(C.lam))


def test_phi2_uses_at_most_three_factors_and_three_is_attained():
    attained = 0
    for G in (SO19, SO16, SO13):
        for C in enumerate_classes(G):
            r = len(phi2(C).parabolics)
            assert r <= 3
            attained = max(attained, r)
    assert attained == 3


def test_iterators_respect_descriptor_constraints():
    for X in iter_regular_subgroups(SO16):
        X.validate_for(SO16)
    for P in iter_parabolic_products(GroupSpec(Family.SO, 9, Char.TWO)):
        P.validate_for(GroupSpec(Family.SO, 9, Char.TWO))


# -- sharing the remainder among the analyses of one request --------------------------

#: Groups whose classes share many remainders (SO30 at p=2: 1,256 classes, 158 betas).
SHARING_GROUPS = group_sweep(16) + [
    GroupSpec(Family.SO, 30, Char.TWO),
    GroupSpec(Family.SP, 30, Char.TWO),
]


def _all_classes(groups):
    return [C for G in groups for C in enumerate_classes(G)]


def test_analyse_all_agrees_with_analysing_each_class_alone():
    # one call over every group at once: records are keyed by group and beta
    classes = _all_classes(SHARING_GROUPS)
    shared = list(analyse_all(classes))
    assert len(shared) == len(classes)
    for C, a in zip(classes, shared):
        b = analyse(C)
        assert (a.group, a.alpha, a.beta, a.pieces) == (b.group, b.alpha, b.beta, b.pieces)
        assert (a.label(), a.is_extra()) == (b.label(), b.is_extra()), (C.group, str(C.lam))
        assert (a.phi1(), a.phi2()) == (b.phi1(), b.phi2()), (C.group, str(C.lam))


def test_one_call_builds_one_remainder_record_per_distinct_beta():
    classes = _all_classes(SHARING_GROUPS)
    records = {}
    for a in analyse_all(classes):
        assert records.setdefault((a.group, a.beta), a.remainder) is a.remainder
        assert (a.remainder.group, a.remainder.beta) == (a.group, a.beta)
    assert len({id(r) for r in records.values()}) == len(records)
    assert sum(1 for G, _ in records if G == SHARING_GROUPS[-2]) == 158


def _count_inversions(monkeypatch) -> list:
    calls = []
    invert = balacarter.parabolic_from_blocks

    def counted(G, lam):
        calls.append((G, lam))
        return invert(G, lam)

    monkeypatch.setattr(balacarter, "parabolic_from_blocks", counted)
    return calls


def test_each_remainder_record_inverts_each_of_its_pieces_once(monkeypatch):
    calls = _count_inversions(monkeypatch)
    classes = _all_classes(SHARING_GROUPS[-2:])
    analyses = list(analyse_all(classes))
    for _ in range(2):  # however often its classes ask, a record inverts once
        for a in analyses:
            a.label()
            a.phi2()
    records = {id(a.remainder): a.remainder for a in analyses}.values()
    want = [(r.group.classical_factor(p.total), p) for r in records for p in r.pieces]
    assert Counter(calls) == Counter(want)
    assert len(calls) == len(want) > len(records)


def test_separate_analyse_calls_share_nothing(monkeypatch):
    # a cache that outlived one call would let the second call skip its inversions
    C = next(C for C in enumerate_classes(SO16) if is_extra_class(C))
    calls = _count_inversions(monkeypatch)
    first, second = analyse(C), analyse(C)
    assert first.remainder is not second.remainder
    assert first.label() == second.label()
    assert len(calls) == 2 * len(first.pieces) > 0
