"""Block-table tests: regular classes, Richardson forward map, image, inversion."""

import json

import pytest

from unipotent_atlas.classes import Char, Family, GroupSpec, canonical_eps, distinguished_eps
from unipotent_atlas.cli import SCHEMA, main
from unipotent_atlas.decomp import satisfies_difference_condition
from unipotent_atlas.errors import InputError, ResourceLimitError
from unipotent_atlas.oracle import group_sweep
from unipotent_atlas.partitions import Partition, iter_partitions
from unipotent_atlas.richardson import (
    ParabolicDescriptor,
    _enumerated,
    _n_window,
    enumerate_distinguished_parabolics,
    in_richardson_image,
    parabolic_from_blocks,
    regular_blocks,
    regular_jordan_blocks,
    richardson_blocks,
    richardson_jordan_blocks,
)


def spec(family, dim, char=Char.TWO):
    return GroupSpec(family, dim, char)


def test_regular_blocks_examples():
    lam, eps = regular_jordan_blocks(spec(Family.SO, 13))
    assert lam == Partition((12, 1)) and eps[12] == 1 and eps[1] == -1
    lam, _ = regular_jordan_blocks(spec(Family.SO, 16))
    assert lam == Partition((14, 2))
    lam, eps = regular_jordan_blocks(spec(Family.O, 6), nonidentity_component=True)
    assert lam == Partition((6,)) and eps[6] == 1
    lam, eps = regular_jordan_blocks(spec(Family.SO, 4))
    assert lam == Partition((2, 2)) and eps[2] == 1
    assert regular_jordan_blocks(spec(Family.SO, 2))[0] == Partition((1, 1))
    assert regular_jordan_blocks(spec(Family.SO, 9, Char.GOOD))[0] == Partition((9,))
    assert regular_jordan_blocks(spec(Family.SO, 10, Char.GOOD))[0] == Partition((9, 1))
    assert regular_jordan_blocks(spec(Family.SP, 10, Char.GOOD))[0] == Partition((10,))
    assert regular_jordan_blocks(spec(Family.GL, 5, Char.GOOD))[0] == Partition((5,))
    assert regular_jordan_blocks(spec(Family.SO, 1))[0] == Partition((1,))
    with pytest.raises(InputError):
        regular_jordan_blocks(spec(Family.SO, 6), nonidentity_component=True)


def reference_regular_jordan_blocks(G, nonidentity_component=False):
    """The regular class of G as regular_jordan_blocks computed it before
    the block rule moved into regular_blocks."""
    n = G.dim
    if nonidentity_component and not (G.family is Family.O and G.p2 and n % 2 == 0):
        raise InputError("a non-identity component regular class needs O_n, p=2, n even")
    if G.family is Family.GL:
        lam = Partition((n,))
        return lam, canonical_eps(G, lam)
    if G.family is Family.SP or nonidentity_component:
        lam = Partition((n,))
        return lam, distinguished_eps(G, lam)
    if n == 1:
        lam = Partition((1,))
    elif not G.p2:
        lam = Partition((n,) if n % 2 == 1 else (n - 1, 1))
    elif n % 2 == 1:
        lam = Partition((n - 1, 1))
    elif n == 2:
        lam = Partition((1, 1))
    else:
        lam = Partition((n - 2, 2))
    return lam, distinguished_eps(G, lam)


def test_regular_blocks_match_the_reference_dims_1_to_64():
    for family in Family:
        for char in Char:
            for n in range(1, 65):
                if family is Family.SP and n % 2:
                    continue
                G = spec(family, n, char)
                for nonid in (False, True):
                    if nonid and not (family is Family.O and G.p2 and n % 2 == 0):
                        with pytest.raises(InputError):
                            regular_blocks(family, n, G.p2, nonid)
                        continue
                    want = reference_regular_jordan_blocks(G, nonid)
                    assert regular_blocks(family, n, G.p2, nonid) == want[0].parts
                    assert regular_jordan_blocks(G, nonid) == want


def test_table_1_matches_the_reference_dims_1_to_40(capsys):
    for dim in range(1, 41):
        cases = [
            (Family.GL, Char.GOOD, dim, False, "GL"),
            (Family.SP, Char.TWO, dim - dim % 2, False, "Sp, p=2"),
            (Family.SP, Char.GOOD, dim - dim % 2, False, "Sp, p odd"),
            (Family.SO, Char.GOOD, dim | 1, False, "SO odd dim, p odd"),
            (Family.SO, Char.TWO, dim | 1, False, "SO odd dim, p=2"),
            (Family.SO, Char.GOOD, dim - dim % 2, False, "SO even dim, p odd"),
            (Family.SO, Char.TWO, dim - dim % 2, False, "SO even dim, p=2"),
            (Family.O, Char.TWO, dim - dim % 2, True, "O non-identity component, p=2"),
        ]
        rows = []
        for family, char, d, nonid, name in cases:
            if d >= 1:
                G = spec(family, d, char)
                lam, eps = reference_regular_jordan_blocks(G, nonid)
                rows.append({"case": name, "group": G.describe(), "blocks": str(lam), "eps": str(eps)})
        assert main(["--format", "json", "tables", "1", "--dim", str(dim)]) == 0
        doc = {"schema": SCHEMA, "table": 1, "rows": rows}
        assert capsys.readouterr().out == json.dumps(doc, indent=2) + "\n", dim


def test_descriptor_validation_and_normalization():
    so12 = spec(Family.SO, 12)
    P = ParabolicDescriptor(so12, (3, 1), 1)
    assert P.block_sizes() == Partition((2, 1, 1, 1))
    # an even orthogonal descriptor written with m0 = 0 normalizes to m0 = 1
    assert ParabolicDescriptor.make(so12, (4, 1), 0) == P
    with pytest.raises(InputError):
        ParabolicDescriptor(so12, (4, 1), 0)
    with pytest.raises(InputError):
        ParabolicDescriptor(so12, (0, 2), 1)  # chain condition
    with pytest.raises(InputError):
        ParabolicDescriptor(so12, (3, 1), 2)  # wrong weight
    with pytest.raises(InputError):
        ParabolicDescriptor(spec(Family.SP, 8), (2,), 2)  # symplectic remainder
    with pytest.raises(InputError):
        ParabolicDescriptor(spec(Family.SO, 9), (1,), 3)  # window violation
    # trailing zeros are trimmed, also after absorbing a GL_1 block
    P = ParabolicDescriptor.make(spec(Family.SP, 6), (3, 0, 0), 0)
    assert (P.c, P.m0) == ((3,), 0)
    P = ParabolicDescriptor.make(spec(Family.SO, 8), (2, 1, 0), 0)
    assert (P.c, P.m0) == ((1, 1), 1)
    with pytest.raises(InputError):
        ParabolicDescriptor.make(spec(Family.SO, 4), (0, 1), 0)  # no GL_1 block: the chain rule refuses it


@pytest.mark.parametrize("c, m0", [((2.9,), 0), ((2,), 0.0), ((True, True), 0), ((2,), False)])
def test_descriptor_refuses_non_integer_entries(c, m0):
    # int() used to truncate these: c=(2.9,) described as c=1^2;m0=0
    sp4 = spec(Family.SP, 4)
    with pytest.raises(InputError, match="must be integers"):
        ParabolicDescriptor(sp4, c, m0)
    with pytest.raises(InputError, match="must be integers"):
        ParabolicDescriptor.make(sp4, c, m0)


def test_richardson_blocks_examples():
    for m in (1, 2, 5):
        borel = ParabolicDescriptor.borel(spec(Family.SP, 2 * m))
        assert richardson_jordan_blocks(borel)[0] == Partition((2 * m,))
    lam, eps = richardson_jordan_blocks(ParabolicDescriptor(spec(Family.SO, 12), (3, 1), 1))
    assert lam == Partition((8, 4)) and eps[8] == 1 and eps[4] == 1
    lam, eps = richardson_jordan_blocks(ParabolicDescriptor(spec(Family.SO, 13), (3, 1), 1))
    assert lam == Partition((8, 4, 1)) and eps[1] == -1


def test_borel_matches_regular_class_all_families():
    for char in (Char.TWO, Char.GOOD):
        for rank in range(1, 13):
            groups = [spec(Family.SP, 2 * rank, char), spec(Family.SO, 2 * rank + 1, char)]
            if rank >= 2:
                groups.append(spec(Family.SO, 2 * rank, char))
            else:
                with pytest.raises(InputError):  # SO_2 has no distinguished parabolics
                    ParabolicDescriptor.borel(spec(Family.SO, 2, char))
            if char is Char.GOOD:
                groups.append(spec(Family.GL, rank, char))
            for G in groups:
                borel = ParabolicDescriptor.borel(G)
                assert richardson_jordan_blocks(borel) == regular_jordan_blocks(G)


def test_in_richardson_image_examples():
    assert not in_richardson_image(spec(Family.SO, 16), Partition((6, 4, 4, 2)))
    assert in_richardson_image(spec(Family.SO, 12), Partition((8, 4)))
    assert in_richardson_image(spec(Family.SP, 12), Partition((6, 4, 2)))
    assert not in_richardson_image(spec(Family.SP, 12), Partition((4, 4, 2, 2)))
    assert in_richardson_image(spec(Family.SO, 13), Partition((8, 4, 1)))
    assert not in_richardson_image(spec(Family.SO, 13), Partition((4, 4, 4, 1)))
    assert in_richardson_image(spec(Family.SO, 12, Char.GOOD), Partition((7, 5)))
    assert not in_richardson_image(spec(Family.SO, 12, Char.GOOD), Partition((5, 5, 1, 1)))
    assert in_richardson_image(spec(Family.GL, 5, Char.GOOD), Partition((2, 2, 1)))
    with pytest.raises(InputError):
        in_richardson_image(spec(Family.SO, 12), Partition((8, 2)))


def test_parabolic_from_blocks_examples():
    P = parabolic_from_blocks(spec(Family.SO, 12), Partition((8, 4)))
    assert (P.c, P.m0) == ((3, 1), 1)
    P = parabolic_from_blocks(spec(Family.SP, 10), Partition((10,)))
    assert P == ParabolicDescriptor.borel(spec(Family.SP, 10))
    P = parabolic_from_blocks(spec(Family.SO, 24), Partition((10, 8, 4, 2)))
    assert (P.c, P.m0) == ((2, 1, 2), 2)
    P = parabolic_from_blocks(spec(Family.SO, 36), Partition((12, 12, 6, 6)))
    assert (P.c, P.m0) == ((1, 2, 1, 2), 2)
    with pytest.raises(InputError):
        parabolic_from_blocks(spec(Family.SO, 16), Partition((6, 4, 4, 2)))


def test_enumeration_examples_and_regressions():
    gl3 = [(P.c, P.m0) for P in enumerate_distinguished_parabolics(spec(Family.GL, 3, Char.GOOD))]
    # GL enumerates every Levi shape; the map to blocks is shape -> dual
    assert gl3 == [((0, 0, 1), 0), ((1, 1), 0), ((3,), 0)]
    sp2 = enumerate_distinguished_parabolics(spec(Family.SP, 2))
    assert [(P.c, P.m0) for P in sp2] == [((1,), 0)]
    # frozen regression value: SO_8 at p=2 has exactly two distinguished parabolics
    so8 = enumerate_distinguished_parabolics(spec(Family.SO, 8))
    assert len(so8) == 2
    assert sorted(richardson_jordan_blocks(P)[0].parts for P in so8) == [(4, 4), (6, 2)]
    with pytest.raises(ResourceLimitError):
        enumerate_distinguished_parabolics(spec(Family.SO, 80))


def reference_chain_vectors(weight):
    """Every c-vector of the given weight with c(i) >= 1 for i <= N, whatever N."""
    out = [()] if weight == 0 else []
    N = 1
    while N * (N + 1) // 2 <= weight:
        for extra in iter_partitions(weight - N * (N + 1) // 2, max_part=N):
            out.append(tuple(1 + extra.count(i) for i in range(1, N + 1)))
        N += 1
    return out


def reference_enumerated(G):
    """The enumeration as it was before the c-vectors were generated in
    lexicographic order: for GL the multiplicities of every partition of the
    rank; for Sp and SO every chain vector, then a filter on N; then a sort."""
    if G.family is Family.GL:
        out = [(0, tuple(shape.count(i) for i in range(1, max(shape, default=0) + 1)))
               for shape in iter_partitions(G.rank)]
    elif G.family is Family.SP:
        out = [(0, c) for c in reference_chain_vectors(G.rank)]
    else:
        out = [(m0, c) for m0 in range(G.rank + 1) for c in reference_chain_vectors(G.rank - m0)
               if len(c) in _n_window(G, m0)]
    return sorted(out)


def test_windowed_enumeration_matches_the_filtered_reference_ranks_to_32():
    groups = [G for G in group_sweep(64) if G.family is not Family.GL]
    total = 0
    for G in groups:
        got = [(P.m0, P.c) for P in _enumerated(G)]
        assert got == reference_enumerated(G), G.describe()
        total += len(got)
    assert len(groups) == 192 and total > 10_000


def test_gl_enumeration_matches_the_sorted_partition_reference_ranks_to_20():
    total = 0
    for G in group_sweep(20):
        if G.family is Family.GL:
            got = [(P.m0, P.c) for P in _enumerated(G)]
            assert got == reference_enumerated(G), G.describe()
            total += len(got)
    assert total == sum(1 for n in range(1, 21) for _ in iter_partitions(n))


def test_enumeration_refuses_full_orthogonal_groups():
    with pytest.raises(InputError, match="gl, sp, and so only"):
        enumerate_distinguished_parabolics(spec(Family.O, 5))


def test_forward_map_injective_image_matches_table_ranks_to_12():
    for char in (Char.TWO, Char.GOOD):
        for rank in range(1, 13):
            groups = [spec(Family.SP, 2 * rank, char)]
            for dim in (2 * rank, 2 * rank + 1):
                if dim >= 2:
                    groups.append(spec(Family.SO, dim, char))
            if char is Char.GOOD and rank <= 10:
                groups.append(spec(Family.GL, rank, char))
            for G in groups:
                descs = enumerate_distinguished_parabolics(G)
                blocks = [richardson_jordan_blocks(P)[0] for P in descs]
                assert len(set(blocks)) == len(blocks), G.describe()
                image = {b.parts for b in blocks}
                table = {
                    parts
                    for parts in iter_partitions(G.dim)
                    if in_richardson_image(G, Partition(parts))
                }
                assert image == table, G.describe()


def test_inverse_recovers_every_descriptor_ranks_to_20():
    # the inverse matches Jordan block parts alone; the blocks carry the
    # multiplicities the validating constructor derives from their parts
    total = 0
    for char in (Char.TWO, Char.GOOD):
        for rank in range(1, 21):
            groups = [spec(Family.SP, 2 * rank, char), spec(Family.SO, 2 * rank, char),
                      spec(Family.SO, 2 * rank + 1, char)]
            if char is Char.GOOD and rank <= 10:
                groups.append(spec(Family.GL, rank, char))
            for G in groups:
                for P in enumerate_distinguished_parabolics(G):
                    lam, _ = richardson_jordan_blocks(P)
                    assert lam.parts == richardson_blocks(P)
                    assert list(lam.multiplicities().items()) == list(
                        Partition(lam.parts).multiplicities().items()
                    )
                    assert parabolic_from_blocks(G, lam) == P, (G.describe(), P.describe())
                    total += G.family is not Family.GL
    assert total == 1_826


def test_orthogonal_p2_image_satisfies_difference_condition():
    for dim in range(3, 17):
        G = spec(Family.SO, dim)
        for P in enumerate_distinguished_parabolics(G):
            lam, _ = richardson_jordan_blocks(P)
            assert satisfies_difference_condition(lam)


def test_descriptor_structure_queries():
    P = ParabolicDescriptor(spec(Family.SO, 13), (3, 1), 1)
    assert P.simple_ranks() == (1, 1)
    assert P.levi_name() == "GL1^3 GL2 SO3"
    borel = ParabolicDescriptor.borel(spec(Family.SO, 12))
    assert borel.simple_ranks() == () and borel.levi_name() == "GL1^5 SO2"
    big = parabolic_from_blocks(spec(Family.SO, 16), Partition((6, 6, 2, 2)))
    assert max(big.simple_ranks()) == 2  # GL_3 block: not (a_j)-labelable
