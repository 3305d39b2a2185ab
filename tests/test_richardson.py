"""Block-table tests: regular classes, Richardson forward map, image, inversion."""

import json

import pytest

from unipotent_atlas.classes import Char, EpsilonMap, Family, GroupSpec, distinguished_eps, eps_options
from unipotent_atlas.cli import SCHEMA, main
from unipotent_atlas.decomp import satisfies_difference_condition
from unipotent_atlas.errors import InputError
from unipotent_atlas import oracle
from unipotent_atlas.oracle import group_sweep, verify_claim
from unipotent_atlas.partitions import Partition, iter_partitions
from unipotent_atlas import richardson
from unipotent_atlas.richardson import (
    ParabolicDescriptor,
    _from_exponents,
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
        return lam, EpsilonMap(((n, eps_options(G, n, 1)[0]),))
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
        G = spec(Family.SP, 2 * m)
        borel = ParabolicDescriptor.make(G, (G.rank,), 0)
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
                    ParabolicDescriptor.make(spec(Family.SO, 2, char), (1,), 0)
            if char is Char.GOOD:
                groups.append(spec(Family.GL, rank, char))
            for G in groups:
                borel = ParabolicDescriptor.make(G, (G.rank,), 0)
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
    assert P == ParabolicDescriptor.make(spec(Family.SP, 10), (5,), 0)
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
    so8 = tuple(enumerate_distinguished_parabolics(spec(Family.SO, 8)))
    assert len(so8) == 2
    assert sorted(richardson_jordan_blocks(P)[0].parts for P in so8) == [(4, 4), (6, 2)]


def reference_chain_vectors(weight):
    """Every c-vector of the given weight with c(i) >= 1 for i <= N, whatever N."""
    out = [()] if weight == 0 else []
    N = 1
    while N * (N + 1) // 2 <= weight:
        for extra in iter_partitions(weight - N * (N + 1) // 2):
            if max(extra, default=0) <= N:
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
        got = [(P.m0, P.c) for P in enumerate_distinguished_parabolics(G)]
        assert got == reference_enumerated(G), G.describe()
        total += len(got)
    assert len(groups) == 192 and total > 10_000


def test_gl_enumeration_matches_the_sorted_partition_reference_ranks_to_20():
    total = 0
    for G in group_sweep(20):
        if G.family is Family.GL:
            got = [(P.m0, P.c) for P in enumerate_distinguished_parabolics(G)]
            assert got == reference_enumerated(G), G.describe()
            total += len(got)
    assert total == sum(1 for n in range(1, 21) for _ in iter_partitions(n))


def test_gl_enumeration_yields_p_n_increasing_descriptors_to_rank_40():
    # a c-vector branch is cut once c(i) > 0 would outweigh the weight left;
    # the cut must lose no shape of GL, whose c-vectors may hold zeros
    for n in range(1, 41):
        got = [P.c for P in enumerate_distinguished_parabolics(spec(Family.GL, n, Char.GOOD))]
        assert got == sorted(set(got)), n
        assert len(got) == sum(1 for _ in iter_partitions(n)), n


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


def scan_inverse(G, lam):
    """The inverse as a linear scan: every descriptor of G whose Richardson
    blocks are lam's parts."""
    return [P for P in enumerate_distinguished_parabolics(G) if richardson_blocks(P) == lam.parts]


def test_index_inverse_matches_the_linear_scan_gl_to_rank_12_sp_so_to_rank_24():
    # the closed-form inverse, whose answers are memoized per (group, blocks)
    total = 0
    for char in (Char.TWO, Char.GOOD):
        groups = [spec(Family.GL, rank, char) for rank in range(1, 13)]
        for rank in range(1, 25):
            groups += [spec(Family.SP, 2 * rank, char), spec(Family.SO, 2 * rank, char),
                       spec(Family.SO, 2 * rank + 1, char)]
        for G in groups:
            descs = tuple(enumerate_distinguished_parabolics(G))
            for P in descs:
                lam = Partition(richardson_blocks(P))
                assert [parabolic_from_blocks(G, lam)] == scan_inverse(G, lam) == [P]
            total += len(descs)
    assert total == 4_290


def test_index_build_refuses_two_descriptors_with_the_same_blocks(monkeypatch):
    # the index is the oracle's reading of the inverse, built from the enumeration
    monkeypatch.setattr(oracle, "richardson_blocks", lambda P: (4, 4))
    report = verify_claim("richardson-inverse", spec(Family.SO, 8))
    assert not report.passed
    assert report.counterexamples[0].endswith("share the Richardson blocks (4, 4)")


def test_a_closed_form_that_admits_a_shape_outside_the_image_fails_on_that_group(planted):
    # (6,4,4,2) is a distinguished shape of SO16 at p=2 that breaks the
    # difference condition; the planted closed form gives it a descriptor
    G, lam = spec(Family.SO, 16), Partition((6, 4, 4, 2))
    real = richardson._solve
    P = real(G, (6, 6, 2, 2))
    planted("_solve", lambda H, parts: P if (H, parts) == (G, lam.parts) else real(H, parts))
    assert in_richardson_image(G, lam) and parabolic_from_blocks(G, lam) is P
    reports = oracle.run_all(16, claims=("richardson-inverse",))
    failed = {r.group: r.counterexamples for r in reports if not r.passed}
    assert failed == {"SO16 (p=2)": ["6,4^2,2: the inverse gives c=3,2,1;m0=2, the index nothing"]}


def test_inverse_past_rank_32_matches_the_enumeration_and_never_enumerates(monkeypatch):
    # the inverse used to refuse every piece past rank 32
    G = spec(Family.SO, 66)
    descs = tuple(enumerate_distinguished_parabolics(G))
    assert len(descs) == 312

    def refusing(*args, **kwargs):
        raise AssertionError("the inverse enumerated")

    monkeypatch.setattr(richardson, "enumerate_distinguished_parabolics", refusing)
    for P in descs:
        assert parabolic_from_blocks(G, Partition(richardson_blocks(P))) == P


_REAL_OFFSET = richardson._offset


def _odd_top_shifted_down(G, m0, i):
    """The exponent table with the odd-characteristic +1 one block size below
    2m0 + dim % 2: every exponent stays non-negative."""
    if G.p2:
        return _REAL_OFFSET(G, m0, i)
    return 1 if i == 2 * m0 + G.dim % 2 - 1 else 0


def _p2_offsets_swapped(G, m0, i):
    """The exponent table with the p = 2 offsets swapped: +2 at odd and -2 at
    even block sizes up to 2m0, so some exponents turn negative."""
    return -_REAL_OFFSET(G, m0, i) if G.p2 else _REAL_OFFSET(G, m0, i)


@pytest.fixture
def planted(monkeypatch):
    """Plant another value of a richardson name, such as the exponent table
    _offset or the closed form _solve; the inverse memo is cleared on the way in and out."""
    def plant(name, value):
        monkeypatch.setattr(richardson, name, value)
        _from_exponents.cache_clear()

    yield plant
    _from_exponents.cache_clear()


def test_forward_map_and_inverse_read_one_exponent_table(planted):
    G = spec(Family.SO, 12, Char.GOOD)
    P = ParabolicDescriptor(G, (1, 2), 1)
    assert richardson_blocks(P) == (7, 5)
    planted("_offset", _odd_top_shifted_down)
    assert richardson_blocks(P) == (7, 4)
    # the inverse takes off the planted offsets too, so the closed form still
    # finds P; parabolic_from_blocks refuses (7, 4) earlier, as it does not fill G
    assert _from_exponents(G, (7, 4)) == P
    reports = oracle.run_all(12, 12, 12, claims=("richardson-inverse",))
    failed = {r.group for r in reports if not r.passed}
    assert len(reports) == 48
    assert failed == {f"SO{d} (p odd)" for d in range(1, 13) if d != 2}


@pytest.mark.parametrize("offset, error", [
    (_p2_offsets_swapped, "partition parts must be positive integers"),
    (_odd_top_shifted_down, "11,1 is not the Richardson class of a distinguished parabolic of SO12 (p odd)"),
])
def test_a_wrong_exponent_table_fails_verify_with_every_report(planted, capsys, offset, error):
    argv = ["verify", "--claim", "all", "--max-dim", "12", "--surjectivity-max-dim", "12", "--max-beta", "12"]
    assert main(argv) == 0
    clean = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    planted("_offset", offset)
    code = main(argv)
    out, err = capsys.readouterr()
    docs = [json.loads(line) for line in out.splitlines()]
    # a failed claim (exit 1), not an input error (exit 2): each report is there, named as before
    assert code == 1 and not err.startswith("error:")
    assert [(d["claim"], d["group"]) for d in docs] == [(d["claim"], d["group"]) for d in clean]
    raised = [d for d in docs if d["counterexamples"][:1] and "the check raised InputError" in d["counterexamples"][0]]
    assert raised and any(error in d["counterexamples"][0] for d in raised)
    assert all(d["outcome"] == "fail" and d["checked"] == 0 for d in raised)


def test_the_inverse_is_memoized_per_group_and_blocks():
    G, lam = spec(Family.SO, 66), Partition((64, 2))
    _from_exponents.cache_clear()
    first = parabolic_from_blocks(G, lam)
    assert parabolic_from_blocks(G, lam) is first
    assert _from_exponents.cache_info()[:2] == (1, 1)  # hits, misses
    assert first.describe() == "c=1^32;m0=1"


def test_a_membership_sweep_leaves_the_inverse_memo_as_it_was():
    # membership used to store an entry, None for a miss, per distinct question
    G = spec(Family.SO, 30)
    before = _from_exponents.cache_info().currsize
    members = sum(in_richardson_image(G, Partition(parts)) for parts in iter_partitions(30))
    assert 0 < members and _from_exponents.cache_info().currsize == before


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
    borel = ParabolicDescriptor.make(spec(Family.SO, 12), (6,), 0)
    assert borel.simple_ranks() == () and borel.levi_name() == "GL1^5 SO2"
    big = parabolic_from_blocks(spec(Family.SO, 16), Partition((6, 6, 2, 2)))
    assert max(big.simple_ranks()) == 2  # GL_3 block: not (a_j)-labelable
