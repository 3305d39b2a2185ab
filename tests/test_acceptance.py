"""Acceptance gate: each criterion runs at its stated tolerance and prints a
pass/fail line (test outcomes mirror the printed lines)."""

import time
from contextlib import contextmanager


from unipotent_atlas.balacarter import (
    RegularSubgroupDescriptor,
    is_extra_class,
    label,
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
    combine,
    enumerate_classes,
    minimal_levi,
    splits_in_so,
)
from unipotent_atlas.cli import main as cli_main
from unipotent_atlas.decomp import decompose, render_trace
from unipotent_atlas.oracle import (
    EXTRA_COUNTS,
    group_sweep,
    so_connected_only_psi1_image,
    verify_claim,
    verify_proposition,
)
from unipotent_atlas.partitions import Partition, iter_partitions
from unipotent_atlas.richardson import (
    ParabolicDescriptor,
    enumerate_distinguished_parabolics,
    in_richardson_image,
    regular_jordan_blocks,
    richardson_jordan_blocks,
)

SO = lambda n, char=Char.TWO: GroupSpec(Family.SO, n, char)


@contextmanager
def budget(name, seconds):
    t0 = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"{name}: FAIL")
        raise
    elapsed = time.perf_counter() - t0
    assert elapsed < seconds, f"{name} took {elapsed:.1f}s, budget {seconds}s"
    print(f"{name}: PASS ({elapsed:.2f}s)")


def eps_of(**kv):
    return EpsilonMap(tuple((int(k), v) for k, v in kv.items()))


def test_criterion_1_worked_decompositions_and_label():
    with budget("criterion 1 (golden decompositions)", 1.0):
        dec = decompose(Partition((8, 4, 1)), SO(13))
        assert dec.beta1 == Partition((8, 4, 1)) and not dec.beta2 and not dec.beta3
        C = ClassParam(SO(13), Partition((8, 4, 1)), eps_of(**{"8": 1, "4": 1, "1": -1}))
        assert label(C) == "B6(a2)"

        dec = decompose(Partition((12, 12, 10, 8, 6, 6, 4, 2)), SO(60))
        assert dec.beta1 == Partition((12, 12, 6, 6))
        assert dec.beta2 == Partition((10, 8, 4, 2))
        assert not dec.beta3
        assert render_trace(dec.trace1, "beta") == (
            "map to 1: 12 12      6 6\n"
            "beta:     12 12 10 8 6 6 4 2\n"
            "map to 0:       10 8     4 2"
        )

        dec = decompose(Partition((6, 4, 4, 2, 2, 1)), SO(19))
        assert dec.pieces() == (
            Partition((6, 4)),
            Partition((4, 2)),
            Partition((2, 1)),
        )


def test_criterion_2_extra_class_table_via_cli(capsys):
    with budget("criterion 2 (extra-class table of SO16)", 5.0):
        code = cli_main(
            ["--format", "json", "classes", "--group", "so", "--dim", "16",
             "--char", "2", "--extra-only"]
        )
        out = capsys.readouterr().out
        assert code == 0
        import json

        doc = json.loads(out)
        rows = doc["classes"]
        assert [tuple(r["lambda"]) for r in rows] == [
            (8, 4, 2, 2),
            (6, 4, 4, 2),
            (6, 4, 2, 2, 1, 1),
            (4, 4, 2, 2, 2, 2),
            (4, 4, 2, 2, 1, 1, 1, 1),
        ]
        assert [r["label"] for r in rows] == [
            "D6(a1)D2",
            "D5(a1)D3",
            "D5(a1)D2",
            "A1D4(a1)D2",
            "D4(a1)D2",
        ]
        pieces = [
            [tuple(p["c"]) for p in r["phi2"]["parabolics"]] for r in rows
        ]
        # Richardson pieces (8,4)+(2,2); (6,4)+(4,2); (6,4)+(2,2); twice (4,4)+(2,2)
        blocks = []
        for r in rows:
            row_blocks = []
            for p in r["phi2"]["parabolics"]:
                G = SO(int(p["group"].split()[0].removeprefix("SO")))
                lam, _ = richardson_jordan_blocks(ParabolicDescriptor(G, tuple(p["c"]), p["m0"]))
                row_blocks.append(lam.parts)
            blocks.append(sorted(row_blocks, reverse=True))
        assert blocks == [
            [(8, 4), (2, 2)],
            [(6, 4), (4, 2)],
            [(6, 4), (2, 2)],
            [(4, 4), (2, 2)],
            [(4, 4), (2, 2)],
        ]


def test_criterion_3_extra_class_counts():
    with budget("criterion 3 (extra-class counts)", 10.0):
        # the extra-counts claim compares each count with the paper's, in EXTRA_COUNTS
        assert EXTRA_COUNTS == {7: 2, 12: 1, 14: 2, 16: 5}
        for dim in EXTRA_COUNTS:
            report = verify_claim("extra-counts", SO(dim))
            assert report.passed, report.counterexamples


def test_criterion_4_witness_class_of_so16():
    with budget("criterion 4 (witness class of SO16)", 5.0):
        G = SO(16)
        lam = Partition((6, 4, 4, 2))
        eps = eps_of(**{"6": 1, "4": 1, "2": 1})
        C = ClassParam(G, lam, eps)  # constructor validates
        assert not in_richardson_image(G, lam)
        assert C.data_key() not in so_connected_only_psi1_image(G)
        X = RegularSubgroupDescriptor(
            Partition(), ((6, True), (4, True), (4, True), (2, True))
        )
        assert psi1(X, G).same_class(C)


def test_criterion_5_theorem_battery_dim_16():
    with budget("criterion 5 (exhaustive map properties, dim <= 16)", 120.0):
        for G in group_sweep(16):
            for claim in ("psi1-surjective", "psi2-surjective", "psi2-injective-r1"):
                assert verify_claim(claim, G).passed, (claim, G.describe())
            for C in enumerate_classes(G):
                assert psi1(phi1(C), G).same_class(C)
                assert psi2(phi2(C), G).same_class(C)
        # the block-table map is injective with image exactly the table rows
        for G in group_sweep(16):
            if G.family is Family.SO and G.dim < 2:
                continue
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
            # Borel consistency with the regular class
            if not (G.family is Family.SO and G.dim == 2):
                borel = ParabolicDescriptor.make(G, (G.rank,), 0)
                assert richardson_jordan_blocks(borel) == regular_jordan_blocks(G)


def test_criterion_6_decomposition_proposition_suite():
    with budget("criterion 6 (decomposition properties, |beta| <= 30)", 120.0):
        report = verify_proposition(30)
        assert report.passed, report.counterexamples[:5]


def test_criterion_7_round_trip_and_splitting():
    with budget("criterion 7 (round trip and split pairs)", 120.0):
        for G in group_sweep(24):
            for C in enumerate_classes(G):
                alpha, beta, eps_beta = minimal_levi(C)
                assert combine(alpha, beta, eps_beta, G).same_class(C)
        from unipotent_atlas.balacarter import o_not_so_conjugate

        for char in (Char.TWO, Char.GOOD):
            for dim in range(2, 17, 2):
                G = GroupSpec(Family.SO, dim, char)
                by_data = {}
                for C in enumerate_classes(G):
                    by_data.setdefault(C.data_key(), []).append(C)
                for group in by_data.values():
                    split = splits_in_so(group[0].lam, group[0].eps)
                    alpha, beta, _ = minimal_levi(group[0])
                    levi_side = not beta and all(p % 2 == 0 for p in alpha.parts)
                    assert split == levi_side, (G.describe(), str(group[0].lam))
                    if split:
                        assert len(group) == 2
                        assert o_not_so_conjugate(group[0], group[1])
                        assert not o_not_so_conjugate(group[0], group[0])
                    else:
                        assert len(group) == 1
                        assert not o_not_so_conjugate(group[0], group[0])


def test_criterion_8_so7_extra_class_decompositions():
    with budget("criterion 8 (SO7 extra classes)", 1.0):
        G = SO(7)
        extras = {}
        for C in enumerate_classes(G):
            if is_extra_class(C):
                _, beta, _ = minimal_levi(C)
                dec = decompose(beta, G)
                extras[C.lam.parts] = (beta.parts, dec.beta1.parts, dec.beta2.parts, label(C))
        assert set(extras) == {(2, 2, 1, 1, 1), (4, 2, 1)}
        beta, b1, b2, text = extras[(2, 2, 1, 1, 1)]
        assert beta == (2, 2, 1) and b1 == (2, 2) and b2 == (1,)
        assert "D2" in text
        beta, b1, b2, text = extras[(4, 2, 1)]
        assert beta == (4, 2, 1) and b1 == (4, 2) and b2 == (1,)
        assert "D3" in text
