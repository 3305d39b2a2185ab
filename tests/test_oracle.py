"""Verifier tests: report plumbing plus passing runs at modest bounds."""

import json
import os
import re
import signal
import subprocess
import sys
import textwrap
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from unipotent_atlas import balacarter, classes, cli, oracle, richardson
from unipotent_atlas.classes import (
    Char,
    Family,
    GroupSpec,
    distinguished_eps,
    enumerate_classes,
    shape_violation,
)
from unipotent_atlas.errors import InputError
from unipotent_atlas.richardson import enumerate_distinguished_parabolics
from unipotent_atlas.balacarter import (
    ClassAnalysis,
    RegularSubgroupDescriptor,
    factor_blocks,
    iter_parabolic_products,
    iter_regular_subgroups,
    psi1,
    psi2,
)
from unipotent_atlas.oracle import (
    BATTERY,
    GROUP_CLAIMS,
    VerificationReport,
    distinguished_shapes,
    group_sweep,
    iter_admissible_beta,
    run_all,
    so_connected_only_psi1_image,
    verify_claim,
    verify_proposition,
)
from unipotent_atlas.partitions import Partition, iter_partitions


def test_report_invariants():
    rep = VerificationReport("demo", None, 4)
    assert rep.passed and rep.outcome == "pass"
    line = json.loads(rep.to_json_line())
    assert line["schema"] == "unipotent-atlas/v1"
    assert line["outcome"] == "pass"
    assert line["checked"] == 0
    rep = VerificationReport("demo", None, 4, ["bad input"])
    assert not rep.passed and rep.outcome == "fail"
    assert json.loads(rep.to_json_line())["outcome"] == "fail"
    # the outcome follows the counterexamples, also when they change
    rep.counterexamples.clear()
    assert rep.outcome == "pass"


def test_surjectivity_examples():
    assert verify_claim("psi1-surjective", GroupSpec(Family.SO, 16, Char.TWO)).passed
    assert verify_claim("psi2-surjective", GroupSpec(Family.SP, 8, Char.TWO)).passed
    assert verify_claim("psi2-surjective", GroupSpec(Family.GL, 5, Char.GOOD)).passed
    with pytest.raises(InputError, match="psi1-surjective, psi2-surjective"):
        verify_claim("psi3-surjective", GroupSpec(Family.SO, 8, Char.TWO))


def test_gl_psi2_is_bijective():
    G = GroupSpec(Family.GL, 5, Char.GOOD)
    from unipotent_atlas.balacarter import iter_parabolic_products, psi2

    images = [psi2(P, G).data_key() for P in iter_parabolic_products(G)]
    assert len(images) == len(set(images))
    assert verify_claim("psi2-surjective", G).passed


def test_right_inverse_examples():
    assert verify_claim("phi2-right-inverse", GroupSpec(Family.SO, 14, Char.TWO)).passed
    assert verify_claim("phi2-right-inverse", GroupSpec(Family.SO, 13, Char.TWO)).passed
    assert verify_claim("phi1-right-inverse", GroupSpec(Family.SP, 10, Char.GOOD)).passed


def test_psi2_restricted_injectivity_spot():
    assert verify_claim("psi2-injective-r1", GroupSpec(Family.SO, 12, Char.TWO)).passed
    assert verify_claim("psi2-injective-r1", GroupSpec(Family.SP, 10, Char.GOOD)).passed


def test_single_factor_products_are_the_filtered_full_sweep():
    # the psi2 injectivity check reads the keys of these products from the
    # full psi2 table when that table is built, so each must be an entry of it
    for G in group_sweep(12):
        full = [P for P in iter_parabolic_products(G) if len(P.parabolics) <= 1]
        assert list(iter_parabolic_products(G, max_factors=1)) == full, G.describe()


def test_proposition_small_bound():
    rep = verify_proposition(20)
    assert rep.passed and rep.bound == 20


def test_admissible_beta_shapes():
    betas = list(iter_admissible_beta(12))
    assert Partition((6, 4, 2)) not in betas  # no part 1 and oddly many parts
    assert Partition((4, 2, 1)) in betas
    assert Partition((4, 4, 2, 2)) in betas
    for beta in betas:
        ones = beta.multiplicity(1)
        assert ones <= 1
        assert all(x % 2 == 0 for x in beta.values() if x != 1)
        assert all(beta.multiplicity(x) <= 2 for x in beta.values() if x != 1)
        if ones == 0:
            assert len(beta) % 2 == 0
    # the SO p=2 case of the oracle's one statement of the shapes
    assert betas == [b for n in range(1, 13) for b in distinguished_shapes(Family.SO, Char.TWO, n)]


@pytest.mark.parametrize("family", [Family.SP, Family.SO])
@pytest.mark.parametrize("char", list(Char))
def test_distinguished_shapes_match_the_library_reading_to_dim_24(family, char):
    for n in range(1, 25):
        shapes = list(distinguished_shapes(family, char, n))
        if family is Family.SP and n % 2:
            assert shapes == []
            continue
        H = GroupSpec(family, n, char)
        want = {p for p in iter_partitions(n) if shape_violation(H, Partition(p)) is None}
        # each shape once, lexicographically decreasing
        assert [beta.parts for beta in shapes] == sorted(want, reverse=True), H.describe()
    assert list(distinguished_shapes(family, char, 0)) == [Partition()]


def test_distinguished_shapes_are_stated_for_sp_and_so_only():
    with pytest.raises(InputError):
        list(distinguished_shapes(Family.GL, Char.GOOD, 4))


def test_extra_class_counts():
    # the extra-counts claim passes exactly when the analyses count the closed count
    cases = [(GroupSpec(Family.SO, dim, Char.TWO), want) for dim, want in ((7, 2), (12, 1), (14, 2), (16, 5))]
    cases.append((GroupSpec(Family.SO, 12, Char.GOOD), 0))
    # frozen after inspection: (4,4), (4,2,2), (2^4), (2^2,1^4), all with eps 1
    cases.append((GroupSpec(Family.SP, 8, Char.TWO), 4))
    for G, want in cases:
        report = verify_claim("extra-counts", G)
        assert report.passed and oracle._closed_extra_count(G) == want, G.describe()


def test_partition_counts_follow_the_enumeration():
    assert oracle._partition_counts(30) == tuple(len(list(iter_partitions(n))) for n in range(31))


def test_the_extra_count_claim_passes_on_every_group_to_dim_30():
    reports = run_all(30, claims=("extra-counts",))
    assert [r.group for r in reports] == [G.describe() for G in group_sweep(30)]
    assert all(r.passed and r.claim == "extra-count" for r in reports), [r.group for r in reports if not r.passed]


def test_extras_the_analyses_miss_fail_against_the_identity(monkeypatch):
    monkeypatch.setattr(ClassAnalysis, "is_extra", lambda a: False)
    reports = run_all(16, claims=("extra-counts",))
    closed = {G.describe(): oracle._closed_extra_count(G) for G in group_sweep(16)}
    assert closed["SO16 (p=2)"] == 5 and closed["Sp8 (p=2)"] == 4
    failed = {r.group: r.counterexamples for r in reports if not r.passed}
    assert failed.keys() == {group for group, count in closed.items() if count}
    for group, counterexamples in failed.items():
        assert counterexamples[0] == f"counted 0, the identity gives {closed[group]}"


def test_a_wrong_paper_count_fails_its_group_alone(monkeypatch, capsys):
    monkeypatch.setattr(oracle, "EXTRA_COUNTS", {**oracle.EXTRA_COUNTS, 16: 6})
    assert cli.main(["verify", "--claim", "extra-counts", "--max-dim", "16"]) == 1
    reports = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert {r["group"]: r["counterexamples"] for r in reports if r["outcome"] == "fail"} == {
        "SO16 (p=2)": ["counted 5, the paper gives 6"]}


def test_the_richardson_inverse_claim_passes_on_every_group_to_dim_24():
    reports = run_all(24, claims=("richardson-inverse",))
    assert [r.group for r in reports] == [G.describe() for G in group_sweep(24)]
    assert all(r.passed and r.claim == "richardson-inverse" for r in reports), [
        (r.group, r.counterexamples) for r in reports if not r.passed]
    checked = {r.group: r.checked for r in reports}
    # one per descriptor; SO2 has none, so its two partitions must be refused
    assert checked["SO16 (p=2)"] == len(tuple(enumerate_distinguished_parabolics(GroupSpec(Family.SO, 16, Char.TWO))))
    assert checked["SO2 (p=2)"] == checked["SO2 (p odd)"] == 2


def test_the_richardson_index_is_read_against_the_shape_rule(monkeypatch):
    # an enumeration that loses its first descriptor leaves an admitted shape,
    # or on GL a partition, out of the index
    real = oracle.enumerate_distinguished_parabolics
    monkeypatch.setattr(oracle, "enumerate_distinguished_parabolics", lambda G: tuple(real(G))[1:])
    G = GroupSpec(Family.SO, 12, Char.TWO)
    lost = Partition(richardson.richardson_blocks(next(real(G))))
    assert verify_claim("richardson-inverse", G).counterexamples == [
        f"{lost}: the shape rule admits it, the index holds no descriptor"]
    assert verify_claim("richardson-inverse", GroupSpec(Family.GL, 6, Char.GOOD)).counterexamples == [
        "the index holds 10 block tuples, not the p(6) = 11 partitions"]
    # a forward map that sends a descriptor outside the image puts a refused shape in it
    monkeypatch.setattr(oracle, "enumerate_distinguished_parabolics", real)
    G = GroupSpec(Family.SO, 16, Char.TWO)
    first = next(real(G))
    blocks = oracle.richardson_blocks
    monkeypatch.setattr(oracle, "richardson_blocks", lambda P: (6, 4, 4, 2) if P == first else blocks(P))
    assert f"6,4^2,2: the index holds {first.describe()}, the shape rule refuses it" in verify_claim(
        "richardson-inverse", G).counterexamples


def test_a_closed_form_with_m0_off_by_one_fails_on_so_at_p2(monkeypatch):
    real = richardson._from_exponents

    def planted(G, parts):
        P = real(G, parts)
        if P is None or not (G.family is Family.SO and G.p2):
            return P
        return richardson._trusted_parabolic(G, P.c, P.m0 + 1)

    monkeypatch.setattr(richardson, "_from_exponents", planted)
    reports = run_all(12, claims=("richardson-inverse",))
    failed = {r.group: r.counterexamples for r in reports if not r.passed}
    assert failed.keys() == {G.describe() for G in group_sweep(12)
                             if G.family is Family.SO and G.p2 and G.dim != 2}
    # every descriptor of those groups is a counterexample
    assert all(len(failed[r.group]) == r.checked for r in reports if not r.passed)
    assert failed["SO8 (p=2)"][0] == "4^2: the inverse gives c=2,1;m0=2, the index c=2,1;m0=1"


@pytest.mark.parametrize("claim, check, report", [
    ("psi2-injective-r1", "_psi2_injective", "psi2-injective-r<=1"),
    ("extra-counts", "_extra_counts", "extra-count"),
    ("richardson-inverse", "_richardson_inverse", "richardson-inverse"),
])
def test_an_input_error_inside_a_check_is_a_failed_report_of_that_claim(monkeypatch, claim, check, report):
    def raising(work, *args):
        raise InputError("planted refusal")

    monkeypatch.setattr(oracle, check, raising)
    G = GroupSpec(Family.SO, 8, Char.TWO)
    rep = verify_claim(claim, G)
    assert (rep.claim, rep.group, rep.bound, rep.passed, rep.checked) == (report, "SO8 (p=2)", 8, False, 0)
    assert rep.counterexamples == ["the check raised InputError: planted refusal"]
    # run_all's bound checks still refuse before any check runs
    with pytest.raises(InputError, match="--max-dim"):
        run_all(0, claims=(claim,))


def test_minimal_levi_verifier_sweep_dim_16():
    from unipotent_atlas.oracle import group_sweep

    for G in group_sweep(16):
        rep = verify_claim("minimal-levi", G)
        assert rep.passed, (G.describe(), rep.counterexamples[:3])


def _refuse_blocks(monkeypatch, parts):
    """Plant a library that knows no class with the given blocks: combine, psi1
    and psi2 refuse to build one.  Enumeration, which generates the admissible
    shapes from the parity rule without this check, still lists such a class."""
    real = classes._lambda_admissible
    monkeypatch.setattr(classes, "_lambda_admissible",
                        lambda G, lam, mults: lam.parts != parts and real(G, lam, mults))


def test_a_shape_the_library_refuses_fails_the_minimal_levi_claim(monkeypatch, capsys):
    # the oracle still states the shape (16, 1); past PREIMAGE_MAX_DIM, no
    # regular-subgroup image meets the refusal
    _refuse_blocks(monkeypatch, (16, 1))
    rep = verify_claim("minimal-levi", GroupSpec(Family.SO, 17, Char.TWO))
    assert not rep.passed
    refusals = [c for c in rep.counterexamples if c.startswith("combine refuses the distinguished shape 16,1:")]
    assert len(refusals) == 1
    assert cli.main(["verify", "--claim", "minimal-levi", "--max-dim", "17"]) == 1
    captured = capsys.readouterr()
    reports = [json.loads(line) for line in captured.out.splitlines()]
    assert [r["group"] for r in reports if r["outcome"] == "fail"] == ["SO17 (p=2)"]
    # verify's summary on stderr names the claim's one failure and its group
    summary = captured.err.splitlines()
    assert summary[0].startswith("minimal-levi ") and summary[0].endswith("summed  1 FAILED")
    assert summary[1].startswith("    SO17 (p=2): ['16,1: combine refuses the extraction:")


@pytest.mark.parametrize("claim, psi", [("psi1-surjective", "psi1"), ("psi2-surjective", "psi2"),
                                       ("psi2-injective-r1", "psi2"), ("minimal-levi", "psi1")])
def test_a_descriptor_the_library_refuses_fails_the_claim_that_reads_it(monkeypatch, capsys, claim, psi):
    # at dim 6 the minimal-Levi claim reads the psi1 image table too
    _refuse_blocks(monkeypatch, (4, 2))
    assert cli.main(["verify", "--claim", claim, "--max-dim", "6"]) == 1
    reports = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    failed = {r["group"]: r["counterexamples"] for r in reports if r["outcome"] == "fail"}
    assert {"Sp6 (p odd)", "SO6 (p=2)"} <= failed.keys()
    for group, counterexamples in failed.items():
        assert any(c.startswith(f"{psi} refuses ") and c.endswith(f"is not a valid class of {group}")
                   for c in counterexamples), group


def test_a_class_the_library_refuses_to_rebuild_fails_the_class_level_claims(monkeypatch):
    # the class (4, 2) is enumerated and analysed before the refusal is planted,
    # so only its rebuilding meets it: by combine on the extraction path, and by
    # psi1 and psi2 on the right-inverse paths
    work = oracle._GroupWork(GroupSpec(Family.SP, 6, Char.GOOD))
    assert Partition((4, 2)) in {a.beta for a in work.analyses}
    _refuse_blocks(monkeypatch, (4, 2))
    refusal = "(4,2, 4:1,2:1) is not a valid class of Sp6 (p odd)"
    levi = oracle._minimal_levi(work)
    assert f"4,2: combine refuses the extraction: {refusal}" in levi.counterexamples
    assert oracle._right_inverse(work, "phi1").counterexamples == [f"psi1 refuses Cl4 Cl2: {refusal}"]
    [phi2] = oracle._right_inverse(work, "phi2").counterexamples
    assert phi2.startswith("psi2 refuses ") and phi2.endswith(refusal)


def _per_descriptor_images(G, which):
    """psi run on every descriptor of G: the number of descriptors, the
    refusals in enumeration order, and the data_keys of the classes reached."""
    psi, descriptors = {"psi1": (psi1, iter_regular_subgroups), "psi2": (psi2, iter_parabolic_products)}[which]
    count, refusals, image = 0, [], set()
    for X in descriptors(G):
        count += 1
        try:
            image.add(psi(X, G).data_key())
        except InputError as exc:
            refusals.append(f"{which} refuses {X.describe()}: {exc}")
    return count, refusals, image


@pytest.mark.parametrize("which", ["psi1", "psi2"])
def test_the_two_image_readings_agree_on_every_group_to_dim_16(which):
    # the oracle's reading runs psi once per pair of GL parts and classical
    # blocks; psi run on each descriptor must give the same image
    merged = 0
    for G in group_sweep(16):
        work = oracle._GroupWork(G)
        count, refusals, image = _per_descriptor_images(G, which)
        assert work.images(which) == (refusals, image), G.describe()
        assert refusals == [] and image == {C.data_key() for C in work.classes}
        merged += count - len(work._pairs[which])
    assert merged > 0  # some descriptors share a pair, so psi runs fewer times than per descriptor


@pytest.mark.parametrize("which", ["psi1", "psi2"])
def test_the_two_image_readings_give_the_same_refusals(monkeypatch, which):
    # a planted library that knows no class with a block of size 2 refuses
    # some descriptors: both readings list the same refusals, in the same order
    real = classes._lambda_admissible
    monkeypatch.setattr(classes, "_lambda_admissible", lambda G, lam, mults: 2 not in mults and real(G, lam, mults))
    refused = 0
    for G in group_sweep(16):
        _, refusals, image = _per_descriptor_images(G, which)
        assert oracle._GroupWork(G).images(which) == (refusals, image), G.describe()
        refused += len(refusals)
    assert refused > 100


@pytest.mark.parametrize("G", [GroupSpec(Family.SO, 12, Char.GOOD), GroupSpec(Family.SO, 17, Char.GOOD)],
                         ids=["SO12", "SO17"])
def test_psi_runs_once_per_pair_at_every_dimension(monkeypatch, G):
    calls = []
    psi, enumerate_descriptors, attr = oracle._MAPS["psi1"]
    monkeypatch.setitem(oracle._MAPS, "psi1", (lambda X, H: calls.append(X) or psi(X, H), enumerate_descriptors, attr))
    work = oracle._GroupWork(G)
    refusals, image = work.images("psi1")
    assert refusals == [] and image == {C.data_key() for C in work.classes}
    descriptors = list(iter_regular_subgroups(G))
    pairs = {(X.gl_parts.parts, tuple(sorted(b for f in X.cl_parts for b in factor_blocks(G, f))))
             for X in descriptors}
    assert len(calls) == len(work._pairs["psi1"]) == len(pairs) < len(descriptors) / 3
    assert verify_claim("psi1-surjective", G).passed


def test_a_descriptor_that_validate_for_refuses_is_listed_once_by_name(monkeypatch):
    G = GroupSpec(Family.SO, 8, Char.GOOD)
    work = oracle._GroupWork(G)
    assert work.images("psi1")[0] == []  # every pair of G is now known
    real = RegularSubgroupDescriptor.validate_for

    def refusing(X, H):
        if 2 in X.gl_parts.parts:
            raise InputError("planted: no GL2 block")
        real(X, H)

    monkeypatch.setattr(RegularSubgroupDescriptor, "validate_for", refusing)
    want = [f"psi1 refuses {X.describe()}: planted: no GL2 block"
            for X in iter_regular_subgroups(G) if 2 in X.gl_parts.parts]
    assert len(want) > 1
    for claim in ("psi1-surjective", "minimal-levi"):
        got = [c for c in verify_claim(claim, G).counterexamples if c.startswith("psi1 refuses")]
        assert got == want, claim
    # a refused descriptor whose pair an accepted one holds is still refused
    assert work.images("psi1")[0] == want


def test_a_swept_group_enumerates_under_the_sweep_bound():
    # past the classes command's default bound of 40: the library sets none, so a sweep reaches it
    assert len(oracle._GroupWork(GroupSpec(Family.GL, 41, Char.GOOD)).classes) == 44_583


def test_connected_only_image_misses_the_witness_class():
    G = GroupSpec(Family.SO, 16, Char.TWO)
    lam = Partition((6, 4, 4, 2))
    witness = (lam.parts, ((6, 1), (4, 1), (2, 1)))
    assert witness not in so_connected_only_psi1_image(G)
    assert witness in oracle._GroupWork(G).images("psi1")[1]


def _rows(reports):
    return [(r.claim, r.group, r.outcome, r.counterexamples, r.checked) for r in reports]


def _separate_battery(max_dim, surjectivity_max_dim, beta_bound):
    """run_all's reports of BATTERY, each from verify_claim on a fresh record:
    sweep by sweep, each claim read at the bound GROUP_CLAIMS names for it."""
    bounds = {"max_dim": max_dim, "surjectivity_max_dim": surjectivity_max_dim}
    group_claims = {claim: GROUP_CLAIMS[claim] for claim in BATTERY if claim in GROUP_CLAIMS}
    reports = []
    for bound in dict.fromkeys(entry[0] for entry in group_claims.values()):
        claims = [claim for claim, entry in group_claims.items() if entry[0] == bound]
        reports += [verify_claim(claim, G) for G in group_sweep(bounds[bound]) for claim in claims]
    reports.append(verify_proposition(beta_bound))
    return reports


def test_battery_matches_the_separate_verifiers():
    t0 = time.perf_counter()
    battery = run_all(12, 10, 20)
    wall = time.perf_counter() - t0
    assert _rows(battery) == _rows(_separate_battery(12, 10, 20))
    assert all(r.passed for r in battery)
    # the shared enumeration and analyses are timed in the reports
    assert sum(r.elapsed_seconds for r in battery) >= 0.9 * wall


def test_the_surjectivity_sweep_defaults_to_max_dim_below_16():
    # it used to reach dim 16 whatever max_dim said
    swept = [G.describe() for G in group_sweep(8)]
    battery = run_all(8, beta_bound=8)
    for claim in ("psi1-surjective", "psi2-surjective", "psi2-injective-r<=1"):
        assert [r.group for r in battery if r.claim == claim] == swept


def test_run_all_refuses_an_unknown_claim():
    with pytest.raises(InputError, match="unknown claim 'psi3'"):
        run_all(4, claims=("psi3",))


def test_no_report_checks_nothing():
    # minimal-levi on GL used to pass with checked 0; it now checks each class's extraction
    for rep in run_all(6, 4, 8):
        assert rep.checked > 0, (rep.claim, rep.group)
    G = GroupSpec(Family.SO, 8, Char.TWO)
    untagged = [C for C in enumerate_classes(G) if C.split_tag != "II"]
    assert verify_claim("minimal-levi", G).checked == len(untagged) == 10
    assert verify_claim("minimal-levi", GroupSpec(Family.GL, 8, Char.GOOD)).checked == 22


def test_a_report_that_checks_nothing_fails(monkeypatch, capsys):
    monkeypatch.setattr(oracle, "enumerate_classes", lambda G: [])
    assert cli.main(["verify", "--claim", "minimal-levi", "--max-dim", "3"]) == 1
    reports = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [r["group"] for r in reports] == [G.describe() for G in group_sweep(3)]
    assert all(r["checked"] == 0 and "checked nothing" in r["counterexamples"] for r in reports)


def test_gl_minimal_levi_fails_an_extraction_that_leaves_a_remainder(monkeypatch):
    real = balacarter.minimal_levi

    def keep_a_block(C):
        alpha, beta, eps = real(C)
        if C.group.family is not Family.GL or not alpha:
            return alpha, beta, eps
        return Partition(alpha.parts[1:]), Partition(alpha.parts[:1]), eps

    monkeypatch.setattr(balacarter, "minimal_levi", keep_a_block)
    rep = verify_claim("minimal-levi", GroupSpec(Family.GL, 3, Char.GOOD))
    assert rep.checked == 3 and rep.counterexamples == [
        "3: extracted 0|3, not the blocks and an empty remainder",
        "2,1: extracted 1|2, not the blocks and an empty remainder",
        "1^3: extracted 1^2|1, not the blocks and an empty remainder",
    ]


def test_battery_reports_a_wrong_minimal_levi_split(monkeypatch):
    real = balacarter.minimal_levi

    def wrong(C):
        # move a doubled remainder part back into the GL blocks: same blocks,
        # but not the split the classification prescribes
        alpha, beta, eps_beta = real(C)
        doubled = [x for x, m in beta.multiplicities().items() if m == 2]
        if not doubled:
            return alpha, beta, eps_beta
        x = doubled[0]
        beta = Partition(tuple(p for p in beta.parts if p != x))
        return alpha + Partition((x,)), beta, distinguished_eps(C.group, beta)

    monkeypatch.setattr(balacarter, "minimal_levi", wrong)
    battery = run_all(8, 4, 8)
    failed = {r.claim for r in battery if not r.passed}
    assert {"minimal-levi", "phi1-right-inverse", "phi2-right-inverse"} <= failed
    levi = [c for r in battery if r.claim == "minimal-levi" for c in r.counterexamples]
    assert any("vs brute force" in c for c in levi) and any("not phi1" in c for c in levi)
    assert _rows(battery) == _rows(_separate_battery(8, 4, 8))


@pytest.mark.parametrize("which", ["phi1", "phi2"])
def test_battery_reports_a_wrong_right_inverse(monkeypatch, which):
    # a valid descriptor of the group, but the same one for every class; the
    # battery looks it up in its image tables (psi2's reach only dim 8)
    first = iter_regular_subgroups if which == "phi1" else iter_parabolic_products
    monkeypatch.setattr(ClassAnalysis, which, lambda a: next(first(a.group)))
    battery = run_all(10, 8, 12)
    failures = [r for r in battery if r.claim == f"{which}-right-inverse" and not r.passed]
    assert {r.group for r in failures} >= {"SO10 (p=2)", "SO6 (p=2)", "Sp10 (p odd)"}
    assert all(c.startswith(f"psi({which}(") for r in failures for c in r.counterexamples)
    assert _rows(battery) == _rows(_separate_battery(10, 8, 12))


def test_one_usable_cpu_runs_the_battery_serially_with_the_same_reports(monkeypatch):
    monkeypatch.setattr(oracle, "_usable_cpus", lambda: 2)
    forked = run_all(12, 10, 20)
    _assert_no_child_left()
    monkeypatch.setattr(oracle, "_usable_cpus", lambda: 1)
    assert _rows(run_all(12, 10, 20)) == _rows(forked)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _crash_in_a_worker(monkeypatch):
    """Make every group's injectivity check raise, naming its process, and
    force two usable CPUs, so the checks run in worker processes."""
    def crash(work):
        raise ArithmeticError(f"table lost in process {os.getpid()}")

    monkeypatch.setattr(oracle, "_psi2_injective", crash)
    monkeypatch.setattr(oracle, "_usable_cpus", lambda: 2)


def test_a_check_that_raises_in_a_pool_process_raises_in_the_caller(monkeypatch):
    _crash_in_a_worker(monkeypatch)
    with pytest.raises(ArithmeticError) as info:
        run_all(8, 6, 8)
    pid = re.fullmatch(r"table lost in process (\d+)", str(info.value)).group(1)
    assert int(pid) != os.getpid()
    _assert_no_child_left()


def test_a_check_that_raises_in_a_pool_process_exits_3(monkeypatch, capsys):
    _crash_in_a_worker(monkeypatch)
    code = cli.main(["verify", "--claim", "all", "--max-dim", "8", "--max-beta", "8"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert re.fullmatch(r"internal error: ArithmeticError: table lost in process \d+\n", captured.err)
    _assert_no_child_left()


@contextmanager
def _deadline(seconds: int):
    """Raise TimeoutError in this process if the block runs longer than seconds."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("dying", [{1}, {0, 1, 2, 3, 4}])
def test_a_worker_that_dies_names_the_lost_tasks_and_leaves_no_child(monkeypatch, dying):
    monkeypatch.setattr(oracle, "_usable_cpus", lambda: 2)
    caller = os.getpid()

    def task(i):
        if i in dying and os.getpid() != caller:
            os._exit(1)
        return -i

    with _deadline(60), pytest.raises(RuntimeError) as info:
        oracle.run_tasks([(task, i) for i in range(5)])
    lost = json.loads(re.fullmatch(r"no result for tasks (\[[\d, ]*\]): a worker process died",
                                   str(info.value)).group(1))
    assert dying <= set(lost) <= set(range(5))
    _assert_no_child_left()
    monkeypatch.setattr(oracle, "_usable_cpus", lambda: 1)
    assert oracle.run_tasks([(task, i) for i in range(5)]) == [0, -1, -2, -3, -4]


def _running(pid: int) -> bool:
    """Whether pid is a process that has not exited (a zombie has)."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] not in ("Z", "X")
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not hasattr(os, "fork") or not os.path.isdir("/proc/self"),
                    reason="forks, and reads process states from /proc")
def test_workers_exit_when_their_caller_is_killed():
    # 1,000 tasks of a second each: a worker that ran the queue to its end
    # would outlive the 20-s wait; and each task's result fills more than a
    # pipe holds, so a worker that kept a read end of its own pipe would
    # block on the write forever
    script = textwrap.dedent(f"""
        import os, sys, time
        sys.path.insert(0, {str(Path(oracle.__file__).parents[1])!r})
        from unipotent_atlas import oracle
        oracle._usable_cpus = lambda: 2
        def task(i):
            if i < 2:  # the first task of each worker: one write, so the lines do not mix
                os.write(1, b"%d\\n" % os.getpid())
            time.sleep(1)
            return b"x" * 200_000
        oracle.run_tasks([(task, i) for i in range(1000)])
    """)
    caller = subprocess.Popen([sys.executable, "-c", script], stdout=subprocess.PIPE, text=True)
    try:
        with _deadline(60):
            workers = [int(caller.stdout.readline()) for _ in range(2)]
    finally:
        caller.kill()
        caller.wait(timeout=10)
        caller.stdout.close()
    give_up = time.monotonic() + 20
    while time.monotonic() < give_up and any(map(_running, workers)):
        time.sleep(0.1)
    alive = [pid for pid in workers if _running(pid)]
    for pid in alive:
        os.kill(pid, signal.SIGKILL)
    assert alive == []
