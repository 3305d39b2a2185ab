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

from unipotent_atlas import balacarter, classes, cli, oracle
from unipotent_atlas.classes import (
    Char,
    Family,
    GroupSpec,
    distinguished_eps,
    enumerate_classes,
    shape_violation,
)
from unipotent_atlas.errors import InputError
from unipotent_atlas.balacarter import ClassAnalysis, iter_parabolic_products, iter_regular_subgroups
from unipotent_atlas.oracle import (
    VerificationReport,
    count_extra_classes,
    distinguished_shapes,
    group_sweep,
    iter_admissible_beta,
    psi1_image,
    run_all,
    so_connected_only_psi1_image,
    verify_minimal_levi,
    verify_proposition,
    verify_psi2_restricted_injective,
    verify_right_inverse,
    verify_surjectivity,
)
from unipotent_atlas.partitions import Partition, iter_partitions


def test_report_invariants():
    rep = VerificationReport("demo", None, 4, "pass")
    assert rep.passed
    line = json.loads(rep.to_json_line())
    assert line["schema"] == "unipotent-atlas/v1"
    assert line["checked"] == 0
    with pytest.raises(InputError):
        VerificationReport("demo", None, 4, "fail")
    rep = VerificationReport("demo", None, 4, "fail", ["bad input"])
    assert not rep.passed


def test_surjectivity_examples():
    assert verify_surjectivity(GroupSpec(Family.SO, 16, Char.TWO), "psi1").passed
    assert verify_surjectivity(GroupSpec(Family.SP, 8, Char.TWO), "psi2").passed
    assert verify_surjectivity(GroupSpec(Family.GL, 5, Char.GOOD), "psi2").passed
    with pytest.raises(InputError):
        verify_surjectivity(GroupSpec(Family.SO, 8, Char.TWO), "psi3")


def test_gl_psi2_is_bijective():
    G = GroupSpec(Family.GL, 5, Char.GOOD)
    from unipotent_atlas.balacarter import iter_parabolic_products, psi2

    images = [psi2(P, G).data_key() for P in iter_parabolic_products(G)]
    assert len(images) == len(set(images))
    assert verify_surjectivity(G, "psi2").passed


def test_right_inverse_examples():
    assert verify_right_inverse(GroupSpec(Family.SO, 14, Char.TWO), "phi2").passed
    assert verify_right_inverse(GroupSpec(Family.SO, 13, Char.TWO), "phi2").passed
    assert verify_right_inverse(GroupSpec(Family.SP, 10, Char.GOOD), "phi1").passed


def test_psi2_restricted_injectivity_spot():
    assert verify_psi2_restricted_injective(GroupSpec(Family.SO, 12, Char.TWO)).passed
    assert verify_psi2_restricted_injective(GroupSpec(Family.SP, 10, Char.GOOD)).passed


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
    for dim, want in ((7, 2), (12, 1), (14, 2), (16, 5)):
        assert count_extra_classes(GroupSpec(Family.SO, dim, Char.TWO)) == want
    assert count_extra_classes(GroupSpec(Family.SO, 12, Char.GOOD)) == 0
    # frozen after inspection: (4,4), (4,2,2), (2^4), (2^2,1^4), all with eps 1
    assert count_extra_classes(GroupSpec(Family.SP, 8, Char.TWO)) == 4


def test_minimal_levi_verifier_sweep_dim_16():
    from unipotent_atlas.oracle import group_sweep

    for G in group_sweep(16):
        rep = verify_minimal_levi(G)
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
    rep = verify_minimal_levi(GroupSpec(Family.SO, 17, Char.TWO))
    assert not rep.passed
    refusals = [c for c in rep.counterexamples if c.startswith("combine refuses the distinguished shape 16,1:")]
    assert len(refusals) == 1
    assert cli.main(["verify", "--claim", "minimal-levi", "--max-dim", "17"]) == 1
    reports = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [r["group"] for r in reports if r["outcome"] == "fail"] == ["SO17 (p=2)"]


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


def test_a_swept_group_enumerates_under_the_sweep_bound():
    # past the library's default enumeration bound: verify --max-dim sets it
    assert len(oracle._GroupWork(GroupSpec(Family.GL, 41, Char.GOOD)).classes) == 44_583


def test_connected_only_image_misses_the_witness_class():
    G = GroupSpec(Family.SO, 16, Char.TWO)
    lam = Partition((6, 4, 4, 2))
    witness = (lam.parts, ((6, 1), (4, 1), (2, 1)))
    assert witness not in so_connected_only_psi1_image(G)
    assert witness in psi1_image(G)


def _rows(reports):
    return [(r.claim, r.group, r.outcome, r.counterexamples, r.checked) for r in reports]


def _separate_battery(max_dim, surjectivity_max_dim, beta_bound):
    """run_all's reports, each from its public verifier."""
    reports = []
    for G in group_sweep(surjectivity_max_dim):
        reports.append(verify_surjectivity(G, "psi1"))
        reports.append(verify_surjectivity(G, "psi2"))
        reports.append(verify_psi2_restricted_injective(G))
    for G in group_sweep(max_dim):
        reports.append(verify_right_inverse(G, "phi1"))
        reports.append(verify_right_inverse(G, "phi2"))
        reports.append(verify_minimal_levi(G))
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


def test_checked_counts_mark_the_vacuous_gl_minimal_levi_pass():
    for rep in run_all(6, 4, 8):
        vacuous = rep.claim == "minimal-levi" and rep.group.startswith("GL")
        assert (rep.checked == 0) == vacuous, (rep.claim, rep.group)
    G = GroupSpec(Family.SO, 8, Char.TWO)
    untagged = [C for C in enumerate_classes(G) if C.split_tag != "II"]
    assert verify_minimal_levi(G).checked == len(untagged) == 10


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
