"""Correctness checks against goldens, including deliberately wrong ones."""

import copy
import io
import json

import pytest

import querygen
import run
import workloads as wl


@pytest.fixture(scope="module")
def goldens():
    return wl.load_goldens()


def test_goldens_cover_every_pool_query(goldens):
    assert len(goldens["pool"]) == len(goldens["query"])
    assert goldens["refused"] <= set(goldens["query"])
    assert {q["stratum"] for q in goldens["pool"]} == set(range(len(querygen.STRATA)))


def test_stream_is_seeded_and_stratified(goldens):
    a = querygen.sample_stream(goldens["pool"], 7, 200)
    assert a == querygen.sample_stream(goldens["pool"], 7, 200)
    assert a != querygen.sample_stream(goldens["pool"], 8, 200)
    counts = [sum(q["stratum"] == s for q in a) for s in range(len(querygen.STRATA))]
    assert counts == [2 * w for w in querygen.STRATUM_WEIGHTS]


def test_query_answer_differing_from_golden_is_a_failure(goldens):
    q = next(q for q in goldens["pool"] if querygen.query_key(q) not in goldens["refused"])
    key = querygen.query_key(q)
    wrong = dict(goldens["query"])
    wrong[key] = dict(wrong[key], label="A0")
    answers = [("ok", json.dumps(goldens["query"][key]))]
    assert wl.check_query(answers, [q], goldens["query"], goldens["refused"])[0] == 0
    failed, refused, bad, flags = wl.check_query(answers, [q], wrong, goldens["refused"])
    assert (failed, refused, bad, flags) == (1, 0, 1, [False])


def test_refusal_fails_only_where_the_baseline_answered(goldens):
    answered = next(q for q in goldens["pool"] if querygen.query_key(q) not in goldens["refused"])
    refused = next(q for q in goldens["pool"] if querygen.query_key(q) in goldens["refused"])
    no = [("refused", "rank 33 exceeds the enumeration bound 32")]
    # the baseline's own rank bound: reported as refused, neither failed nor wrong
    assert wl.check_query(no, [refused], goldens["query"], goldens["refused"]) == (0, 1, 0, [False])
    # a refusal where the baseline gave an answer: failed, but not wrong
    assert wl.check_query(no, [answered], goldens["query"], goldens["refused"]) == (1, 1, 0, [False])


def test_wrong_atlas_golden_fails_a_smoke_run(goldens):
    wrong = copy.deepcopy(goldens)
    argv = wl.SMOKE.atlas[1]
    wrong["atlas"][wl.command_key(argv)]["sha256"] = "0" * 64
    result = run.measure("atlas", 1, 0.1, False, sizes=wl.SMOKE, goldens=wrong, log=io.StringIO())
    assert result["correct"] is False
    # one operation per command: only the command with the wrong golden fails
    assert result["attempted"] == len(wl.SMOKE.atlas) * result["failed"] > 0


def test_wrong_verify_golden_fails_a_smoke_run(goldens):
    wrong = copy.deepcopy(goldens)
    wrong["verify"][wl.battery_key(wl.SMOKE.battery)]["reports"] += 1
    result = run.measure("verify", 1, 0.1, False, sizes=wl.SMOKE, goldens=wrong, log=io.StringIO())
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0
