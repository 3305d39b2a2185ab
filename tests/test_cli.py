"""CLI tests: subcommand output, formats, exit codes, determinism."""

import csv
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
from functools import partial
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from unipotent_atlas import cli, richardson
from unipotent_atlas.balacarter import is_extra_class, label, phi1, phi2
from unipotent_atlas.classes import (
    Char,
    Family,
    GroupSpec,
    enumerate_classes,
    is_valid_class,
    minimal_levi,
)
from unipotent_atlas.cli import SCHEMA, _json_text, _phi1_json, _phi2_json, main
from unipotent_atlas.decomp import decompose
from unipotent_atlas.errors import ResourceLimitError
from unipotent_atlas.oracle import (
    GROUP_CLAIMS,
    VerificationReport,
    count_extra_classes,
    group_sweep,
    verify_minimal_levi,
    verify_psi2_restricted_injective,
    verify_right_inverse,
    verify_surjectivity,
)
from unipotent_atlas.partitions import Partition, iter_partitions
from unipotent_atlas.richardson import in_richardson_image


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classes_text_layout(capsys):
    code, out, err = run_cli(capsys, "classes", "--group", "gl", "--dim", "3")
    assert code == 0
    body = [line for line in out.splitlines() if line and not line.startswith("-")]
    assert len(body) == 4  # header plus three classes
    assert err == ""


def test_classes_extra_only_table(capsys):
    code, out, _ = run_cli(
        capsys, "classes", "--group", "so", "--dim", "16", "--char", "2", "--extra-only"
    )
    assert code == 0
    assert "D6(a1)D2" in out and "A1D4(a1)D2" in out
    assert out.count("yes") == 5


def test_classes_json_schema(capsys):
    code, out, _ = run_cli(
        capsys, "--format", "json", "classes", "--group", "sp", "--dim", "8", "--char", "2"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "unipotent-atlas/v1"
    assert doc["count"] == 18
    first = doc["classes"][0]
    assert set(first) >= {"family", "dim", "char", "lambda", "eps", "split", "label", "extra", "phi1", "phi2"}


def test_classes_csv_parses(capsys):
    code, out, _ = run_cli(
        capsys, "--format", "csv", "classes", "--group", "so", "--dim", "8", "--char", "2"
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows and set(rows[0]) == {"lambda", "eps", "split", "extra", "label", "phi1", "phi2"}


def test_format_flag_accepted_after_subcommand(capsys):
    _, before, _ = run_cli(
        capsys, "--format", "csv", "classes", "--group", "so", "--dim", "8", "--char", "2"
    )
    _, after, _ = run_cli(
        capsys, "classes", "--group", "so", "--dim", "8", "--char", "2", "--format", "csv"
    )
    assert before == after


def test_classes_deterministic(capsys):
    _, first, _ = run_cli(capsys, "classes", "--group", "so", "--dim", "12", "--char", "2")
    _, second, _ = run_cli(capsys, "classes", "--group", "so", "--dim", "12", "--char", "2")
    assert first == second


# text with quotes, backslashes, control characters, non-ASCII and astral characters
JSON_TEXT = st.text() | st.sampled_from(['"', "\\", "\x00\x1f\n\t\x7f", "é", "\u2028", "\U0001f600"])
JSON_SCALARS = (JSON_TEXT | st.integers() | st.integers(min_value=-2**80, max_value=2**80) | st.booleans()
                | st.none() | st.floats())
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda children: (st.lists(children) | st.lists(children).map(tuple)
                      | st.dictionaries(JSON_TEXT | st.integers(), children)),
    max_leaves=40,
)


@settings(deadline=None)
@given(JSON_VALUES)
@example({True: 0, False: [], None: {}, 1.5: (), -2: "", "-2": [None]})
def test_the_json_writer_prints_what_the_stdlib_prints(value):
    # the stdlib call is the reference: dicts, lists and tuples, empty or not,
    # nested, holding str, int, bool, None and float items, keyed by str and
    # int (and, in the example, by bool, None and float, which json converts);
    # started after a deeper newline, as the rows of a table document are, every
    # line break carries that indent (a JSON string holds no raw newline)
    assert _json_text(value) == json.dumps(value, indent=2)
    assert _json_text(value, "\n    ") == json.dumps(value, indent=2).replace("\n", "\n    ")


def test_the_json_writer_refuses_what_the_stdlib_refuses():
    for value in ({(1, 2): 0}, [object()], {"a": {1.5: set()}}):
        with pytest.raises(TypeError):
            json.dumps(value, indent=2)
        with pytest.raises(TypeError):
            _json_text(value)


#: A list, tuple or dict that a document holds more than once.
SHARED_VALUES = (st.lists(JSON_VALUES, max_size=4) | st.lists(JSON_VALUES, max_size=4).map(tuple)
                 | st.dictionaries(JSON_TEXT, JSON_VALUES, max_size=4))


@settings(deadline=None)
@given(SHARED_VALUES, JSON_VALUES)
@example((({"dim": 4, "full": True},), [2]), 0)
def test_the_json_writer_prints_a_shared_object_as_the_stdlib_does(shared, other):
    # one object at the same depth twice (siblings, and items of one tuple),
    # and at depths 1 to 4, as a classes document holds a remainder's payloads
    doc = {"a": shared, "b": [shared, other, {"c": shared, "d": (shared, shared)}], "e": (shared,)}
    assert _json_text(doc) == json.dumps(doc, indent=2)


def test_the_json_writer_keeps_no_memo_between_calls():
    # the same tuple, its list item changed between two calls: a memo kept
    # past the first call would print the old text in the second
    items = [1]
    shared = (items, "x")
    doc = [shared, [shared], {"k": shared}]
    first = _json_text(doc)
    items.append(2)
    assert _json_text(doc) == json.dumps(doc, indent=2) != first
    # fresh tuples, one per call, each free to reuse the last one's id
    for n in range(50):
        assert _json_text([(n, [n])]) == json.dumps([(n, [n])], indent=2)


def test_o_classes_are_validated_in_so_once_each(capsys, monkeypatch):
    # classes reads each O class through SO (classes.as_so); counted in cli
    # and classes, so a class validated again by the constructor that builds
    # its SO form counts twice
    calls = []

    def counted(*args):
        calls.append(args)
        return is_valid_class(*args)

    monkeypatch.setattr(cli, "is_valid_class", counted)
    monkeypatch.setattr("unipotent_atlas.classes.is_valid_class", counted)
    code, out, _ = run_cli(capsys, "--format", "json", "classes", "--group", "o", "--dim", "24",
                           "--char", "2")
    assert code == 0
    assert len(calls) == json.loads(out)["count"] == 800


def test_json_classes_build_each_remainder_payload_once(capsys, monkeypatch):
    built = {"_phi1_json": 0, "_phi2_json": 0}
    for name in built:
        def counted(X, name=name, real=getattr(cli, name)):
            built[name] += 1
            return real(X)
        monkeypatch.setattr(cli, name, counted)
    code, out, _ = run_cli(capsys, "--format", "json", "classes", "--group", "so", "--dim", "30",
                           "--char", "2")
    G = GroupSpec(Family.SO, 30, Char.TWO)
    classes = enumerate_classes(G)
    remainders = {minimal_levi(C)[1] for C in classes}
    assert code == 0
    assert json.loads(out)["count"] == len(classes) == 1256
    assert len(remainders) == 158
    assert built == {"_phi1_json": 158, "_phi2_json": 158}


def test_decompose_text(capsys):
    code, out, _ = run_cli(capsys, "decompose", "6,4,4,2,2,1")
    assert code == 0
    assert "beta1 = 6,4" in out
    assert "beta2 = 4,2" in out
    assert "beta3 = 2,1" in out
    assert "map to 1:" in out and "map to 0:" in out


def test_decompose_rejects_bad_shape(capsys):
    code, out, err = run_cli(capsys, "decompose", "3,1")
    assert code == 2
    assert out == ""
    assert "odd part 3" in err
    code, _, err = run_cli(capsys, "decompose", "0")
    assert code == 2 and "empty" in err


def test_decompose_json(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "decompose", "8,4,1")
    doc = json.loads(out)
    assert doc["beta1"] == [8, 4, 1] and doc["beta2"] == [] and doc["trace1"] == [1, 1, 1]


def test_richardson_forward_and_invert(capsys):
    code, out, _ = run_cli(
        capsys, "richardson", "--group", "so", "--dim", "12", "--char", "2",
        "--levi", "1^3,2;m0=1",
    )
    assert code == 0
    assert "blocks: 8,4" in out
    assert "in richardson image: yes" in out
    code, out, _ = run_cli(
        capsys, "richardson", "--group", "so", "--dim", "12", "--char", "2",
        "--invert", "--blocks", "8,4",
    )
    assert code == 0
    assert "GL1^3 GL2 SO2" in out
    code, _, err = run_cli(
        capsys, "richardson", "--group", "so", "--dim", "16", "--char", "2",
        "--invert", "--blocks", "6,4,4,2",
    )
    assert code == 2 and "not the Richardson class" in err


def test_richardson_levi_with_non_integer_m0_is_an_input_error(capsys):
    code, out, err = run_cli(
        capsys, "richardson", "--group", "so", "--dim", "8", "--char", "2",
        "--levi", "1^3,2;m0=x",
    )
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "'x'" in err


def test_richardson_invert_without_blocks_is_an_input_error(capsys):
    code, out, err = run_cli(capsys, "richardson", "--group", "so", "--dim", "8", "--invert")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "--blocks" in err


def test_label_command(capsys):
    code, out, _ = run_cli(
        capsys, "label", "--group", "so", "--dim", "16", "--char", "2",
        "--blocks", "8,4,2,2", "--eps", "8:1,4:1,2:1",
    )
    assert code == 0
    assert out.strip() == "D6(a1)D2"
    code, out, _ = run_cli(
        capsys, "--format", "json", "label", "--group", "so", "--dim", "13", "--char", "2",
        "--blocks", "8,4,1",
    )
    doc = json.loads(out)
    assert doc["label"] == "B6(a2)" and doc["extra"] is False


def test_label_defaults_free_eps_with_note(capsys):
    code, out, err = run_cli(
        capsys, "label", "--group", "so", "--dim", "16", "--char", "2", "--blocks", "8,4,2,2"
    )
    assert code == 0
    assert "defaulted" in err  # eps(2) was free and silently set to 0
    assert out.strip() != "D6(a1)D2"


def test_label_notes_free_eps_that_a_partial_eps_leaves_out(capsys):
    code, out, err = run_cli(
        capsys, "label", "--group", "so", "--dim", "12", "--char", "2",
        "--blocks", "4,4,2,2", "--eps", "4:1",
    )
    assert code == 0
    assert err == "note: eps defaulted to 0 on even parts of even multiplicity [2]\n"
    code, _, err = run_cli(
        capsys, "label", "--group", "so", "--dim", "12", "--char", "2",
        "--blocks", "4,4,2,2", "--eps", "4:1,2:0",
    )
    assert (code, err) == (0, "")


def test_verify_extra_counts_jsonl(capsys):
    code, out, err = run_cli(capsys, "verify", "--claim", "extra-counts")
    assert code == 0 and err == ""
    lines = [json.loads(line) for line in out.splitlines()]
    assert len(lines) == 4
    assert all(line["outcome"] == "pass" for line in lines)
    assert all(line["schema"] == "unipotent-atlas/v1" for line in lines)


def test_verify_extra_counts_are_timed_and_counted(capsys):
    code, out, _ = run_cli(capsys, "verify", "--claim", "extra-counts")
    assert code == 0
    for line in map(json.loads, out.splitlines()):
        assert line["elapsed_seconds"] > 0 and line["checked"] > 0, line


def test_verify_single_claim_small(capsys):
    code, out, _ = run_cli(capsys, "verify", "--claim", "proposition", "--max-beta", "16")
    assert code == 0
    assert json.loads(out.splitlines()[0])["outcome"] == "pass"


#: The public verifier of each claim verify sweeps group by group.
PUBLIC_VERIFIERS = {
    "psi1-surjective": partial(verify_surjectivity, which="psi1"),
    "psi2-surjective": partial(verify_surjectivity, which="psi2"),
    "psi2-injective-r1": verify_psi2_restricted_injective,
    "phi1-right-inverse": partial(verify_right_inverse, which="phi1"),
    "phi2-right-inverse": partial(verify_right_inverse, which="phi2"),
    "minimal-levi": verify_minimal_levi,
}


@pytest.mark.parametrize("claim", list(GROUP_CLAIMS))
def test_verify_group_claim_reports_in_sweep_order(capsys, claim):
    code, out, _ = run_cli(capsys, "verify", "--claim", claim, "--max-dim", "7")
    assert code == 0
    got = [json.loads(line) for line in out.splitlines()]
    want = [PUBLIC_VERIFIERS[claim](G).to_json() for G in group_sweep(7)]
    for line in got + want:
        del line["elapsed_seconds"]
    assert got == want


def test_tables(capsys):
    code, out, _ = run_cli(capsys, "tables", "1", "--dim", "13")
    assert code == 0 and "12,1" in out
    code, out, _ = run_cli(
        capsys, "tables", "2", "--group", "so", "--dim", "12", "--char", "2"
    )
    assert code == 0 and "8,4" in out
    code, out, _ = run_cli(
        capsys, "tables", "3", "--group", "so", "--dim", "12", "--char", "2"
    )
    assert code == 0
    assert {line.strip() for line in out.splitlines()[2:] if line.strip()} == {"10,2", "8,4", "6^2"}
    code, out, _ = run_cli(capsys, "tables", "4")
    assert code == 0 and out.count("D4(a1)D2") == 2


def test_usage_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "classes", "--group", "so", "--dim", "-3")
    assert code == 2
    assert "error" in err


def test_classes_past_the_enumeration_bound_names_the_flag_that_raises_it(capsys):
    # the refusal used to say "raise max_dim explicitly", which no flag spells
    code, out, err = run_cli(capsys, "classes", "--group", "so", "--dim", "50", "--char", "2")
    assert code == 2 and out == ""
    assert err.startswith("error: dimension 50 exceeds the enumeration bound 40")
    assert "--max-dim" in err


@pytest.mark.parametrize("value", ["0", "-3"])
def test_classes_rejects_a_max_dim_below_1(capsys, value):
    # -3 used to be refused as a bound that dimension 10 exceeds
    code, out, err = run_cli(capsys, "classes", "--group", "so", "--dim", "10", "--max-dim", value)
    assert (code, out) == (2, "")
    assert err == f"error: --max-dim must be at least 1, got {value}\n"


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_a_refusal_while_the_rows_are_resolved_prints_nothing(capsys, monkeypatch, fmt):
    # the rows are written as they are built, so a refusal from a label's
    # inverse must come before the first byte, not leave half a document
    calls = []
    real = richardson.enumerate_distinguished_parabolics

    def refusing(G, *args, **kwargs):
        calls.append(G)
        if len(calls) > 5:
            raise ResourceLimitError(f"refused at call {len(calls)}")
        return real(G, *args, **kwargs)

    monkeypatch.setattr(richardson, "enumerate_distinguished_parabolics", refusing)
    code, out, err = run_cli(capsys, "--format", fmt, "classes", "--group", "so", "--dim", "16",
                             "--char", "2")
    assert (code, out, err) == (2, "", "error: refused at call 6\n")


#: Report the peak RSS (ru_maxrss, KiB on Linux) of one command run with its
#: stdout on the null device.  The command runs as a child of this small
#: process, because Linux carries a process's ru_maxrss across fork and exec:
#: a child of the test process would report at least the test process's peak.
PEAK_RSS = ("import resource, subprocess, sys; "
            "subprocess.run(sys.argv[1:], stdout=subprocess.DEVNULL, check=True); "
            "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)")


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is in KiB on Linux")
def test_json_classes_peak_within_5_mb_of_csv():
    # the json document used to be held whole before it was printed
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    peak_mb = {}
    for fmt in ("json", "csv"):
        argv = [sys.executable, "-m", "unipotent_atlas", "--format", fmt, "classes", "--group", "so",
                "--dim", "36", "--char", "2"]
        done = subprocess.run([sys.executable, "-c", PEAK_RSS, *argv], cwd=ROOT, capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": path}, timeout=300, check=True)
        peak_mb[fmt] = int(done.stdout) / 1024
    assert peak_mb["json"] - peak_mb["csv"] < 5, peak_mb


@pytest.mark.parametrize("argv", [
    ["label", "--group", "so", "--dim", "66", "--char", "2", "--blocks", "24,20,14,8"],
    ["richardson", "--group", "so", "--dim", "66", "--char", "2", "--invert", "--blocks", "24,20,14,8"],
    ["tables", "2", "--group", "so", "--dim", "66", "--char", "2"],
])
def test_past_the_rank_bound_names_the_group_and_no_keyword(capsys, argv):
    # no command takes a rank bound, so the refusal may not advise raising one
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: SO66 (p=2) has rank 33;") and "up to rank 32" in err
    assert "max_rank" not in err


@pytest.mark.parametrize("dim", ["0", "-3"])
def test_table_1_rejects_a_dim_below_1(capsys, dim):
    code, out, err = run_cli(capsys, "tables", "1", "--dim", dim)
    assert code == 2 and out == ""
    assert err == f"error: --dim must be at least 1, got {dim}\n"


@pytest.mark.parametrize("argv, flag, value", [
    (["verify", "--max-dim", "0"], "--max-dim", "0"),
    (["verify", "--max-dim", "-2"], "--max-dim", "-2"),
    (["--max-dim", "0", "verify", "--claim", "minimal-levi"], "--max-dim", "0"),
    (["verify", "--claim", "proposition", "--max-beta", "-1"], "--max-beta", "-1"),
    (["verify", "--claim", "all", "--max-beta", "0"], "--max-beta", "0"),
    (["verify", "--max-dim", "2", "--surjectivity-max-dim", "-1", "--max-beta", "2"],
     "--surjectivity-max-dim", "-1"),
    (["verify", "--claim", "minimal-levi", "--max-dim", "2", "--surjectivity-max-dim", "-1"],
     "--surjectivity-max-dim", "-1"),
])
def test_verify_rejects_a_bound_that_leaves_nothing_to_check(capsys, argv, flag, value):
    # these used to pass with no report, with reports that checked nothing,
    # or without the surjectivity and injectivity reports; the last one, a
    # bound the claim does not read, used to be ignored unchecked
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {flag} must be at least 1, got {value}\n"


def test_a_crash_exits_3_apart_from_a_failed_claim(capsys, monkeypatch):
    def crash(args):
        raise RuntimeError("table lost")

    monkeypatch.setattr(cli, "cmd_tables", crash)
    code, out, err = run_cli(capsys, "tables", "4")
    assert (code, out, err) == (3, "", "internal error: RuntimeError: table lost\n")


def _group_argv(G):
    return ["--group", G.family.value, "--dim", str(G.dim), "--char", G.char.value]


def test_table_3_matches_the_partition_scan(capsys):
    # reference: the scan of every partition of the dimension through the
    # image test, which table 3 was built from before it became the forward
    # image of table 2's descriptors
    for G in group_sweep(24):
        code, out, _ = run_cli(capsys, "--format", "json", "tables", "3", *_group_argv(G))
        rows = [
            {"blocks": str(Partition(p))}
            for p in iter_partitions(G.dim)
            if in_richardson_image(G, Partition(p))
        ]
        doc = {"schema": SCHEMA, "table": 3, "group": G.describe(), "rows": rows}
        assert code == 0
        assert out == json.dumps(doc, indent=2) + "\n", G.describe()


def test_classes_rows_match_the_separate_public_calls(capsys):
    # reference: every field computed by its own call, each analysing the
    # class afresh, as the classes command did before it shared one analysis
    for G in group_sweep(16):
        code, out, _ = run_cli(capsys, "--format", "json", "classes", *_group_argv(G))
        assert code == 0
        want = [
            {
                **C.to_json(),
                "extra": is_extra_class(C),
                "label": label(C),
                "phi1": _phi1_json(phi1(C)),
                "phi2": _phi2_json(phi2(C)),
            }
            for C in enumerate_classes(G)
        ]
        assert json.loads(out)["classes"] == want, G.describe()


def test_classes_csv_factor_columns_match_minimal_levi_and_decompose(capsys):
    for G in group_sweep(12):
        code, out, _ = run_cli(capsys, "--format", "csv", "classes", *_group_argv(G))
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        classes = enumerate_classes(G)
        assert len(rows) == len(classes)
        for row, C in zip(rows, classes):
            pieces = []
            if G.family is not Family.GL:
                _, beta, _ = minimal_levi(C)
                if beta:
                    pieces = [str(p) for p in decompose(beta, G).nonzero_pieces()]
            assert row["phi2"] == ("(" + ")(".join(pieces) + ")" if pieces else "-")
            assert row["phi1"] == phi1(C).describe()
            assert row["label"] == label(C)


ROOT = Path(__file__).resolve().parents[1]


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("exc, code, err", [
    (RuntimeError("battery lost"), 3, "internal error: RuntimeError: battery lost\n"),
    (ResourceLimitError("dimension 41 exceeds"), 2, "error: dimension 41 exceeds\n"),
])
def test_verification_script_tells_a_crash_from_a_limit(capsys, monkeypatch, exc, code, err):
    script = load_script("run_verifications")

    def fail(**bounds):
        raise exc

    monkeypatch.setattr(script, "verify_reports", fail)
    assert script.main(["--max-dim", "4"]) == code
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", err)


@pytest.mark.parametrize("argv, flag, value", [
    (["--max-dim", "0"], "--max-dim", "0"),
    (["--max-dim", "4", "--max-beta", "-1"], "--max-beta", "-1"),
    (["--max-dim", "4", "--surjectivity-max-dim", "0"], "--surjectivity-max-dim", "0"),
])
def test_verification_script_rejects_a_bound_that_leaves_nothing_to_check(capsys, argv, flag, value):
    # --max-dim 0 used to exit 0 after one vacuous report, and
    # --surjectivity-max-dim 0 after leaving out two claims
    assert load_script("run_verifications").main(argv) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {flag} must be at least 1, got {value}\n")


def test_verification_script_summarizes_the_reports_of_verify(capsys):
    # the script used to sweep the surjectivity claims to dim 16 whatever
    # --max-dim said: 265 reports at --max-dim 6, where verify gives 145
    assert main(["verify", "--max-dim", "6"]) == 0
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    reports = [VerificationReport(**{k: v for k, v in line.items() if k != "schema"}) for line in lines]
    script = load_script("run_verifications")
    script.print_summary(reports, 0.0)
    want = capsys.readouterr().out
    assert script.main(["--max-dim", "6"]) == 0
    got = capsys.readouterr().out
    seconds = re.compile(r"[\d.]+s (summed|wall)")
    assert seconds.sub(r"\1", got) == seconds.sub(r"\1", want)
    assert len(reports) == 145 and want.endswith("total: 145 reports in 0.0s wall\n")


def test_census_matches_the_separate_public_calls(capsys):
    # reference: the census as composed before it analysed each class once,
    # counting through count_extra_classes and labelling through label
    want = [f"{'group':<12} {'classes':>8} {'extra':>6}"]
    for dim in range(2, 15):
        specs = [GroupSpec(Family.SO, dim, Char.TWO)]
        if dim % 2 == 0:
            specs.append(GroupSpec(Family.SP, dim, Char.TWO))
        for G in specs:
            classes = enumerate_classes(G)
            extra = count_extra_classes(G)
            want.append(f"{G.describe():<12} {len(classes):>8} {extra:>6}")
            if extra:
                for C in classes:
                    if C.split_tag != "II" and is_extra_class(C):
                        want.append(f"    {str(C.lam):<16} eps {str(C.eps):<20} {label(C)}")
    assert load_script("extra_class_census").main(["--max-dim", "14", "--list-classes"]) == 0
    assert capsys.readouterr().out == "\n".join(want) + "\n"


def test_census_bounds_its_enumeration_by_its_own_max_dim(capsys, monkeypatch):
    # the script used to sweep to --max-dim under the default enumeration
    # bound of 40, and end in a traceback at dim 41
    script = load_script("extra_class_census")
    bounds = []

    def enumerate_nothing(G, max_dim):
        bounds.append((G.dim, max_dim))
        return []

    monkeypatch.setattr(script, "enumerate_classes", enumerate_nothing)
    assert script.main(["--max-dim", "41"]) == 0
    assert {bound for _, bound in bounds} == {41}
    assert max(dim for dim, _ in bounds) == 41
    captured = capsys.readouterr()
    assert captured.err == "" and captured.out.endswith(f"{'SO41 (p=2)':<12} {0:>8} {0:>6}\n")


def test_census_refuses_with_one_error_line(capsys, monkeypatch):
    script = load_script("extra_class_census")

    def refuse(G, max_dim):
        raise ResourceLimitError(f"dimension {G.dim} is too large")

    monkeypatch.setattr(script, "enumerate_classes", refuse)
    assert script.main(["--max-dim", "3"]) == 2
    assert capsys.readouterr().err == "error: dimension 2 is too large\n"


@pytest.mark.parametrize("value", ["1", "0", "-4"])
def test_census_rejects_a_bound_that_sweeps_nothing(capsys, value):
    assert load_script("extra_class_census").main(["--max-dim", value]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: --max-dim must be at least 2, got {value}\n")


def run_with_stdout_closed(*argv):
    """Run python with argv, its stdout a pipe whose reader is already gone;
    return the exit status and everything written to stderr."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, *argv],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": path},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    return proc.wait(timeout=120), err


def test_cli_exits_quietly_when_stdout_closes():
    code, err = run_with_stdout_closed(
        "-m", "unipotent_atlas", "--format", "json", "classes", "--group", "so", "--dim", "20",
        "--char", "2",
    )
    assert (code, err) == (141, "")


def test_verification_script_exits_quietly_when_stdout_closes():
    code, err = run_with_stdout_closed(
        "scripts/run_verifications.py", "--max-dim", "6",
        "--surjectivity-max-dim", "4", "--max-beta", "8",
    )
    assert (code, err) == (141, "")
