"""CLI tests: subcommand output, formats, exit codes, determinism."""

import csv
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from unipotent_atlas import balacarter, cli
from unipotent_atlas.balacarter import analyse, diagram_string, is_extra_class, label, phi1, phi2
from unipotent_atlas.classes import (
    Char,
    Family,
    GroupSpec,
    as_so,
    enumerate_classes,
    is_valid_class,
    minimal_levi,
)
from unipotent_atlas.cli import SCHEMA, _json_text, _phi1_json, _phi2_json, main
from unipotent_atlas.decomp import decompose
from unipotent_atlas.errors import ResourceLimitError
from unipotent_atlas.oracle import (
    GROUP_CLAIMS,
    group_sweep,
    run_all,
    verify_claim,
)
from unipotent_atlas.partitions import Partition, iter_partitions
from unipotent_atlas.richardson import enumerate_distinguished_parabolics, in_richardson_image, richardson_blocks


#: richardson's refusal of both inputs, and of neither.
ONE_RICHARDSON_INPUT = "richardson takes exactly one of --levi (the forward map) and --blocks (the inverse)"


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


def _counted_class_checks(monkeypatch) -> list:
    """The arguments of each is_valid_class call from now on, counted in cli
    (should it check a class itself) and in classes."""
    calls = []

    def counted(*args):
        calls.append(args)
        return is_valid_class(*args)

    monkeypatch.setattr(cli, "is_valid_class", counted, raising=False)
    monkeypatch.setattr("unipotent_atlas.classes.is_valid_class", counted)
    return calls


def test_o_classes_are_validated_in_so_once_each(capsys, monkeypatch):
    # classes reads each O class through SO (classes.as_so), so a class
    # validated again by the constructor that builds its SO form counts twice
    calls = _counted_class_checks(monkeypatch)
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


@pytest.mark.parametrize("argv", [
    ("--group", "so", "--dim", "30", "--char", "2"),
    ("--group", "o", "--dim", "30", "--char", "2"),  # rows whose SO analysis is null
    ("--group", "sp", "--dim", "32", "--char", "odd"),
    ("--group", "gl", "--dim", "14"),
    ("--group", "so", "--dim", "16", "--char", "2", "--extra-only"),
    ("--group", "so", "--dim", "4", "--char", "2", "--extra-only"),  # no rows
])
def test_json_classes_is_the_stdlib_dump_past_the_golden_dims(capsys, argv):
    # the rows are joined from a template, not dumped; the stdlib re-dump is the reference
    code, out, _ = run_cli(capsys, "--format", "json", "classes", *argv)
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


@settings(deadline=None, max_examples=60)
@given(st.sampled_from(list(Family)), st.sampled_from(list(Char)), st.integers(1, 20), st.data())
def test_a_json_classes_row_is_the_dump_of_its_dict_form(family, char, dim, data):
    G = GroupSpec(family, dim + dim % 2 if family is Family.SP else dim, char)
    C = data.draw(st.sampled_from(enumerate_classes(G)))
    S = as_so(C)
    a = analyse(S) if S is not None else None
    row = {**C.to_json(), "extra": None, "label": None, "phi1": None, "phi2": None}
    if a is not None:
        row.update({"extra": a.is_extra(), "label": a.label(),
                    "phi1": _phi1_json(a.phi1()), "phi2": _phi2_json(a.phi2())})
    [text] = cli._class_json_rows(G, [(C, a)])
    assert text == json.dumps(row, indent=2).replace("\n", cli._ROW_NEWLINE)


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
        "--blocks", "8,4",
    )
    assert code == 0
    assert "GL1^3 GL2 SO2" in out
    code, _, err = run_cli(
        capsys, "richardson", "--group", "so", "--dim", "16", "--char", "2",
        "--blocks", "6,4,4,2",
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
    # the inverse is asked for by --blocks itself; with neither input the
    # refusal names it
    code, out, err = run_cli(capsys, "richardson", "--group", "so", "--dim", "8")
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


def test_label_blames_the_blocks_when_no_eps_fixes_them(capsys):
    # the odd parts 3 and 1 have odd multiplicity, which Sp forbids whatever
    # the eps; the refusal used to blame the defaulted eps
    code, out, err = run_cli(capsys, "label", "--group", "sp", "--dim", "6", "--blocks", "3,2,1")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "3,2,1" in err and "epsilon" not in err
    code, out, err = run_cli(capsys, "label", "--group", "so", "--dim", "6", "--char", "odd",
                             "--blocks", "2,2,1,1", "--eps", "2:1")
    assert (code, out) == (2, "")
    assert err == "error: epsilon 2:1,1:1 is not admissible for 2^2,1^2 in SO6 (p odd)\n"


def test_label_checks_its_class_once(capsys, monkeypatch):
    # it used to check the class in cli._resolve_eps and again in ClassParam
    calls = _counted_class_checks(monkeypatch)
    code, out, _ = run_cli(capsys, "label", "--group", "so", "--dim", "16", "--char", "2",
                           "--blocks", "8,4,2,2", "--eps", "8:1,4:1,2:1")
    assert (code, out) == (0, "D6(a1)D2\n")
    assert len(calls) == 1


@pytest.mark.parametrize("argv, message", [
    (["classes", "--group", "gl", "--dim", "10001"],
     "group dimension 10001 exceeds the supported bound 10000"),
    (["label", "--group", "so", "--dim", "8", "--char", "2", "--blocks", "4,4", "--eps", "3:1"],
     "epsilon given for values [3] that are not parts of 4^2"),
    (["richardson", "--group", "so", "--dim", "8", "--char", "2"],
     ONE_RICHARDSON_INPUT),
    # it used to drop --blocks when --levi was given too
    (["richardson", "--group", "so", "--dim", "12", "--levi", "1^3,2;m0=1", "--blocks", "8,4"],
     ONE_RICHARDSON_INPUT),
    # it used to name the even-SO normalization, not the weight that Sp12 and SO13 name
    (["richardson", "--group", "so", "--dim", "12", "--char", "2", "--levi", ""],
     "descriptor weight 0 does not match the rank 6 of SO12 (p=2)"),
])
def test_a_refusal_is_one_error_line(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv", [
    ["label", "--group", "so", "--dim", "16", "--blocks", "8,4,2,2", "--max-dim", "5"],
    ["decompose", "8,4", "--max-dim", "5"],
    ["richardson", "--group", "so", "--dim", "12", "--blocks", "8,4", "--max-dim", "5"],
    ["tables", "2", "--group", "so", "--dim", "12", "--max-dim", "5"],
    ["--max-dim", "5", "classes", "--group", "so", "--dim", "4"],
    ["--group", "so", "classes", "--group", "so", "--dim", "4"],
    ["--format", "csv", "verify", "--claim", "extra-counts"],
])
def test_max_dim_is_refused_where_no_command_reads_it(capsys, argv):
    # it used to be accepted and ignored by every command but classes and
    # verify, and before the subcommand; argparse now refuses it (exit 2).
    # An option before the subcommand used to be reported as an invalid
    # subcommand, its value: "argument command: invalid choice: '5'".
    # --format before verify used to be taken by the top-level parser and
    # ignored: verify printed JSON lines and exited 0
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    if argv[0] == "--format":
        assert captured.err == "unipotent-atlas: error: verify writes JSON lines and takes no --format\n"
    elif argv[0].startswith("-"):
        assert captured.err.endswith(f"error: {argv[0]} goes after the subcommand; only --format may come before it\n")
    else:
        assert captured.err.endswith("error: unrecognized arguments: --max-dim 5\n")


def _check_extra_counts_run(capsys, max_dim, checked, *argv):
    """verify --claim extra-counts with argv passes on group_sweep(max_dim),
    checking that many untagged classes, the paper's four groups among them."""
    code, out, err = run_cli(capsys, "verify", "--claim", "extra-counts", *argv)
    assert code == 0
    sweep = group_sweep(max_dim)
    # the summary: one claim, then the total (the check seconds masked)
    seconds = re.compile(r" +[\d.]+s (summed|wall)")
    assert seconds.sub(r" \1", err) == (f"{'extra-count':<28} {len(sweep):>4} runs {checked:>8} checked summed  ok\n"
                                       f"total: {len(sweep)} reports in wall\n")
    lines = [json.loads(line) for line in out.splitlines()]
    assert [line["group"] for line in lines] == [G.describe() for G in sweep]
    assert all(line["outcome"] == "pass" for line in lines)
    assert all(line["schema"] == "unipotent-atlas/v1" for line in lines)
    paper = {"SO7 (p=2)": 9, "SO12 (p=2)": 29, "SO14 (p=2)": 45, "SO16 (p=2)": 75}
    assert {line["group"]: line["checked"] for line in lines if line["group"] in paper} == paper


def test_verify_extra_counts_jsonl(capsys):
    # it used to check the four groups the paper counts alone
    _check_extra_counts_run(capsys, 24, 15_565)


def test_verify_sweeps_extra_counts_to_max_dim(capsys):
    # it used to ignore --max-dim
    _check_extra_counts_run(capsys, 16, 2_227, "--max-dim", "16")


def test_verify_extra_counts_are_timed_and_counted(capsys):
    code, out, _ = run_cli(capsys, "verify", "--claim", "extra-counts")
    assert code == 0
    for line in map(json.loads, out.splitlines()):
        assert line["elapsed_seconds"] > 0 and line["checked"] > 0, line


def _timeless(lines):
    """Report lines as dicts, less their elapsed_seconds."""
    docs = [json.loads(line) for line in lines]
    for doc in docs:
        del doc["elapsed_seconds"]
    return docs


def test_verify_extra_counts_are_the_lines_of_run_all(capsys):
    code, out, _ = run_cli(capsys, "verify", "--claim", "extra-counts")
    assert code == 0
    reports = run_all(claims=("extra-counts",))
    assert _timeless(out.splitlines()) == _timeless(rep.to_json_line() for rep in reports)


@pytest.mark.parametrize("claim, max_dim, surjectivity_max_dim, swept", [
    ("psi2-surjective", 8, 4, 4),  # it used to check --surjectivity-max-dim but sweep to --max-dim
    ("phi1-right-inverse", 5, 3, 5),
])
def test_verify_sweeps_a_claim_to_its_own_bound(capsys, claim, max_dim, surjectivity_max_dim, swept):
    code, out, _ = run_cli(capsys, "verify", "--claim", claim, "--max-dim", str(max_dim),
                           "--surjectivity-max-dim", str(surjectivity_max_dim))
    assert code == 0
    assert [doc["group"] for doc in _timeless(out.splitlines())] == [G.describe() for G in group_sweep(swept)]


def test_verify_single_claim_small(capsys):
    code, out, _ = run_cli(capsys, "verify", "--claim", "proposition", "--max-beta", "16")
    assert code == 0
    assert json.loads(out.splitlines()[0])["outcome"] == "pass"


@pytest.mark.parametrize("claim", list(GROUP_CLAIMS))
def test_verify_group_claim_reports_in_sweep_order(capsys, claim):
    code, out, _ = run_cli(capsys, "verify", "--claim", claim, "--max-dim", "7")
    assert code == 0
    got = [json.loads(line) for line in out.splitlines()]
    want = [verify_claim(claim, G).to_json() for G in group_sweep(7)]
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
    # (refused at the inverse: a warm per-group index never reaches the enumeration)
    calls = []
    real = balacarter.parabolic_from_blocks

    def refusing(G, lam):
        calls.append(G)
        if len(calls) > 5:
            raise ResourceLimitError(f"refused at call {len(calls)}")
        return real(G, lam)

    monkeypatch.setattr(balacarter, "parabolic_from_blocks", refusing)
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


#: SO66 at p=2 (rank 33) and a distinguished class whose one Richardson piece is the whole group.
SO66 = ["--group", "so", "--dim", "66", "--char", "2", "--blocks", "24,20,14,8"]


def _so66_descriptor():
    G = GroupSpec(Family.SO, 66, Char.TWO)
    [P] = [P for P in enumerate_distinguished_parabolics(G) if richardson_blocks(P) == (24, 20, 14, 8)]
    return P


def test_label_past_rank_32_names_the_enumerated_parabolic(capsys):
    # label used to refuse a piece past rank 32; the inverse now enumerates nothing
    code, out, err = run_cli(capsys, "--format", "json", "label", *SO66)
    assert (code, err) == (0, "")
    P, doc = _so66_descriptor(), json.loads(out)
    assert doc["label"] == f"D33[{diagram_string(P)}]"
    assert doc["phi2"]["parabolics"] == [{"group": "SO66 (p=2)", "c": list(P.c), "m0": P.m0}]


def test_richardson_blocks_past_rank_32_gives_the_enumerated_descriptor(capsys):
    code, out, err = run_cli(capsys, "--format", "json", "richardson", *SO66)
    assert (code, err) == (0, "")
    P, doc = _so66_descriptor(), json.loads(out)
    assert (doc["c"], doc["m0"], doc["levi"]) == (list(P.c), P.m0, P.levi_name())


def test_tables_2_past_the_rank_bound_names_the_group_and_no_keyword(capsys, monkeypatch):
    # table 2 lists the parabolics, so the command keeps a rank bound and
    # refuses before it enumerates; no command takes that bound, so the
    # refusal may not advise raising one
    def refusing(G):
        raise AssertionError("tables 2 enumerated past its bound")

    monkeypatch.setattr(cli, "enumerate_distinguished_parabolics", refusing)
    code, out, err = run_cli(capsys, "tables", "2", "--group", "so", "--dim", "66", "--char", "2")
    assert (code, out) == (2, "")
    assert err == "error: SO66 (p=2) has rank 33; distinguished parabolics are enumerated only up to rank 32\n"


@pytest.mark.parametrize("dim", ["0", "-3"])
def test_table_1_rejects_a_dim_below_1(capsys, dim):
    code, out, err = run_cli(capsys, "tables", "1", "--dim", dim)
    assert code == 2 and out == ""
    assert err == f"error: --dim must be at least 1, got {dim}\n"


@pytest.mark.parametrize("argv, message", [
    (["tables", "4", "--group", "so", "--dim", "4"], "tables 4 takes no --group"),
    (["tables", "4", "--dim", "4"], "tables 4 takes no --dim"),
    (["tables", "1", "--group", "so"], "tables 1 takes no --group"),
    (["tables", "1", "--char", "odd"], "tables 1 takes no --char"),
    (["tables", "4", "--char", "2"], "tables 4 takes no --char"),
])
def test_a_table_of_fixed_groups_refuses_the_flags_it_ignores(capsys, argv, message):
    # tables 4 --group so --dim 4 used to print SO16's table, tables 1
    # --group so every family's row, and both tables ignored --char
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv, flag, value", [
    (["verify", "--max-dim", "0"], "--max-dim", "0"),
    (["verify", "--max-dim", "-2"], "--max-dim", "-2"),
    (["verify", "--claim", "minimal-levi", "--max-dim", "0"], "--max-dim", "0"),
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


def test_verify_summarizes_its_reports_on_stderr(capsys):
    # the summary used to be printed by a separate script, and verify wrote
    # only "N claim(s) failed" on stderr
    code, out, err = run_cli(capsys, "verify", "--max-dim", "6")
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert len(lines) == 145
    summary = err.splitlines()
    for claim in dict.fromkeys(line["claim"] for line in lines):
        reps = [line for line in lines if line["claim"] == claim]
        [head] = [i for i, text in enumerate(summary) if text.startswith(f"{claim} ")]
        runs, checked = re.fullmatch(rf"{re.escape(claim)} +(\d+) runs +(\d+) checked +[\d.]+s summed  ok",
                                     summary[head]).groups()
        assert (int(runs), int(checked)) == (len(reps), sum(r["checked"] for r in reps))
    # it used to list the groups minimal-levi checked nothing on: GL1, ..., GL6
    assert not any(text.startswith("    ") for text in summary)
    assert summary[-1].startswith("total: 145 reports in ") and summary[-1].endswith("s wall")


@pytest.mark.parametrize("exc, code, err", [
    (RuntimeError("battery lost"), 3, "internal error: RuntimeError: battery lost\n"),
    (ResourceLimitError("dimension 41 exceeds"), 2, "error: dimension 41 exceeds\n"),
])
def test_verify_tells_a_crash_from_a_limit(capsys, monkeypatch, exc, code, err):
    # either leaves its one stderr line and no summary
    def fail(**bounds):
        raise exc

    monkeypatch.setattr(cli, "run_all", fail)
    assert run_cli(capsys, "verify", "--max-dim", "4") == (code, "", err)


def test_verify_takes_no_format(capsys):
    # it used to accept --format and print JSON lines whatever it said
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--format", "json"])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert captured.err.endswith("error: unrecognized arguments: --format json\n")


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


def test_verify_exits_quietly_when_stdout_closes():
    # the summary comes after the report lines, so a closed stdout leaves none
    code, err = run_with_stdout_closed(
        "-m", "unipotent_atlas", "verify", "--max-dim", "6", "--surjectivity-max-dim", "4", "--max-beta", "8",
    )
    assert (code, err) == (141, "")
