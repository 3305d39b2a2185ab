"""Golden outputs: the sha256 of each CLI JSON document the refactors must keep.

The digests cover ``--format json`` output of ``classes``, ``tables 2`` and
``tables 3`` on every group of ``group_sweep(GOLDEN_MAX_DIM)``, plus
``classes`` on O in both characteristics at the same dims.  Past those
dims, where many classes share one distinguished remainder, they also cover
``classes`` on SO and O at p=2 for dims 25-30 and on Sp at p=2 for dims 26,
28 and 30, ``classes --extra-only`` on SO at p=2 (dims 4, 16, 24, 30; at
dim 4 the document has no rows) and on O at p=2 (dim 24), and ``tables 4``
in every format.  The other commands' documents (``label``, ``richardson``
in both directions, ``decompose`` in each family and characteristic,
``tables 1``) are covered in every format, and ``classes``, ``tables 2``
and ``tables 3`` on a few groups in text and csv.  Two ``verify`` runs are
covered too (``VERIFY``), each report line without its ``elapsed_seconds``,
the one field that differs from run to run.  A change that
is meant to alter one of these outputs recaptures them with

    PYTHONPATH=src python tests/test_golden_digests.py --write

and says so; any other change must leave them byte-identical.

The same command also recaptures ``enumeration_digests.json``: one sha256
per group of ``group_sweep(ENUMERATION_MAX_DIM)`` and enumeration, over the
``repr`` of each descriptor that ``iter_regular_subgroups(G)`` and
``iter_parabolic_products(G, max_factors=k)`` (k = 1, 2, 3) yield, in order.
They pin the enumeration order, which no CLI output shows in full.
"""

import contextlib
import hashlib
import io
import json
import re
import sys
from pathlib import Path

from unipotent_atlas.balacarter import iter_parabolic_products, iter_regular_subgroups
from unipotent_atlas.classes import Char
from unipotent_atlas.cli import main
from unipotent_atlas.oracle import group_sweep

GOLDEN_MAX_DIM = 24
#: The p=2 classes documents past GOLDEN_MAX_DIM: (family, dims).
LARGE_CLASSES = (("so", range(25, 31)), ("o", range(25, 31)), ("sp", (26, 28, 30)))
#: The p=2 classes --extra-only documents in json: (family, dims).
EXTRA_ONLY = (("so", (4, 16, 24, 30)), ("o", (24,)))
#: Commands whose documents are covered in text, json and csv.
EVERY_FORMAT = (
    ("label", "--group", "so", "--dim", "16", "--char", "2", "--blocks", "8,4,2,2",
     "--eps", "8:1,4:1,2:1"),
    ("label", "--group", "so", "--dim", "12", "--char", "2", "--blocks", "4,4,2,2"),
    ("label", "--group", "sp", "--dim", "12", "--char", "odd", "--blocks", "6,4,2"),
    ("label", "--group", "gl", "--dim", "7", "--blocks", "4,2,1"),
    ("richardson", "--group", "so", "--dim", "12", "--char", "2", "--levi", "1^3,2;m0=1"),
    ("richardson", "--group", "sp", "--dim", "12", "--char", "2", "--levi", "1^2,2^2"),
    ("richardson", "--group", "gl", "--dim", "5", "--levi", "1,2^2"),
    ("richardson", "--group", "so", "--dim", "12", "--char", "2", "--blocks", "8,4"),
    ("richardson", "--group", "sp", "--dim", "12", "--char", "odd", "--blocks", "6,4,2"),
    ("richardson", "--group", "gl", "--dim", "5", "--blocks", "3,2"),
    ("decompose", "12,12,10,8,6,6,4,2"),
    ("decompose", "6,4,4,2,2,1", "--group", "so", "--char", "2"),
    ("decompose", "8,8,6,4,4,2", "--group", "sp", "--char", "2"),
    ("decompose", "8,6,2", "--group", "sp", "--char", "odd"),
    ("decompose", "9,5,3,1", "--group", "so", "--char", "odd"),
    ("tables", "1"),
    ("tables", "1", "--dim", "13"),
)
#: The groups of the tables 2 and 3 documents covered in text and csv.
TABLES_TEXT = (
    ("--group", "so", "--dim", "12", "--char", "2"),
    ("--group", "sp", "--dim", "8", "--char", "odd"),
    ("--group", "gl", "--dim", "5"),
)
#: classes documents covered in text and csv (json is covered above).
CLASSES_TEXT = (
    ("--group", "so", "--dim", "16", "--char", "2"),
    ("--group", "so", "--dim", "16", "--char", "2", "--extra-only"),
    ("--group", "so", "--dim", "4", "--char", "2", "--extra-only"),
    ("--group", "o", "--dim", "10", "--char", "2"),
    ("--group", "sp", "--dim", "8", "--char", "odd"),
    ("--group", "gl", "--dim", "5"),
)
#: verify commands whose report lines are covered, less their timings.
VERIFY = (
    ("verify", "--claim", "all", "--max-dim", "8", "--surjectivity-max-dim", "6", "--max-beta", "10"),
    ("verify", "--claim", "extra-counts"),
)
#: A report line's elapsed_seconds field, which compute_digests drops.
_ELAPSED = re.compile(r', "elapsed_seconds": [^,]*')
ENUMERATION_MAX_DIM = 16
DIGESTS = Path(__file__).with_name("golden_digests.json")
ENUMERATION_DIGESTS = Path(__file__).with_name("enumeration_digests.json")


def golden_argvs() -> list[list[str]]:
    argvs = []
    for G in group_sweep(GOLDEN_MAX_DIM):
        group = ["--group", G.family.value, "--dim", str(G.dim), "--char", G.char.value]
        argvs.append(["--format", "json", "classes", *group])
        argvs.append(["--format", "json", "tables", "2", *group])
        argvs.append(["--format", "json", "tables", "3", *group])
    for n in range(1, GOLDEN_MAX_DIM + 1):
        for char in (Char.TWO, Char.GOOD):
            argvs.append(["--format", "json", "classes", "--group", "o", "--dim", str(n),
                          "--char", char.value])
    for family, dims in LARGE_CLASSES:
        for n in dims:
            argvs.append(["--format", "json", "classes", "--group", family, "--dim", str(n),
                          "--char", "2"])
    for family, dims in EXTRA_ONLY:
        for n in dims:
            argvs.append(["--format", "json", "classes", "--group", family, "--dim", str(n),
                          "--char", "2", "--extra-only"])
    for fmt in ("text", "csv", "json"):
        argvs.append(["--format", fmt, "tables", "4"])
        argvs += [["--format", fmt, *command] for command in EVERY_FORMAT]
        if fmt != "json":
            argvs += [["--format", fmt, "classes", *group] for group in CLASSES_TEXT]
            argvs += [["--format", fmt, "tables", which, *group]
                      for which in ("2", "3") for group in TABLES_TEXT]
    return argvs + [list(command) for command in VERIFY]


def compute_digests() -> dict[str, str]:
    digests = {}
    for argv in golden_argvs():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(argv)
        assert code == 0, argv
        text = _ELAPSED.sub("", buf.getvalue()) if argv[0] == "verify" else buf.getvalue()
        digests[" ".join(argv)] = hashlib.sha256(text.encode()).hexdigest()
    return digests


def compute_enumeration_digests() -> dict[str, str]:
    digests = {}
    for G in group_sweep(ENUMERATION_MAX_DIM):
        sequences = {"regular": iter_regular_subgroups(G)}
        for k in (1, 2, 3):
            sequences[f"parabolic max_factors={k}"] = iter_parabolic_products(G, max_factors=k)
        for name, items in sequences.items():
            h = hashlib.sha256()
            for item in items:
                h.update(repr(item).encode() + b"\n")
            digests[f"{G.describe()} {name}"] = h.hexdigest()
    return digests


def _assert_unchanged(path: Path, got: dict[str, str]) -> None:
    want = json.loads(path.read_text())
    assert got.keys() == want.keys()
    changed = sorted(k for k in want if got[k] != want[k])
    assert not changed, f"{len(changed)} golden outputs changed, first: {changed[:5]}"


def test_golden_outputs_are_byte_identical():
    _assert_unchanged(DIGESTS, compute_digests())


def test_enumeration_order_is_unchanged():
    _assert_unchanged(ENUMERATION_DIGESTS, compute_enumeration_digests())


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden_digests.py --write")
    for path, digests in ((DIGESTS, compute_digests()),
                          (ENUMERATION_DIGESTS, compute_enumeration_digests())):
        path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
