"""Capture the golden outputs the benchmark checks against.

    python3 perfbench/capture_goldens.py

Run once, on the baseline library (commit 5eb9efc), from the root of a source checkout.  It writes

  goldens/verify.json          report count and claims digest per battery size;
  goldens/atlas.json           exit code and stdout SHA-256 per CLI command;
  goldens/query_pool.jsonl.gz  the fixed query pool, one answer per query.

The pool is built by ``querygen.build_pool`` from POOL_SEED; streams sample
from it.  Queries the baseline refuses (a Richardson piece of rank above the
enumeration bound 32) get the answer the same enumerate-and-match inverse
gives with that bound lifted, and are marked ``seed_refused``.

Goldens are never regenerated from code under test: the script refuses to
run while any golden file exists.  To re-capture (from the baseline commit
only), delete the files by hand first.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import io
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import querygen  # noqa: E402
import workloads as wl  # noqa: E402
from worker import query_answerer  # noqa: E402

POOL_SEED = 20030917
POOL_PER_CELL = 40


def _commit() -> str:
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                          text=True)
    dirty = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain", "src"],
                           capture_output=True, text=True).stdout.strip()
    return proc.stdout.strip() + (" (src modified)" if dirty else "")


def capture_verify() -> dict:
    from unipotent_atlas import oracle

    out = {}
    for sizes in (wl.SIZES, wl.SMOKE):
        reports = oracle.run_all(*sizes.battery)
        if not all(r.passed for r in reports):
            raise SystemExit(f"battery {sizes.battery} has failing claims; not a golden")
        out[wl.battery_key(sizes.battery)] = {
            "reports": len(reports),
            "claims_digest": wl.claims_digest((r.claim, r.group) for r in reports),
        }
    return out


def capture_atlas() -> dict:
    from unipotent_atlas import cli

    out = {}
    for sizes in (wl.SIZES, wl.SMOKE):
        for argv in sizes.atlas:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(list(argv))
            text = buf.getvalue()
            out[wl.command_key(argv)] = {"exit": code, "sha256": wl.digest(text),
                                         "bytes": len(text.encode("utf-8"))}
    return out


def capture_query() -> list[dict]:
    from unipotent_atlas import Char, EpsilonMap, Family, GroupSpec, Partition, richardson
    from unipotent_atlas.classes import is_valid_class
    from unipotent_atlas.errors import ResourceLimitError

    answer = query_answerer()
    bounded = richardson.enumerate_distinguished_parabolics
    rows = []
    for q in querygen.build_pool(POOL_SEED, POOL_PER_CELL):
        G = GroupSpec(Family(q["group"]), q["dim"], Char.TWO if q["char"] == "2" else Char.GOOD)
        if not is_valid_class(G, Partition.parse(q["blocks"]), EpsilonMap.parse(q["eps"])):
            continue
        refused = False
        try:
            text = answer(q)
        except ResourceLimitError:
            refused = True
            richardson.enumerate_distinguished_parabolics = functools.partial(
                bounded, max_rank=G.rank)
            try:
                text = answer(q)
            finally:
                richardson.enumerate_distinguished_parabolics = bounded
        rows.append({"query": q, "answer": json.loads(text), "seed_refused": refused})
    return rows


def main() -> int:
    wl.GOLDEN_DIR.mkdir(exist_ok=True)
    targets = [wl.GOLDEN_DIR / n for n in ("verify.json", "atlas.json", "query_pool.jsonl.gz")]
    if any(p.exists() for p in targets):
        print("error: goldens exist; they are captured once from the baseline library", file=sys.stderr)
        return 2
    commit = _commit()
    verify = {"captured_from": commit, "batteries": capture_verify()}
    atlas = {"captured_from": commit, "commands": capture_atlas()}
    rows = capture_query()
    targets[0].write_text(json.dumps(verify, indent=1, sort_keys=True) + "\n")
    targets[1].write_text(json.dumps(atlas, indent=1, sort_keys=True) + "\n")
    with gzip.GzipFile(targets[2], "wb", mtime=0) as raw:
        with io.TextIOWrapper(raw, encoding="utf-8") as fh:
            for row in rows:
                fh.write(json.dumps(row, sort_keys=True) + "\n")
    refused = sum(r["seed_refused"] for r in rows)
    print(f"captured from {commit}: {len(rows)} queries ({refused} refused by the baseline)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
