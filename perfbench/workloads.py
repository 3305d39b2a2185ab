"""Workload definitions, golden outputs, correctness checks and statistics.

Three workloads, each a batch of work one fresh worker process runs:

  verify  the verifier battery ``oracle.run_all`` (one request per batch);
  atlas   three CLI commands run in-process through ``cli.main`` (one
          operation each);
  query   a closed loop, one client, of single-class queries.

SIZES holds the sizes the benchmark measures; SMOKE holds tiny ones for the
benchmark's own tests.  Golden outputs for both were captured once from the
baseline library (commit 5eb9efc) by ``capture_goldens.py`` and live in ``goldens/``.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import math
import statistics
from dataclasses import dataclass
from pathlib import Path

import querygen

GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"

#: Tracked library layers: module -> public functions wrapped in a traced run.
LAYER_FUNCTIONS = {
    "partitions": ("iter_partitions", "Partition.dual"),
    "classes": ("enumerate_classes", "is_valid_class", "minimal_levi", "combine"),
    "decomp": ("decompose", "apply_f"),
    "richardson": (
        "parabolic_from_blocks",
        "richardson_jordan_blocks",
        "enumerate_distinguished_parabolics",
        "in_richardson_image",
    ),
    "balacarter": ("label", "phi1", "phi2", "psi1", "psi2", "is_extra_class"),
    "oracle": (
        "verify_surjectivity",
        "verify_right_inverse",
        "verify_minimal_levi",
        "verify_psi2_restricted_injective",
        "verify_proposition",
    ),
    "cli": ("main",),
}

#: Dataclasses whose constructions are counted: (module, class).
CONSTRUCTORS = (("partitions", "Partition"), ("classes", "ClassParam"), ("classes", "EpsilonMap"))

#: Modules whose lru caches are read, and the metric prefix for each.
CACHES = {"partitions": "partitions.cache", "richardson": "richardson.parabolic_cache"}

#: Percentiles the tail is chosen from (see tail_percentile).
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99)


@dataclass(frozen=True)
class Sizes:
    battery: tuple[int, int, int]  # run_all(max_dim, surjectivity_max_dim, beta_bound)
    atlas: tuple[tuple[str, ...], ...]  # argv of each CLI command
    batch_queries: int  # timed queries per query worker
    warmup_queries: int  # untimed queries answered first, counted in set-up


SIZES = Sizes(
    battery=(18, 12, 24),
    atlas=(
        ("--format", "json", "classes", "--group", "so", "--dim", "30", "--char", "2"),
        ("--format", "json", "tables", "2", "--group", "so", "--dim", "56", "--char", "2"),
        ("--format", "json", "tables", "3", "--group", "so", "--dim", "46", "--char", "2"),
    ),
    batch_queries=500,
    warmup_queries=40,
)

SMOKE = Sizes(
    battery=(6, 6, 8),
    atlas=(
        ("--format", "json", "classes", "--group", "so", "--dim", "8", "--char", "2"),
        ("--format", "json", "tables", "2", "--group", "so", "--dim", "12", "--char", "2"),
        ("--format", "json", "tables", "3", "--group", "so", "--dim", "12", "--char", "2"),
    ),
    batch_queries=12,
    warmup_queries=2,
)


def ops_per_batch(workload: str, sizes: Sizes) -> int:
    """Operations in one batch: one battery, one per CLI command, one per query."""
    return {"verify": 1, "atlas": len(sizes.atlas), "query": sizes.batch_queries}[workload]


def battery_key(battery) -> str:
    return "/".join(str(x) for x in battery)


def command_key(argv) -> str:
    return " ".join(argv)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def claims_digest(pairs) -> str:
    """Order-free digest of the (claim, group) pairs a battery reported."""
    return digest("\n".join(sorted(f"{c}|{g}" for c, g in pairs)))


# -- goldens -------------------------------------------------------------------


def load_goldens(directory: Path = GOLDEN_DIR) -> dict:
    """{"verify": {...}, "atlas": {...}, "query": {key: answer}, "refused": set}."""
    verify = json.loads((directory / "verify.json").read_text())
    atlas = json.loads((directory / "atlas.json").read_text())
    answers, refused, pool = {}, set(), []
    with gzip.open(directory / "query_pool.jsonl.gz", "rt", encoding="utf-8") as fh:
        for line in fh:
            row = json.loads(line)
            key = querygen.query_key(row["query"])
            pool.append(row["query"])
            answers[key] = row["answer"]
            if row["seed_refused"]:
                refused.add(key)
    return {"verify": verify["batteries"], "atlas": atlas["commands"], "query": answers,
            "refused": refused, "pool": pool}


# -- correctness ---------------------------------------------------------------


def check_verify(batch: dict, golden: dict) -> int:
    """Failed operations in a verify batch (its one battery, or 0)."""
    res = batch.get("check")
    if res is None:
        return 1
    ok = (
        res["reports"] == golden["reports"]
        and res["passed"] == res["reports"]
        and res["claims_digest"] == golden["claims_digest"]
    )
    return 0 if ok else 1


def check_atlas(batch: dict, goldens: dict, commands) -> list[bool]:
    """One flag per command of an atlas batch: true when it ran and its exit
    code and stdout digest match the golden."""
    outputs = batch.get("outputs") or []
    flags = []
    for argv, out in zip(commands, outputs):
        want = goldens[command_key(argv)]
        flags.append(out["exit"] == want["exit"] and out["sha256"] == want["sha256"])
    return flags + [False] * (len(commands) - len(outputs))


def check_query(answers: list, queries: list, goldens: dict,
                seed_refused: set) -> tuple[int, int, int, list[bool]]:
    """(failed, refused, wrong, ok flags) for one query batch.

    A refusal (ResourceLimitError) of a query the baseline also refused is
    the library's stated rank bound, not a failure: it is counted as refused
    and gives no answer, so it adds nothing to the throughput.  A refusal of a
    query the baseline answered is a failed operation but not a wrong answer;
    an answer that differs from the golden, or any other error, is both
    failed and wrong.
    """
    failed = refused = wrong = 0
    flags = []
    for q, (status, text) in zip(queries, answers):
        key = querygen.query_key(q)
        good = False
        if status == "refused":
            refused += 1
            failed += key not in seed_refused
        elif status == "ok":
            good = json.loads(text) == goldens[key]
            wrong += not good
            failed += not good
        else:
            wrong += 1
            failed += 1
        flags.append(good)
    missing = len(queries) - len(answers)
    return failed + missing, refused, wrong + missing, flags


# -- statistics ----------------------------------------------------------------


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile q (0..100) of a non-empty sample."""
    xs = sorted(values)
    if len(xs) == 1:
        return float(xs[0])
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n: int, ladder=TAIL_LADDER) -> float | None:
    """Highest ladder percentile with at least 10 of n samples beyond it."""
    best = None
    for q in ladder:
        if n * (100.0 - q) / 100.0 >= 10 - 1e-9:
            best = q
    return best


def median(values) -> float:
    return float(statistics.median(values))
