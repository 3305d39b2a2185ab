"""Seeded generator of single-class queries for the ``query`` workload.

A query names a class of SO_n or Sp_n by its Jordan blocks and eps, as the
``label`` command takes it.  Classes are built from the minimal-Levi split
``blocks = double(alpha) + beta``: a random GL part ``alpha`` and a random
distinguished remainder ``beta`` whose size ``r`` is drawn stratum by stratum.
Nothing here enumerates the partitions of n; partitions are drawn by stick
breaking, with rejection for the shape constraints of ``beta``.

The query cost of the library grows with the remainder (each Richardson piece
is inverted separately), so the strata are bins of ``r``.  Group dims run from
24 to 80, past rank 32, because the library at commit 5eb9efc refuses to invert a piece of
rank above 32 (its enumeration bound): those refusals belong in the mix (the
runner reports them apart from failures), and
single-class queries at these sizes are where a p(n)-cost and a poly(n)-cost
inverse part ways.

This module imports nothing from the library, so the runner can sample
streams without importing the code under test.
"""

from __future__ import annotations

import random

#: (group, char, share of the pool): mostly p = 2, some odd characteristic.
FAMILIES = (("so", "2", 5), ("sp", "2", 3), ("so", "odd", 1), ("sp", "odd", 1))

#: Bins of the remainder dimension r = |beta|; a query's stratum is its bin.
STRATA = ((0, 8), (9, 16), (17, 24), (25, 32), (33, 40), (41, 48), (49, 56), (57, 64), (65, 80))

#: Share of each stratum in a query stream (sums to 100).  Small and middle
#: remainders dominate; the top bin, where pieces can pass rank 32, is 5 %.
STRATUM_WEIGHTS = (14, 14, 14, 14, 12, 10, 9, 8, 5)

MIN_DIM, MAX_DIM = 24, 80


def _stick_partition(rng: random.Random, n: int, step: int = 1) -> list[int]:
    """A random partition of n into multiples of ``step`` (n a multiple of step)."""
    parts = []
    rest = n // step
    while rest > 0:
        x = rng.randint(1, rest)
        parts.append(x * step)
        rest -= x
    return sorted(parts, reverse=True)


def _max_mult_ok(parts: list[int], cap: int) -> bool:
    return all(parts.count(v) <= cap for v in set(parts))


def random_remainder(rng: random.Random, group: str, char: str, r: int, tries: int = 2000):
    """A random distinguished remainder of total r, or None when none was found.

    Shapes: at p = 2, even parts of multiplicity <= 2, plus one part 1 for SO
    of odd total, and an even number of parts for SO of even total; in odd
    characteristic, distinct odd parts (SO) or distinct even parts (Sp).
    """
    if r == 0:
        return []
    for _ in range(tries):
        if char == "2":
            ones = 1 if (group == "so" and r % 2 == 1) else 0
            if (r - ones) % 2:
                return None
            parts = _stick_partition(rng, r - ones, 2) + [1] * ones
            if not _max_mult_ok(parts, 2):
                continue
            if group == "so" and not ones and len(parts) % 2:
                continue
            return parts
        if group == "sp":
            if r % 2:
                return None
            parts = _stick_partition(rng, r, 2)
        else:
            parts = _stick_partition(rng, r)
            if any(p % 2 == 0 for p in parts):
                continue
        if _max_mult_ok(parts, 1):
            return parts
    return None


def _eps_text(group: str, char: str, alpha: list[int], beta: list[int]) -> str:
    """The eps of double(alpha) + beta as the combine rule assigns it."""
    values = sorted(set(alpha) | set(beta), reverse=True)
    out = []
    for x in values:
        if char == "2":
            v = -1 if x % 2 else (1 if x in beta else 0)
        else:
            delta = 1 if group == "sp" else -1
            v = delta if x % 2 == 0 else -delta
        out.append(f"{x}:{v}")
    return ",".join(out)


def _blocks_text(parts: list[int]) -> str:
    return ",".join(str(p) for p in sorted(parts, reverse=True))


def make_query(rng: random.Random, group: str, char: str, stratum: int, tries: int = 200):
    """One query dict with its remainder in the given stratum, or None."""
    lo, hi = STRATA[stratum]
    for _ in range(tries):
        n = rng.randint(max(MIN_DIM, lo), MAX_DIM)
        if group == "sp" and n % 2:
            n += 1 if n < MAX_DIM else -1
        r = rng.randint(lo, min(hi, n))
        if (n - r) % 2:
            continue
        beta = random_remainder(rng, group, char, r)
        if beta is None:
            continue
        alpha = _stick_partition(rng, (n - r) // 2)
        blocks = alpha + alpha + beta
        return {
            "group": group,
            "dim": n,
            "char": char,
            "blocks": _blocks_text(blocks),
            "eps": _eps_text(group, char, alpha, beta),
            "stratum": stratum,
        }
    return None


def build_pool(seed: int, per_cell: int) -> list[dict]:
    """``per_cell`` distinct queries for every (family, stratum) cell, scaled by
    the family's share; used once to fix the query pool and its goldens."""
    rng = random.Random(seed)
    pool: list[dict] = []
    seen = set()
    for group, char, share in FAMILIES:
        for stratum in range(len(STRATA)):
            want = per_cell * share
            misses = 0
            got = 0
            while got < want and misses < 50 * want:
                q = make_query(rng, group, char, stratum)
                key = None if q is None else (q["group"], q["dim"], q["char"], q["blocks"], q["eps"])
                if key is None or key in seen:
                    misses += 1
                    continue
                seen.add(key)
                pool.append(q)
                got += 1
    return pool


def sample_stream(pool: list[dict], seed: int, count: int) -> list[dict]:
    """A seeded stream of ``count`` queries drawn from the pool.

    Each stream takes its strata in the fixed STRATUM_WEIGHTS proportions
    (largest-remainder rounding) and, within a stratum, the families in
    proportion to their pool shares; order is shuffled.
    """
    rng = random.Random(seed)
    by_stratum: dict[int, list[dict]] = {}
    for q in pool:
        by_stratum.setdefault(q["stratum"], []).append(q)
    total = sum(STRATUM_WEIGHTS)
    exact = [count * w / total for w in STRATUM_WEIGHTS]
    counts = [int(x) for x in exact]
    for i in sorted(range(len(exact)), key=lambda i: exact[i] - counts[i], reverse=True)[: count - sum(counts)]:
        counts[i] += 1
    stream = []
    for stratum, k in enumerate(counts):
        cell = by_stratum.get(stratum, [])
        if k and not cell:
            raise ValueError(f"the query pool has no entry in stratum {stratum}")
        stream.extend(rng.choice(cell) for _ in range(k))
    rng.shuffle(stream)
    return stream


def query_key(q: dict) -> str:
    """Text identity of a query, the key of its golden answer."""
    return f"{q['group']}|{q['dim']}|{q['char']}|{q['blocks']}|{q['eps']}"
