#!/usr/bin/env python3
"""Run the exhaustive verification battery and print a summary.

The summary covers the reports of ``unipotent-atlas verify --claim all``
under the same bound flags, with the same defaults and exit statuses.

Example:
    python scripts/run_verifications.py --max-dim 24 --surjectivity-max-dim 16
"""

from __future__ import annotations

import argparse
import sys
import time

from unipotent_atlas.cli import run_guarded, verify_reports


def print_summary(reports, elapsed: float) -> None:
    """One line per claim (runs, objects checked, summed check seconds,
    status), then the failed reports and the groups a claim passed without
    checking anything, then the total in wall seconds.  The checks run on
    every usable CPU, so the summed seconds can exceed the wall time."""
    by_claim: dict[str, list] = {}
    for rep in reports:
        by_claim.setdefault(rep.claim, []).append(rep)
    for claim, reps in by_claim.items():
        failed = [r for r in reps if not r.passed]
        status = "ok" if not failed else f"{len(failed)} FAILED"
        checked = sum(r.checked for r in reps)
        seconds = sum(r.elapsed_seconds for r in reps)
        print(f"{claim:<28} {len(reps):>4} runs {checked:>8} checked {seconds:>8.2f}s summed  {status}")
        for rep in failed:
            print(f"    {rep.group}: {rep.counterexamples[:3]}")
        vacuous = [r.group or "-" for r in reps if r.checked == 0]
        if vacuous:
            print(f"    checked 0: {', '.join(vacuous)}")
    print(f"total: {len(reports)} reports in {elapsed:.1f}s wall")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-dim", type=int,
                        help="bound for class-level checks (right inverses, minimal Levi)")
    parser.add_argument("--surjectivity-max-dim", type=int,
                        help="bound for the surjectivity and injectivity sweeps")
    parser.add_argument("--max-beta", type=int, help="bound for the decomposition property suite")
    args = parser.parse_args(argv)

    def summarize() -> int:
        t0 = time.perf_counter()
        reports = verify_reports(claim="all", **vars(args))
        print_summary(reports, time.perf_counter() - t0)
        return 0 if all(rep.passed for rep in reports) else 1

    return run_guarded(summarize)


if __name__ == "__main__":
    sys.exit(main())
