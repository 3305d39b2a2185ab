#!/usr/bin/env python3
"""Run the exhaustive verification battery and print a summary.

Example:
    python scripts/run_verifications.py --max-dim 24 --surjectivity-max-dim 16
"""

from __future__ import annotations

import argparse
import sys
import time

from unipotent_atlas.cli import internal_error, stdout_closed
from unipotent_atlas.errors import InputError, ResourceLimitError
from unipotent_atlas.oracle import run_all


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
    parser.add_argument("--max-dim", type=int, default=24,
                        help="bound for class-level checks (right inverses, minimal Levi)")
    parser.add_argument("--surjectivity-max-dim", type=int, default=16,
                        help="bound for the surjectivity and injectivity sweeps")
    parser.add_argument("--max-beta", type=int, default=30,
                        help="bound for the decomposition property suite")
    parser.add_argument("--jsonl", action="store_true", help="emit raw JSON lines instead")
    args = parser.parse_args(argv)

    try:
        t0 = time.perf_counter()
        reports = run_all(
            max_dim=args.max_dim,
            surjectivity_max_dim=args.surjectivity_max_dim,
            beta_bound=args.max_beta,
        )
        elapsed = time.perf_counter() - t0
        if args.jsonl:
            for rep in reports:
                print(rep.to_json_line())
        else:
            print_summary(reports, elapsed)
        sys.stdout.flush()
    except BrokenPipeError:
        return stdout_closed()
    except (InputError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a crash, told apart from a failed claim by its status
        return internal_error(exc)
    return 0 if all(rep.passed for rep in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
