#!/usr/bin/env python3
"""Census of extra classes (classes outside the classical parameterization)
across the symplectic and special orthogonal groups at p=2.

Example:
    python scripts/extra_class_census.py --max-dim 24
"""

from __future__ import annotations

import argparse
import sys

from unipotent_atlas.balacarter import extra_classes
from unipotent_atlas.classes import Char, Family, GroupSpec, enumerate_classes
from unipotent_atlas.cli import run_guarded
from unipotent_atlas.errors import InputError


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-dim", type=int, default=20,
                        help="largest dimension swept, and the enumeration bound (at least 2)")
    parser.add_argument("--list-classes", action="store_true",
                        help="print each extra class with its label")
    args = parser.parse_args(argv)

    def census() -> int:
        if args.max_dim < 2:
            raise InputError(f"--max-dim must be at least 2, got {args.max_dim}")
        print(f"{'group':<12} {'classes':>8} {'extra':>6}")
        for dim in range(2, args.max_dim + 1):
            specs = [GroupSpec(Family.SO, dim, Char.TWO)]
            if dim % 2 == 0:
                specs.append(GroupSpec(Family.SP, dim, Char.TWO))
            for G in specs:
                classes = enumerate_classes(G, max_dim=args.max_dim)
                extras = list(extra_classes(classes))
                print(f"{G.describe():<12} {len(classes):>8} {len(extras):>6}")
                if args.list_classes:
                    for C, a in extras:
                        print(f"    {str(C.lam):<16} eps {str(C.eps):<20} {a.label()}")
        return 0

    return run_guarded(census)


if __name__ == "__main__":
    sys.exit(main())
