"""Partition algebra: normalized integer partitions with dual, merge, double.

Partitions are stored weakly decreasing and are immutable; every constructor
normalizes.  The empty partition is a first-class value, printed and parsed
as ``"0"``.  The textual syntax used everywhere (CLI, JSON) is comma-separated
parts with optional caret exponents, e.g. ``"6,4^2,2"`` for (6, 4, 4, 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from .errors import InputError

#: Totals above this are rejected when parsing text input (desk-scale tool).
MAX_PARSE_TOTAL = 10_000


@dataclass(frozen=True, order=True)
class Partition:
    """A weakly decreasing sequence of positive integers (possibly empty)."""

    parts: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        parts = tuple(sorted(map(int, self.parts), reverse=True))
        if parts and parts[-1] < 1:
            raise InputError(f"partition parts must be positive integers, got {self.parts!r}")
        object.__setattr__(self, "parts", parts)

    # -- construction / rendering ------------------------------------------

    @classmethod
    def parse(cls, text: str) -> Partition:
        """Parse ``"6,4^2,2"`` syntax; ``"0"`` or ``""`` is the empty partition."""
        s = text.strip()
        if s in ("", "0"):
            return cls()
        parts: list[int] = []
        for chunk in s.split(","):
            chunk = chunk.strip()
            try:
                if "^" in chunk:
                    value_s, mult_s = chunk.split("^", 1)
                    value, mult = int(value_s), int(mult_s)
                else:
                    value, mult = int(chunk), 1
            except ValueError as exc:
                raise InputError(f"cannot parse partition chunk {chunk!r} in {text!r}") from exc
            if value < 1 or mult < 1:
                raise InputError(f"partition chunk {chunk!r} must have positive value and exponent")
            parts.extend([value] * mult)
        total = sum(parts)
        if total > MAX_PARSE_TOTAL:
            raise InputError(f"partition total {total} exceeds the supported bound {MAX_PARSE_TOTAL}")
        return cls(tuple(parts))

    def __str__(self) -> str:
        if not self.parts:
            return "0"
        return ",".join(
            f"{value}^{mult}" if mult > 1 else f"{value}"
            for value, mult in self.multiplicities().items()
        )

    def __repr__(self) -> str:
        return f"Partition({self.parts!r})"

    # -- basic queries -------------------------------------------------------

    @property
    def total(self) -> int:
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __bool__(self) -> bool:
        return bool(self.parts)

    def part(self, i: int) -> int:
        """The i-th part, 1-based; indices past the end read as 0."""
        return self.parts[i - 1] if 1 <= i <= len(self.parts) else 0

    def multiplicity(self, x: int) -> int:
        """Number of parts equal to x."""
        if x < 1:
            raise InputError(f"part value must be positive, got {x}")
        return self.parts.count(x)

    def multiplicities(self) -> dict[int, int]:
        """Mapping value -> multiplicity, keys in decreasing order."""
        out: dict[int, int] = {}
        for p in self.parts:
            out[p] = out.get(p, 0) + 1
        return out

    def values(self) -> tuple[int, ...]:
        """Distinct part values in decreasing order."""
        return tuple(dict.fromkeys(self.parts))

    # -- algebra ---------------------------------------------------------------

    def dual(self) -> Partition:
        """Conjugate partition: column lengths of the Young diagram."""
        if not self.parts:
            return Partition()
        cols = [0] * self.parts[0]
        for p in self.parts:
            for i in range(p):
                cols[i] += 1
        return Partition(tuple(cols))

    def merge(self, other: Partition) -> Partition:
        """Union of the parts counting multiplicity."""
        return Partition(self.parts + other.parts)

    __add__ = merge

    def double(self) -> Partition:
        """Each part repeated with twice its multiplicity."""
        return Partition(self.parts + self.parts)


# -- module-level operation names ------------------------------------------------


def dual(lam: Partition) -> Partition:
    return lam.dual()


def merge(alpha: Partition, beta: Partition) -> Partition:
    return alpha.merge(beta)


def double(alpha: Partition) -> Partition:
    return alpha.double()


def multiplicity(lam: Partition, x: int) -> int:
    return lam.multiplicity(x)


@lru_cache(maxsize=None)
def _partitions(n: int, cap: int) -> tuple[tuple[int, ...], ...]:
    if n == 0:
        return ((),)
    out = []
    for first in range(min(n, cap), 0, -1):
        for rest in _partitions(n - first, first):
            out.append((first,) + rest)
    return tuple(out)


def iter_partitions(n: int, max_part: int | None = None) -> Iterator[tuple[int, ...]]:
    """All partitions of n (optionally with parts <= max_part), lexicographically decreasing."""
    if n < 0:
        raise InputError(f"cannot partition a negative total {n}")
    cap = n if max_part is None else min(max_part, n)
    if n > 0 and cap < 1:
        return iter(())
    return iter(_partitions(n, cap))
