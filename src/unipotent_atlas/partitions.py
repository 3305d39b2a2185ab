"""Partition algebra: normalized integer partitions with dual, merge, double.

Partitions are stored weakly decreasing, with their multiplicities, and are
immutable.  The constructor checks and normalizes parts from outside the
library; the partitions the library derives (dual, merge, double and the
blocks of its classes) are canonical and skip it through the one trusted
builder, the private ``_from_mults``.
The empty partition is a first-class value, printed and parsed as ``"0"``.
The textual syntax used everywhere (CLI, JSON) is comma-separated
parts with optional caret exponents, e.g. ``"6,4^2,2"`` for (6, 4, 4, 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import InputError

#: Totals above this are rejected when parsing text input (desk-scale tool).
MAX_PARSE_TOTAL = 10_000


@dataclass(frozen=True, order=True)
class Partition:
    """A weakly decreasing sequence of positive integers (possibly empty)."""

    parts: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        parts = tuple(self.parts)
        if not set(map(type, parts)) <= {int}:  # a float or a bool is not a part
            raise InputError(f"partition parts must be integers, got {self.parts!r}")
        parts = tuple(sorted(parts, reverse=True))
        if parts and parts[-1] < 1:
            raise InputError(f"partition parts must be positive integers, got {self.parts!r}")
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "_counts", _count(parts))

    # -- construction / rendering ------------------------------------------

    @classmethod
    def parse(cls, text: str) -> Partition:
        """Parse ``"6,4^2,2"`` syntax; ``"0"`` or ``""`` is the empty partition."""
        s = text.strip()
        if s in ("", "0"):
            return cls()
        parts: list[int] = []
        total = 0
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
            total += value * mult  # checked before the chunk's parts are built
            if total > MAX_PARSE_TOTAL:
                raise InputError(f"partition total {total} exceeds the supported bound {MAX_PARSE_TOTAL}")
            parts += [value] * mult
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
        return self._counts.get(x, 0)

    def multiplicities(self) -> dict[int, int]:
        """Mapping value -> multiplicity, keys in decreasing order (a copy)."""
        return self._counts.copy()

    def values(self) -> tuple[int, ...]:
        """Distinct part values in decreasing order."""
        return tuple(self._counts)

    # -- algebra ---------------------------------------------------------------

    def dual(self) -> Partition:
        """Conjugate partition: column lengths of the Young diagram (for
        consecutive values x > y, columns y+1..x count the parts >= x)."""
        values, rows, cols = tuple(self._counts), 0, []
        for x, y in zip(values, values[1:] + (0,)):
            rows += self._counts[x]
            cols.append((rows, x - y))
        return _from_mults(dict(reversed(cols)))

    def merge(self, other: Partition) -> Partition:
        """Union of the parts counting multiplicity."""
        mults = self._counts.copy()
        for x, m in other._counts.items():
            mults[x] = mults.get(x, 0) + m
        return _from_mults(dict(sorted(mults.items(), reverse=True)))

    __add__ = merge

    def double(self) -> Partition:
        """Each part repeated with twice its multiplicity."""
        return _from_mults({x: 2 * m for x, m in self._counts.items()})


def _count(parts: Iterable[int]) -> dict[int, int]:
    """Multiplicities of parts, keys in order of first appearance."""
    mults: dict[int, int] = {}
    for p in parts:
        mults[p] = mults.get(p, 0) + 1
    return mults


def _from_mults(mults: dict[int, int]) -> Partition:
    """The partition with multiplicities mults (positive, keys decreasing);
    trusted, so its fields are set without the generated __init__ (through
    object.__setattr__, as that __init__ does: writing to __dict__ would
    make each instance carry a dict of its own)."""
    parts: list[int] = []
    for x, m in mults.items():
        parts += [x] * m
    lam = object.__new__(Partition)
    object.__setattr__(lam, "parts", tuple(parts))
    object.__setattr__(lam, "_counts", mults)
    return lam


# -- module-level operation names ------------------------------------------------

dual, merge, double, multiplicity = Partition.dual, Partition.merge, Partition.double, Partition.multiplicity


def _partitions(n: int, cap: int) -> Iterator[tuple[int, ...]]:
    if n == 0:
        yield ()
        return
    for first in range(min(n, cap), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def iter_partitions(n: int, max_part: int | None = None) -> Iterator[tuple[int, ...]]:
    """All partitions of n (optionally with parts <= max_part), lexicographically decreasing."""
    if n < 0:
        raise InputError(f"cannot partition a negative total {n}")
    cap = n if max_part is None else min(max_part, n)
    return _partitions(n, cap)
