"""Recursive decomposition of distinguished Jordan data into Richardson pieces.

Two passes of a left-to-right 0/1 scan, the second over the parts the first
assigned 0: the scan ``f`` for orthogonal groups at p=2, the first copy of
each value for symplectic ones, and every part (one piece) in good characteristic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .classes import Family, GroupSpec, shape_violation
from .errors import InputError
from .partitions import Partition, _count, _from_mults


@dataclass(frozen=True)
class FAssignment:
    """A 0/1 scan assignment over the indexed parts of a partition."""

    beta: Partition
    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.bits) != len(self.beta):
            raise InputError("assignment length does not match the partition")
        if any(b not in (0, 1) for b in self.bits):
            raise InputError("assignment bits must be 0 or 1")
        if self.bits and self.bits[0] != 1:
            raise InputError("the first part is always assigned 1")

    # the bits pick a subsequence of beta's parts, which are already sorted
    def ones(self) -> Partition:
        return _from_mults(_count(p for p, b in zip(self.beta.parts, self.bits) if b == 1))

    def zeros(self) -> Partition:
        return _from_mults(_count(p for p, b in zip(self.beta.parts, self.bits) if b == 0))


def apply_f(beta: Partition) -> FAssignment:
    """One scan pass: assign each part 0 or 1, left to right.

    State: ell = count assigned 1 so far, i = count assigned 0 so far,
    beta_k = value of the most recent part assigned 1.  The j-th part is
    assigned 0 iff one of the following holds (out-of-range parts read 0):

      (1) ell even and beta_k - beta_j <= 2
      (2) ell even, i odd, beta_{j+1} in {0, 1}
      (3) ell even, i odd, beta_{j+1} - beta_{j+3} <= 2,
          beta_{j+3} != 0, beta_j - beta_{j+3} >= 3

    and 1 otherwise.  Condition (1) is treated as false while ell = 0
    (beta_k undefined), which also forces the first part to 1.
    """
    bits: list[int] = []
    ell = 0
    i = 0
    beta_k = 0
    for j in range(1, len(beta) + 1):
        bj = beta.part(j)
        cond1 = ell % 2 == 0 and ell > 0 and beta_k - bj <= 2
        cond2 = ell % 2 == 0 and i % 2 == 1 and beta.part(j + 1) in (0, 1)
        cond3 = (
            ell % 2 == 0
            and i % 2 == 1
            and beta.part(j + 1) - beta.part(j + 3) <= 2
            and beta.part(j + 3) != 0
            and bj - beta.part(j + 3) >= 3
        )
        bit = 0 if (cond1 or cond2 or cond3) else 1
        if bit == 1:
            ell += 1
            beta_k = bj
        else:
            i += 1
        bits.append(bit)
    return FAssignment(beta, tuple(bits))


def _first_copies(beta: Partition) -> FAssignment:
    """The symplectic p=2 scan: 1 on the first copy of each value, 0 on a repeat."""
    parts = beta.parts
    return FAssignment(beta, tuple(int(i == 0 or parts[i - 1] != p) for i, p in enumerate(parts)))


def _all_ones(beta: Partition) -> FAssignment:
    """The good-characteristic scan: every part is assigned 1."""
    return FAssignment(beta, (1,) * len(beta))


@dataclass(frozen=True)
class Decomposition:
    """The two scan traces of beta, the second over what the first assigns 0,
    and the pieces beta = beta1 + beta2 + beta3 read from them."""

    trace1: FAssignment
    trace2: FAssignment

    def __post_init__(self) -> None:
        if self.trace1.zeros() != self.trace2.beta:
            raise InputError("the second trace does not scan the parts the first assigns 0")

    @cached_property
    def beta1(self) -> Partition:
        return self.trace1.ones()

    @cached_property
    def beta2(self) -> Partition:
        return self.trace2.ones()

    @cached_property
    def beta3(self) -> Partition:
        return self.trace2.zeros()

    def pieces(self) -> tuple[Partition, Partition, Partition]:
        return (self.beta1, self.beta2, self.beta3)

    def nonzero_pieces(self) -> tuple[Partition, ...]:
        return tuple(p for p in self.pieces() if p)


def decompose(beta: Partition, G: GroupSpec) -> Decomposition:
    """Split distinguished blocks into at most three Richardson pieces.

    beta1 is what the first pass of the family's scan assigns 1, and beta2
    and beta3 what the second assigns 1 and 0 (Sp at p=2 leaves beta3 empty:
    no value repeats more than twice).  Only G's family and characteristic
    are read, so G may be any group of them (a remainder is decomposed with
    the whole group's spec).
    """
    if G.family not in (Family.SP, Family.SO):
        raise InputError("decomposition requires a symplectic or special orthogonal group")
    reason = shape_violation(G, beta)
    if reason is not None:
        raise InputError(reason)
    scan = (apply_f if G.family is Family.SO else _first_copies) if G.p2 else _all_ones
    trace1 = scan(beta)
    return Decomposition(trace1, scan(trace1.zeros()))


def satisfies_difference_condition(beta: Partition) -> bool:
    """For every even index i with beta_{i+1} >= 1, beta_i - beta_{i+1} >= 3."""
    for i in range(2, len(beta) + 1, 2):
        if beta.part(i + 1) >= 1 and beta.part(i) - beta.part(i + 1) < 3:
            return False
    return True


def has_bad_sequence(beta: Partition) -> bool:
    """An even index i with beta_i = beta_{i+1} > beta_{i+2} = beta_{i+3},
    gap exactly 2, and beta_{i+2} != 0."""
    for i in range(2, len(beta) + 1, 2):
        a, b, c, d = (beta.part(i + k) for k in range(4))
        if a == b > c == d and b - c == 2 and c != 0:
            return True
    return False


def render_trace(assignment: FAssignment, name: str = "beta") -> str:
    """Three-row array: parts mapped to 1, the partition, parts mapped to 0."""
    labels = ["map to 1:", f"{name}:", "map to 0:"]
    width = max(len(lbl) for lbl in labels)
    cells: list[list[str]] = [[], [], []]
    for p, b in zip(assignment.beta.parts, assignment.bits):
        s = str(p)
        blank = " " * len(s)
        cells[0].append(s if b == 1 else blank)
        cells[1].append(s)
        cells[2].append(s if b == 0 else blank)
    lines = []
    for lbl, row in zip(labels, cells):
        lines.append((f"{lbl:<{width}} " + " ".join(row)).rstrip())
    return "\n".join(lines)
