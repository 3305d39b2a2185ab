"""Jordan blocks of regular elements and of Richardson classes of distinguished parabolics.

A distinguished parabolic of a classical group of rank m is encoded by the
multiplicities c(1..N) of the GL blocks of its Levi and the rank m0 of the
semisimple classical remainder.  The Jordan blocks of its Richardson class
are computed through the dual partition: each block size i contributes an
exponent to lambda*, following the family/characteristic pattern below
(negative exponents mean the descriptor is not distinguished):

  GL_m                 exponent(i) = c(i), and lambda = dual
  Sp_2m  (m0 = 0)      exponent(i) = 2c(i)
  SO_2m+1, p odd       exponent(i) = 2c(i), plus 1 at i = 2m0+1
  SO_2m+1, p = 2       exponent(i) = 2c(i) - 2 (i odd <= 2m0), 2c(i) + 2
                       (i even <= 2m0), 2c(i) at i = 2m0+1; lambda gains
                       a final part 1
  SO_2m,   p odd       exponent(i) = 2c(i), plus 1 at i = 2m0
  SO_2m,   p = 2       exponent(i) = 2c(i) - 2 (i odd), 2c(i) + 2 (i even),
                       for i <= 2m0

Descriptors are kept in a canonical form: the number N of distinct GL block
sizes sits in a fixed window around 2*m0 (see _n_window), and even
orthogonal groups absorb one GL_1 block into an SO_2 remainder.  On these
canonical descriptors the map to Jordan blocks is injective and its image
is exactly the set accepted by in_richardson_image.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from typing import Iterable

from .classes import EpsilonMap, Family, GroupSpec, distinguished_eps, shape_violation
from .decomp import satisfies_difference_condition
from .errors import InputError, ResourceLimitError
from .partitions import Partition, _count, _from_mults, iter_partitions

#: Largest rank enumerate_distinguished_parabolics accepts by default.
DEFAULT_RANK_BOUND = 32


@dataclass(frozen=True, order=True)
class ParabolicDescriptor:
    """Distinguished parabolic of a classical group: GL-block multiplicities plus remainder rank."""

    group: GroupSpec
    c: tuple[int, ...] = ()
    m0: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "c", _integer_entries(self.c, self.m0))
        G = self.group
        if G.family not in (Family.GL, Family.SP, Family.SO):
            raise InputError("parabolic descriptors exist for gl, sp, and so only")
        if self.m0 < 0 or any(x < 0 for x in self.c):
            raise InputError("descriptor multiplicities must be non-negative")
        if self.c and self.c[-1] == 0:
            raise InputError("descriptor c-vector must not have trailing zeros")
        weight = sum(i * ci for i, ci in enumerate(self.c, start=1)) + self.m0
        if weight != G.rank:
            raise InputError(
                f"descriptor weight {weight} does not match the rank {G.rank} of {G.describe()}"
            )
        N = len(self.c)
        if G.family is Family.GL:
            if self.m0 != 0:
                raise InputError("GL descriptors have no classical remainder")
            return
        chain = all(ci >= 1 for ci in self.c)
        if not chain:
            raise InputError("multiplicities must satisfy c(i) >= 1 for every i up to the largest block")
        if G.family is Family.SP:
            if self.m0 != 0:
                raise InputError("symplectic distinguished parabolics have no classical remainder")
            return
        window = _n_window(G, self.m0)
        if N not in window:
            raise InputError(
                f"descriptor with {N} block sizes and remainder rank {self.m0} is not "
                f"distinguished in {G.describe()} (need N in {sorted(window)})"
            )

    @classmethod
    def make(cls, group: GroupSpec, c: tuple[int, ...], m0: int) -> ParabolicDescriptor:
        """Build a descriptor, normalizing the GL_1 <-> SO_2 redundancy of even orthogonal groups."""
        c = _integer_entries(c, m0)
        while c and c[-1] == 0:
            c = c[:-1]
        if group.family is Family.SO and group.dim % 2 == 0 and m0 == 0:
            if not c or c[0] < 1:
                raise InputError("cannot normalize: no GL_1 block to absorb into an SO_2 remainder")
            c = (c[0] - 1,) + c[1:]
            while c and c[-1] == 0:
                c = c[:-1]
            m0 = 1
        return cls(group, c, m0)

    @classmethod
    def borel(cls, group: GroupSpec) -> ParabolicDescriptor:
        """The Borel subgroup's descriptor (Levi a maximal torus)."""
        m = group.rank
        if group.family is Family.SO and group.dim % 2 == 0:
            if m < 2:
                raise InputError(f"{group.describe()} has no distinguished parabolics")
            return cls(group, (m - 1,), 1)
        return cls(group, (m,) if m else (), 0)

    # -- structure queries ---------------------------------------------------

    def block_sizes(self) -> Partition:
        """The GL block sizes of the Levi as a partition of rank - m0."""
        return _from_mults({i: ci for i, ci in reversed(tuple(enumerate(self.c, start=1))) if ci})

    def _remainder_simple_ranks(self) -> tuple[int, ...]:
        # only SO descriptors have a remainder: the constructor refuses m0 > 0 on GL and Sp
        m0 = self.m0
        if m0 == 0 or (self.group.dim % 2 == 0 and m0 == 1):
            return ()  # SO_2 is a torus
        if self.group.dim % 2 == 0 and m0 == 2:
            return (1, 1)  # SO_4 has two rank-1 factors
        return (m0,)

    def semisimple_rank(self) -> int:
        base = sum(ci * (i - 1) for i, ci in enumerate(self.c, start=1))
        return base + sum(self._remainder_simple_ranks())

    def max_simple_factor_rank(self) -> int:
        ranks = [i - 1 for i, ci in enumerate(self.c, start=1) if ci >= 1 and i >= 2]
        ranks.extend(self._remainder_simple_ranks())
        return max(ranks, default=0)

    def is_borel(self) -> bool:
        return self.semisimple_rank() == 0

    def levi_name(self) -> str:
        chunks = []
        for i, ci in enumerate(self.c, start=1):
            if ci >= 1:
                chunks.append(f"GL{i}^{ci}" if ci > 1 else f"GL{i}")
        if self.m0 > 0:  # an SO remainder, of the group's dimension parity
            chunks.append(f"SO{2 * self.m0 + self.group.dim % 2}")
        return " ".join(chunks) if chunks else "1"

    def describe(self) -> str:
        return f"c={self.block_sizes()};m0={self.m0}"


def _integer_entries(c, m0) -> tuple[int, ...]:
    """c as a tuple, once its entries and m0 are known to be ints."""
    c = tuple(c)
    if not set(map(type, (*c, m0))) <= {int}:  # a float or a bool is not a multiplicity
        raise InputError(f"descriptor entries must be integers, got c={c!r}, m0={m0!r}")
    return c


def _n_window(G: GroupSpec, m0: int) -> tuple[int, ...]:
    """Admissible counts of distinct GL block sizes for an SO descriptor."""
    if G.dim % 2 == 1:
        return (2 * m0, 2 * m0 + 1)
    if m0 < 1:
        return ()
    return (2 * m0 - 1, 2 * m0)


# -- Jordan blocks of regular elements --------------------------------------------


def regular_blocks(family: Family, n: int, p2: bool, nonidentity: bool = False) -> tuple[int, ...]:
    """Jordan block sizes, decreasing, of the regular unipotent class of the
    n-dimensional group of the family (p2: characteristic 2).

    ``nonidentity`` selects the regular class in the non-identity component
    of a full orthogonal group, which exists only for O_n with p = 2 and n
    even.
    """
    if nonidentity and not (family is Family.O and p2 and n % 2 == 0):
        raise InputError("a non-identity component regular class needs O_n, p=2, n even")
    if family in (Family.GL, Family.SP) or nonidentity:
        return (n,)
    # special orthogonal (O_n in its identity component behaves the same)
    if n == 1:
        return (1,)
    if not p2:
        return (n,) if n % 2 == 1 else (n - 1, 1)
    if n % 2 == 1:
        return (n - 1, 1)
    return (1, 1) if n == 2 else (n - 2, 2)


def regular_jordan_blocks(
    G: GroupSpec, nonidentity_component: bool = False
) -> tuple[Partition, EpsilonMap]:
    """Jordan blocks (and eps) of the regular unipotent class of G; see
    regular_blocks for ``nonidentity_component``."""
    lam = _from_mults(_count(regular_blocks(G.family, G.dim, G.p2, nonidentity_component)))
    return lam, distinguished_eps(G, lam)


# -- Jordan blocks of Richardson classes ----------------------------------------


def _dual_exponents(P: ParabolicDescriptor) -> list[int]:
    """Multiplicities of the parts 1, 2, 3, ... of lambda* for the Richardson class of P."""
    G = P.group
    if G.family is Family.GL:
        return list(P.c)
    if G.family is Family.SP:
        return [2 * ci for ci in P.c]
    top = 2 * P.m0 + 1 if G.dim % 2 == 1 else 2 * P.m0
    exps: list[int] = []
    for i, ci in enumerate(P.c + (0,) * (top - len(P.c)), start=1):
        if G.p2:
            # never negative: c(i) >= 1 at odd i <= 2*m0, as the chain and window rules give i <= N
            e = 2 * ci + (2 if i % 2 == 0 else -2) if i <= 2 * P.m0 else 2 * ci
        else:
            e = 2 * ci + (1 if i == top else 0)
        exps.append(e)
    return exps


def _richardson_blocks(P: ParabolicDescriptor) -> Partition:
    """Jordan blocks of the Richardson class of the distinguished parabolic P:
    the dual of lambda*, whose j-th part counts the parts of lambda* of size >= j."""
    odd_p2 = P.group.family is Family.SO and P.group.dim % 2 == 1 and P.group.p2
    parts = [*accumulate(reversed(_dual_exponents(P)))][::-1] + [1] * odd_p2
    return _from_mults(_count(x for x in parts if x))


def richardson_jordan_blocks(P: ParabolicDescriptor) -> tuple[Partition, EpsilonMap]:
    """Jordan blocks (and eps) of the Richardson class of the distinguished parabolic P."""
    lam = _richardson_blocks(P)
    return lam, distinguished_eps(P.group, lam)


def in_richardson_image(G: GroupSpec, lam: Partition) -> bool:
    """Whether lam equals the Jordan blocks of the Richardson class of some
    distinguished parabolic of G."""
    if lam.total != G.dim:
        raise InputError(f"partition of {lam.total} does not match dimension {G.dim}")
    if G.family is Family.GL:
        return True
    if G.family not in (Family.SP, Family.SO):
        raise InputError("Richardson image membership is defined for gl, sp, and so")
    if shape_violation(G, lam) is not None:
        return False
    if not G.p2:
        return True
    if G.family is Family.SP:
        return len(lam.values()) == len(lam)
    return satisfies_difference_condition(lam)


@lru_cache(maxsize=None)
def _enumerated(G: GroupSpec) -> tuple[ParabolicDescriptor, ...]:
    rank = G.rank
    out: list[ParabolicDescriptor] = []
    if G.family is Family.GL:
        for shape in iter_partitions(rank):
            c = tuple(shape.count(i) for i in range(1, max(shape, default=0) + 1))
            out.append(ParabolicDescriptor(G, c, 0))
    elif G.family is Family.SP:
        for c in _chain_vectors(rank, range(rank + 1)):
            out.append(ParabolicDescriptor(G, c, 0))
    else:
        for m0 in range(rank + 1):
            for c in _chain_vectors(rank - m0, _n_window(G, m0)):
                out.append(ParabolicDescriptor(G, c, m0))
    out.sort(key=lambda P: (P.m0, P.c))
    return tuple(out)


def enumerate_distinguished_parabolics(
    G: GroupSpec, max_rank: int = DEFAULT_RANK_BOUND
) -> list[ParabolicDescriptor]:
    """All distinguished parabolic descriptors of G, in canonical form."""
    if G.rank > max_rank:
        raise ResourceLimitError(
            f"{G.describe()} has rank {G.rank}; distinguished parabolics are enumerated "
            f"only up to rank {max_rank}"
        )
    return list(_enumerated(G))


def _chain_vectors(weight: int, sizes: Iterable[int]) -> list[tuple[int, ...]]:
    """The c-vectors with c(i) >= 1 for i <= N and sum i*c(i) equal to
    weight, for each N in sizes."""
    out: list[tuple[int, ...]] = []
    for N in sizes:
        base = N * (N + 1) // 2
        if base <= weight:
            for extra in iter_partitions(weight - base, max_part=N):
                out.append(tuple(1 + extra.count(i) for i in range(1, N + 1)))
    return out


def parabolic_from_blocks(G: GroupSpec, lam: Partition) -> ParabolicDescriptor:
    """The unique descriptor whose Richardson class has Jordan blocks lam.

    Inversion is by exhaustive enumeration plus forward evaluation of the
    blocks alone; injectivity of the forward map guarantees uniqueness.
    """
    if not in_richardson_image(G, lam):
        raise InputError(
            f"{lam} is not the Richardson class of a distinguished parabolic of {G.describe()}"
        )
    matches = [P for P in enumerate_distinguished_parabolics(G) if _richardson_blocks(P) == lam]
    if len(matches) != 1:
        raise RuntimeError(
            f"expected exactly one descriptor for {lam} in {G.describe()}, found {len(matches)}"
        )
    return matches[0]
