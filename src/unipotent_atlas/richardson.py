"""Jordan blocks of regular elements and of Richardson classes of distinguished parabolics.

A distinguished parabolic of a classical group of rank m is encoded by the
multiplicities c(1..N) of the GL blocks of its Levi and the rank m0 of the
semisimple classical remainder.  The Jordan blocks of its Richardson class
are computed through the dual partition: each block size i contributes an
exponent to lambda*, following the family/characteristic pattern below
(negative exponents mean the descriptor is not distinguished).  On Sp and SO
exponent(i) = 2c(i) plus an offset, and _offset is the one statement of the
offsets: _dual_exponents adds them, _candidate takes them off.

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
canonical descriptors the map to Jordan blocks is injective.

richardson_blocks gives the block sizes as a tuple, as regular_blocks does
for regular classes; richardson_jordan_blocks wraps them in a Partition with
their eps.  enumerate_distinguished_parabolics lists a group's descriptors
in (m0, c) order: for each m0 the c-vectors are generated in lexicographic
order inside the window (_c_vectors), with no sort, and each descriptor is
built through the one trusted builder _trusted_parabolic, since it is
canonical as generated; the checking constructor and make are for outside
input.  The enumeration is memoized per group, takes no bound (a command
that prints it sets its own) and serves the bulk readers: tables 2 and 3
and the parabolic products of psi2.
parabolic_from_blocks inverts the forward map in closed form, with no
enumeration and no rank bound: the exponents of lambda* are the differences
of consecutive parts of lam, on SO m0 is half the number of parts (rounded
down), and undoing the table above gives the one candidate (c, m0); the
validating constructor and one forward evaluation decide whether it is the
answer.  This closed form is the library's one statement of the image:
in_richardson_image asks whether it finds a descriptor.  The shape rule of
Richardson (1974) and Hesselink (Math. Z. 1979) that characterizes the same
image is read in the oracle alone, which checks the two against each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from typing import Sequence

from .classes import EpsilonMap, Family, GroupSpec, distinguished_eps
from .errors import InputError
from .partitions import Partition, _count, _from_mults


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
        if group.family is Family.SO and group.dim % 2 == 0 and m0 == 0 and c and c[0] >= 1:
            c, m0 = (c[0] - 1,) + c[1:], 1  # the constructor refuses what is left unnormalized
        while c and c[-1] == 0:
            c = c[:-1]
        return cls(group, c, m0)

    # -- structure queries ---------------------------------------------------

    def block_sizes(self) -> Partition:
        """The GL block sizes of the Levi as a partition of rank - m0."""
        return _from_mults({i: ci for i, ci in reversed(tuple(enumerate(self.c, start=1))) if ci})

    def simple_ranks(self) -> tuple[int, ...]:
        """Ranks of the Levi's simple factors: i - 1 for each GL_i block with
        i >= 2, then the SO remainder's (none for the torus SO_2, two rank-1
        factors for SO_4).  Only SO descriptors have a remainder."""
        ranks = [i - 1 for i, ci in enumerate(self.c, start=1) if i >= 2 for _ in range(ci)]
        m0, even = self.m0, self.group.dim % 2 == 0
        if m0 and not (even and m0 == 1):
            ranks.extend((1, 1) if even and m0 == 2 else (m0,))
        return tuple(ranks)

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


@lru_cache(maxsize=None)  # a small domain, read once per factor by psi1
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


def _offset(G: GroupSpec, m0: int, i: int) -> int:
    """The exponent table of Sp and SO, read at block size i: e(i) - 2c(i) for
    a descriptor with remainder rank m0 (0 on Sp, where every offset is 0)."""
    if G.p2:
        return 0 if i > 2 * m0 else -2 if i % 2 else 2
    return 1 if i == 2 * m0 + G.dim % 2 else 0


def _dual_exponents(P: ParabolicDescriptor) -> list[int]:
    """Multiplicities of the parts 1, 2, 3, ... of lambda* for the Richardson
    class of P: c on GL, 2c(i) + _offset up to 2m0 + dim % 2 on Sp and SO.
    Never negative: c(i) >= 1 at odd i <= 2*m0, as the chain and window rules give i <= N."""
    G, c, m0 = P.group, P.c, P.m0
    if G.family is Family.GL:
        return list(c)
    c += (0,) * (2 * m0 + G.dim % 2 - len(c))
    return [2 * ci + _offset(G, m0, i) for i, ci in enumerate(c, start=1)]


def richardson_blocks(P: ParabolicDescriptor) -> tuple[int, ...]:
    """Jordan block sizes, decreasing, of the Richardson class of the
    distinguished parabolic P: the dual of lambda*, whose j-th part counts the
    parts of lambda* of size >= j."""
    odd_p2 = P.group.family is Family.SO and P.group.dim % 2 == 1 and P.group.p2
    parts = [*accumulate(reversed(_dual_exponents(P)))][::-1] + [1] * odd_p2
    return tuple(x for x in parts if x)


def richardson_jordan_blocks(P: ParabolicDescriptor) -> tuple[Partition, EpsilonMap]:
    """Jordan blocks (and eps) of the Richardson class of the distinguished parabolic P."""
    lam = _from_mults(_count(richardson_blocks(P)))
    return lam, distinguished_eps(P.group, lam)


def in_richardson_image(G: GroupSpec, lam: Partition) -> bool:
    """Whether lam equals the Jordan blocks of the Richardson class of some
    distinguished parabolic of G: whether the closed-form inverse finds its
    descriptor."""
    return _inverse(G, lam) is not None


@lru_cache(maxsize=None)
def enumerate_distinguished_parabolics(G: GroupSpec) -> tuple[ParabolicDescriptor, ...]:
    """All distinguished parabolic descriptors of G in (m0, c) order, each
    canonical as generated."""
    if G.family is Family.SO:
        windows = [(m0, _n_window(G, m0)) for m0 in range(G.rank + 1)]
    elif G.family in (Family.GL, Family.SP):
        windows = [(0, range(G.rank + 1))]
    else:
        raise InputError("parabolic descriptors exist for gl, sp, and so only")
    least = 0 if G.family is Family.GL else 1
    return tuple(_trusted_parabolic(G, c, m0)
                 for m0, sizes in windows for c in _c_vectors(G.rank - m0, sizes, least))


def _c_vectors(weight: int, sizes: Sequence[int], least: int) -> list[tuple[int, ...]]:
    """The c-vectors with c(i) >= least for i <= N, a nonzero c(N), sum
    i*c(i) equal to weight and N in sizes (consecutive and increasing), in
    lexicographic order.

    The vectors are generated position by position, as Nijenhuis and Wilf
    generate partitions in lexicographic order (Combinatorial Algorithms,
    1978): at each position c(i) counts up from least, a vector is emitted
    once its length is in sizes and its weight is used up, and a branch is
    cut once the weight left cannot fill the positions that the shortest
    length in sizes still needs.
    """
    out: list[tuple[int, ...]] = []
    if not sizes:
        return out
    shortest, longest = sizes[0], sizes[-1]

    def extend(c: tuple[int, ...], rest: int) -> None:
        if rest == 0:
            if len(c) in sizes:
                out.append(c)
            return
        i = len(c) + 1
        if i > longest:
            return
        need = least * max(0, shortest * (shortest + 1) - i * (i + 1)) // 2  # positions i+1..shortest
        for ci in range(least, (rest - need) // i + 1):
            extend(c + (ci,), rest - i * ci)

    extend((), weight)
    return out


def _trusted_parabolic(G: GroupSpec, c: tuple[int, ...], m0: int) -> ParabolicDescriptor:
    """The descriptor (G, c, m0), canonical by construction; trusted, so its
    fields are set without the generated __init__, as partitions._from_mults
    sets a Partition's."""
    P = object.__new__(ParabolicDescriptor)
    object.__setattr__(P, "group", G)
    object.__setattr__(P, "c", c)
    object.__setattr__(P, "m0", m0)
    return P


def _candidate(G: GroupSpec, parts: tuple[int, ...]) -> tuple[list[int], int]:
    """The (c, m0) that _dual_exponents would send to the Jordan blocks
    parts, if any descriptor does.  The exponents of lambda* are
    e(i) = lam_i - lam_{i+1}, once the final part 1 that odd SO at p=2
    appends is dropped.  On SO the last nonzero exponent sits at 2m0 (even
    SO) or at 2m0 or 2m0 + 1 (odd SO), so m0 = len(e) // 2; on Sp m0 = 0.
    Then c(i) = (e(i) - _offset) // 2.  Entries of c may be trailing zeros."""
    if G.family is Family.SO and G.dim % 2 == 1 and G.p2:
        parts = parts[:-1]
    e = [x - y for x, y in zip(parts, parts[1:] + (0,))]
    if G.family is Family.GL:
        return e, 0
    m0 = len(e) // 2 if G.family is Family.SO else 0
    return [(x - _offset(G, m0, i)) // 2 for i, x in enumerate(e, start=1)], m0


@lru_cache(maxsize=None)
def _from_exponents(G: GroupSpec, parts: tuple[int, ...]) -> ParabolicDescriptor | None:
    """The descriptor of G whose Richardson blocks are parts, or None: the
    candidate, once the validating constructor accepts it and the forward
    map sends it back to parts (which also rejects an odd exponent that the
    halving in _candidate rounded)."""
    c, m0 = _candidate(G, parts)
    while c and c[-1] == 0:
        c.pop()
    try:
        P = ParabolicDescriptor(G, tuple(c), m0)
    except InputError:
        return None
    return P if richardson_blocks(P) == parts else None


def _inverse(G: GroupSpec, lam: Partition) -> ParabolicDescriptor | None:
    """_from_exponents(G, lam.parts), once lam fills G and G is gl, sp or so."""
    if lam.total != G.dim:
        raise InputError(f"partition of {lam.total} does not match dimension {G.dim}")
    if G.family not in (Family.GL, Family.SP, Family.SO):
        raise InputError("Richardson image membership is defined for gl, sp, and so")
    return _from_exponents(G, lam.parts)


def parabolic_from_blocks(G: GroupSpec, lam: Partition) -> ParabolicDescriptor:
    """The unique descriptor whose Richardson class has Jordan blocks lam.

    Inversion reads the exponents of lambda* off lam's parts and takes off
    the offsets of _offset (_from_exponents, memoized per group and block
    sizes): one candidate, checked by one forward evaluation, at
    O(n) with no enumeration and so no rank bound.
    """
    if (P := _inverse(G, lam)) is None:
        raise InputError(
            f"{lam} is not the Richardson class of a distinguished parabolic of {G.describe()}"
        )
    return P
