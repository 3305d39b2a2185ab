"""Unipotent classes of classical groups as (Jordan blocks, epsilon) data.

A class of GL_n, Sp_n, SO_n, or O_n is recorded as a partition of n (the
Jordan block sizes) together with a map ``eps`` from part values to
{-1, 0, +1}.  In characteristic 2 the pair (blocks, eps) separates classes
that share block sizes; in good characteristic eps is redundant but stored
anyway so the data model is uniform.  EpsilonMap and ClassParam check
input from outside the library.  The values the library derives skip the
checks on one private trusted path per type: the builder ``_trusted_eps``
for EpsilonMap and the ``_trusted`` keyword for ClassParam.
"""

from __future__ import annotations

from dataclasses import KW_ONLY, InitVar, dataclass
from enum import Enum
from itertools import product
from typing import Iterator

from .errors import InputError, ResourceLimitError
from .partitions import Partition, _from_mults

#: Largest dimension enumerate_classes accepts unless the caller raises it.
DEFAULT_ENUM_BOUND = 40


class Family(str, Enum):
    GL = "gl"
    SP = "sp"
    SO = "so"
    O = "o"


class Char(str, Enum):
    """Characteristic regime: 2, or anything else ("odd" covers char 0 too)."""

    TWO = "2"
    GOOD = "odd"


@dataclass(frozen=True, order=True)
class GroupSpec:
    family: Family
    dim: int
    char: Char = Char.TWO

    def __post_init__(self) -> None:
        if type(self.dim) is not int or self.dim < 1:  # a bool is not a dimension
            raise InputError(f"group dimension must be a positive integer, got {self.dim!r}")
        if self.dim > 10_000:
            raise InputError(f"group dimension {self.dim} exceeds the supported bound")
        if self.family is Family.SP and self.dim % 2 != 0:
            raise InputError(f"Sp requires even dimension, got {self.dim}")

    @property
    def p2(self) -> bool:
        return self.char is Char.TWO

    @property
    def is_orthogonal(self) -> bool:
        return self.family in (Family.SO, Family.O)

    @property
    def delta(self) -> int:
        """+1 for Sp or orthogonal at p=2, -1 for orthogonal in good characteristic."""
        if self.family is Family.GL:
            return 0
        if self.family is Family.SP or self.p2:
            return 1
        return -1

    @property
    def rank(self) -> int:
        if self.family is Family.GL:
            return self.dim
        return self.dim // 2

    def classical_factor(self, dim: int) -> GroupSpec:
        """Spec of a classical factor of the same family/characteristic."""
        if self.family not in (Family.SP, Family.SO):
            raise InputError(f"no classical factor family for {self.family.value}")
        return GroupSpec(self.family, dim, self.char)

    def describe(self) -> str:
        name = {Family.GL: "GL", Family.SP: "Sp", Family.SO: "SO", Family.O: "O"}[self.family]
        suffix = "" if self.family is Family.GL else (" (p=2)" if self.p2 else " (p odd)")
        return f"{name}{self.dim}{suffix}"


@dataclass(frozen=True, order=True)
class EpsilonMap:
    """Map from part values to {-1, 0, +1}, keyed by value (not block index)."""

    items: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        items = tuple(self.items)
        if any(type(x) is not int or type(v) is not int for x, v in items):  # no floats or bools
            raise InputError(f"epsilon entries must be integer pairs, got {self.items!r}")
        items = tuple(sorted(items, reverse=True))
        seen = set()
        for x, v in items:
            if x < 1:
                raise InputError(f"epsilon keyed by non-positive part {x}")
            if v not in (-1, 0, 1):
                raise InputError(f"epsilon value {v} for part {x} not in {{-1, 0, 1}}")
            if x in seen:
                raise InputError(f"duplicate epsilon entry for part {x}")
            seen.add(x)
        object.__setattr__(self, "items", items)

    @classmethod
    def from_dict(cls, mapping: dict[int, int]) -> EpsilonMap:
        return cls(tuple(mapping.items()))

    @classmethod
    def parse(cls, text: str) -> EpsilonMap:
        """Parse ``"8:1,4:1,2:0"`` syntax; empty string is the empty map."""
        s = text.strip()
        if not s:
            return cls()
        entries = []
        for chunk in s.split(","):
            try:
                x_s, v_s = chunk.split(":", 1)
                entries.append((int(x_s), int(v_s)))
            except ValueError as exc:
                raise InputError(f"cannot parse epsilon chunk {chunk!r} in {text!r}") from exc
        return cls(tuple(entries))

    def __str__(self) -> str:
        return ",".join(f"{x}:{v}" for x, v in self.items)

    def __getitem__(self, x: int) -> int:
        for key, value in self.items:
            if key == x:
                return value
        raise InputError(f"epsilon has no entry for part {x}")

    def as_dict(self) -> dict[int, int]:
        return dict(self.items)

    def values_by_part(self) -> tuple[int, ...]:
        """Epsilon values listed by decreasing part value."""
        return tuple(v for _, v in self.items)


def _trusted_eps(items: tuple[tuple[int, int], ...]) -> EpsilonMap:
    """The EpsilonMap with items, sorted by decreasing part and valid; trusted,
    so its field is set without the generated __init__."""
    eps = object.__new__(EpsilonMap)
    object.__setattr__(eps, "items", items)
    return eps


@dataclass(frozen=True)
class ClassParam:
    """A unipotent class: group, Jordan blocks, epsilon, optional split tag.

    The tag ("I"/"II") distinguishes the two SO-classes of an O-class that
    splits; it is attached by enumeration and by the O-vs-SO logic.  Values
    produced by the classification maps are tag-agnostic (tag None).
    """

    group: GroupSpec
    lam: Partition
    eps: EpsilonMap
    split_tag: str | None = None
    _: KW_ONLY
    _trusted: InitVar[bool] = False  # valid class and tag; a keyword: perfbench counts __post_init__ calls

    def __post_init__(self, _trusted: bool) -> None:
        if _trusted:
            return
        if not is_valid_class(self.group, self.lam, self.eps):
            raise InputError(
                f"({self.lam}, {self.eps}) is not a valid class of {self.group.describe()}"
            )
        if self.split_tag is not None:
            if self.split_tag not in ("I", "II"):
                raise InputError(f"split tag must be 'I' or 'II', got {self.split_tag!r}")
            if self.group.family is not Family.SO or not splits_in_so(self.lam, self.eps, self.group.char):
                raise InputError("split tag on a class that does not split in SO")

    def same_class(self, other: ClassParam) -> bool:
        """Equality of the (group, blocks, eps) data, ignoring split tags."""
        return self.group == other.group and self.lam == other.lam and self.eps == other.eps

    def key(self):
        """Canonical sort key: blocks lexicographically decreasing, then eps, then tag."""
        return (
            tuple(-p for p in self.lam.parts),
            self.eps.values_by_part(),
            self.split_tag or "",
        )

    def data_key(self):
        """Hashable (blocks, eps) identity used by the verifiers."""
        return (self.lam.parts, self.eps.items)

    def to_json(self) -> dict:
        return {
            "family": self.group.family.value,
            "dim": self.group.dim,
            "char": self.group.char.value,
            "lambda": list(self.lam.parts),
            "eps": {str(x): v for x, v in self.eps.items},
            "split": self.split_tag,
        }


# -- the eps law and the distinguished shape -----------------------------------


def _eps_law(G: GroupSpec, x_odd: int, m_odd: int) -> tuple[int, ...]:
    """The eps law (Hesselink): the values eps takes on a part value x of
    multiplicity m, from the parities of x and m.  The forced value is delta
    on even parts and -delta on odd parts; at p=2 an even part of even
    multiplicity is free, 0 (canonical) or 1 (distinguished)."""
    if G.family is Family.GL:
        return (0,)
    if x_odd:
        return (-G.delta,)
    return (0, 1) if G.p2 and not m_odd else (G.delta,)


#: The eps law of each (family, char), indexed [x % 2][m % 2].
_EPS_LAW = {
    (family, char): tuple(tuple(_eps_law(GroupSpec(family, 2, char), x_odd, m_odd) for m_odd in (0, 1))
                          for x_odd in (0, 1))
    for family in Family for char in Char
}


def eps_options(G: GroupSpec, x: int, m: int) -> tuple[int, ...]:
    """The values eps may take on the part value x of multiplicity m in G.

    The first value is the canonical one, the last the value a distinguished
    class carries.
    """
    return _EPS_LAW[G.family, G.char][x % 2][m % 2]


def shape_violation(G: GroupSpec, beta: Partition) -> str | None:
    """Why beta is not the block shape of a distinguished class of G, or None.

    A distinguished class also carries distinguished_eps (at p=2, eps 1 on
    every even part); that half of the condition is is_distinguished's.
    """
    if G.family is Family.GL:
        return f"{len(beta)} blocks; a distinguished GL class has one" if len(beta) > 1 else None
    mults = beta.multiplicities()
    if not G.p2:
        want_odd = G.is_orthogonal
        for x, m in mults.items():
            if m > 1:
                return f"part {x} has multiplicity {m}; distinct parts required in odd characteristic"
            if (x % 2 == 1) != want_odd:
                parity = "odd" if want_odd else "even"
                return f"part {x} is not {parity}, as the family requires"
        return None
    if G.is_orthogonal and mults.get(1, 0) > 1:
        return f"more than one part equal to 1 (multiplicity {mults[1]})"
    for x, m in mults.items():
        if x % 2 == 1 and G.family is Family.SP:
            return f"odd part {x} is not allowed in symplectic distinguished data"
        if x % 2 == 1 and x > 1:
            return f"odd part {x} greater than 1 is not allowed"
        if m > 2:
            return f"part {x} has multiplicity {m} > 2"
    if G.family is Family.SO and mults.get(1, 0) == 0 and len(beta) % 2 != 0:
        return "without a part equal to 1 the number of parts must be even"
    return None


# -- validity -----------------------------------------------------------------


#: The parity rule of each (family, char): parts > 1 of this parity (0 even,
#: 1 odd) have even multiplicity.  GL has no rule.
_PARITY_RULE = {(family, char): None if family is Family.GL else int(family is Family.SP or char is Char.TWO)
                for family in Family for char in Char}


def _even_block_count(G: GroupSpec) -> bool:
    """Whether G's classes need an even number of blocks (even SO at p=2: in SO, not O)."""
    return G.family is Family.SO and G.char is Char.TWO and G.dim % 2 == 0


def _lambda_admissible(G: GroupSpec, lam: Partition, mults: dict[int, int]) -> bool:
    """The family's parity rules on lam, whose multiplicities are mults."""
    rule = _PARITY_RULE[G.family, G.char]
    for x, m in mults.items():
        if m % 2 and x % 2 == rule and x > 1:
            return False
    return len(lam) % 2 == 0 or not _even_block_count(G)


def canonical_eps(G: GroupSpec, lam: Partition) -> EpsilonMap:
    """The canonical eps: the first of each part's eps_options (0 where free)."""
    return _trusted_eps(tuple((x, eps_options(G, x, m)[0]) for x, m in lam.multiplicities().items()))


def is_valid_class(G: GroupSpec, lam: Partition, eps: EpsilonMap) -> bool:
    """Whether (lam, eps) parameterizes a unipotent class of G.

    Raises InputError if |lam| != G.dim or the eps domain differs from the
    set of part values of lam.
    """
    if lam.total != G.dim:
        raise InputError(f"partition of {lam.total} does not match dimension {G.dim}")
    mults = lam.multiplicities()
    eps_of = eps.as_dict()
    if eps_of.keys() != mults.keys():
        raise InputError(
            f"epsilon domain {sorted(eps_of)} does not match part values {sorted(mults)}"
        )
    if not _lambda_admissible(G, lam, mults):
        return False
    for x, m in mults.items():
        if eps_of[x] not in eps_options(G, x, m):
            return False
    return True


def as_so(C: ClassParam) -> ClassParam | None:
    """C read through SO: C itself unless it is an O class, else the SO class
    of the same dim, char and (lam, eps), checked once, or None outside SO."""
    if C.group.family is not Family.O:
        return C
    so = GroupSpec(Family.SO, C.group.dim, C.group.char)
    return ClassParam(so, C.lam, C.eps, _trusted=True) if is_valid_class(so, C.lam, C.eps) else None


def splits_in_so(lam: Partition, eps: EpsilonMap, char: Char) -> bool:
    """Whether the O-class forms two SO-classes: every part even with eps != 1.

    In good characteristic this reduces to all parts and multiplicities even,
    since eps is then -1 on every even part of a valid orthogonal class.
    """
    del char  # the criterion reads the same in both regimes
    if not lam:
        return False
    return all(x % 2 == 0 for x in lam.values()) and all(v != 1 for _, v in eps.items)


def is_distinguished(G: GroupSpec, lam: Partition, eps: EpsilonMap) -> bool:
    """Whether the class meets no proper Levi subgroup of G."""
    if not is_valid_class(G, lam, eps):
        raise InputError(f"({lam}, {eps}) is not a valid class of {G.describe()}")
    return shape_violation(G, lam) is None and eps == distinguished_eps(G, lam)


# -- class enumeration -----------------------------------------------------------


def _eps_choices(G: GroupSpec, lam: Partition) -> list[EpsilonMap]:
    mults = lam.multiplicities()
    options = [eps_options(G, x, m) for x, m in mults.items()]
    return [_trusted_eps(tuple(zip(mults, values))) for values in product(*options)]


def _block_shapes(n: int, cap: int, rule: int | None) -> Iterator[tuple[tuple[int, int], ...]]:
    """The (value, multiplicity) runs of the partitions of n with parts <= cap
    that obey the parity rule, lexicographically decreasing: the largest value
    first, and of one value the larger multiplicity first.  Part 1 has no rule."""
    for x in range(min(n, cap), 1, -1):
        step = 2 if x % 2 == rule else 1
        for m in range(n // x // step * step, 0, -step):
            for rest in _block_shapes(n - m * x, x - 1, rule):
                yield ((x, m), *rest)
    yield ((1, n),) if n else ()


def enumerate_classes(G: GroupSpec, max_dim: int = DEFAULT_ENUM_BOUND) -> list[ClassParam]:
    """All unipotent classes of G, canonically sorted.

    SO-classes that split appear twice, tagged "I" and "II" (tag "I" sorts
    first; the two classes carry identical (blocks, eps) data).
    """
    if G.dim > max_dim:
        raise ResourceLimitError(
            f"dimension {G.dim} exceeds the enumeration bound {max_dim}; pass --max-dim to classes to raise it"
        )
    out: list[ClassParam] = []
    even_blocks = _even_block_count(G)
    for runs in _block_shapes(G.dim, G.dim, _PARITY_RULE[G.family, G.char]):
        lam = _from_mults(dict(runs))
        if even_blocks and len(lam) % 2:
            continue
        for eps in _eps_choices(G, lam):
            if G.family is Family.SO and splits_in_so(lam, eps, G.char):
                out.append(ClassParam(G, lam, eps, "I", _trusted=True))
                out.append(ClassParam(G, lam, eps, "II", _trusted=True))
            else:
                out.append(ClassParam(G, lam, eps, _trusted=True))
    return out  # _block_shapes and product yield ClassParam.key order


# -- minimal Levi extraction and its inverse ------------------------------------


def minimal_levi(C: ClassParam) -> tuple[Partition, Partition, EpsilonMap]:
    """GL block sizes alpha and distinguished remainder (beta, eps_beta).

    The blocks satisfy lam = double(alpha) + beta, beta is distinguished in
    the classical factor of dimension |beta|, and alpha has the maximal
    number of parts among such splittings.  Extraction rule: beta takes two
    copies of each part whose eps is free and set to 1, and one copy of each
    other part of odd multiplicity.
    """
    G = C.group
    if G.family is Family.O:
        raise InputError("minimal Levi extraction requires gl, sp, or so")
    if G.family is Family.GL:
        return C.lam, _from_mults({}), _trusted_eps(())
    law, split = _EPS_LAW[G.family, G.char], {}  # part value -> (copies in alpha, copies in beta)
    # a class's eps items list its part values in the order of its multiplicities
    for (x, m), (_, v) in zip(C.lam.multiplicities().items(), C.eps.items):
        take = 2 if len(law[x % 2][m % 2]) == 2 and v == 1 else m % 2
        split[x] = ((m - take) // 2, take)
    beta = {x: b for x, (_, b) in split.items() if b}
    eps_beta = _trusted_eps(tuple((x, law[x % 2][b % 2][-1]) for x, b in beta.items()))
    return _from_mults({x: a for x, (a, _) in split.items() if a}), _from_mults(beta), eps_beta


def distinguished_eps(G: GroupSpec, beta: Partition) -> EpsilonMap:
    """The eps carried by a distinguished class with blocks beta: the last of
    each part's eps_options (on GL, the canonical 0)."""
    return _trusted_eps(tuple((x, eps_options(G, x, m)[-1]) for x, m in beta.multiplicities().items()))


def combine(alpha: Partition, beta: Partition, eps_beta: EpsilonMap, G: GroupSpec) -> ClassParam:
    """Reassemble the class with blocks double(alpha) + beta (on GL, alpha).

    Each part value that beta carries gets eps_beta's value, every other part
    its canonical value.  Family parity violations and eps_beta values the
    eps law forbids raise the validating constructor's InputError.
    """
    beta_mults, given = beta.multiplicities(), eps_beta.as_dict()
    if G.family is Family.O:
        raise InputError("combine requires gl, sp, or so")
    if G.family is Family.GL:
        if beta:
            raise InputError("GL classes have no classical factor")
        if alpha.total != G.dim:
            raise InputError(f"GL blocks of {alpha.total} do not fill dimension {G.dim}")
    elif 2 * alpha.total + beta.total != G.dim:
        raise InputError(f"2*{alpha.total} + {beta.total} does not match dimension {G.dim}")
    elif given.keys() != beta_mults.keys():
        raise InputError("eps_beta domain does not match beta's part values")
    return _combine(G, alpha.multiplicities(), beta_mults, given)


def _combine(G: GroupSpec, alpha: dict[int, int], beta: dict[int, int],
             eps_beta: dict[int, int] | None) -> ClassParam:
    """combine on multiplicities, in one pass over their part values: lam's are
    beta's plus twice alpha's (on GL, alpha's).  Where eps_beta is None, beta's
    parts carry the values a distinguished class carries."""
    law, copies = _EPS_LAW[G.family, G.char], 1 if G.family is Family.GL else 2
    mults, items, lawful = {}, [], True
    for x in sorted(alpha.keys() | beta.keys(), reverse=True):
        b = beta.get(x, 0)
        m = mults[x] = b + copies * alpha.get(x, 0)
        options = law[x % 2][m % 2]
        v = (options[-1] if eps_beta is None else eps_beta[x]) if b else options[0]
        items.append((x, v))
        lawful &= v in options
    lam, eps = _from_mults(mults), _trusted_eps(tuple(items))
    if not lawful or not _lambda_admissible(G, lam, mults):
        raise InputError(f"({lam}, {eps}) is not a valid class of {G.describe()}")
    return ClassParam(G, lam, eps, _trusted=True)
