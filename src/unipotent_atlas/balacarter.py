"""Subgroup parameterizations of unipotent classes and their labels.

Two surjections onto the unipotent classes are implemented, each with a
canonical right inverse:

  psi1: products of GL blocks and classical factors, sending each factor to
        its regular class (non-identity component of a full orthogonal
        factor when it exists);
  psi2: products of GL blocks and at most three distinguished parabolics of
        classical factors, sending each parabolic to its Richardson class.

Both maps read a classical factor only through factor_blocks, so once
validate_for accepts a product, its GL parts and its factors' blocks fix its class.

phi1 reads the factors off the minimal Levi; phi2 additionally splits the
distinguished remainder into Richardson pieces.  A class is "extra" when
that splitting is proper, i.e. the remainder itself is not a Richardson
class; labels render the GL blocks as A-tokens and each Richardson piece as
a B/C/D token, with (a_j) notation when the piece's Levi has only rank-1
simple factors and a marked-diagram fallback otherwise.  All four read
one ClassAnalysis per class object, which the first of them asked builds
and keeps on that object; analyse_all builds fresh analyses in bulk, one
remainder record per beta.

Both kinds of product obey the rules of _check_product (gl, sp or so; no
classical factors on GL; GL blocks and factors fill the module; at most one
odd-dimensional factor of SO at p=2) and _full_factors (whole orthogonal
factors exactly for SO at p=2).  Each validate_for adds its own kind's
rules, and one generator, _products, feeds both enumerations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations_with_replacement, groupby, product
from typing import Callable, Collection, Iterable, Iterator

from .classes import (
    ClassParam,
    Family,
    GroupSpec,
    _combine,
    _even_block_count,
    minimal_levi,
)
from .decomp import decompose
from .errors import InputError
from .partitions import Partition, _count, _from_mults, iter_partitions
from .richardson import (
    ParabolicDescriptor,
    enumerate_distinguished_parabolics,
    parabolic_from_blocks,
    regular_blocks,
    richardson_blocks,
)


@dataclass(frozen=True, order=True)
class RegularSubgroupDescriptor:
    """A product of GL blocks and classical factors carrying regular elements.

    cl_parts lists (dimension, full) pairs; full means the whole orthogonal
    group rather than its identity component (the p=2 orthogonal case).
    """

    gl_parts: Partition
    cl_parts: tuple[tuple[int, bool], ...] = ()

    def __post_init__(self) -> None:
        if any(type(m) is not int or type(f) is not bool for m, f in self.cl_parts):
            raise InputError(f"classical factors must be (int, bool) pairs, got {self.cl_parts!r}")
        if any(m < 1 for m, _ in self.cl_parts):
            raise InputError("classical factor dimensions must be positive")
        object.__setattr__(self, "cl_parts", tuple(sorted(self.cl_parts, reverse=True)))

    def validate_for(self, G: GroupSpec) -> None:
        _check_product(G, self.gl_parts, [m for m, _ in self.cl_parts])
        full, sp = _full_factors(G), G.family is Family.SP
        for m, f in self.cl_parts:
            if f != full:
                kind = "full orthogonal" if full else "connected"
                raise InputError(f"classical factors of {G.describe()} must be {kind}")
            if sp and m % 2 != 0:
                raise InputError(f"symplectic factor dimension {m} must be even")
        if _even_block_count(G) and len(self.cl_parts) % 2 != 0:
            raise InputError("an even-dimensional SO group needs an even number of factors")

    def describe(self) -> str:
        chunks = [f"GL{p}" for p in self.gl_parts.parts]
        for m, full in self.cl_parts:
            chunks.append(f"O{m}" if full else f"Cl{m}")
        return " ".join(chunks) if chunks else "1"


def _trusted_regular(gl_parts: Partition, cl_parts: tuple[tuple[int, bool], ...]) -> RegularSubgroupDescriptor:
    """The descriptor (gl_parts, cl_parts), cl_parts typed and sorted as the constructor
    leaves it; trusted, so set without __init__, as richardson._trusted_parabolic is."""
    X = object.__new__(RegularSubgroupDescriptor)
    object.__setattr__(X, "gl_parts", gl_parts)
    object.__setattr__(X, "cl_parts", cl_parts)
    return X


@dataclass(frozen=True, order=True)
class ParabolicProduct:
    """GL blocks (carrying Borels) plus at most three distinguished parabolics."""

    gl_parts: Partition
    parabolics: tuple[ParabolicDescriptor, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "parabolics", tuple(sorted(self.parabolics)))

    def validate_for(self, G: GroupSpec) -> None:
        _check_product(G, self.gl_parts, [P.group.dim for P in self.parabolics])
        if len(self.parabolics) > 3:
            raise InputError("at most three classical parabolic factors are allowed")
        for P in self.parabolics:
            if P.group.family is not G.family or P.group.char is not G.char:
                raise InputError(
                    f"factor group {P.group.describe()} does not match {G.describe()}"
                )

    def describe(self) -> str:
        chunks = [f"GL{p}" for p in self.gl_parts.parts]
        for P in self.parabolics:
            chunks.append(f"{P.group.describe()}[{P.describe()}]")
        return " ".join(chunks) if chunks else "1"


# -- the rules every product obeys ---------------------------------------------------


def _full_factors(G: GroupSpec) -> bool:
    """Whether G's classical factors are whole orthogonal groups (O_m rather
    than SO_m), which is so exactly for SO at p=2."""
    return G.p2 and G.family is Family.SO


def _check_product(G: GroupSpec, gl_parts: Partition, dims: list[int]) -> None:
    """Refuse GL blocks plus classical factors of the given dimensions that
    are no subgroup product of G, whichever the kind of factor."""
    if G.family not in (Family.GL, Family.SP, Family.SO):
        raise InputError("subgroup products exist for gl, sp, and so")
    if G.family is Family.GL and dims:
        raise InputError("GL admits no classical factors")
    # a GL block of a classical group comes with its dual, so it fills twice its size
    gl_dim = gl_parts.total if G.family is Family.GL else 2 * gl_parts.total
    if gl_dim + sum(dims) != G.dim:
        raise InputError("factor dimensions do not fill the natural module")
    # at p=2, each odd-dimensional orthogonal summand adds a line to the
    # bilinear radical, and an SO group's radical has dimension dim mod 2
    if _full_factors(G) and (odd_dims := sum(m % 2 for m in dims)) > 1:
        raise InputError(
            f"{odd_dims} odd-dimensional factors cannot embed in {G.describe()} at p=2"
        )


# -- the four maps -----------------------------------------------------------------


def factor_blocks(G: GroupSpec, factor: tuple[int, bool] | ParabolicDescriptor) -> tuple[int, ...]:
    """The Jordan blocks, decreasing, of a classical factor of a product of G:
    a parabolic's Richardson blocks, or the regular blocks of a (dimension,
    full) factor, of the non-identity component for a full one of even dimension."""
    if isinstance(factor, ParabolicDescriptor):
        return richardson_blocks(factor)
    m, full = factor
    return regular_blocks(Family.O if full else G.family, m, G.p2, full and m % 2 == 0)


def psi1(X: RegularSubgroupDescriptor, G: GroupSpec) -> ClassParam:
    """Class of a product of regular elements, one per factor of X."""
    X.validate_for(G)
    # validate_for has checked each factor as a group of its own: a positive
    # dimension, even for Sp, and full (a whole O_m) exactly when _full_factors(G)
    return _product_class(G, X.gl_parts, X.cl_parts)


def phi1(C: ClassParam) -> RegularSubgroupDescriptor:
    """The preimage of C under psi1 with the maximal number of GL factors."""
    return _analysis(C).phi1()


def psi2(P: ParabolicProduct, G: GroupSpec) -> ClassParam:
    """Class of a product of Richardson elements, one per parabolic factor of P."""
    P.validate_for(G)
    return _product_class(G, P.gl_parts, P.parabolics)


def phi2(C: ClassParam) -> ParabolicProduct:
    """The canonical parabolic product mapping to C under psi2."""
    return _analysis(C).phi2()


def _product_class(G: GroupSpec, gl_parts: Partition, factors: Iterable) -> ClassParam:
    """The class of a product that validate_for accepted: GL blocks gl_parts,
    and the factor_blocks of its classical factors, which carry the distinguished eps."""
    return _combine(G, gl_parts.multiplicities(), _count(b for f in factors for b in factor_blocks(G, f)), None)


def is_extra_class(C: ClassParam) -> bool:
    """Whether the minimal-Levi remainder is not itself a Richardson class."""
    return _analysis(C).is_extra()


# -- one analysis per class ----------------------------------------------------------


@dataclass(frozen=True, eq=False)
class RemainderAnalysis:
    """A distinguished remainder beta, read on first use into its Richardson
    pieces, their parabolic descriptors and the label's B/C/D tokens.  A record
    hashes and compares by identity: analyse_all shares one per (group, beta)."""

    group: GroupSpec
    beta: Partition

    @cached_property
    def pieces(self) -> tuple[Partition, ...]:
        """The nonzero Richardson pieces of beta (none when beta is empty)."""
        return decompose(self.beta, self.group).nonzero_pieces() if self.beta else ()

    @cached_property
    def descriptors(self) -> tuple[ParabolicDescriptor, ...]:
        """For each piece, the distinguished parabolic whose Richardson class it is."""
        return tuple(parabolic_from_blocks(self.group.classical_factor(piece.total), piece)
                     for piece in self.pieces)

    @cached_property
    def tokens(self) -> tuple[str, ...]:
        """The label's B/C/D tokens (none for a rank-0 piece), by decreasing rank."""
        ranked = [t for t in map(self._piece_token, self.pieces, self.descriptors) if t]
        ranked.sort(key=lambda t: (-t[0], t[1]))
        return tuple(token for _, token in ranked)

    def _piece_token(self, piece: Partition, P: ParabolicDescriptor) -> tuple[int, str] | None:
        """(rank, B/C/D token) of a piece and its descriptor P; None for a rank-0 piece."""
        letter, rank = _factor_type(self.group, piece.total)
        if rank == 0:
            return None
        ranks = P.simple_ranks()
        if not ranks:
            return rank, f"{letter}{rank}"
        if max(ranks) == 1:  # the semisimple rank is then the number of factors
            return rank, f"{letter}{rank}(a{len(ranks)})"
        return rank, f"{letter}{rank}[{diagram_string(P)}]"


@dataclass(frozen=True)
class ClassAnalysis:
    """A class read through its minimal Levi: GL block sizes alpha and the
    record of the distinguished remainder beta, shared by the analyses of one
    analyse_all call with the same group and beta.

    phi1, phi2, is_extra_class and label share one analysis per class
    object, kept on it by the first of them asked, so it lives as long as the
    object does; a caller that needs many classes builds the analyses with
    analyse_all."""

    alpha: Partition
    remainder: RemainderAnalysis

    group = property(lambda self: self.remainder.group)
    beta = property(lambda self: self.remainder.beta)
    pieces = property(lambda self: self.remainder.pieces)

    def phi1(self) -> RegularSubgroupDescriptor:
        full = _full_factors(self.group)
        return _trusted_regular(self.alpha, tuple((m, full) for m in self.beta.parts))

    def phi2(self) -> ParabolicProduct:
        return ParabolicProduct(self.alpha, self.remainder.descriptors)

    def is_extra(self) -> bool:
        # the first piece always exists for a nonempty beta, and is beta itself
        # exactly when the splitting is trivial
        return len(self.pieces) > 1

    def label(self) -> str:
        tokens = [f"A{p - 1}" for p in self.alpha.parts if p >= 2]
        tokens.extend(self.remainder.tokens)
        return "".join(tokens) or "0"


def analyse_all(classes: Iterable[ClassParam]) -> Iterator[ClassAnalysis]:
    """The analysis of each class (gl, sp, or so), in order, through its
    minimal Levi.  The analyses of one call share one RemainderAnalysis per
    distinct (group, beta); separate calls share nothing."""
    remainders: dict[tuple[GroupSpec, Partition], RemainderAnalysis] = {}
    for C in classes:
        alpha, beta, _ = minimal_levi(C)
        key = (C.group, beta)
        if key not in remainders:
            remainders[key] = RemainderAnalysis(C.group, beta)
        yield ClassAnalysis(alpha, remainders[key])


def extra_classes(classes: Collection[ClassParam]) -> Iterator[tuple[ClassParam, ClassAnalysis]]:
    """(C, its analysis) for each extra class C of classes, in order, from one
    analyse_all call.  A split class has an empty remainder, so it is never extra."""
    return ((C, a) for C, a in zip(classes, analyse_all(classes)) if a.is_extra())


def analyse(C: ClassParam) -> ClassAnalysis:
    """The analysis of C (gl, sp, or so) through its minimal Levi."""
    return next(analyse_all((C,)))


def _analysis(C: ClassParam) -> ClassAnalysis:
    """The analysis that phi1, phi2, is_extra_class and label read: the first
    of them asked of C builds it and keeps it in C's __dict__, as
    functools.cached_property keeps a value, and the rest read it back.  It
    dies with C; an equal object, a copy or an unpickled one (ClassParam.__getstate__
    leaves it out) analyses afresh, and a failure keeps nothing."""
    if "_analysis" not in C.__dict__:
        C.__dict__["_analysis"] = analyse(C)
    return C.__dict__["_analysis"]


# -- labels and diagrams -------------------------------------------------------------


def _factor_type(G: GroupSpec, dim: int) -> tuple[str, int]:
    """Lie-type letter and rank of the classical factor of the given dimension."""
    letter = "C" if G.family is Family.SP else "B" if dim % 2 == 1 else "D"
    return letter, dim // 2


def diagram_string(P: ParabolicDescriptor) -> str:
    """Marked-diagram rendering: one "x"+"o"*(k-1) chunk per GL block of size
    k (non-decreasing sizes), then one "o" per remainder node, with the fork
    of an even orthogonal remainder shown as a parenthesized pair."""
    chunks = ["x" + "o" * (size - 1) for size in sorted(P.block_sizes().parts)]
    if P.m0 > 0:
        fork = P.group.family is Family.SO and P.group.dim % 2 == 0 and P.m0 >= 2
        plain = P.m0 - 2 if fork else P.m0
        chunks.extend(["o"] * plain)
        if fork:
            chunks.append("(o,o)")
    return " ".join(chunks)


def label(C: ClassParam) -> str:
    """Compound label: A-tokens for the GL blocks, then one token per
    Richardson piece, ordered by decreasing rank.  The identity-like empty
    label is rendered "0"."""
    return _analysis(C).label()


def o_not_so_conjugate(C1: ClassParam, C2: ClassParam) -> bool:
    """Whether two SO-classes are conjugate under the full orthogonal group
    but not under SO: same (blocks, eps), tagged I and II.  ClassParam refuses
    a tag on a class that does not split, so the tags carry the split."""
    for C in (C1, C2):
        if C.group.family is not Family.SO:
            raise InputError("O-vs-SO conjugacy applies to SO classes")
    if C1.group != C2.group or C1.group.dim % 2 != 0:
        raise InputError("both classes must live in the same even-dimensional SO group")
    return C1.same_class(C2) and {C1.split_tag, C2.split_tag} == {"I", "II"}


# -- enumerating the descriptor families --------------------------------------------


def _classical_dim_multisets(G: GroupSpec, total: int) -> Iterator[tuple[int, ...]]:
    """Dimension multisets of classical factors filling a space of the given total.

    Symplectic factors are even-dimensional.  At p=2, orthogonal factors
    include at most one odd dimension (see _check_product), so exactly
    total mod 2 of them; in good characteristic any dimensions embed.
    """
    if G.family is not Family.SP and not G.p2:
        yield from iter_partitions(total)
    elif total % 2 == 0:
        for parts in iter_partitions(total // 2):
            yield tuple(2 * p for p in parts)
    elif G.family is not Family.SP:
        for odd in range(1, total + 1, 2):
            for parts in iter_partitions((total - odd) // 2):
                yield tuple(sorted((odd,) + tuple(2 * p for p in parts), reverse=True))


def _products(G: GroupSpec, factors: Callable[[tuple[int, ...]], list]) -> Iterator[tuple[Partition, object]]:
    """(GL blocks, classical factors) of each product of G, in enumeration order:
    for each GL block partition, the factors(dims) of every dimension multiset
    dims of classical factors that fills the rest of G, asked once per dims."""
    if G.family is Family.GL:
        sizes: Iterable = [(G.dim, [()])]
    elif G.family in (Family.SP, Family.SO):
        sizes = ((a, _classical_dim_multisets(G, G.dim - 2 * a)) for a in range(G.dim // 2 + 1))
    else:
        raise InputError("subgroup products are enumerated for gl, sp, and so")
    for a, multisets in sizes:
        rest = [f for dims in multisets for f in factors(dims)]
        for alpha in iter_partitions(a):
            gl = _from_mults(_count(alpha))
            for f in rest:
                yield gl, f


def iter_regular_subgroups(G: GroupSpec) -> Iterator[RegularSubgroupDescriptor]:
    """All regular-subgroup descriptors for G (conjugacy-class representatives)."""
    full, even = _full_factors(G), _even_block_count(G)
    # even SO needs evenly many factors
    for gl, cl in _products(G, lambda dims: [] if even and len(dims) % 2 else [tuple((m, full) for m in dims)]):
        yield _trusted_regular(gl, cl)


def iter_parabolic_products(G: GroupSpec, max_factors: int = 3) -> Iterator[ParabolicProduct]:
    """All parabolic products for G with at most max_factors classical factors,
    each once: factors of equal dimension take their parabolics as a multiset."""
    known: dict[int, tuple[ParabolicDescriptor, ...]] = {}  # per factor dimension, for this call only

    def combos(dims: tuple[int, ...]) -> list[tuple[ParabolicDescriptor, ...]]:
        if len(dims) > max_factors:
            return []
        for d in set(dims) - known.keys():
            known[d] = tuple(enumerate_distinguished_parabolics(G.classical_factor(d)))
        runs = [combinations_with_replacement(known[d], len(list(run))) for d, run in groupby(dims)]
        return [sum(combo, ()) for combo in product(*runs)]

    for gl, parabolics in _products(G, combos):
        yield ParabolicProduct(gl, parabolics)
