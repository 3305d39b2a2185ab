"""Independent brute-force verifiers for the classification maps.

Each verifier enumerates raw descriptors or partitions and checks one
theorem-level claim exhaustively at desk scale, reporting counterexamples
instead of asserting.  Image computations iterate descriptors and apply
only the partition algebra and the block-table formulas, never the
right-inverse maps.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from contextlib import ExitStack, suppress
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import product
from typing import Iterator

from .balacarter import (
    ClassAnalysis,
    ParabolicProduct,
    RegularSubgroupDescriptor,
    analyse_all,
    factor_blocks,
    iter_parabolic_products,
    iter_regular_subgroups,
    psi1,
    psi2,
)
from .classes import (
    ClassParam,
    Char,
    EpsilonMap,
    Family,
    GroupSpec,
    distinguished_eps,
    combine,
    enumerate_classes,
    minimal_levi,  # noqa: F401  (unused here; perfbench's tracer test rebinds it in this namespace)
    splits_in_so,
)
from .decomp import decompose, has_bad_sequence, satisfies_difference_condition
from .errors import InputError
from .partitions import Partition, iter_partitions
from .richardson import (
    ParabolicDescriptor,
    enumerate_distinguished_parabolics,
    parabolic_from_blocks,
    richardson_blocks,
)

#: The schema name that every JSON document and report line starts with.
SCHEMA = "unipotent-atlas/v1"


@dataclass
class VerificationReport:
    claim: str
    group: str | None
    bound: int
    counterexamples: list[str] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    #: objects examined: classes, descriptors or betas (a report of 0 fails: see _finish)
    checked: int = 0

    @property
    def passed(self) -> bool:
        return not self.counterexamples

    @property
    def outcome(self) -> str:
        return "pass" if self.passed else "fail"

    def to_json(self) -> dict:
        return {
            "schema": SCHEMA,
            "claim": self.claim,
            "group": self.group,
            "bound": self.bound,
            "outcome": self.outcome,
            "counterexamples": self.counterexamples,
            "elapsed_seconds": round(self.elapsed_seconds, 6),
            "checked": self.checked,
        }

    def to_json_line(self) -> str:
        return json.dumps(self.to_json())


def _finish(claim: str, G: GroupSpec | None, bound: int, bad: list[str], t0: float,
            checked: int) -> VerificationReport:
    """The report of a check; one that checked nothing fails."""
    return VerificationReport(
        claim=claim,
        group=G.describe() if G is not None else None,
        bound=bound,
        counterexamples=bad if checked else [*bad, "checked nothing"],
        elapsed_seconds=time.perf_counter() - t0,
        checked=checked,
    )


# -- the work a group's checks share ------------------------------------------------
#
# A _GroupWork holds what several checks of one group read: the class list, one
# analysis per class (from one analyse_all call), and the psi1 and psi2 images,
# which send each descriptor of G to the data_key of its class or to the map's
# refusal, a counterexample of each claim that reads it.  psi1 and psi2 read a
# product only through its GL parts and its factors' factor_blocks, so key runs
# the map once per distinct pair of them and keeps no descriptor; every other
# descriptor of a known pair only passes validate_for.  Each part is built on
# first use, inside the timed region of the check that needs it first.
# verify_claim runs its check on a fresh record; run_all keeps one record per group.

#: Largest dimension at which the minimal-levi claim checks phi1 against every
#: regular-subgroup preimage.
PREIMAGE_MAX_DIM = 16

#: Each descriptor map with the enumeration of its descriptors and the field
#: that holds a descriptor's classical factors.
_MAPS = {"psi1": (psi1, iter_regular_subgroups, "cl_parts"),
         "psi2": (psi2, iter_parabolic_products, "parabolics")}


@dataclass(frozen=True, eq=False)
class _GroupWork:
    G: GroupSpec
    #: per map, the data_key of each (GL parts, classical blocks) pair it accepted
    _pairs: dict[str, dict] = field(default_factory=lambda: {m: {} for m in _MAPS}, init=False, repr=False)
    #: the factor_blocks of each classical factor met
    _blocks: dict[object, tuple[int, ...]] = field(default_factory=dict, init=False, repr=False)

    @cached_property
    def classes(self) -> list[ClassParam]:
        return enumerate_classes(self.G)

    @cached_property
    def analyses(self) -> list[ClassAnalysis]:
        return list(analyse_all(self.classes))

    def images(self, which: str) -> tuple[list[str], set[tuple]]:
        """The map's refusals, one per refused descriptor of G in enumeration
        order, and the data_keys of the classes it reaches."""
        refusals, image = [], set()
        for X in _MAPS[which][1](self.G):
            if isinstance(key := self.key(which, X), str):
                refusals.append(key)
            else:
                image.add(key)
        return refusals, image

    def key(self, which: str, X) -> tuple | str:
        """The data_key of X's class, or the map's refusal: the map runs on the
        first descriptor of each (GL parts, classical blocks) pair it accepts,
        and a later descriptor of that pair only passes validate_for."""
        psi, _, attr = _MAPS[which]
        pairs = self._pairs[which]
        try:
            blocks = []
            for f in getattr(X, attr):
                if (fb := self._blocks.get(f)) is None:
                    fb = self._blocks[f] = factor_blocks(self.G, f)
                blocks += fb
            blocks.sort()
            pair = (X.gl_parts.parts, tuple(blocks))
            if (key := pairs.get(pair)) is None:
                key = pairs[pair] = psi(X, self.G).data_key()
            else:
                X.validate_for(self.G)
            return key
        except InputError as exc:
            return f"{which} refuses {X.describe()}: {exc}"


# -- surjectivity and right inverses -----------------------------------------------


def _surjectivity(work: _GroupWork, which: str) -> VerificationReport:
    """Compare enumerate_classes(G) with the full image of psi1 or psi2."""
    t0 = time.perf_counter()
    bad, image = work.images(which)
    target = {C.data_key() for C in work.classes}
    bad += [f"class not reached: lambda={Partition(k[0])} eps={dict(k[1])}" for k in sorted(target - image)]
    bad += [f"image outside the class list: lambda={Partition(k[0])}" for k in sorted(image - target)]
    return _finish(f"{which}-surjective", work.G, work.G.dim, bad, t0, len(target))


def _right_inverse(work: _GroupWork, which: str) -> VerificationReport:
    """Check psi(phi(C)) == C for every class C of G, phi being phi1 or phi2."""
    t0 = time.perf_counter()
    psi = "psi" + which[-1]
    bad = []
    for C, a in zip(work.classes, work.analyses):
        X = a.phi1() if which == "phi1" else a.phi2()
        try:  # psi itself, not the pair table: each class is a pair of its own
            key = _MAPS[psi][0](X, work.G).data_key()
        except InputError as exc:
            key = f"{psi} refuses {X.describe()}: {exc}"
        if key != C.data_key():  # a refusal, or another class
            bad.append(key if isinstance(key, str) else
                       f"psi({which}({C.lam}, {C.eps})) gave ({Partition(key[0])}, {EpsilonMap(key[1])})")
    return _finish(f"{which}-right-inverse", work.G, work.G.dim, bad, t0, len(work.classes))


def _psi2_injective(work: _GroupWork) -> VerificationReport:
    """psi2 restricted to at most one classical parabolic factor is injective."""
    t0 = time.perf_counter()
    seen: dict[tuple, ParabolicProduct] = {}
    bad = []
    products = list(iter_parabolic_products(work.G, max_factors=1))
    for P in products:
        key = work.key("psi2", P)
        if isinstance(key, str):
            bad.append(key)
        elif key in seen and seen[key] != P:
            bad.append(f"{seen[key].describe()} and {P.describe()} both map to {Partition(key[0])}")
        seen[key] = P
    return _finish(_REPORT_NAMES["psi2-injective-r1"], work.G, work.G.dim, bad, t0, len(products))


def so_connected_only_psi1_image(G: GroupSpec) -> set[tuple]:
    """Image of the regular-element map over GL blocks and connected SO
    factors only (the p=2 orthogonal variant without full O factors);
    products landing outside the group's class list are skipped."""
    from .balacarter import _classical_dim_multisets

    if G.family is not Family.SO or not G.p2:
        raise InputError("the connected-only variant applies to SO at p=2")
    image: set[tuple] = set()
    for a in range(G.dim // 2 + 1):
        classicals = [Partition(tuple(b for m in dims for b in factor_blocks(G, (m, False))))
                      for dims in _classical_dim_multisets(G, G.dim - 2 * a)]
        for alpha, classical in product(iter_partitions(a), classicals):
            try:
                C = combine(Partition(alpha), classical, distinguished_eps(G, classical), G)
            except InputError:
                continue
            image.add(C.data_key())
    return image


# -- distinguished shapes -----------------------------------------------------------


def _capped_partitions(total: int, largest: int, cap: int) -> Iterator[tuple[int, ...]]:
    """Partitions of total into parts of largest's parity, none above largest,
    each used at most cap times, lexicographically decreasing."""
    if total == 0:
        yield ()
    for x in range(largest, 0, -2):
        for k in range(min(cap, total // x), 0, -1):
            for rest in _capped_partitions(total - k * x, x - 2, cap):
                yield (x,) * k + rest


def distinguished_shapes(family: Family, char: Char, total: int) -> Iterator[Partition]:
    """The block shapes of the distinguished classes of Sp or SO of dimension
    total, lexicographically decreasing (Hesselink, Math. Z. 1979):

      - odd characteristic: distinct parts, odd for SO and even for Sp;
      - p = 2: even parts, each at most twice; SO may add one part 1, and
        without it needs an even number of parts.
    """
    if family not in (Family.SP, Family.SO):
        raise InputError(f"distinguished shapes are stated for sp and so, not {family.value}")
    so2, good = family is Family.SO and char is Char.TWO, char is Char.GOOD
    ones = total % 2 if so2 else 0  # the part 1 SO may add at p=2 makes the total odd
    parity = int(family is Family.SO and good)  # of every other part
    for parts in _capped_partitions(total - ones, total - (total - parity) % 2, 1 if good else 2):
        if not so2 or ones or len(parts) % 2 == 0:
            yield Partition(parts + (1,) * ones)


# -- decomposition properties -------------------------------------------------------


def iter_admissible_beta(bound: int) -> Iterator[Partition]:
    """The distinguished shapes of SO at p = 2 of totals 1..bound: at most
    one part 1, the other parts even of multiplicity at most 2, and an even
    number of parts when no part equals 1."""
    for total in range(1, bound + 1):
        yield from distinguished_shapes(Family.SO, Char.TWO, total)


def _two_coloring_exists(beta: Partition) -> bool:
    parts = beta.parts
    for mask in range(1 << len(parts)):
        left = tuple(p for i, p in enumerate(parts) if mask >> i & 1)
        right = tuple(p for i, p in enumerate(parts) if not mask >> i & 1)
        if satisfies_difference_condition(Partition(left)) and satisfies_difference_condition(
            Partition(right)
        ):
            return True
    return False


def verify_proposition(bound: int = 30) -> VerificationReport:
    """Exhaustive check of the decomposition properties for admissible data:

      (i)   difference condition forces a single piece;
      (ii)  pieces without a part 1 have an even number of parts;
      (iii) every piece satisfies the difference condition;
      (iv)  the third piece vanishes iff some 2-coloring of the parts splits
            the data into two difference-condition partitions;
      (c)   the first-pass remainder has no bad sequence;
      plus multiset conservation of the pieces.
    """
    t0 = time.perf_counter()
    bad = []
    checked = 0
    for beta in iter_admissible_beta(bound):
        checked += 1
        G = GroupSpec(Family.SO, beta.total, Char.TWO)
        dec = decompose(beta, G)
        pieces = dec.pieces()
        if (dec.beta1 + dec.beta2 + dec.beta3) != beta:
            bad.append(f"{beta}: pieces do not conserve the multiset")
            continue
        if satisfies_difference_condition(beta) and dec.beta1 != beta:
            bad.append(f"(i) {beta}: difference condition holds but beta1={dec.beta1}")
        for piece in pieces:
            if piece and piece.multiplicity(1) == 0 and len(piece) % 2 != 0:
                bad.append(f"(ii) {beta}: piece {piece} has an odd number of parts")
            if not satisfies_difference_condition(piece):
                bad.append(f"(iii) {beta}: piece {piece} violates the difference condition")
        if (not dec.beta3) != _two_coloring_exists(beta):
            bad.append(f"(iv) {beta}: beta3={dec.beta3} disagrees with the 2-coloring search")
        if has_bad_sequence(dec.trace1.zeros()):
            bad.append(f"(c) {beta}: first-pass remainder {dec.trace1.zeros()} has a bad sequence")
    return _finish("decomposition-properties", None, bound, bad, t0, checked)


# -- extra classes ------------------------------------------------------------------


def _partition_counts(n: int) -> tuple[int, ...]:
    """p(0), ..., p(n), by Euler's pentagonal recurrence (Andrews, The Theory
    of Partitions, 1976): p(m) = sum over k >= 1 of (-1)^(k+1) (p(m - k(3k-1)/2)
    + p(m - k(3k+1)/2)), terms of negative argument being 0."""
    p = [1]
    for m in range(1, n + 1):
        total, k = 0, 1
        while (g := k * (3 * k - 1) // 2) <= m:
            sign = 1 if k % 2 else -1
            total += sign * (p[m - g] + (p[m - g - k] if g + k <= m else 0))
            k += 1
        p.append(total)
    return tuple(p)


@lru_cache(maxsize=None)
def _extra_shapes(family: Family, char: Char, total: int) -> int:
    """The distinguished_shapes of total whose scan has more than one nonzero piece."""
    H = GroupSpec(family, 2, char)  # decompose reads only the family and characteristic
    return sum(1 for beta in distinguished_shapes(family, char, total)
               if len(decompose(beta, H).nonzero_pieces()) > 1)


def _closed_extra_count(G: GroupSpec) -> int:
    """The number of extra classes of G, without enumerating them:
    sum over a >= 0 of p(a) E(n - 2a), E(m) being _extra_shapes of total m.
    An untagged class is one (alpha, beta) with |alpha| = a and beta a
    distinguished shape of total n - 2a (the minimal-levi claim checks that
    bijection), and it is extra exactly when beta's scan has several pieces."""
    if G.family is Family.GL:
        return 0
    p = _partition_counts(G.dim // 2)
    return sum(p[a] * _extra_shapes(G.family, G.char, G.dim - 2 * a) for a in range(G.dim // 2 + 1))


#: The paper's extra-class counts of SO at p=2: dimension -> extra classes.
EXTRA_COUNTS = {7: 2, 12: 1, 14: 2, 16: 5}


def _extra_counts(work: _GroupWork) -> VerificationReport:
    """The extra classes, counted from the shared analyses of the untagged
    classes, number _closed_extra_count(G) and, where the paper counts them
    (EXTRA_COUNTS), the paper's value."""
    t0 = time.perf_counter()
    G = work.G
    untagged = [a for C, a in zip(work.classes, work.analyses) if C.split_tag != "II"]
    got = sum(1 for a in untagged if a.is_extra())
    bad = []
    if got != (want := _closed_extra_count(G)):
        bad.append(f"counted {got}, the identity gives {want}")
    paper = EXTRA_COUNTS.get(G.dim) if G.family is Family.SO and G.p2 else None
    if paper is not None and got != paper:
        bad.append(f"counted {got}, the paper gives {paper}")
    return _finish(_REPORT_NAMES["extra-counts"], G, G.dim, bad, t0, len(untagged))


# -- the Richardson inverse ------------------------------------------------------------


def _inverse_reading(G: GroupSpec, lam: Partition) -> str:
    """parabolic_from_blocks(G, lam) described, or its refusal."""
    try:
        return parabolic_from_blocks(G, lam).describe()
    except InputError as exc:
        return f"refused: {exc}"


def _richardson_shape(G: GroupSpec, beta: Partition) -> bool:
    """Whether beta, one of the distinguished_shapes of Sp or SO, is the shape
    of a Richardson class (Richardson, 1974; Hesselink, Math. Z. 1979): every
    one in odd characteristic; at p = 2, one with distinct parts for Sp and
    one that satisfies the difference condition for SO."""
    if not G.p2:
        return True
    if G.family is Family.SP:
        return len(beta.values()) == len(beta)
    return satisfies_difference_condition(beta)


def _richardson_inverse(work: _GroupWork) -> VerificationReport:
    """parabolic_from_blocks, the library's closed-form inverse, agrees on
    every distinguished parabolic of G with an index from Richardson blocks
    to descriptor, built from the enumeration; a block tuple that two
    descriptors share would contradict the injectivity of the forward map.

    The index is also read against the image as the shape rule states it:
    on GL it holds all p(n) partitions of n; on Sp and SO its keys are the
    distinguished_shapes that _richardson_shape admits, and the inverse must
    refuse every other distinguished shape.  SO2, a torus, has no
    distinguished parabolic, so there the inverse must refuse every
    partition of the dimension."""
    t0 = time.perf_counter()
    G = work.G
    descriptors = list(enumerate_distinguished_parabolics(G))
    keys = [richardson_blocks(P) for P in descriptors]
    index: dict[tuple[int, ...], ParabolicDescriptor] = {}
    bad = []
    for key, P in zip(keys, descriptors):
        if index.setdefault(key, P) is not P:
            bad.append(f"{index[key].describe()} and {P.describe()} share the Richardson blocks {key}")
    for key in keys:
        lam = Partition(key)
        if (got := _inverse_reading(G, lam)) != (want := index[key].describe()):
            bad.append(f"{lam}: the inverse gives {got}, the index {want}")
    if G.family is Family.GL:
        if len(index) != (want := _partition_counts(G.dim)[-1]):
            bad.append(f"the index holds {len(index)} block tuples, not the p({G.dim}) = {want} partitions")
    else:
        admitted = set()
        for beta in distinguished_shapes(G.family, G.char, G.dim):
            if _richardson_shape(G, beta):
                admitted.add(beta.parts)
            elif not (got := _inverse_reading(G, beta)).startswith("refused"):
                bad.append(f"{beta}: the inverse gives {got}, the index nothing")
        bad += [f"{Partition(key)}: the shape rule admits it, the index holds no descriptor"
                for key in sorted(admitted - index.keys(), reverse=True)]
        bad += [f"{Partition(key)}: the index holds {index[key].describe()}, the shape rule refuses it"
                for key in sorted(index.keys() - admitted, reverse=True)]
    if descriptors:
        return _finish("richardson-inverse", G, G.dim, bad, t0, len(descriptors))
    lams = [Partition(parts) for parts in iter_partitions(G.dim)]
    bad += [f"{lam}: the inverse gives {got}, the index nothing"
            for lam in lams if not (got := _inverse_reading(G, lam)).startswith("refused")]
    return _finish("richardson-inverse", G, G.dim, bad, t0, len(lams))


# -- minimal Levi splitting ----------------------------------------------------------


def _valid_splittings(C: ClassParam) -> list[tuple[Partition, Partition]]:
    """All (alpha, beta) with lam = double(alpha) + beta, beta one of the
    distinguished_shapes, and at p=2 eps 1 on exactly the even parts beta
    takes (a free eps set to 1 is what a distinguished class carries)."""
    G, mults = C.group, C.lam.multiplicities()
    # no distinguished shape has a part more than twice
    per_value = [[(x, take) for take in range(min(m, 2) + 1) if (m - take) % 2 == 0
                  and not (G.p2 and x % 2 == 0 and (take >= 1) != (C.eps[x] == 1))]
                 for x, m in mults.items()]
    out = []
    for picks in product(*per_value):
        # decreasing, as the shapes' parts are: mults lists lam's values in its order
        parts = tuple(x for x, take in picks for _ in range(take))
        if parts in _remainder_shapes(G.family, G.char, sum(parts)):
            alpha = Partition(tuple(x for x, take in picks for _ in range((mults[x] - take) // 2)))
            out.append((alpha, Partition(parts)))
    return out


@lru_cache(maxsize=None)
def _distinguished_remainders(family: Family, char: Char, rest: int) -> dict[Partition, EpsilonMap]:
    """Each of the distinguished_shapes of the given total, with the eps of its
    distinguished class (the empty beta when rest is 0).  Shared: do not modify."""
    H = GroupSpec(family, 2, char)  # distinguished_eps reads only the family and characteristic
    return {beta: distinguished_eps(H, beta) for beta in distinguished_shapes(family, char, rest)}


@lru_cache(maxsize=None)
def _remainder_shapes(family: Family, char: Char, rest: int) -> frozenset[tuple[int, ...]]:
    """The parts of each of _distinguished_remainders(family, char, rest)."""
    return frozenset(beta.parts for beta in _distinguished_remainders(family, char, rest))


def _combined(alpha: Partition, beta: Partition, eps_beta: EpsilonMap, G: GroupSpec) -> ClassParam | InputError:
    """combine(alpha, beta, eps_beta, G), or the InputError it raises."""
    try:
        return combine(alpha, beta, eps_beta, G)
    except InputError as exc:
        return exc


def _minimal_levi(work: _GroupWork) -> VerificationReport:
    """Brute-force the splitting claims:

      - every class admits exactly one valid (alpha, beta) splitting, it is
        the one minimal_levi extracts, and beta is distinguished;
      - (Levi, distinguished class) pairs biject with classes, counting the
        split pairs twice;
      - (dim <= PREIMAGE_MAX_DIM) among all regular-subgroup preimages of a
        class, the one with the most GL factors is unique and equals phi1;
      - on GL, where every block is a GL factor, each class extracts its
        blocks as alpha and an empty remainder.
    """
    t0 = time.perf_counter()
    G = work.G
    if G.family is Family.GL:
        bad = [f"{C.lam}: extracted {a.alpha}|{a.beta}, not the blocks and an empty remainder"
               for C, a in zip(work.classes, work.analyses) if a.alpha != C.lam or a.beta]
        return _finish("minimal-levi", G, G.dim, bad, t0, len(work.classes))
    bad = []
    untagged = [(C, a) for C, a in zip(work.classes, work.analyses) if C.split_tag != "II"]
    # combine's answer for each extraction, read again by the bijection below
    # wherever it combines the same (alpha, beta, eps)
    extracted: dict[tuple, ClassParam | InputError] = {}
    for C, a in untagged:
        alpha, beta = a.alpha, a.beta
        eps_beta = distinguished_eps(G, beta)
        splittings = _valid_splittings(C)
        if len(splittings) != 1:
            bad.append(f"{C.lam}, {C.eps}: {len(splittings)} valid splittings")
            continue
        if splittings[0] != (alpha, beta):
            bad.append(f"{C.lam}: extraction {alpha}|{beta} vs brute force {splittings[0]}")
        if beta not in _distinguished_remainders(G.family, G.char, beta.total):
            bad.append(f"{C.lam}: extracted remainder {beta} is not distinguished")
        got = extracted[alpha.parts, beta.parts, eps_beta] = _combined(alpha, beta, eps_beta, G)
        if isinstance(got, InputError):
            bad.append(f"{C.lam}: combine refuses the extraction: {got}")
        elif not got.same_class(C):
            bad.append(f"{C.lam}: combine does not invert the extraction")
    # bijection of (Levi, distinguished class) pairs with classes
    seen: dict[tuple, tuple] = {}
    count = 0
    for a in range(G.dim // 2 + 1):
        alphas = [Partition(parts) for parts in iter_partitions(a)]
        for beta, eps_beta in _distinguished_remainders(G.family, G.char, G.dim - 2 * a).items():
            for alpha in alphas:
                pair = (alpha.parts, beta.parts)
                if (C := extracted.pop((*pair, eps_beta), None)) is None:
                    C = _combined(alpha, beta, eps_beta, G)
                if isinstance(C, InputError):  # the library refuses a shape: one report per shape
                    bad.append(f"combine refuses the distinguished shape {beta}: {C}")
                    break
                key = C.data_key()
                if key in seen and seen[key] != pair:
                    bad.append(f"pairs {seen[key]} and {pair} give the same class {C.lam}")
                seen[key] = pair
                doubled = G.family is Family.SO and splits_in_so(C.lam, C.eps)
                count += 2 if doubled else 1
    if count != len(work.classes):
        bad.append(f"(Levi, class) pairs count {count} != class count {len(work.classes)}")
    if set(seen) != {C.data_key() for C, _ in untagged}:
        bad.append("(Levi, class) pairs miss some classes")
    # phi1 maximality among genuine preimages: phi1(C) attains the maximal
    # number of GL factors and, among those, the maximal number of classical
    # factors, and with that tiebreak it is unique.  (GL count alone does not
    # single it out: a remainder part m can also come from a larger factor
    # whose regular class has blocks (m, 1)-style, e.g. O_3 versus O_2 O_1.)
    if G.dim <= PREIMAGE_MAX_DIM:
        by_class: dict[tuple | str, list[RegularSubgroupDescriptor]] = defaultdict(list)
        for X in iter_regular_subgroups(G):
            by_class[work.key("psi1", X)].append(X)
        bad += [key for key in by_class if isinstance(key, str)]  # refusals
        for C, a in untagged:
            cands = by_class.get(C.data_key(), [])
            if not cands:
                bad.append(f"{C.lam}: no psi1 preimage")
                continue
            best = max((len(X.gl_parts), len(X.cl_parts)) for X in cands)
            top = [X for X in cands if (len(X.gl_parts), len(X.cl_parts)) == best]
            if len(top) != 1 or top[0] != a.phi1():
                bad.append(f"{C.lam}: factor-maximal preimage not unique or not phi1")
    return _finish("minimal-levi", G, G.dim, bad, t0, len(untagged))


# -- batch runner ---------------------------------------------------------------------


def group_sweep(max_dim: int) -> list[GroupSpec]:
    """GL, Sp and SO in both characteristic regimes, dims 1..max_dim, in report order."""
    specs = []
    for n in range(1, max_dim + 1):
        specs.append(GroupSpec(Family.GL, n, Char.GOOD))
        for char in (Char.TWO, Char.GOOD):
            if n % 2 == 0:
                specs.append(GroupSpec(Family.SP, n, char))
            specs.append(GroupSpec(Family.SO, n, char))
    return specs


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _call(task: tuple):
    fn, *args = task
    return fn(*args)


#: The bytes of a task index in run_tasks' task pipe: fewer than PIPE_BUF,
#: so each write and each read moves one whole index.
_INDEX_BYTES = 4


def _pipe(stack: ExitStack, buffering: int) -> tuple:
    """The read and write ends of a new pipe, as files that stack closes."""
    return tuple(stack.enter_context(open(fd, mode, buffering)) for fd, mode in zip(os.pipe(), ("rb", "wb")))


def _serve(tasks: list[tuple], queue, caller: int) -> list[tuple]:
    """A run_tasks worker's outcomes, (index, ok, result or exception), of the
    tasks whose indices it reads from queue until the queue is empty, or
    until its parent is no longer the caller."""
    done = []
    while os.getppid() == caller and (record := queue.read(_INDEX_BYTES)):
        i = int.from_bytes(record, "little")
        try:
            done.append((i, True, _call(tasks[i])))
        except Exception as exc:  # raised again in the caller
            done.append((i, False, exc))
    return done


def run_tasks(tasks: list[tuple]) -> list:
    """The result of each task (fn, *args), in task order.

    The tasks run on one forked worker process per usable CPU, never more
    workers than tasks, and start in list order, so list the costliest first.
    With one usable CPU, or where the platform cannot fork, they run in this
    process.  The workers inherit the tasks, with this process's state as it
    is, monkeypatched or wrapped functions included, so only task indices and
    results cross a pipe.  A task's exception is raised here, tasks whose
    worker died raise RuntimeError, and no worker outlives the call; if this
    process is killed, each worker exits once its current task ends.
    """
    processes = min(_usable_cpus(), len(tasks))
    if processes < 2 or not hasattr(os, "fork"):
        return list(map(_call, tasks))
    import pickle  # imported here, as signal is: only the verifiers pay for them
    import signal

    pids, outs, outcomes, caller = [], [], {}, os.getpid()
    try:
        with ExitStack() as stack:
            queue, feed = _pipe(stack, 0)
            for _ in range(processes):
                out, into = _pipe(stack, -1)
                outs.append(out)
                pid = os.fork()
                if pid == 0:  # the worker never returns, whatever a task does
                    code = 1
                    try:
                        # holding no read end, its write fails, not blocks, once the caller is gone
                        for f in (feed, *outs):
                            f.close()
                        into.write(pickle.dumps(_serve(tasks, queue, caller)))  # all pickled, or nothing sent
                        into.flush()
                        code = 0
                    finally:
                        os._exit(code)
                pids.append(pid)
                into.close()
            queue.close()
            # one write per index, after the fork, so a long list cannot fill the pipe first
            with suppress(BrokenPipeError):  # every worker died; the lost tasks are named below
                for i in range(len(tasks)):
                    feed.write(i.to_bytes(_INDEX_BYTES, "little"))
            feed.close()
            # a worker writes only once the queue is empty, so reading each pipe
            # to its end in turn stalls no worker that still has tasks
            for out in outs:
                if data := out.read():
                    outcomes.update((i, (ok, value)) for i, ok, value in pickle.loads(data))
    finally:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    lost = [i for i in range(len(tasks)) if i not in outcomes]
    if lost:
        raise RuntimeError(f"no result for tasks {lost}: a worker process died")
    results = [outcomes[i] for i in range(len(tasks))]
    for ok, value in results:
        if not ok:
            raise value
    return [value for _, value in results]


#: The claims checked group by group, in report order: the run_all bound that
#: sweeps each one, the module-global name of its check of a _GroupWork, and
#: the check's arguments.
GROUP_CLAIMS = {
    "psi1-surjective": ("surjectivity_max_dim", "_surjectivity", "psi1"),
    "psi2-surjective": ("surjectivity_max_dim", "_surjectivity", "psi2"),
    "psi2-injective-r1": ("surjectivity_max_dim", "_psi2_injective"),
    "phi1-right-inverse": ("max_dim", "_right_inverse", "phi1"),
    "phi2-right-inverse": ("max_dim", "_right_inverse", "phi2"),
    "minimal-levi": ("max_dim", "_minimal_levi"),
    "extra-counts": ("max_dim", "_extra_counts"),
    "richardson-inverse": ("max_dim", "_richardson_inverse"),
}

#: The report names of the group claims whose reports are not named as the claim.
_REPORT_NAMES = {"psi2-injective-r1": "psi2-injective-r<=1", "extra-counts": "extra-count"}

#: The claims of verify --claim all, in report order; the group claims left
#: out (extra-counts, richardson-inverse) run only when named.
BATTERY = ("psi1-surjective", "psi2-surjective", "psi2-injective-r1", "phi1-right-inverse",
           "phi2-right-inverse", "minimal-levi", "proposition")

#: Every claim verify --claim names: BATTERY, then the group claims it leaves out.
CLAIMS = (*BATTERY, *(c for c in GROUP_CLAIMS if c not in BATTERY))


def _group_checks(G: GroupSpec, *sweeps: tuple[str, ...]) -> list[list[VerificationReport]]:
    """G's reports of each sweep's claims, all read from one _GroupWork.  Each
    check is looked up when it runs, so a rebound or monkeypatched one runs."""
    work = _GroupWork(G)
    return [[_group_check(work, claim) for claim in claims] for claims in sweeps]


def _group_check(work: _GroupWork, claim: str) -> VerificationReport:
    """The report of one group claim on work.G.  An InputError that the check
    raises is the library refusing its own output, so it fails the claim,
    with the error as the counterexample, rather than ending the run."""
    _, name, *args = GROUP_CLAIMS[claim]
    t0 = time.perf_counter()
    try:
        return globals()[name](work, *args)
    except InputError as exc:
        return VerificationReport(_REPORT_NAMES.get(claim, claim), work.G.describe(), work.G.dim,
                                  [f"the check raised InputError: {exc}"], time.perf_counter() - t0)


def verify_claim(claim: str, G: GroupSpec) -> VerificationReport:
    """The report of one of GROUP_CLAIMS on G, from a fresh _GroupWork."""
    if claim not in GROUP_CLAIMS:
        raise InputError(f"unknown claim {claim!r} (expected one of {', '.join(GROUP_CLAIMS)})")
    [[report]] = _group_checks(G, (claim,))
    return report


def run_all(max_dim: int = 24, surjectivity_max_dim: int | None = None, beta_bound: int = 30,
            claims: tuple[str, ...] = BATTERY) -> list[VerificationReport]:
    """The reports of claims, each one of CLAIMS: sweep by
    sweep, each in group order, then the proposition.

    A sweep holds the GROUP_CLAIMS of one bound, max_dim or
    surjectivity_max_dim (by default the smaller of max_dim and 16), checked
    on group_sweep(bound); the proposition runs to beta_bound.  Every bound
    must be at least 1, whatever the claims.  Each group is one task of
    run_tasks, its checks sharing one _GroupWork whose shared work is timed in
    the first report that uses it; each report is timed in the process that ran it.
    """
    surj = min(max_dim, 16) if surjectivity_max_dim is None else surjectivity_max_dim
    for flag, value in (("--max-dim", max_dim), ("--max-beta", beta_bound), ("--surjectivity-max-dim", surj)):
        if value < 1:  # leaves claims with nothing to check
            raise InputError(f"{flag} must be at least 1, got {value}")
    bounds = {"max_dim": max_dim, "surjectivity_max_dim": surj}
    once, sweeps = [], {}
    for claim in claims:
        if claim in GROUP_CLAIMS:
            sweeps.setdefault(GROUP_CLAIMS[claim][0], []).append(claim)
        elif claim == "proposition":
            once.append((verify_proposition, beta_bound))
        else:
            raise InputError(f"unknown claim {claim!r} (expected one of {', '.join(CLAIMS)})")
    # the claims that run once, then the largest groups first, so the processes end together
    groups = group_sweep(max((bounds[b] for b in sweeps), default=0))
    tasks = once + [(_group_checks, G, *(tuple(c) if G.dim <= bounds[b] else () for b, c in sweeps.items()))
                    for G in reversed(groups)]
    results = run_tasks(tasks)
    per_group = results[len(once):][::-1]
    return [r for i in range(len(sweeps)) for reports in per_group for r in reports[i]] + results[:len(once)]
