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
from .richardson import regular_blocks


@dataclass
class VerificationReport:
    claim: str
    group: str | None
    bound: int
    outcome: str
    counterexamples: list[str] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    #: objects examined: classes, descriptors or betas (0 marks a vacuous pass)
    checked: int = 0

    def __post_init__(self) -> None:
        if self.outcome not in ("pass", "fail"):
            raise InputError(f"outcome must be 'pass' or 'fail', got {self.outcome!r}")
        if self.outcome == "fail" and not self.counterexamples:
            raise InputError("a failing report must record at least one counterexample")

    @property
    def passed(self) -> bool:
        return self.outcome == "pass"

    def to_json(self) -> dict:
        return {
            "schema": "unipotent-atlas/v1",
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
    return VerificationReport(
        claim=claim,
        group=G.describe() if G is not None else None,
        bound=bound,
        outcome="pass" if not bad else "fail",
        counterexamples=bad,
        elapsed_seconds=time.perf_counter() - t0,
        checked=checked,
    )


# -- the work a group's checks share ------------------------------------------------
#
# A _GroupWork holds what several checks of one group read: the class list, one
# analysis per class (from one analyse_all call), and the psi1 and psi2 image
# tables, which send each descriptor of G to the data_key of its class or to the
# map's refusal, a counterexample of each claim that reads it.  Each part is built
# on first use, inside the timed region of the check that needs it first.  A public
# verifier runs its check on a fresh record; run_all keeps one record per group.

ImageTable = dict[object, tuple | str]

#: Each descriptor map with the enumeration of its descriptors.
_MAPS = {"psi1": (psi1, iter_regular_subgroups), "psi2": (psi2, iter_parabolic_products)}


@dataclass(frozen=True)
class _GroupWork:
    G: GroupSpec
    _tables: dict[str, ImageTable] = field(default_factory=dict, init=False, repr=False, compare=False)

    @cached_property
    def classes(self) -> list[ClassParam]:
        return enumerate_classes(self.G, max_dim=self.G.dim)  # the sweep bounds the dimension

    @cached_property
    def analyses(self) -> list[ClassAnalysis]:
        return list(analyse_all(self.classes))

    def table(self, which: str) -> ImageTable:
        if which not in self._tables:
            self._tables[which] = {X: self._image(which, X) for X in _MAPS[which][1](self.G)}
        return self._tables[which]

    def key(self, which: str, X) -> tuple | str:
        """The data_key of X's class, or the map's refusal: read from the
        image table when that table is built, computed by the map otherwise."""
        key = self._tables.get(which, {}).get(X)
        return key if key is not None else self._image(which, X)

    def _image(self, which: str, X) -> tuple | str:
        try:
            return _MAPS[which][0](X, self.G).data_key()
        except InputError as exc:
            return f"{which} refuses {X.describe()}: {exc}"


def psi1_image(G: GroupSpec) -> set[tuple]:
    return set(_GroupWork(G).table("psi1").values())


# -- surjectivity and right inverses -----------------------------------------------


def verify_surjectivity(G: GroupSpec, which: str) -> VerificationReport:
    """Compare enumerate_classes(G) with the full image of psi1 or psi2."""
    return _surjectivity(_GroupWork(G), which)


def _surjectivity(work: _GroupWork, which: str) -> VerificationReport:
    t0 = time.perf_counter()
    if which not in _MAPS:
        raise InputError(f"which must be 'psi1' or 'psi2', got {which!r}")
    table = work.table(which)
    bad = [k for k in table.values() if isinstance(k, str)]
    image = {k for k in table.values() if not isinstance(k, str)}
    target = {C.data_key() for C in work.classes}
    bad += [f"class not reached: lambda={Partition(k[0])} eps={dict(k[1])}" for k in sorted(target - image)]
    bad += [f"image outside the class list: lambda={Partition(k[0])}" for k in sorted(image - target)]
    return _finish(f"{which}-surjective", work.G, work.G.dim, bad, t0, len(target))


def verify_right_inverse(G: GroupSpec, which: str) -> VerificationReport:
    """Check psi(phi(C)) == C for every class C of G."""
    return _right_inverse(_GroupWork(G), which)


def _right_inverse(work: _GroupWork, which: str) -> VerificationReport:
    t0 = time.perf_counter()
    if which not in ("phi1", "phi2"):
        raise InputError(f"which must be 'phi1' or 'phi2', got {which!r}")
    psi = "psi" + which[-1]
    if which == "phi1" and work.G.family is not Family.GL and work.G.dim <= PREIMAGE_MAX_DIM:
        work.table("psi1")  # _minimal_levi reads the whole table here: build it once, not per class first
    bad = []
    for C, a in zip(work.classes, work.analyses):
        X = a.phi1() if which == "phi1" else a.phi2()
        key = work.key(psi, X)
        if key != C.data_key():  # a refusal, or another class
            bad.append(key if isinstance(key, str) else
                       f"psi({which}({C.lam}, {C.eps})) gave ({Partition(key[0])}, {EpsilonMap(key[1])})")
    return _finish(f"{which}-right-inverse", work.G, work.G.dim, bad, t0, len(work.classes))


def verify_psi2_restricted_injective(G: GroupSpec) -> VerificationReport:
    """psi2 restricted to at most one classical parabolic factor is injective."""
    return _psi2_injective(_GroupWork(G))


def _psi2_injective(work: _GroupWork) -> VerificationReport:
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
    return _finish("psi2-injective-r<=1", work.G, work.G.dim, bad, t0, len(products))


def so_connected_only_psi1_image(G: GroupSpec) -> set[tuple]:
    """Image of the regular-element map over GL blocks and connected SO
    factors only (the p=2 orthogonal variant without full O factors);
    products landing outside the group's class list are skipped."""
    from .balacarter import _classical_dim_multisets

    if G.family is not Family.SO or not G.p2:
        raise InputError("the connected-only variant applies to SO at p=2")
    image: set[tuple] = set()
    for a in range(G.dim // 2 + 1):
        classicals = [Partition(tuple(b for m in dims for b in regular_blocks(Family.SO, m, True)))
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
        G = GroupSpec(Family.SO, beta.total if beta.total >= 1 else 1, Char.TWO)
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


def _extra_count(G: GroupSpec) -> tuple[int, int]:
    """The number of classes whose minimal-Levi remainder is not a Richardson
    class, and the number of classes read (one of each split pair)."""
    untagged = [C for C in enumerate_classes(G) if C.split_tag != "II"]
    return sum(1 for a in analyse_all(untagged) if a.is_extra()), len(untagged)


def count_extra_classes(G: GroupSpec) -> int:
    """Number of classes whose minimal-Levi remainder is not a Richardson class."""
    return _extra_count(G)[0]


def verify_extra_count(G: GroupSpec, expected: int) -> VerificationReport:
    """Check that G has the expected number of extra classes."""
    t0 = time.perf_counter()
    got, checked = _extra_count(G)
    bad = [] if got == expected else [f"counted {got}, expected {expected}"]
    return _finish("extra-count", G, G.dim, bad, t0, checked)


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
        beta = Partition(tuple(x for x, take in picks for _ in range(take)))
        if beta in _distinguished_remainders(G.family, G.char, beta.total):
            alpha = Partition(tuple(x for x, take in picks for _ in range((mults[x] - take) // 2)))
            out.append((alpha, beta))
    return out


#: Largest dimension at which verify_minimal_levi checks phi1 against every
#: regular-subgroup preimage.
PREIMAGE_MAX_DIM = 16


def verify_minimal_levi(G: GroupSpec) -> VerificationReport:
    """Brute-force the splitting claims:

      - every class admits exactly one valid (alpha, beta) splitting, it is
        the one minimal_levi extracts, and beta is distinguished;
      - (Levi, distinguished class) pairs biject with classes, counting the
        split pairs twice;
      - (dim <= PREIMAGE_MAX_DIM) among all regular-subgroup preimages of a
        class, the one with the most GL factors is unique and equals phi1.
    """
    return _minimal_levi(_GroupWork(G))


@lru_cache(maxsize=None)
def _distinguished_remainders(family: Family, char: Char, rest: int) -> dict[Partition, EpsilonMap]:
    """Each of the distinguished_shapes of the given total, with the eps of its
    distinguished class (the empty beta when rest is 0).  Shared: do not modify."""
    H = GroupSpec(family, 2, char)  # distinguished_eps reads only the family and characteristic
    return {beta: distinguished_eps(H, beta) for beta in distinguished_shapes(family, char, rest)}


def _minimal_levi(work: _GroupWork) -> VerificationReport:
    t0 = time.perf_counter()
    G = work.G
    bad = []
    if G.family is Family.GL:
        return _finish("minimal-levi", G, G.dim, bad, t0, 0)
    untagged = [(C, a) for C, a in zip(work.classes, work.analyses) if C.split_tag != "II"]
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
        try:
            if not combine(alpha, beta, eps_beta, G).same_class(C):
                bad.append(f"{C.lam}: combine does not invert the extraction")
        except InputError as exc:
            bad.append(f"{C.lam}: combine refuses the extraction: {exc}")
    # bijection of (Levi, distinguished class) pairs with classes
    seen: dict[tuple, tuple] = {}
    count = 0
    for a in range(G.dim // 2 + 1):
        alphas = [Partition(parts) for parts in iter_partitions(a)]
        for beta, eps_beta in _distinguished_remainders(G.family, G.char, G.dim - 2 * a).items():
            for alpha in alphas:
                try:
                    C = combine(alpha, beta, eps_beta, G)
                except InputError as exc:  # the library refuses a shape: one report per shape
                    bad.append(f"combine refuses the distinguished shape {beta}: {exc}")
                    break
                key = C.data_key()
                pair = (alpha.parts, beta.parts)
                if key in seen and seen[key] != pair:
                    bad.append(f"pairs {seen[key]} and {pair} give the same class {C.lam}")
                seen[key] = pair
                doubled = G.family is Family.SO and splits_in_so(C.lam, C.eps, G.char)
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
        for X, key in work.table("psi1").items():
            by_class[key].append(X)
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


def check_bounds(max_dim: int, beta_bound: int, surjectivity_max_dim: int = 1) -> None:
    """Refuse a bound below 1, which leaves claims with nothing to check or out
    of run_all; the errors name the flags of the verify command and the battery script."""
    for flag, value in (("--max-dim", max_dim), ("--max-beta", beta_bound),
                        ("--surjectivity-max-dim", surjectivity_max_dim)):
        if value < 1:
            raise InputError(f"{flag} must be at least 1, got {value}")


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


#: The claims checked group by group, in report order: the module-global name
#: of each one's check of a _GroupWork, and the check's arguments.
GROUP_CLAIMS = {
    "psi1-surjective": ("_surjectivity", "psi1"),
    "psi2-surjective": ("_surjectivity", "psi2"),
    "psi2-injective-r1": ("_psi2_injective",),
    "phi1-right-inverse": ("_right_inverse", "phi1"),
    "phi2-right-inverse": ("_right_inverse", "phi2"),
    "minimal-levi": ("_minimal_levi",),
}


def _group_checks(G: GroupSpec, *sweeps: tuple[str, ...]) -> list[list[VerificationReport]]:
    """G's reports of each sweep's claims, all read from one _GroupWork.  Each
    check is looked up when it runs, so a rebound or monkeypatched one runs."""
    work = _GroupWork(G)
    return [[globals()[name](work, *args) for name, *args in (GROUP_CLAIMS[c] for c in claims)]
            for claims in sweeps]


def sweep_claim(claim: str, max_dim: int) -> list[VerificationReport]:
    """The reports of one of GROUP_CLAIMS on each group of group_sweep(max_dim),
    in sweep order; each group is one task of run_tasks, the largest first."""
    tasks = [(_group_checks, G, (claim,)) for G in reversed(group_sweep(max_dim))]
    return [report for [[report]] in reversed(run_tasks(tasks))]


def run_all(max_dim: int = 24, surjectivity_max_dim: int = 16, beta_bound: int = 30) -> list[VerificationReport]:
    """The release verification battery at the default bounds.

    The reports are those of the public verifiers, in the same order: the
    surjectivity and injectivity checks of group_sweep(surjectivity_max_dim),
    the right-inverse and minimal-Levi checks of group_sweep(max_dim), then
    the decomposition properties.  Each group is one task of run_tasks, its
    checks sharing one _GroupWork whose shared work is timed in the first
    report that uses it; each report is timed in the process that ran it.
    """
    check_bounds(max_dim, beta_bound, surjectivity_max_dim)
    groups = group_sweep(max(max_dim, surjectivity_max_dim))
    surjective, class_level = tuple(GROUP_CLAIMS)[:3], tuple(GROUP_CLAIMS)[3:]
    # the proposition, then the largest groups first, so the processes end together
    tasks = [(verify_proposition, beta_bound)]
    tasks += [(_group_checks, G, surjective if G.dim <= surjectivity_max_dim else (),
               class_level if G.dim <= max_dim else ()) for G in reversed(groups)]
    proposition, *per_group = run_tasks(tasks)
    per_group.reverse()
    return ([r for first, _ in per_group for r in first]
            + [r for _, second in per_group for r in second] + [proposition])
