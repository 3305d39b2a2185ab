"""The eps law and the distinguished shape, each stated once in classes
(eps_options, shape_violation), against the rules as each reader stated them
before: every partition and every eps choice up to dim 18, in every family
and both characteristics.

The subgroup-product rules, stated once in balacarter._check_product, against
the two validate_for bodies that stated them before: regular-subgroup
descriptors and parabolic products up to dim 10, filling, one short and one
over, with mixed full flags and with factors from other groups.  Each
enumeration must yield exactly the accepted candidates, each once.
"""

import contextlib
import io
from itertools import product

import pytest

from unipotent_atlas import cli
from unipotent_atlas.balacarter import (
    ParabolicProduct,
    RegularSubgroupDescriptor,
    iter_parabolic_products,
    iter_regular_subgroups,
)
from unipotent_atlas.classes import (
    Char,
    ClassParam,
    EpsilonMap,
    Family,
    GroupSpec,
    _eps_choices,
    _lambda_admissible,
    combine,
    distinguished_eps,
    eps_options,
    is_distinguished,
    is_valid_class,
    minimal_levi,
)
from unipotent_atlas.decomp import decompose, satisfies_difference_condition
from unipotent_atlas.errors import InputError
from unipotent_atlas.partitions import Partition, iter_partitions
from unipotent_atlas.richardson import enumerate_distinguished_parabolics, in_richardson_image

MAX_DIM = 18
PRODUCT_MAX_DIM = 10


def groups(max_dim=MAX_DIM):
    for n in range(1, max_dim + 1):
        for family in Family:
            for char in Char:
                if family is Family.SP and n % 2:
                    continue
                yield GroupSpec(family, n, char)


def first_eps(G, lam) -> EpsilonMap:
    """lam's canonical eps: the first of each part's eps_options."""
    return EpsilonMap(tuple((x, eps_options(G, x, m)[0]) for x, m in lam.multiplicities().items()))


# -- the seven eps readings, as they were stated -----------------------------------


def reference_canonical_eps(G, lam):
    if G.family is Family.GL:
        return EpsilonMap(tuple((x, 0) for x in lam.values()))
    entries = []
    for x, m in lam.multiplicities().items():
        if not G.p2:
            entries.append((x, G.delta if x % 2 == 0 else -G.delta))
        elif x % 2 == 1:
            entries.append((x, -1))
        else:
            entries.append((x, 1 if m % 2 == 1 else 0))
    return EpsilonMap(tuple(entries))


def reference_is_valid_class(G, lam, eps):
    """is_valid_class for an eps whose domain is lam's part values."""
    mults = lam.multiplicities()
    eps_of = eps.as_dict()
    if not _lambda_admissible(G, lam, mults):
        return False
    if G.family is Family.GL:
        return all(v == 0 for v in eps_of.values())
    if not G.p2:
        delta = G.delta
        return all(eps_of[x] == (delta if x % 2 == 0 else -delta) for x in mults)
    for x, m in mults.items():
        v = eps_of[x]
        if x % 2 == 1:
            if v != -1:
                return False
        elif m % 2 == 1:
            if v != 1:
                return False
        elif v not in (0, 1):
            return False
    return True


def reference_eps_choices(G, lam):
    if G.family is Family.GL or not G.p2:
        return [reference_canonical_eps(G, lam)]
    forced = []
    free = []
    for x, m in lam.multiplicities().items():
        if x % 2 == 1:
            forced.append((x, -1))
        elif m % 2 == 1:
            forced.append((x, 1))
        else:
            free.append(x)
    return [EpsilonMap(tuple(forced) + tuple(zip(free, values)))
            for values in product((0, 1), repeat=len(free))]


def reference_distinguished_eps(G, beta):
    # GL readers (regular_jordan_blocks, richardson_jordan_blocks) took the
    # canonical eps; the old distinguished_eps was never read on GL
    if G.family is Family.GL:
        return reference_canonical_eps(G, beta)
    entries = []
    for x in beta.values():
        if not G.p2:
            entries.append((x, G.delta if x % 2 == 0 else -G.delta))
        else:
            entries.append((x, 1 if x % 2 == 0 else -1))
    return EpsilonMap(tuple(entries))


def reference_minimal_levi(C):
    G = C.group
    if G.family is Family.GL:
        return C.lam, Partition(), EpsilonMap()
    alpha_parts, beta_parts = [], []
    for x, m in C.lam.multiplicities().items():
        if not G.p2:
            take = m % 2
        elif x == 1:
            take = m % 2
        elif x % 2 == 1:
            take = 0
        elif C.eps[x] == 1:
            take = 1 if m % 2 == 1 else 2
        else:
            take = 0
        beta_parts.extend([x] * take)
        alpha_parts.extend([x] * ((m - take) // 2))
    beta = Partition(tuple(beta_parts))
    return Partition(tuple(alpha_parts)), beta, reference_distinguished_eps(G, beta)


def reference_combine(alpha, beta, eps_beta, G):
    """combine for well-formed input of gl, sp or so."""
    if G.family is Family.GL:
        return ClassParam(G, alpha, reference_canonical_eps(G, alpha))
    lam = alpha.double() + beta
    if not G.p2:
        return ClassParam(G, lam, reference_canonical_eps(G, lam))
    entries = []
    for x in lam.values():
        if x % 2 == 1:
            entries.append((x, -1))
        else:
            entries.append((x, 1 if (beta.multiplicity(x) > 0 and eps_beta[x] == 1) else 0))
    return ClassParam(G, lam, EpsilonMap(tuple(entries)))


def reference_free_parts(G, lam):
    """The parts label --eps may set, as the CLI read them."""
    if G.p2 and G.family is not Family.GL:
        return sorted(x for x, m in lam.multiplicities().items() if x % 2 == 0 and m % 2 == 0)
    return []


# -- the three shape readings, as they were stated -----------------------------------


def reference_is_distinguished(G, lam, eps):
    """is_distinguished for a valid class."""
    if G.family is Family.GL:
        return len(lam) == 1
    mults = lam.multiplicities()
    if not G.p2:
        return all(m == 1 for m in mults.values())
    if mults.get(1, 0) > 1:
        return False
    return all(m <= 2 and eps[x] == 1 for x, m in mults.items() if x != 1)


def reference_shape_rejection(beta, G):
    """The message decompose's shape check raised, or None."""
    if G.family not in (Family.SP, Family.SO):
        return "decomposition requires a symplectic or special orthogonal group"
    mults = beta.multiplicities()
    if not G.p2:
        for x, m in mults.items():
            if m > 1:
                return f"part {x} has multiplicity {m}; distinct parts required in odd characteristic"
            want_odd = G.family is Family.SO
            if (x % 2 == 1) != want_odd:
                parity = "odd" if want_odd else "even"
                return f"part {x} is not {parity}, as the family requires"
        return None
    if G.family is Family.SP:
        for x, m in mults.items():
            if x % 2 == 1:
                return f"odd part {x} is not allowed in symplectic distinguished data"
            if m > 2:
                return f"part {x} has multiplicity {m} > 2"
        return None
    if mults.get(1, 0) > 1:
        return f"more than one part equal to 1 (multiplicity {mults[1]})"
    for x, m in mults.items():
        if x == 1:
            continue
        if x % 2 == 1:
            return f"odd part {x} greater than 1 is not allowed"
        if m > 2:
            return f"part {x} has multiplicity {m} > 2"
    if mults.get(1, 0) == 0 and len(beta) % 2 != 0:
        return "without a part equal to 1 the number of parts must be even"
    return None


def reference_in_richardson_image(G, lam):
    """in_richardson_image for gl, sp or so and |lam| = G.dim."""
    if G.family is Family.GL:
        return True
    mults = lam.multiplicities()
    if G.family is Family.SP:
        return all(x % 2 == 0 and m == 1 for x, m in mults.items())
    if not G.p2:
        return all(x % 2 == 1 and m == 1 for x, m in mults.items())
    if G.dim % 2 == 1:
        if mults.get(1, 0) != 1:
            return False
        if any(x % 2 != 0 or m > 2 for x, m in mults.items() if x != 1):
            return False
        return satisfies_difference_condition(lam)
    if len(lam) % 2 != 0:
        return False
    if any(x % 2 != 0 or m > 2 for x, m in mults.items()):
        return False
    return satisfies_difference_condition(lam)


# -- the sweeps --------------------------------------------------------------------------


def resolve_quietly(G, lam, eps_text):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        eps = cli._resolve_eps(G, lam, eps_text)
    return eps, err.getvalue()


def test_eps_readings_match_the_reference_to_dim_18():
    checked = 0
    for G in groups():
        for parts in iter_partitions(G.dim):
            lam = Partition(parts)
            assert first_eps(G, lam) == reference_canonical_eps(G, lam)
            assert distinguished_eps(G, lam) == reference_distinguished_eps(G, lam)
            assert sorted(_eps_choices(G, lam)) == sorted(reference_eps_choices(G, lam))
            if not _lambda_admissible(G, lam, lam.multiplicities()):
                # both readings refuse such blocks before looking at eps
                assert not is_valid_class(G, lam, first_eps(G, lam))
                continue
            values = lam.values()
            for choice in product((-1, 0, 1), repeat=len(values)):
                eps = EpsilonMap(tuple(zip(values, choice)))
                valid = is_valid_class(G, lam, eps)
                assert valid == reference_is_valid_class(G, lam, eps), (G, lam, eps)
                if not valid:
                    continue
                checked += 1
                assert is_distinguished(G, lam, eps) == reference_is_distinguished(G, lam, eps)
                eps_text = str(eps)
                assert resolve_quietly(G, lam, eps_text) == (eps, "")
                free = reference_free_parts(G, lam)
                note = f"note: eps defaulted to 0 on even parts of even multiplicity {free}\n"
                assert resolve_quietly(G, lam, None) == (
                    reference_canonical_eps(G, lam), note if free else ""
                )
                C = ClassParam(G, lam, eps)
                if G.family is Family.O:
                    with pytest.raises(InputError):
                        minimal_levi(C)
                    continue
                split = minimal_levi(C)
                assert split == reference_minimal_levi(C)
                assert combine(*split, G) == reference_combine(*split, G)
    assert checked > 6000


def test_shape_readings_match_the_reference_to_dim_18():
    for G in groups():
        for parts in iter_partitions(G.dim):
            beta = Partition(parts)
            try:
                decompose(beta, G)
                rejection = None
            except InputError as exc:
                rejection = str(exc)
            assert rejection == reference_shape_rejection(beta, G), (G, beta)
            if G.family is Family.O:
                with pytest.raises(InputError):
                    in_richardson_image(G, beta)
            else:
                assert in_richardson_image(G, beta) == reference_in_richardson_image(G, beta)


# -- the product rules, as each validate_for stated them --------------------------------


def reference_regular_validate(X, G):
    if G.family is Family.GL:
        if X.cl_parts:
            raise InputError("GL admits no classical factors")
        if X.gl_parts.total != G.dim:
            raise InputError("GL block sizes must sum to the dimension")
        return
    if G.family not in (Family.SP, Family.SO):
        raise InputError("regular-subgroup descriptors exist for gl, sp, and so")
    if 2 * X.gl_parts.total + sum(m for m, _ in X.cl_parts) != G.dim:
        raise InputError("factor dimensions do not fill the natural module")
    full_expected = G.p2 and G.family is Family.SO
    for m, full in X.cl_parts:
        if full != full_expected:
            kind = "full orthogonal" if full_expected else "connected"
            raise InputError(f"classical factors of {G.describe()} must be {kind}")
        if G.family is Family.SP and m % 2 != 0:
            raise InputError(f"symplectic factor dimension {m} must be even")
    if G.family is Family.SO and G.p2:
        odd_dims = sum(1 for m, _ in X.cl_parts if m % 2 == 1)
        if odd_dims != G.dim % 2:
            raise InputError(
                f"{odd_dims} odd-dimensional factors cannot embed in {G.describe()} at p=2"
            )
        if G.dim % 2 == 0 and len(X.cl_parts) % 2 != 0:
            raise InputError("an even-dimensional SO group needs an even number of factors")


def reference_parabolic_validate(P, G):
    if G.family is Family.GL:
        if P.parabolics:
            raise InputError("GL admits no classical parabolic factors")
        if P.gl_parts.total != G.dim:
            raise InputError("GL block sizes must sum to the dimension")
        return
    if G.family not in (Family.SP, Family.SO):
        raise InputError("parabolic products exist for gl, sp, and so")
    if len(P.parabolics) > 3:
        raise InputError("at most three classical parabolic factors are allowed")
    dims = sum(Q.group.dim for Q in P.parabolics)
    if 2 * P.gl_parts.total + dims != G.dim:
        raise InputError("factor dimensions do not fill the natural module")
    for Q in P.parabolics:
        if Q.group.family is not G.family or Q.group.char is not G.char:
            raise InputError(
                f"factor group {Q.group.describe()} does not match {G.describe()}"
            )
    if G.family is Family.SO and G.p2:
        odd_dims = sum(1 for Q in P.parabolics if Q.group.dim % 2 == 1)
        if odd_dims > 1:
            raise InputError(
                f"{odd_dims} odd-dimensional factors cannot embed in {G.describe()} at p=2"
            )


# -- the product sweeps -------------------------------------------------------------------


def accepts(validate, *args):
    try:
        validate(*args)
    except InputError:
        return False
    return True


def gl_splits(G):
    """(GL blocks, classical total) pairs that fill G, fall one short, or go one over."""
    scale = 1 if G.family is Family.GL else 2
    for a in range(G.dim // scale + 2):
        for total in range(max(G.dim - scale * a - 1, 0), G.dim - scale * a + 2):
            for alpha in iter_partitions(a):
                yield Partition(alpha), total


def flag_variants(dims):
    """All factors connected, all full, and either with one factor flipped."""
    for base in (False, True):
        yield tuple((m, base) for m in dims)
        for i in range(len(dims)):
            yield tuple((m, base != (j == i)) for j, m in enumerate(dims))


def enumerated(iterate, G, **kwargs):
    """The descriptors iterate yields for G, each once; none for O, which it refuses."""
    if G.family is Family.O:
        with pytest.raises(InputError):
            list(iterate(G, **kwargs))
        return set()
    items = list(iterate(G, **kwargs))
    assert len(set(items)) == len(items), G
    return set(items)


def test_regular_subgroup_rules_match_the_reference_to_dim_10():
    for G in groups(PRODUCT_MAX_DIM):
        accepted = set()
        for gl, total in gl_splits(G):
            for dims in iter_partitions(total):
                for cl_parts in flag_variants(dims):
                    X = RegularSubgroupDescriptor(gl, cl_parts)
                    ok = accepts(X.validate_for, G)
                    assert ok == accepts(reference_regular_validate, X, G), (G, X)
                    if ok:
                        accepted.add(X)
        assert enumerated(iter_regular_subgroups, G) == accepted, G


def _factor_pool():
    """Distinguished parabolics of every gl, sp and so group up to dim 10."""
    return {(S.family, S.char, S.dim): enumerate_distinguished_parabolics(S)
            for S in groups(PRODUCT_MAX_DIM) if S.family is not Family.O}


def parabolic_candidates(G, dims, pool):
    """Every product of distinguished parabolics of the given dims from G's
    family and characteristic, then each product with one factor taken from
    another group of its dim."""
    own = [pool.get((G.family, G.char, d), []) for d in dims]
    yield from product(*own)
    foreign = [[opts[0] for (family, char, n), opts in pool.items()
                if n == d and opts and (family, char) != (G.family, G.char)] for d in dims]
    first = [own[i][:1] or foreign[i][:1] for i in range(len(dims))]
    if all(first):
        for i in range(len(dims)):
            for Q in foreign[i]:
                yield tuple(Q if j == i else first[j][0] for j in range(len(dims)))


def test_parabolic_product_rules_match_the_reference_to_dim_10():
    pool = _factor_pool()
    for G in groups(PRODUCT_MAX_DIM):
        accepted = set()
        for gl, total in gl_splits(G):
            for dims in iter_partitions(total):
                if len(dims) > 4:
                    continue
                for combo in parabolic_candidates(G, dims, pool):
                    P = ParabolicProduct(gl, combo)
                    ok = accepts(P.validate_for, G)
                    assert ok == accepts(reference_parabolic_validate, P, G), (G, P)
                    if ok:
                        accepted.add(P)
        for k in (1, 2, 3):
            want = {P for P in accepted if len(P.parabolics) <= k}
            assert enumerated(iter_parabolic_products, G, max_factors=k) == want, (G, k)
