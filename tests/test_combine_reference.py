"""The one-pass class builders against the bodies they replaced.

combine, psi1 and psi2 build a class in one pass over the multiplicities of
the GL blocks and the classical blocks, and minimal_levi splits one in one
pass over the class's multiplicities and eps.  The reference_* functions
below are the earlier bodies, which built validated partitions, merged them
and read the eps law part by part.  The sweeps require equal blocks,
multiplicities, eps items and refusal text: every descriptor of
group_sweep(14) applied to its own group and to groups it does not fit, and
the minimal-Levi split of every class of group_sweep(20), combined back in
its own group, in groups it does not fit, and with eps values the law may
forbid.
"""

from unipotent_atlas.balacarter import (
    iter_parabolic_products,
    iter_regular_subgroups,
    psi1,
    psi2,
)
from unipotent_atlas.classes import (
    Char,
    ClassParam,
    EpsilonMap,
    Family,
    GroupSpec,
    _lambda_admissible,
    _trusted_eps,
    combine,
    distinguished_eps,
    enumerate_classes,
    eps_options,
    minimal_levi,
)
from unipotent_atlas.errors import InputError
from unipotent_atlas.oracle import group_sweep
from unipotent_atlas.partitions import Partition, _from_mults
from unipotent_atlas.richardson import regular_blocks, richardson_jordan_blocks

PRODUCT_MAX_DIM = 14
SPLIT_MAX_DIM = 20


# -- the bodies as they were ------------------------------------------------------


def reference_combine(alpha, beta, eps_beta, G):
    if G.family is Family.O:
        raise InputError("combine requires gl, sp, or so")
    if G.family is Family.GL:
        if beta:
            raise InputError("GL classes have no classical factor")
        if alpha.total != G.dim:
            raise InputError(f"GL blocks of {alpha.total} do not fill dimension {G.dim}")
        eps = EpsilonMap(tuple((x, eps_options(G, x, m)[0]) for x, m in alpha.multiplicities().items()))
        return ClassParam(G, alpha, eps, _trusted=True)
    if 2 * alpha.total + beta.total != G.dim:
        raise InputError(f"2*{alpha.total} + {beta.total} does not match dimension {G.dim}")
    beta_mults = beta.multiplicities()
    given = eps_beta.as_dict()
    if given.keys() != beta_mults.keys():
        raise InputError("eps_beta domain does not match beta's part values")
    lam = alpha.double() + beta
    eps = _trusted_eps(tuple(
        (x, given[x] if x in given else eps_options(G, x, m)[0])
        for x, m in lam.multiplicities().items()
    ))
    if not _lambda_admissible(G, beta, beta_mults) or any(
            given[x] not in eps_options(G, x, m) for x, m in beta_mults.items()):
        raise InputError(f"({lam}, {eps}) is not a valid class of {G.describe()}")
    return ClassParam(G, lam, eps, _trusted=True)


def reference_psi1(X, G):
    X.validate_for(G)
    parts = []
    for m, full in X.cl_parts:
        family = Family.O if full else G.family
        parts.extend(regular_blocks(family, m, G.p2, nonidentity=full and m % 2 == 0))
    classical = Partition(tuple(parts))
    return reference_combine(X.gl_parts, classical, distinguished_eps(G, classical), G)


def reference_psi2(P, G):
    P.validate_for(G)
    classical = Partition()
    for desc in P.parabolics:
        blocks, _ = richardson_jordan_blocks(desc)
        classical = classical + blocks
    return reference_combine(P.gl_parts, classical, distinguished_eps(G, classical), G)


def reference_minimal_levi(C):
    G = C.group
    if G.family is Family.O:
        raise InputError("minimal Levi extraction requires gl, sp, or so")
    if G.family is Family.GL:
        return C.lam, Partition(), EpsilonMap()
    split = {}
    for x, m in C.lam.multiplicities().items():
        take = 2 if len(eps_options(G, x, m)) == 2 and C.eps[x] == 1 else m % 2
        split[x] = ((m - take) // 2, take)
    beta = _from_mults({x: b for x, (_, b) in split.items() if b})
    return _from_mults({x: a for x, (a, _) in split.items() if a}), beta, distinguished_eps(G, beta)


# -- the comparison ----------------------------------------------------------------


def reading(value):
    """Everything a caller can read of a class, a partition (its parts and
    its multiplicities in order), an eps map, or a tuple of them."""
    if isinstance(value, ClassParam):
        return value.group, reading(value.lam), value.eps.items, value.split_tag
    if isinstance(value, Partition):
        return value.parts, list(value.multiplicities().items())
    if isinstance(value, EpsilonMap):
        return value.items
    return tuple(map(reading, value))


def outcome(build, *args):
    """The reading of build(*args), or its refusal text."""
    try:
        return reading(build(*args))
    except InputError as exc:
        return "refused", str(exc)


def wrong_groups(G):
    """Groups a descriptor or split of G does not fit, or fits by accident:
    the other family and characteristic regimes of G's dimension, O, and
    G's family two dimensions up."""
    others = [H for H in group_sweep(G.dim + 2) if H.dim == G.dim and H != G]
    return others + [GroupSpec(Family.O, G.dim, G.char), GroupSpec(G.family, G.dim + 2, G.char)]


def test_psi1_and_psi2_match_the_reference_on_every_descriptor_to_dim_14():
    refused = accepted = 0
    for G in group_sweep(PRODUCT_MAX_DIM):
        for psi, reference, descriptors in ((psi1, reference_psi1, iter_regular_subgroups(G)),
                                            (psi2, reference_psi2, iter_parabolic_products(G))):
            for X in descriptors:
                for H in [G, *wrong_groups(G)]:
                    got = outcome(psi, X, H)
                    assert got == outcome(reference, X, H), (X, H)
                    refused += got[0] == "refused"
                    accepted += got[0] != "refused"
    assert refused > 20_000 and accepted > 7_000  # both branches are swept


#: A phrase of each of combine's refusals.
REFUSALS = ("requires gl", "no classical factor", "do not fill", "does not match dimension",
            "domain does not match", "is not a valid class")


def test_minimal_levi_and_combine_match_the_reference_on_every_class_to_dim_20():
    checked, refusals = 0, set()
    for G in group_sweep(SPLIT_MAX_DIM):
        for C in enumerate_classes(G):
            assert outcome(minimal_levi, C) == outcome(reference_minimal_levi, C)
            alpha, beta, eps_beta = minimal_levi(C)
            tampered = [EpsilonMap(tuple((x, value if i == 0 else v)  # beta's first value replaced
                                         for i, (x, v) in enumerate(eps_beta.items)))
                        for value in (-1, 0, 1)]
            cases = [(eps_beta, H) for H in [G, *wrong_groups(G)]]
            cases += [(eps, G) for eps in tampered + [EpsilonMap()]]
            for eps, H in cases:
                got = outcome(combine, alpha, beta, eps, H)
                assert got == outcome(reference_combine, alpha, beta, eps, H), (C, eps, H)
                if got[0] == "refused":
                    refusals |= {rule for rule in REFUSALS if rule in got[1]}
            checked += 1
    assert checked == 6170
    assert refusals == set(REFUSALS)  # the sweep meets every refusal combine makes


def test_minimal_levi_splits_a_class_of_o_or_gl_as_before():
    for G in (GroupSpec(Family.O, 8, Char.TWO), GroupSpec(Family.GL, 5, Char.GOOD)):
        for C in enumerate_classes(G):
            assert outcome(minimal_levi, C) == outcome(reference_minimal_levi, C)
