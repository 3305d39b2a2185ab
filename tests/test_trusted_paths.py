"""The library's trusted construction paths against the validating constructors.

Values the library derives itself (enumeration, minimal_levi, combine, the
partition algebra) skip the checks of the public constructors.  These tests
rebuild such values through the public constructors and require the same
fields, hash, order, repr, multiplicities, pickle round trip and
dataclasses.replace result, and for combine the same refusals, at dims
40-200, on every class up to dim 20, on every enumerated parabolic
descriptor of Sp and SO up to dim 64 and of GL up to dim 16, and on every
enumerated regular-subgroup descriptor up to dim 24.  The last tests keep
one trusted path per type (the builders for Partition, EpsilonMap,
ParabolicDescriptor and RegularSubgroupDescriptor, the keyword for
ClassParam), keep the checking
constructors of Partition and EpsilonMap out of the modules that derive
values, keep the trusted paths out of the oracle and the CLI, whose
independence rests on checking what they build, and keep the library's
shape and eps rules out of the oracle, which states its own.
"""

import ast
import dataclasses
import inspect
import pickle
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unipotent_atlas import classes, partitions
from unipotent_atlas.balacarter import RegularSubgroupDescriptor, analyse_all, iter_regular_subgroups
from unipotent_atlas.classes import (
    Char,
    ClassParam,
    EpsilonMap,
    Family,
    GroupSpec,
    combine,
    distinguished_eps,
    enumerate_classes,
    eps_options,
    minimal_levi,
)
from unipotent_atlas.errors import InputError
from unipotent_atlas.oracle import group_sweep
from unipotent_atlas.partitions import Partition, iter_partitions
from unipotent_atlas.richardson import ParabolicDescriptor, enumerate_distinguished_parabolics

MIN_DIM, MAX_DIM = 40, 200
SWEEP_MAX_DIM = 20
SRC = Path(inspect.getfile(partitions)).parent

#: The private keyword and helpers through which the library builds values unchecked.
TRUSTED_NAMES = {"_trusted", "_from_mults", "_count", "_trusted_eps", "_trusted_parabolic", "_trusted_regular"}

#: The checking constructors that the modules deriving values leave to outside input.
CHECKED_CONSTRUCTORS = {"Partition", "EpsilonMap"}

#: The modules that derive partitions and eps maps.
DERIVING_MODULES = ("classes", "decomp", "richardson", "balacarter")

#: The library's statements of the distinguished shape and the eps law.
SHAPE_RULE_NAMES = {"is_distinguished", "shape_violation", "eps_options"}


def assert_same_value(built, checked) -> None:
    """A value from a trusted path behaves as one from the validating
    constructor: equal, with the same hash, order, repr and fields (cached
    ones included), also after a pickle round trip and dataclasses.replace."""
    assert built == checked and hash(built) == hash(checked) and repr(built) == repr(checked)
    assert vars(built) == vars(checked)
    if type(built) is not ClassParam:  # the only one of the three with no order
        assert built <= checked and not built < checked and not checked < built
    for copy in (pickle.loads(pickle.dumps(built)), dataclasses.replace(built)):
        assert copy == checked and hash(copy) == hash(checked) and vars(copy) == vars(checked)


def sort_order(values: list) -> list[int]:
    """The indices of values in sorted order, ties by index."""
    return [i for _, i in sorted((v, i) for i, v in enumerate(values))]


def assert_same_partition(built: Partition, checked: Partition) -> None:
    assert_same_value(built, checked)
    assert list(built.multiplicities().items()) == list(checked.multiplicities().items())


def assert_same_class(built: ClassParam, checked: ClassParam) -> None:
    assert_same_value(built, checked)
    assert_same_partition(built.lam, checked.lam)
    assert_same_value(built.eps, checked.eps)


@st.composite
def combine_data(draw):
    """(G, alpha, beta, eps_beta) with MIN_DIM <= 2|alpha| + |beta| <= MAX_DIM;
    beta's shape and eps_beta are arbitrary, so the rules often forbid them."""
    family = draw(st.sampled_from([Family.GL, Family.SP, Family.SO]))
    char = draw(st.sampled_from(list(Char)))
    if family is Family.GL:
        beta = Partition()
    else:
        beta = Partition(tuple(draw(st.lists(st.integers(1, 12), max_size=8))))
        if family is Family.SP and beta.total % 2:
            beta = beta + Partition((1,))
    eps_beta = EpsilonMap(tuple((x, draw(st.sampled_from((-1, 0, 1)))) for x in beta.values()))
    copies = 1 if family is Family.GL else 2  # each part of alpha fills this many blocks
    remaining = draw(st.integers(
        max(0, -((beta.total - MIN_DIM) // copies)), (MAX_DIM - beta.total) // copies
    ))
    alpha = []
    while remaining:
        part = draw(st.integers(1, min(remaining, 30)))
        alpha.append(part)
        remaining -= part
    G = GroupSpec(family, copies * sum(alpha) + beta.total, char)
    return G, Partition(tuple(alpha)), beta, eps_beta


@settings(deadline=None, max_examples=300)
@given(combine_data())
def test_combine_refuses_exactly_what_the_validating_constructor_refuses(data):
    G, alpha, beta, eps_beta = data
    assert MIN_DIM <= G.dim <= MAX_DIM
    if G.family is Family.GL:
        lam, given_eps = alpha, {}
    else:
        lam, given_eps = Partition(alpha.parts * 2 + beta.parts), eps_beta.as_dict()
    eps = EpsilonMap(tuple(
        (x, given_eps[x] if x in given_eps else eps_options(G, x, m)[0])
        for x, m in lam.multiplicities().items()
    ))
    try:
        checked = ClassParam(G, lam, eps)
    except InputError as exc:
        with pytest.raises(InputError) as refused:
            combine(alpha, beta, eps_beta, G)
        assert str(refused.value) == str(exc)
        return
    assert_same_class(combine(alpha, beta, eps_beta, G), checked)


@settings(deadline=None, max_examples=300)
@given(st.lists(st.integers(1, 40), max_size=12), st.lists(st.integers(1, 40), max_size=12))
def test_partition_algebra_matches_the_validating_constructor(xs, ys):
    lam, mu = Partition(tuple(xs)), Partition(tuple(ys))
    assert_same_partition(lam.double(), Partition(tuple(xs) * 2))
    assert_same_partition(lam + mu, Partition(tuple(xs + ys)))
    cols = tuple(sum(1 for x in xs if x > i) for i in range(max(xs, default=0)))
    assert_same_partition(lam.dual(), Partition(cols))


def test_enumerated_classes_and_their_minimal_levis_match_the_validating_constructors():
    o_groups = [GroupSpec(Family.O, n, char) for n in range(1, SWEEP_MAX_DIM + 1) for char in Char]
    for G in group_sweep(SWEEP_MAX_DIM) + o_groups:
        built = enumerate_classes(G)
        checked = [ClassParam(G, Partition(C.lam.parts), EpsilonMap(C.eps.items), C.split_tag) for C in built]
        for field in ("lam", "eps"):  # the trusted values sort as the checked ones do
            assert sort_order([getattr(C, field) for C in built]) == sort_order([getattr(C, field) for C in checked])
        for C, checked_C in zip(built, checked):
            assert_same_class(C, checked_C)
            assert_same_partition(C.lam.dual(), Partition(C.lam.dual().parts))
            if G.family is Family.O:
                continue
            alpha, beta, eps_beta = minimal_levi(C)
            assert_same_partition(alpha, Partition(alpha.parts))
            assert_same_partition(beta, Partition(beta.parts))
            assert_same_value(eps_beta, EpsilonMap(eps_beta.items))
            assert_same_value(distinguished_eps(G, beta), EpsilonMap(eps_beta.items))
            untagged = ClassParam(G, Partition(C.lam.parts), EpsilonMap(C.eps.items))
            assert_same_class(combine(alpha, beta, eps_beta, G), untagged)


def test_enumerated_parabolics_match_the_validating_constructor():
    # every Sp and SO group to dim 64 and GL to dim 16, beside the order
    # comparison with the reference enumeration in test_richardson.py
    groups = [G for G in group_sweep(64) if G.family is not Family.GL or G.dim <= 16]
    total = 0
    for G in groups:
        for P in enumerate_distinguished_parabolics(G):
            assert_same_value(P, ParabolicDescriptor(G, P.c, P.m0))
            total += 1
    assert total > 10_000


def test_regular_subgroup_descriptors_match_the_validating_constructor():
    # every descriptor iter_regular_subgroups yields on every group to dim 24,
    # and phi1 of every class to SWEEP_MAX_DIM; the checked one gets its
    # factors reversed, so its constructor's sort is exercised
    total = 0
    for G in group_sweep(24):
        for X in iter_regular_subgroups(G):
            assert_same_value(X, RegularSubgroupDescriptor(Partition(X.gl_parts.parts), X.cl_parts[::-1]))
            total += 1
    assert total > 50_000
    for G in group_sweep(SWEEP_MAX_DIM):
        for a in analyse_all(enumerate_classes(G)):
            X = a.phi1()
            assert_same_value(X, RegularSubgroupDescriptor(Partition(X.gl_parts.parts), X.cl_parts[::-1]))


def test_partitions_counted_from_canonical_parts_match_the_validating_constructor():
    # richardson_jordan_blocks, regular_jordan_blocks, the GL blocks of the subgroup
    # products and the scan's ones/zeros count their canonical parts this way,
    # as the reference scan in test_enumeration_reference.py does;
    # enumerate_classes builds its lams from generated multiplicities, and the
    # test above compares those
    for n in range(SWEEP_MAX_DIM + 1):
        for parts in iter_partitions(n):
            assert_same_partition(partitions._from_mults(partitions._count(parts)), Partition(parts))


def test_multiplicities_hands_out_a_copy():
    lam = Partition((4, 4, 2)).double()
    mults = lam.multiplicities()
    mults[4] = 7
    mults[9] = 1
    assert lam.multiplicities() == {4: 4, 2: 2}
    assert lam.values() == (4, 2) and lam.multiplicity(4) == 4 and str(lam) == "4^4,2^2"


def test_replace_goes_through_the_checks():
    lam = Partition((4, 4, 2)).double()
    assert_same_partition(dataclasses.replace(lam, parts=(2, 5)), Partition((5, 2)))
    with pytest.raises(InputError):
        dataclasses.replace(lam, parts=(2.5,))
    eps = distinguished_eps(GroupSpec(Family.SO, 8, Char.TWO), Partition((4, 4)))
    with pytest.raises(InputError):
        dataclasses.replace(eps, items=((4, 0.5),))
    C = enumerate_classes(GroupSpec(Family.SO, 8, Char.TWO))[0]
    with pytest.raises(InputError):
        dataclasses.replace(C, split_tag="III")


def _names_used(module: str, names: set[str] = TRUSTED_NAMES) -> list[str]:
    tree = ast.parse((SRC / f"{module}.py").read_text())
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.keyword) and node.arg in names:
            uses.append(f"{module}.py:{node.value.lineno}: keyword {node.arg}")
        elif isinstance(node, ast.Name) and node.id in names:
            uses.append(f"{module}.py:{node.lineno}: {node.id}")
        elif isinstance(node, ast.Attribute) and node.attr in names:
            uses.append(f"{module}.py:{node.lineno}: .{node.attr}")
        elif isinstance(node, ast.alias) and node.name in names:
            uses.append(f"{module}.py: imports {node.name}")
    return uses


def _constructor_calls(module: str) -> list[str]:
    tree = ast.parse((SRC / f"{module}.py").read_text())
    return [f"{module}.py:{node.lineno}: {node.func.id}(...)" for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in CHECKED_CONSTRUCTORS]


def test_oracle_and_cli_build_only_through_the_validating_constructors():
    # one trusted path per type: Partition, EpsilonMap, ParabolicDescriptor and
    # RegularSubgroupDescriptor have only their builders, ClassParam only its keyword
    assert "_mults" not in inspect.signature(Partition).parameters
    assert "_trusted" not in inspect.signature(EpsilonMap).parameters
    assert "_trusted" not in inspect.signature(ParabolicDescriptor).parameters
    assert "_trusted" not in inspect.signature(RegularSubgroupDescriptor).parameters
    assert "_trusted" in inspect.signature(ClassParam).parameters
    # the names are the library's real trusted paths, so the guard is not vacuous
    assert _names_used("classes") and _names_used("partitions") and _names_used("richardson")
    assert _names_used("oracle") == []
    assert _names_used("cli") == []


def test_derived_partitions_and_eps_maps_skip_the_checking_constructors():
    # the oracle checks what it builds, so the walk finds its calls: not vacuous
    assert _constructor_calls("oracle")
    assert [call for module in DERIVING_MODULES for call in _constructor_calls(module)] == []


def test_oracle_states_the_shape_rules_itself():
    # the names are the library's real rule functions, so the guard is not vacuous
    assert {name for name in SHAPE_RULE_NAMES if hasattr(classes, name)} == SHAPE_RULE_NAMES
    assert _names_used("classes", SHAPE_RULE_NAMES)
    assert _names_used("oracle", SHAPE_RULE_NAMES) == []
