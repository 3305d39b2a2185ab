"""The library's trusted construction paths against the validating constructors.

Values the library derives itself (enumeration, minimal_levi, combine, the
partition algebra) skip the checks of the public constructors.  These tests
rebuild such values through the public constructors and require the same
fields, hash and multiplicities, and for combine the same refusals, at dims
40-200 and on every class up to dim 20.  The last tests keep the trusted
paths out of the oracle and the CLI, whose independence rests on checking
what they build, and the library's shape and eps rules out of the oracle,
which states its own.
"""

import ast
import dataclasses
import inspect
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unipotent_atlas import classes, partitions
from unipotent_atlas.classes import (
    Char,
    ClassParam,
    EpsilonMap,
    Family,
    GroupSpec,
    canonical_eps,
    combine,
    distinguished_eps,
    enumerate_classes,
    eps_options,
    minimal_levi,
)
from unipotent_atlas.errors import InputError
from unipotent_atlas.oracle import group_sweep
from unipotent_atlas.partitions import Partition, iter_partitions

MIN_DIM, MAX_DIM = 40, 200
SWEEP_MAX_DIM = 20
SRC = Path(inspect.getfile(partitions)).parent

#: The private keywords and helpers through which the library builds values unchecked.
TRUSTED_NAMES = {"_mults", "_trusted", "_from_mults", "_count"}

#: The library's statements of the distinguished shape and the eps law.
SHAPE_RULE_NAMES = {"is_distinguished", "shape_violation", "eps_options"}


def assert_same_partition(built: Partition, checked: Partition) -> None:
    assert built == checked and hash(built) == hash(checked)
    assert list(built.multiplicities().items()) == list(checked.multiplicities().items())


def assert_same_class(built: ClassParam, checked: ClassParam) -> None:
    assert built == checked and hash(built) == hash(checked)
    assert_same_partition(built.lam, checked.lam)
    assert built.eps.items == checked.eps.items


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
        for C in enumerate_classes(G):
            checked = ClassParam(G, Partition(C.lam.parts), EpsilonMap(C.eps.items), C.split_tag)
            assert_same_class(C, checked)
            assert canonical_eps(G, C.lam) == EpsilonMap(canonical_eps(G, C.lam).items)
            if G.family is Family.O:
                continue
            alpha, beta, eps_beta = minimal_levi(C)
            assert_same_partition(alpha, Partition(alpha.parts))
            assert_same_partition(beta, Partition(beta.parts))
            assert eps_beta == EpsilonMap(eps_beta.items) == distinguished_eps(G, beta)
            untagged = ClassParam(G, Partition(C.lam.parts), EpsilonMap(C.eps.items))
            assert_same_class(combine(alpha, beta, eps_beta, G), untagged)


def test_partitions_counted_from_canonical_parts_match_the_validating_constructor():
    # _richardson_blocks counts its canonical parts this way, as the reference
    # scan in test_enumeration_reference.py does; enumerate_classes builds its
    # lams from generated multiplicities, and the test above compares those
    for n in range(SWEEP_MAX_DIM + 1):
        for parts in iter_partitions(n):
            assert_same_partition(Partition(parts, _mults=partitions._count(parts)), Partition(parts))


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


def test_oracle_and_cli_build_only_through_the_validating_constructors():
    # the names are the library's real trusted paths, so the guard is not vacuous
    assert "_mults" in inspect.signature(Partition).parameters
    assert "_trusted" in inspect.signature(EpsilonMap).parameters
    assert "_trusted" in inspect.signature(ClassParam).parameters
    assert _names_used("classes") and _names_used("partitions")
    assert _names_used("oracle") == []
    assert _names_used("cli") == []


def test_oracle_states_the_shape_rules_itself():
    # the names are the library's real rule functions, so the guard is not vacuous
    assert {name for name in SHAPE_RULE_NAMES if hasattr(classes, name)} == SHAPE_RULE_NAMES
    assert _names_used("classes", SHAPE_RULE_NAMES)
    assert _names_used("oracle", SHAPE_RULE_NAMES) == []
