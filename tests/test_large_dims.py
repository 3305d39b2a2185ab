"""Property tests past desk scale, at dims 40-200: classes are built from
GL blocks alpha and a distinguished remainder beta, with no enumeration.
phi2 round-trips through psi2, and each label's tokens map back to the
Richardson pieces of beta, at every rank the draw reaches.  At dims 40-400,
Richardson image membership, read off the closed-form inverse, agrees with
the shape rule on shapes drawn near the image.  The closed extra-class count
is pinned at dim 60."""

import re
from collections import Counter

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from unipotent_atlas.balacarter import analyse, label, phi2, psi2
from unipotent_atlas.classes import (
    Char,
    EpsilonMap,
    Family,
    GroupSpec,
    combine,
    distinguished_eps,
    eps_options,
    minimal_levi,
    shape_violation,
)
from unipotent_atlas.errors import InputError
from unipotent_atlas.oracle import _closed_extra_count
from unipotent_atlas.partitions import Partition
from unipotent_atlas.decomp import decompose
from unipotent_atlas.richardson import (
    ParabolicDescriptor,
    _from_exponents,
    in_richardson_image,
    parabolic_from_blocks,
    richardson_blocks,
)
from test_rule_equivalence import reference_in_richardson_image

MIN_DIM, MAX_DIM = 40, 200
#: A distinguished class of SO200 at p=2 that is one Richardson piece of rank 100.
SO200_PIECE = (GroupSpec(Family.SO, 200, Char.TWO), Partition(), Partition((40, 36, 30, 26, 20, 16, 12, 10, 6, 4)))


@st.composite
def distinguished_shapes(draw, family, char):
    """Block shapes of distinguished classes: distinct parts of the family's
    parity in odd characteristic; at p=2 even parts of multiplicity <= 2,
    plus for SO at most one part 1, which must be there when the even parts
    are oddly many."""
    values = draw(st.lists(st.integers(1, 10), max_size=6))
    if char is Char.GOOD:
        odd = family is Family.SO
        return Partition(tuple(2 * v - 1 if odd else 2 * v for v in set(values)))
    parts = []
    for v, m in Counter(values).items():
        parts.extend([2 * v] * min(m, 2))
    if family is Family.SO and (draw(st.booleans()) or len(parts) % 2):
        parts.append(1)
    return Partition(tuple(parts))


@st.composite
def levi_data(draw, min_dim=MIN_DIM, max_dim=MAX_DIM):
    """(G, alpha, beta) with G of Sp or SO and min_dim <= 2|alpha| + |beta| <= max_dim."""
    family = draw(st.sampled_from([Family.SP, Family.SO]))
    char = draw(st.sampled_from(list(Char)))
    beta = draw(distinguished_shapes(family, char))
    assume(beta.total <= max_dim)
    remaining = draw(st.integers(max(0, (min_dim - beta.total + 1) // 2),
                                 (max_dim - beta.total) // 2))
    alpha = []
    while remaining:
        part = draw(st.integers(1, min(remaining, 30)))
        alpha.append(part)
        remaining -= part
    alpha = Partition(tuple(alpha))
    return GroupSpec(family, 2 * alpha.total + beta.total, char), alpha, beta


@settings(deadline=None)
@given(levi_data())
def test_minimal_levi_recovers_the_levi_data(data):
    G, alpha, beta = data
    assert MIN_DIM <= G.dim <= MAX_DIM
    eps_beta = distinguished_eps(G, beta)
    C = combine(alpha, beta, eps_beta, G)
    assert minimal_levi(C) == (alpha, beta, eps_beta)
    assert shape_violation(G, minimal_levi(C)[1]) is None
    for piece in analyse(C).pieces:
        assert in_richardson_image(G.classical_factor(piece.total), piece)


@settings(deadline=None)
@given(levi_data(), st.data())
def test_combine_refuses_an_eps_beta_the_law_forbids(data, draws):
    G, alpha, beta = data
    assume(beta)
    x = draws.draw(st.sampled_from(beta.values()))
    m = (alpha.double() + beta).multiplicity(x)
    bad = draws.draw(st.sampled_from([v for v in (-1, 0, 1) if v not in eps_options(G, x, m)]))
    eps_beta = EpsilonMap(tuple({**distinguished_eps(G, beta).as_dict(), x: bad}.items()))
    with pytest.raises(InputError, match="not a valid class"):
        combine(alpha, beta, eps_beta, G)


@settings(deadline=None)
@given(levi_data())
@example(SO200_PIECE)
def test_phi2_round_trips_through_psi2(data):
    G, alpha, beta = data
    C = combine(alpha, beta, distinguished_eps(G, beta), G)
    image = phi2(C)
    assert psi2(image, G).data_key() == C.data_key()
    for P in image.parabolics:
        assert P == ParabolicDescriptor(P.group, P.c, P.m0)


#: A label's token of a Richardson piece: type letter, rank, then the marked
#: diagram, a count of rank-1 Levi factors, or nothing.
TOKEN = re.compile(r"([BCD])(\d+)(?:\[([^\]]*)\]|\(a\d+\))?")


def _parabolic_of_diagram(H: GroupSpec, diagram: str) -> ParabolicDescriptor:
    """The descriptor of H that balacarter.diagram_string renders as diagram."""
    chunks = diagram.split()
    sizes = [len(chunk) for chunk in chunks if chunk.startswith("x")]
    m0 = chunks.count("o") + 2 * chunks.count("(o,o)")
    return ParabolicDescriptor(H, tuple(sizes.count(i) for i in range(1, max(sizes, default=0) + 1)), m0)


@settings(deadline=None)
@given(levi_data())
@example(SO200_PIECE)
def test_label_tokens_map_back_to_the_richardson_pieces(data):
    G, alpha, beta = data
    text = label(combine(alpha, beta, distinguished_eps(G, beta), G))
    gl_tokens = "".join(f"A{p - 1}" for p in alpha.parts if p >= 2)
    assert text.startswith(gl_tokens) or text == "0"
    rest = text[len(gl_tokens):].removeprefix("0")  # "0": no token at all
    pieces = [piece for piece in decompose(beta, G).nonzero_pieces() if piece.total // 2]
    tokens = TOKEN.findall(rest)
    assert "".join(m.group(0) for m in TOKEN.finditer(rest)) == rest
    assert sorted(int(rank) for _, rank, _ in tokens) == sorted(piece.total // 2 for piece in pieces)
    for letter, rank, diagram in tokens:
        if diagram:
            H = G.classical_factor(2 * int(rank) + (letter == "B"))
            assert Partition(richardson_blocks(_parabolic_of_diagram(H, diagram))) in pieces


#: The dims of the shapes drawn near the Richardson image.
NEAR_MIN_DIM, NEAR_MAX_DIM = 40, 400


@st.composite
def near_image_shapes(draw):
    """(G, lam) with G of Sp or SO and NEAR_MIN_DIM <= |lam| = G.dim <=
    NEAR_MAX_DIM, lam made of distinct parts of one parity, or of even parts
    each at most twice with an optional part 1; Sp only for an even total."""
    values = draw(st.lists(st.integers(1, 60), min_size=2, max_size=12))
    if draw(st.booleans()):
        odd = draw(st.booleans())
        parts = [2 * v - odd for v in set(values)]
    else:
        parts = [2 * v for v, m in Counter(values).items() for _ in range(min(m, 2))]
        parts += [1] * draw(st.booleans())
    lam = Partition(tuple(sorted(parts, reverse=True)))
    assume(NEAR_MIN_DIM <= lam.total <= NEAR_MAX_DIM)
    family = draw(st.sampled_from([Family.SP, Family.SO])) if lam.total % 2 == 0 else Family.SO
    return GroupSpec(family, lam.total, draw(st.sampled_from(list(Char)))), lam


@pytest.fixture
def inverse_memo_cleared():
    """Empties the closed form's memo once the test is done with it."""
    yield
    _from_exponents.cache_clear()


@settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(near_image_shapes())
@example((SO200_PIECE[0], SO200_PIECE[2]))
def test_image_membership_agrees_with_the_shape_rule_past_rank_32(inverse_memo_cleared, data):
    G, lam = data
    member = in_richardson_image(G, lam)
    assert member == reference_in_richardson_image(G, lam)
    if member:
        assert richardson_blocks(parabolic_from_blocks(G, lam)) == lam.parts


@pytest.mark.parametrize("family, extra", [(Family.SO, 48_165), (Family.SP, 141_685)])
def test_closed_extra_count_at_dim_60(family, extra):
    # regression pins at p=2, past enumeration; the extra-counts claim checks
    # the same count against the enumerated classes of every swept group
    assert _closed_extra_count(GroupSpec(family, 60, Char.TWO)) == extra
