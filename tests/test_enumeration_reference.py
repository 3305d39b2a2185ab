"""Class enumeration against the scan it replaced.

enumerate_classes generates the admissible block shapes of G directly, from
the family's parity rule.  reference_enumerate_classes is the earlier body:
it read every partition of G.dim, kept those _lambda_admissible accepts and
expanded each through _eps_choices.  The sweep requires the same classes in
the same order, with equal blocks, multiplicities, eps items and split tags,
on every group of group_sweep(24) and on O at dims 8, 23 and 24 in both
characteristics.
"""

from unipotent_atlas import classes, partitions
from unipotent_atlas.classes import (
    Char,
    ClassParam,
    Family,
    GroupSpec,
    _eps_choices,
    _lambda_admissible,
    enumerate_classes,
    splits_in_so,
)
from unipotent_atlas.oracle import group_sweep
from unipotent_atlas.partitions import _count, _from_mults, iter_partitions

SWEEP_MAX_DIM = 24
O_DIMS = (8, 23, 24)


def reference_enumerate_classes(G):
    out = []
    for parts in iter_partitions(G.dim):
        lam = _from_mults(_count(parts))
        if not _lambda_admissible(G, lam, lam.multiplicities()):
            continue
        for eps in _eps_choices(G, lam):
            if G.family is Family.SO and splits_in_so(lam, eps):
                out.append(ClassParam(G, lam, eps, "I", _trusted=True))
                out.append(ClassParam(G, lam, eps, "II", _trusted=True))
            else:
                out.append(ClassParam(G, lam, eps, _trusted=True))
    return out


def reading(C):
    """Everything a caller can read of an enumerated class."""
    return C.group, C.lam.parts, list(C.lam.multiplicities().items()), C.eps.items, C.split_tag


def test_enumeration_matches_the_partition_scan_class_by_class():
    groups = group_sweep(SWEEP_MAX_DIM) + [GroupSpec(Family.O, n, char) for n in O_DIMS for char in Char]
    total = 0
    for G in groups:
        got = list(map(reading, enumerate_classes(G)))
        assert got == list(map(reading, reference_enumerate_classes(G))), G.describe()
        total += len(got)
    assert total > 17_000  # the sweep reads every class it names


def test_enumeration_neither_scans_partitions_nor_checks_them(monkeypatch):
    # the generator yields admissible shapes only: the admissibility check a
    # scan calls once per partition is never reached, and no partition is read
    def refuse(*args):
        raise AssertionError("enumerate_classes checked a partition")

    def no_scan(*args):
        raise AssertionError("enumerate_classes read the partitions")

    monkeypatch.setattr(classes, "_lambda_admissible", refuse)
    monkeypatch.setattr(partitions, "_partitions", no_scan)
    assert len(enumerate_classes(GroupSpec(Family.SO, 30, Char.TWO))) == 1_256
