"""Self-time arithmetic and installing the tracer on the library."""

import pytest

import tracer as tracing


def _self(spans):
    names = [s[0] for s in spans]
    parents = [s[1] for s in spans]
    starts = [s[2] for s in spans]
    ends = [s[3] for s in spans]
    return dict(zip(names, tracing.self_times(names, parents, starts, ends)))


def test_self_time_with_back_to_back_children():
    got = _self([("root", -1, 0, 100), ("a", 0, 10, 30), ("b", 0, 30, 60)])
    assert got == {"root": 50, "a": 20, "b": 30}


def test_self_time_with_nested_children():
    # a grandchild is covered by its parent, so the root loses only the child
    got = _self([("root", -1, 0, 100), ("child", 0, 10, 70), ("grand", 1, 20, 50)])
    assert got == {"root": 40, "child": 30, "grand": 30}


def test_self_time_merges_overlapping_and_clips_children():
    got = _self([("root", -1, 0, 100), ("a", 0, 10, 40), ("b", 0, 30, 60), ("c", 0, 90, 130)])
    assert got["root"] == 100 - 50 - 10


def test_recorded_spans_have_parents_and_operations():
    clock = iter(range(0, 1000, 10))
    t = tracing.Tracer(clock=lambda: next(clock))

    def leaf():
        return 1

    wrapped_leaf = t.wrap("leaf", leaf)

    def outer():
        return wrapped_leaf() + wrapped_leaf()

    assert t.operation("op", t.wrap("outer", outer)) == 2
    assert t.names == ["op", "outer", "leaf", "leaf"]
    assert t.parents == [-1, 0, 1, 1]
    assert t.ops == [1, 1, 1, 1]
    summary = t.layer_summary()
    assert summary["leaf"]["calls"] == 2
    assert summary["outer"]["self_s"] == pytest.approx(((60 - 10) - 20) / 1e9)
    assert t.calls_within("leaf", "outer") == 2


def test_generator_segments_are_spans_of_one_call():
    clock = iter(range(0, 1000, 5))
    t = tracing.Tracer(clock=lambda: next(clock))

    def gen(n):
        yield from range(n)

    assert list(t.operation("op", lambda: list(t.wrap("gen", gen)(3)))) == [0, 1, 2]
    assert t.calls["gen"] == 1
    assert t.names.count("gen") == 4  # three items and the final StopIteration


def test_install_rebinds_every_namespace_and_uninstall_restores():
    from unipotent_atlas import balacarter, classes, oracle
    import unipotent_atlas

    original = classes.minimal_levi
    t = tracing.Tracer()
    missing = tracing.install_all(
        t, [("classes", "minimal_levi"), ("classes", "no_such_function")],
        [("classes", "ClassParam")],
    )
    try:
        assert missing == ["classes.no_such_function"]
        for namespace in (classes, balacarter, oracle, unipotent_atlas):
            assert namespace.minimal_levi is not original
        C = classes.enumerate_classes(classes.GroupSpec(classes.Family.SO, 8))[-1]
        balacarter.phi1(C)
        assert t.calls["classes.minimal_levi"] == 1
        assert t.constructed["classes.ClassParam"] > 0
    finally:
        t.uninstall()
    for namespace in (classes, balacarter, oracle, unipotent_atlas):
        assert namespace.minimal_levi is original
    assert "__post_init__" in vars(classes.ClassParam)
