"""Argv fuzzing of the single-class and table commands: whatever the text, the
CLI answers (exit 0) or refuses (exit 2); it never crashes.

Dimensions stay at most 24 and classes never gets --max-dim, which only it
and verify take, so every accepted command is cheap; partition text may carry
huge caret exponents, which the parser must refuse before it builds any parts.
richardson gets --levi, --blocks, both or neither, and answers only the first two.
"""

import contextlib
import io

from hypothesis import given, settings
from hypothesis import strategies as st

from unipotent_atlas.cli import main

numbers = st.one_of(st.integers(-1, 12), st.integers(0, 10**30)).map(str)
chunks = st.one_of(
    numbers,
    st.builds("{}^{}".format, numbers, numbers),
    st.text("0123456789^,:; -x", max_size=6),
)
partition_text = st.lists(chunks, max_size=6).map(",".join)
# small parts whose total is the group's dim, so that whole commands succeed
small_parts = st.lists(st.integers(1, 8), min_size=1, max_size=6).filter(lambda ps: sum(ps) <= 24)
eps_text = st.one_of(
    st.lists(st.builds("{}:{}".format, numbers, st.sampled_from(["-1", "0", "1", "2", "x"])),
             max_size=4).map(",".join),
    st.text("0123456789:,- x", max_size=8),
)
dims = st.one_of(st.integers(1, 24).map(str), st.integers(-2, 24).map(str),
                 st.text("0123456789-+. x", max_size=3))
groups = st.sampled_from(["gl", "sp", "so", "so", "o", "x"])
chars = st.sampled_from(["2", "2", "odd", "3"])


def group_args(dim=dims):
    return st.builds(lambda g, d, c: ["--group", g, "--dim", d, "--char", c], groups, dim, chars)


def with_blocks(command, flags):
    """command with group flags and the flags that flags(text) gives for a
    partition text: either arbitrary text, or small parts summing to the dim."""
    arbitrary = st.builds(lambda g, b: [command, *g, *flags(b)], group_args(), partition_text)
    matched = small_parts.flatmap(lambda ps: group_args(st.just(str(sum(ps)))).map(
        lambda g: [command, *g, *flags(",".join(map(str, ps)))]))
    return st.one_of(arbitrary, matched)


eps_flags = st.one_of(st.just([]), eps_text.map(lambda t: ["--eps", t]))
label = st.builds(lambda argv, e: [*argv, *e],
                  with_blocks("label", lambda b: ["--blocks", b]), eps_flags)
richardson = st.one_of(
    with_blocks("richardson", lambda b: ["--blocks", b]),
    st.builds(lambda g, b, m: ["richardson", *g, "--levi", f"{b};m0={m}"],
              group_args(), partition_text, numbers),
    st.builds(lambda g, b, t: ["richardson", *g, "--levi", f"{b};{t}"],
              group_args(), partition_text, st.text(max_size=4)),
    st.builds(lambda argv, levi: [*argv, "--levi", levi],
              with_blocks("richardson", lambda b: ["--blocks", b]), partition_text),
    group_args().map(lambda g: ["richardson", *g]),
)
decompose = st.builds(
    lambda b, g, c: ["decompose", b, "--group", g, "--char", c],
    st.one_of(partition_text,  # or distinct even parts and maybe a 1, often admissible
              st.builds(lambda ps, one: ",".join(map(str, ps + one)),
                        st.lists(st.sampled_from([2, 4, 6, 8, 10]), min_size=1, max_size=4,
                                 unique=True),
                        st.sampled_from([[], [1]]))),
    st.sampled_from(["so", "sp", "gl"]), chars,
)
classes = st.builds(
    lambda g, extra: ["classes", *g, *extra], group_args(), st.sampled_from([[], ["--extra-only"]])
)
tables = st.builds(
    lambda which, g: ["tables", which, *g],
    st.sampled_from(["1", "2", "3", "4", "5"]),
    st.one_of(st.just([]), group_args(), dims.map(lambda d: ["--dim", d])),
)
argvs = st.builds(
    lambda fmt, command: [*fmt, *command],
    st.sampled_from([[], ["--format", "json"], ["--format", "csv"]]),
    st.sampled_from([label, richardson, decompose, classes, tables]).flatmap(lambda cmd: cmd),
)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses a malformed command line
            code = exc.code
    return code, out.getvalue() + err.getvalue()


@settings(deadline=None, max_examples=200)
@given(argvs)
def test_no_argv_crashes_the_cli(argv):
    code, output = run(argv)
    assert code in (0, 2), (argv, output)
    assert "Traceback" not in output and "internal error" not in output, (argv, output)
