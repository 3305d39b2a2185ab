"""The README's library example and CLI examples run and print what their
comments say."""

import contextlib
import io
import re
import shlex
from pathlib import Path

from unipotent_atlas.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _block(heading: str, language: str) -> str:
    """The first block in language under the README's heading."""
    match = re.search(rf"^## {heading}\n.*?^```{language}\n(.*?)^```", README.read_text(), re.M | re.S)
    assert match, f"README.md has no {language} block under '## {heading}'"
    return match.group(1)


def _library_example() -> str:
    return _block("Library example", "python")


def test_readme_library_example():
    namespace: dict = {}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(_library_example(), namespace)
    assert out.getvalue() == "True D6(a1)D2\n"
    assert not namespace["alpha"]
    assert str(namespace["beta"]) == "8,4,2^2"
    assert [str(piece) for piece in namespace["pieces"]] == ["8,4", "2^2"]


def test_readme_cli_examples():
    # each example line runs through the CLI and exits 0, so a removed flag
    # cannot leave a stale example; a "# -> text" line is the output of the
    # example above it
    checked, out = 0, None
    for line in _block("CLI", "sh").splitlines():
        if line.startswith("unipotent-atlas "):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                assert main(shlex.split(line)[1:]) == 0, line
            out = buf.getvalue()
        elif line.startswith("# -> "):
            assert out == line[len("# -> "):] + "\n"
            checked += 1
    assert out is not None and checked
