"""The README's library example runs and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_example() -> str:
    text = README.read_text()
    match = re.search(r"^## Library example\n+```python\n(.*?)^```", text, re.M | re.S)
    assert match, "README.md has no python block under '## Library example'"
    return match.group(1)


def test_readme_library_example():
    namespace: dict = {}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(_library_example(), namespace)
    assert out.getvalue() == "True D6(a1)D2\n"
    assert not namespace["alpha"]
    assert str(namespace["beta"]) == "8,4,2^2"
    assert [str(piece) for piece in namespace["pieces"]] == ["8,4", "2^2"]
