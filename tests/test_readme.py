"""The README's `Library` example runs as written against the package."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_block() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_example_runs():
    code = library_block()
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(code, str(README), "exec"), {"__name__": "readme"})
    lines = printed.getvalue().splitlines()
    assert len(lines) == code.count("print(")
    # The per-matrix MRT sum rate and the one from G = H^H H agree.
    assert abs(float(lines[0]) - float(lines[1])) <= 1e-12 * float(lines[0])
