"""The README's "Library quick tour" runs as written."""
import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_tour() -> str:
    """The Python block of the quick-tour section."""
    section = README.read_text().split("\n## Library quick tour\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_quick_tour_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(quick_tour(), str(README), "exec"), {})
    # the tour ends by printing the verification report of its Lagrangian
    assert out.getvalue().splitlines()[-1].startswith("PASS: ")
