"""The README's library quick tour runs against the package as it is."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_tour_runs():
    tour = README.read_text(encoding="utf-8").split("## Library quick tour", 1)[1]
    blocks = re.findall(r"```python\n(.*?)```", tour, flags=re.S)
    assert blocks, "the quick tour has no python block"
    exec(compile(blocks[0], "README.md quick tour", "exec"), {})
