"""The README's library quick tour and config block match the package as it is."""

import configparser
import pathlib
import re

from skewheat.config import _KEYS, parse_config

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_tour_runs():
    tour = README.read_text(encoding="utf-8").split("## Library quick tour", 1)[1]
    blocks = re.findall(r"```python\n(.*?)```", tour, flags=re.S)
    assert blocks, "the quick tour has no python block"
    exec(compile(blocks[0], "README.md quick tour", "exec"), {})


def test_readme_config_block_lists_every_key():
    [block] = re.findall(r"```ini\n(.*?)```", README.read_text(encoding="utf-8"), flags=re.S)
    parse_config(block)
    cp = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=(";",))
    cp.optionxform = str
    cp.read_string(block)
    assert {(s, k) for s in cp.sections() for k in cp[s]} == {(s, k) for s, k, *_ in _KEYS}
