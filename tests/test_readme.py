"""The README's library example runs against the current API, and the
limits it states are the code's constants."""

import inspect
import re
from pathlib import Path

import robin_lab
from robin_lab import cli, fields, mesh

README = Path(__file__).resolve().parents[1] / "README.md"
_SUPERSCRIPTS = str.maketrans("⁰¹²³⁴⁵⁶⁷⁸⁹", "0123456789")
# `NAME` = 10 000, 1000, 3.6·10⁶ or 2¹⁴
_STATED = re.compile(r"`([A-Z_]+)`\s*=\s*(\d+(?:[ .]\d+)*)(·10)?([⁰¹²³⁴⁵⁶⁷⁸⁹]*)")


def test_readme_python_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme_example"})
    assert "sup norm:" in capsys.readouterr().out


def test_readme_names_what_the_package_top_level_binds():
    text = README.read_text(encoding="utf-8")
    stated = re.search(r"top level binds only (.*?)\.\n", text, re.S).group(1)
    public = {name for name in vars(robin_lab) if not name.startswith("_")}
    public -= {name for name, value in vars(robin_lab).items() if inspect.ismodule(value)}
    assert set(re.findall(r"`(\w+)`", stated)) == public


def _stated_limits(text: str) -> dict:
    """Each upper-case `NAME` = number in the text, as {name: [values in order]}."""
    stated = {}
    for name, digits, decimal, power in _STATED.findall(text):
        value = float(digits.replace(" ", ""))
        if power:
            power = int(power.translate(_SUPERSCRIPTS))
            value = value * 10**power if decimal else value**power
        stated.setdefault(name, []).append(value)
    return stated


def test_readme_limits_equal_the_code():
    # a constant changed without its README line fails here
    text = README.read_text(encoding="utf-8")
    assert _stated_limits(text) == {
        "MAX_GENERATED": [cli.MAX_GENERATED],
        "MAX_STABILITY": [cli.MAX_STABILITY],
        "MAX_MEMBER_VERTICES": [cli.MAX_MEMBER_VERTICES],
        "MAX_CELLS": [mesh.MAX_CELLS],
        "BLOCK": [fields.BLOCK],
    }
    # CSV rows and SVG points are both written _BLOCK at a time
    blocks = re.findall(r"(\d+) (?:rows|points) at a time", text)
    assert len(blocks) == 2 and {int(b) for b in blocks} == {cli._BLOCK}
