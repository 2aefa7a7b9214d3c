"""The public API: the names ssgp exports and the README quickstart."""

import re
from pathlib import Path

import pytest

import ssgp

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_exported_name_resolves():
    for name in ssgp.__all__:
        assert getattr(ssgp, name, None) is not None, name


@pytest.mark.filterwarnings("ignore:MH acceptance rate:RuntimeWarning")
def test_readme_library_quickstart_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quickstart", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    names = re.search(r"from ssgp import \((.*?)\)", block, re.S).group(1)
    assert {n.strip() for n in names.split(",")} <= set(ssgp.__all__)
    exec(compile(block, str(README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 2
