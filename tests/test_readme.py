"""Each fenced ``python`` block of README.md runs as a doctest of its own,
so every block must carry the imports it uses."""

import doctest
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = [
    (TEXT.count("\n", 0, m.start(1)), m[1])
    for m in re.finditer(r"^```python\n(.*?)^```", TEXT, re.M | re.S)
]


def test_the_readme_has_python_blocks():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("lineno, block", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_block(lineno, block):
    test = doctest.DocTestParser().get_doctest(block, {}, README.name, str(README), lineno)
    report: list[str] = []
    result = doctest.DocTestRunner().run(test, out=report.append)
    assert result.failed == 0, "".join(report)
