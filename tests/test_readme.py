"""Each fenced ``python`` block of README.md runs as a doctest of its own,
so every block must carry the imports it uses; the text-format example is
cut from the proof it names."""

import doctest
import re
from pathlib import Path

import pytest

from plogic import parse
from plogic.proof import proof_to_text, prove_tautology

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


def test_the_text_format_example_is_cut_from_the_proof_of_p_or_not_p():
    section = TEXT[TEXT.index("## Proof file formats"):TEXT.index("JSON mirror")]
    shown = re.findall(r"^    (\d+\. .*)$", section, re.M)
    proof = proof_to_text(prove_tautology(parse("p or !p"))).splitlines()
    assert len(shown) >= 3
    assert [line for line in shown if line not in proof] == []
    assert shown[-1] == proof[-1]
