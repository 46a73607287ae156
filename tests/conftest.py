import random

import pytest

from plogic import parse


@pytest.fixture
def rng():
    return random.Random(20240817)


@pytest.fixture
def regrouping_formulas():
    from goldens import A_TEXTS, B_TEXTS
    return (
        {i: parse(t) for i, t in A_TEXTS.items()},
        {i: parse(t) for i, t in B_TEXTS.items()},
    )


@pytest.fixture
def kernel_passes(monkeypatch):
    """A list that gains one entry per column pass of the semantic kernel,
    one pass being one block of rows."""
    from plogic import semantics

    passes = []
    fill = semantics._fill_columns

    def counting(*args):
        passes.append(None)
        return fill(*args)

    monkeypatch.setattr(semantics, "_fill_columns", counting)
    return passes
