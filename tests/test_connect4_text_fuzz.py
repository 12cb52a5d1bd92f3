"""Property test for the connect4 text parser.

Random edits of real board texts (characters replaced, deleted or inserted)
must be accepted or rejected by ConnectFour.from_text exactly as the
cell-by-cell parser in oracles.py does: the same state when both accept,
the same ValueError message when both reject.
"""

from itertools import islice

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from oracles import c4_loop_from_text, random_playouts  # noqa: E402
from tdsearch.games import GAMES  # noqa: E402

C4 = GAMES["connect4"]

TEXTS = [C4.to_text(s) for states in islice(random_playouts(C4, np.random.default_rng(5)), 4)
         for s in states[::5]]

# Cells, separators and near misses: lowercase marks, digits, whitespace,
# non-ASCII characters and a lone surrogate.
CHARS = list("XO./xo0 \t\n_") + ["é", "Ｘ", "\ud800"]
PIECE = st.sampled_from(CHARS) | st.sampled_from(CHARS) | st.text(max_size=2)


def _parse(parse, text):
    try:
        return "accepted", parse(text)
    except ValueError as e:
        return "rejected", str(e)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_edited_text_is_accepted_and_rejected_as_the_cell_parser_does(data):
    text = data.draw(st.sampled_from(TEXTS), label="text")
    for _ in range(data.draw(st.integers(1, 3), label="edits")):
        i = data.draw(st.integers(0, len(text)), label="at")
        j = data.draw(st.integers(i, min(i + 1, len(text))), label="to")
        text = text[:i] + data.draw(PIECE, label="insert") + text[j:]
    assert _parse(C4.from_text, text) == _parse(c4_loop_from_text, text), text
