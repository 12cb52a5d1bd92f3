"""Property test for the minichess text parser.

Random edits of real position texts (characters and tokens replaced,
deleted or inserted) must be accepted or rejected by Minichess.from_text
exactly as the string-board parser in oracles.py does: the same position
when both accept, the same ValueError message when both reject.
"""

from itertools import islice

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from oracles import mc_board, mc_str_from_text, random_playouts  # noqa: E402
from tdsearch.games import GAMES  # noqa: E402

MC = GAMES["minichess"]

TEXTS = [MC.to_text(s) for states in islice(random_playouts(MC, np.random.default_rng(5)), 4)
         for s in states[::7]]

# Pieces of the text grammar, plus digits that str.isdigit accepts but int()
# reads differently or not at all.
CHARS = list("PNBRQKpnbrqkxX.012345679/ wb-") + ["٣", "²", "\t"]
PIECE = st.sampled_from(CHARS) | st.sampled_from(CHARS) | st.text(max_size=2)


def _parse(parse, text):
    try:
        return "accepted", parse(text)
    except ValueError as e:
        return "rejected", str(e)


def _engine(text):
    s = MC.from_text(text)
    return mc_board(s), s.side_to_move, s.ply


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_edited_text_is_accepted_and_rejected_as_the_string_parser_does(data):
    text = data.draw(st.sampled_from(TEXTS), label="text")
    for _ in range(data.draw(st.integers(1, 2), label="edits")):
        i = data.draw(st.integers(0, len(text)), label="at")
        j = data.draw(st.integers(i, min(i + 1, len(text))), label="to")
        text = text[:i] + data.draw(PIECE, label="insert") + text[j:]
    assert _parse(_engine, text) == _parse(mc_str_from_text, text), text
