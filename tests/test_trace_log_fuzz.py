"""Property test for the trace-log parser.

Random edits of real traces.log text (characters, tokens and whole lines
replaced, deleted, inserted or swapped) must either parse or raise
ValueError: a corrupted log is rejected as a bad log, never as a crash.  A
log that parses is one the writer writes: writing back its parsed blocks
gives the same bytes, and every game in it ends in WIN, DRAW or LOSS.
"""

import io

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from tdsearch.arena import OpponentPool, RandomAgent, SearchAgent, train_online  # noqa: E402
from tdsearch.evaluation import feature_set  # noqa: E402
from tdsearch.games import DRAW, GAMES, LOSS, WIN  # noqa: E402
from tdsearch.learner import LearnerConfig, trace_to_log, traces_from_log  # noqa: E402

RUNS = {  # game -> (feature set, games played)
    "tictactoe": ("tictactoe", 3),
    "connect4": ("connect4", 2),
    "minichess": ("minichess-material", 1),
}

# Pieces of the log grammar and of each game's text forms, so edits get past
# the first split and reach the per-field parsing.
WORDS = ["game", "step", "outcome", "agent=white", "agent=black", "opponent=rnd", "rnd",
         "=", "-", ";", "_", "/", ".", "X", "O", "K", "k", "w", "b", "0", "1", "-1", "7",
         "99", "1e999", "nan", "inf", "0.5", "a1a2", "e5e1", "z9z9", "3;3", "", " "]
TEXT = st.sampled_from(WORDS) | st.text(max_size=4)


@pytest.fixture(scope="module")
def logs(tmp_path_factory):
    """One real traces.log per game, from a short run against a random player."""
    out = {}
    for game_id, (fs_id, games) in RUNS.items():
        fs = feature_set(fs_id)
        run_dir = tmp_path_factory.mktemp(game_id)
        agent = SearchAgent("learner", fs, fs.weights_from({}), 1, tie_mode="random")
        train_online(GAMES[game_id], agent, OpponentPool([RandomAgent("rnd")]),
                     LearnerConfig(), games, 3, run_dir)
        out[game_id] = (run_dir / "traces.log").read_text()
    return out


def _edit(data, lines):
    i = data.draw(st.integers(0, len(lines) - 1), label="line")
    tokens = lines[i].split(" ")
    action = data.draw(st.sampled_from(
        ["token", "drop-token", "add-token", "char", "drop-line", "copy-line", "swap-lines"]),
        label="action")
    if action == "drop-line":
        del lines[i]
    elif action == "copy-line":
        lines.insert(data.draw(st.integers(0, len(lines)), label="at"), lines[i])
    elif action == "swap-lines":
        j = data.draw(st.integers(0, len(lines) - 1), label="other")
        lines[i], lines[j] = lines[j], lines[i]
    else:
        k = data.draw(st.integers(0, len(tokens) - 1), label="token")
        if action == "token":
            tokens[k] = data.draw(TEXT, label="new")
        elif action == "drop-token":
            del tokens[k]
        elif action == "add-token":
            tokens.insert(k, data.draw(TEXT, label="new"))
        else:
            chars = list(tokens[k])
            at = data.draw(st.integers(0, len(chars)), label="at")
            chars[at:at + data.draw(st.integers(0, 1), label="cut")] = data.draw(TEXT, label="new")
            tokens[k] = "".join(chars)
        lines[i] = " ".join(tokens)


@pytest.mark.parametrize("game_id", sorted(RUNS))
@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_edited_log_parses_or_raises_value_error(logs, game_id, data):
    lines = logs[game_id].splitlines()
    for _ in range(data.draw(st.integers(1, 3), label="edits")):
        if lines:
            _edit(data, lines)
    text = "\n".join(lines) + "\n"
    game = GAMES[game_id]
    try:
        blocks = list(traces_from_log(io.StringIO(text), game, feature_set(RUNS[game_id][0])))
    except ValueError:
        return
    assert "".join(trace_to_log(game, trace, idx, opp) for idx, opp, trace, _ in blocks) == text
    assert all(trace.outcome in (WIN, DRAW, LOSS) for _, _, trace, _ in blocks)
