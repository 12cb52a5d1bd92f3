"""Property test for the config parse pass.

Random edits of real configs (keys replaced by random JSON values, deleted,
or added) must either parse or raise ConfigError, and parsing must write
nothing.  Only the parse pass runs, so no games are played.
"""

import copy
import json
from contextlib import ExitStack
from functools import reduce
from operator import getitem
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from tdsearch.cli import ConfigError, main, parse  # noqa: E402
from tdsearch.evaluation import feature_set, weights_to_text  # noqa: E402

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# Words the parser gives meaning to, so edits reach past the first type check.
WORDS = st.sampled_from([
    "train-online", "train-selfplay", "head-to-head", "replay", "verify-figures",
    "tictactoe", "connect4", "minichess", "minichess-material", "synthetic-tree",
    "zero", "baseline", "material", "first", "random", "fixed", "uniform", "nearest",
    "constant", "inverse", "none", "unless-predicted", "path", "run", "c4.snapshot",
])
SCALARS = (st.none() | st.booleans() | st.integers(-3, 3) | st.integers() | st.floats()
           | WORDS | st.text(max_size=6))
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(WORDS, inner, max_size=3),
    max_leaves=6,
)


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """A directory with a snapshot and a finished run, and the configs to edit."""
    root = tmp_path_factory.mktemp("parse")
    fs = feature_set("connect4")
    (root / "c4.snapshot").write_text(weights_to_text(fs, fs.weights_from({})), encoding="ascii")
    run = dict(mode="train-online", game="tictactoe", seed=1, games=2, out_dir=str(root / "run"),
               agent=dict(depth=1), learner=dict(alpha=0.1),
               pool=dict(opponents=[dict(type="random", id="r")]))
    (root / "run.json").write_text(json.dumps(run))
    assert main(["--config", str(root / "run.json"), "--quiet"]) == 0
    configs = {p.name: json.loads(p.read_text()) for p in sorted(CONFIGS.glob("*.json"))}
    # the modes configs/ has no file for
    configs["replay"] = dict(mode="replay", run_dir="run")
    configs["head-to-head"] = dict(
        mode="head-to-head", game="connect4", games=2,
        agents=[dict(id="a", depth=1, weights=dict(path="c4.snapshot")),
                dict(id="b", depth=1, tie_break="random", weights="baseline")])
    for cfg in configs.values():
        cfg["out_dir"] = str(root / "out")
    return root, configs


def key_paths(node, prefix=()):
    """Every path into a JSON tree, as a tuple of dict keys and list indices."""
    yield prefix
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield from key_paths(child, prefix + (key,))


def listing(root: Path):
    return sorted((str(p), p.stat().st_size) for p in root.rglob("*"))


@pytest.mark.parametrize("name", sorted(p.name for p in CONFIGS.glob("*.json"))
                         + ["replay", "head-to-head"])
@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_edited_config_parses_or_raises_config_error(base, name, data):
    root, configs = base
    cfg = copy.deepcopy(configs[name])
    with ExitStack() as owned:
        parse(copy.deepcopy(cfg), root, owned)  # the unedited config parses
    for _ in range(data.draw(st.integers(1, 3), label="edits")):
        path = data.draw(st.sampled_from(list(key_paths(cfg))), label="path")
        node = reduce(getitem, path, cfg)
        action = data.draw(st.sampled_from(["replace", "delete", "add"]), label="action")
        if action == "add" and isinstance(node, dict):
            node[data.draw(WORDS, label="key")] = data.draw(VALUES, label="value")
        elif path and action == "delete":
            del reduce(getitem, path[:-1], cfg)[path[-1]]
        elif path:
            reduce(getitem, path[:-1], cfg)[path[-1]] = data.draw(VALUES, label="value")
    before = listing(root)
    try:
        with ExitStack() as owned:
            parse(cfg, root, owned)
    except ConfigError:
        pass
    assert listing(root) == before
