"""Byte-level lock on the artifacts of every checked-in training config.

Each config under configs/ that trains is run at a small game count with its
own recorded seed, and the sha256 of ratings.csv, traces.log and
weights_final.snapshot must equal the values below.  A change that is meant
to keep behaviour (a faster search, a refactor) must leave these unchanged;
a change that alters the artifacts on purpose updates them and says why.

The values are machine-specific in one respect (ROADMAP item 2): search, the
learner and replay use np.dot, which numpy hands to a CPU-dispatched BLAS
kernel, so the last bit of a weight may differ on another CPU model.
"""

import hashlib
import json
from pathlib import Path

import pytest

from tdsearch.arena import SearchAgent, game_rng, play_game
from tdsearch.cli import main
from tdsearch.evaluation import feature_set
from tdsearch.games import GAMES, Side
from tdsearch.learner import trace_to_log

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

ARTIFACTS = ("ratings.csv", "traces.log", "weights_final.snapshot")

# config file -> (games, {artifact: sha256})
GOLDEN = {
    "c4_pool_train.json": (12, {
        "ratings.csv": "498122bafb2f6244a4f90ea7ee633ab5e8fd8b45c35d71c2797bf988d0ece3c1",
        "traces.log": "4ac8904fafa6abb9607f302be11b1392238787a0894765a9c1b5650b976ce4d8",
        "weights_final.snapshot": "375b4d795f2ac2bf81f2056891de61800bdaac5bb3c3a8a96662e110a4151310",
    }),
    "c4_selfplay_train.json": (8, {
        "ratings.csv": "89a2c151e2d3d14ca6e44ad7b5cb02e5da4dc7f27b8a5401eca5a764931625ea",
        "traces.log": "00347af4c34d8127e9246d9ce83c7ba4b116092a7a1c87592793712de804e2e9",
        "weights_final.snapshot": "f9e73470e5e9b20bb364ec4b1066243da991fbefdd40c29312885811a5661ffd",
    }),
    "mc_material_selfplay.json": (12, {
        "ratings.csv": "f5d583419a8858153bab896298ded64ec907fa0aa9f44bcaba7970cba7b84cf5",
        "traces.log": "bd0433a59d469735e13686195c68bc53edadd04e9f62617bbcf3ca760d640135",
        "weights_final.snapshot": "66b9258a4e36d29d3d300427d18cfbf8665d4f996fc371be78434a63d803cccb",
    }),
}


def test_every_training_config_is_covered():
    training = sorted(
        p.name for p in CONFIGS.glob("*.json")
        if json.loads(p.read_text())["mode"].startswith("train-")
    )
    assert training == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_artifact_digests_unchanged(name, tmp_path):
    games, expected = GOLDEN[name]
    cfg = json.loads((CONFIGS / name).read_text())
    cfg["games"] = games
    cfg["out_dir"] = str(tmp_path / "run")
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    assert main(["--config", str(path), "--quiet"]) == 0
    got = {
        art: hashlib.sha256((tmp_path / "run" / art).read_bytes()).hexdigest()
        for art in ARTIFACTS
    }
    assert got == expected


# Match lock: arena.play_game between two fixed agents with random
# tie-breaks and both seats recorded.  The digest covers each game's
# outcome, move count, nodes per seat and the trace_to_log text of both
# seats, so it pins search results (value, pv, leaf, node count) move by
# move, not only a training run's final artifacts.
# name -> (game, feature set, agent presets, depth, games, sha256)
MATCHES = {
    "connect4-zero-vs-baseline": (
        "connect4", "connect4", ("zero", "baseline"), 3, 10,
        "69bfaee967271ea481f05310ce5996c222c5ee1aa72cf50a3e5f573f55bf6e49",
    ),
    "minichess-material-vs-zero": (
        "minichess", "minichess-material", ("material", "zero"), 2, 6,
        "13ea04b1c34b5bbf6114571d0976887588eec4fa76d527ad7f6765145293d938",
    ),
}


def match_digest(game_id, fs_id, presets, depth, n_games, seed=7):
    game, fs = GAMES[game_id], feature_set(fs_id)
    a, b = (SearchAgent(p, fs, fs.preset(p), depth, "random") for p in presets)
    h = hashlib.sha256()
    for i in range(n_games):
        white, black = (a, b) if i % 2 == 0 else (b, a)
        rec = play_game(game, white, black, record_sides=(Side.WHITE, Side.BLACK),
                        squashed=True, rng=game_rng(seed, i))
        h.update(f"{i} {rec.outcome.reward!r} {rec.moves} "
                 f"{rec.nodes[Side.WHITE]} {rec.nodes[Side.BLACK]}\n".encode())
        for side, opp in ((Side.WHITE, black), (Side.BLACK, white)):
            h.update(trace_to_log(game, rec.traces[side], i, opp.id).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(MATCHES))
def test_match_digests_unchanged(name):
    *spec, expected = MATCHES[name]
    assert match_digest(*spec) == expected
