"""End-to-end acceptance gate.

Ten numbered checks, each printing one verdict line.  The heavy training
runs are driven through the checked-in configs under configs/ and shared
between checks via session fixtures; all artifacts go to temp directories.

Run via plain pytest; the verdict lines bypass capture so they always show:

    pytest tests/test_acceptance.py
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

import acceptance_report
from oracles import (
    fd_gradient,
    random_position,
    random_tree,
    td_update,
    text_eval,
    white_minimax,
)
from tdsearch.cli import main as cli_main
from tdsearch.evaluation import (
    WeightVector,
    feature_set,
    features_white,
    grad_squashed,
    load_weights,
    raw_eval,
    squash,
)
from tdsearch.games import GAMES
from tdsearch.games.base import Side, WIN
from tdsearch.games.synthetic import TIED_PV_TREE, UNIQUE_PV_TREE, SyntheticTreeGame
from tdsearch.learner import (
    AlphaSchedule,
    GameTrace,
    LearnerConfig,
    StepRecord,
    tdleaf_delta,
)
from tdsearch.arena import SearchAgent, head_to_head, play_game
from tdsearch.search import MATE_SCORE, alphabeta, minimax

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _verdict(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"{num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    acceptance_report.lines.append(line)
    assert ok, line


def _train(config_name: str, out: Path) -> float:
    t0 = time.monotonic()
    rc = cli_main(["--config", str(CONFIG_DIR / config_name), "--out", str(out), "--quiet"])
    assert rc == 0, f"training via {config_name} exited {rc}"
    return time.monotonic() - t0


def _final_weights(out: Path):
    fs_id, w = load_weights(out / "weights_final.snapshot")
    return feature_set(fs_id), w


@pytest.fixture(scope="session")
def run_root(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="session")
def pool_run(run_root):
    out = run_root / "c4-pool"
    return {"dir": out, "seconds": _train("c4_pool_train.json", out)}


@pytest.fixture(scope="session")
def selfplay_run(run_root):
    out = run_root / "c4-selfplay"
    return {"dir": out, "seconds": _train("c4_selfplay_train.json", out)}


def _c4_match(weights_a, weights_b, n_games: int, seed: int):
    """Alternating-color match, candidate a vs frozen b, both at depth 3."""
    fs = feature_set("connect4")
    a = SearchAgent("cand", fs, weights_a, 3, tie_mode="random")
    b = SearchAgent("ref", fs, weights_b, 3, tie_mode="random")
    return head_to_head(GAMES["connect4"], a, b, n_games, seed)


# ---------------------------------------------------------------------------
# 01: pruning search matches brute-force minimax exactly
# ---------------------------------------------------------------------------


def test_c01_alphabeta_matches_brute_minimax():
    t0 = time.monotonic()
    rng = np.random.default_rng(4101)
    trees_ok = 0
    for _ in range(1000):
        depth = int(rng.integers(1, 5))
        game = SyntheticTreeGame(random_tree(rng, depth, branching=(2, 4)))
        s = game.initial_state()
        evaluator = game.evaluator
        d = game.max_depth()
        want_white = white_minimax(game, s, d, lambda st: st.side_to_move.sign * evaluator(st))
        got = alphabeta(game, s, d, evaluator).value
        trees_ok += got == want_white * s.side_to_move.sign

    c4 = GAMES["connect4"]
    evaluator = text_eval(c4)
    white_eval = lambda st: st.side_to_move.sign * evaluator(st)
    pos_ok = 0
    for i in range(500):
        s = random_position(c4, rng, int(rng.integers(0, 20)))
        if c4.is_terminal(s):
            s = c4.initial_state()
        depth = 1 + i % 4
        want = white_minimax(c4, s, depth, white_eval) * s.side_to_move.sign
        pos_ok += alphabeta(c4, s, depth, evaluator).value == want
    dt = time.monotonic() - t0
    ok = trees_ok == 1000 and pos_ok == 500 and dt < 60.0
    _verdict(1, "pruning-matches-brute-minimax", ok,
             f"{trees_ok}/1000 trees, {pos_ok}/500 positions, {dt:.1f}s")


# ---------------------------------------------------------------------------
# 02: reference trees give the published root values and leaves
# ---------------------------------------------------------------------------


def test_c02_reference_trees():
    unique = SyntheticTreeGame(UNIQUE_PV_TREE)
    tied = SyntheticTreeGame(TIED_PV_TREE)
    checks = []
    for game, leaves in ((unique, {"L"}), (tied, {"H", "L"})):
        s = game.initial_state()
        d = game.max_depth()
        for algo in (minimax, alphabeta):
            res = algo(game, s, d, game.evaluator)
            checks.append(res.value == 4.0)
            checks.append(game.label(res.leaf) in leaves)
    # first-found tie-breaking lands on the earlier of the two tied leaves
    res = alphabeta(tied, tied.initial_state(), tied.max_depth(), tied.evaluator)
    checks.append(tied.label(res.leaf) == "H")
    # randomized tie-breaking reaches both tied leaves within the trial budget
    seen = set()
    for i in range(200):
        res = alphabeta(tied, tied.initial_state(), tied.max_depth(), tied.evaluator, seed=i)
        seen.add(tied.label(res.leaf))
        if seen == {"H", "L"}:
            break
    checks.append(seen == {"H", "L"})
    _verdict(2, "reference-trees", all(checks), f"tied leaves seen: {sorted(seen)}")


# ---------------------------------------------------------------------------
# 03: root value equals the sign-adjusted principal leaf score, every search
# ---------------------------------------------------------------------------


def test_c03_root_value_identity():
    searches = 0
    exact = 0

    def check(game, s, depth, evaluator):
        nonlocal searches, exact
        res = alphabeta(game, s, depth, evaluator)
        leaf = res.leaf
        if game.is_terminal(leaf):
            reward = game.outcome(leaf).for_side(leaf.side_to_move)
            leaf_val = reward * (MATE_SCORE - len(res.pv))
        else:
            leaf_val = evaluator(leaf)
        searches += 1
        exact += res.value == (-1.0) ** len(res.pv) * leaf_val

    rng = np.random.default_rng(4303)
    for _ in range(3500):
        game = SyntheticTreeGame(random_tree(rng, int(rng.integers(1, 4)), branching=(2, 3)))
        check(game, game.initial_state(), game.max_depth(), game.evaluator)
    for game_id, walks, depths in (("tictactoe", 1500, (1, 2, 3)),
                                   ("connect4", 1500, (1, 2, 3))):
        game = GAMES[game_id]
        evaluator = text_eval(game)
        for i in range(walks):
            s = random_position(game, rng, int(rng.integers(0, 12)))
            if game.is_terminal(s):
                continue
            for depth in depths:
                check(game, s, depth, evaluator)
    ok = searches >= 10000 and exact == searches
    _verdict(3, "root-value-identity", ok, f"{exact}/{searches} searches exact")


# ---------------------------------------------------------------------------
# 04: analytic gradient against central finite differences
# ---------------------------------------------------------------------------


def test_c04_gradient_finite_difference():
    rng = np.random.default_rng(4404)
    sets = [feature_set(n) for n in ("tictactoe", "connect4", "minichess-material", "minichess")]
    worst = 0.0
    passed = 0
    for i in range(100):
        fs = sets[i % len(sets)]
        game = GAMES[fs.game_id]
        s = random_position(game, rng, int(rng.integers(0, 8)))
        phi = features_white(fs, s)
        w = rng.normal(scale=0.8, size=fs.k)

        def value_at(wv):
            return squash(float(phi @ wv), True)

        wv = WeightVector(w.copy())
        grad = grad_squashed(phi, True, squash(raw_eval(phi, wv), True))
        fd = fd_gradient(value_at, w, h=1e-5)
        denom = max(1.0, float(np.linalg.norm(fd)))
        rel = float(np.linalg.norm(grad - fd)) / denom
        worst = max(worst, rel)
        passed += rel < 1e-6
    _verdict(4, "gradient-finite-difference", passed == 100,
             f"{passed}/100 instances, worst rel err {worst:.2e}")


# ---------------------------------------------------------------------------
# 05: special cases of the update rule
# ---------------------------------------------------------------------------


def _played_traces(seed: int):
    c4 = GAMES["connect4"]
    fs = feature_set("connect4")
    agent = SearchAgent("a", fs, fs.preset("baseline"), 2, tie_mode="random")
    rec = play_game(c4, agent, agent, record_sides=(Side.WHITE, Side.BLACK),
                    squashed=True, rng=np.random.default_rng((77, seed)))
    return [tr for tr in rec.traces.values() if tr.steps]


def test_c05_update_rule_special_cases():
    fs = feature_set("connect4")
    w = fs.preset("baseline")
    squashed = True
    checks = []
    for seed in range(8):
        for tr in _played_traces(seed):
            steps = tr.steps
            c = tr.agent_side.sign
            r = tr.outcome.for_side(tr.agent_side)

            # (a) searching zero plies deep collapses the leaf path onto the
            #     root path: a hand-built depth-0 trace updated by the leaf
            #     rule must match the root-based rule bitwise
            rooted = GameTrace(tr.agent_side, tuple(
                StepRecord(root=st.root, leaf=st.root, pv=(),
                           leaf_features=(phi := features_white(fs, st.root)),
                           raw_value=(raw := raw_eval(phi, w)),
                           value=squash(raw, squashed),
                           opponent_move_predicted=st.opponent_move_predicted,
                           opponent_rating_lower=st.opponent_rating_lower)
                for st in steps), tr.outcome)
            cfg = LearnerConfig(lambda_=0.7, alpha=AlphaSchedule(base=0.1), squash=squashed)
            checks.append(np.array_equal(tdleaf_delta(rooted, cfg, fs.k),
                                         td_update(tr, cfg, w, fs)))

            # (b) lambda=1, no clipping: each step's discounted sum telescopes
            #     to outcome-minus-value
            cfg1 = LearnerConfig(lambda_=1.0, alpha=AlphaSchedule(base=1.0), squash=False)
            delta = tdleaf_delta(tr, cfg1, fs.k)
            direct = np.zeros(fs.k)
            for st in steps:
                direct += c * (r - c * st.value) * np.array(st.leaf_features)
            checks.append(bool(np.allclose(delta, direct, rtol=0, atol=1e-10)))

            # (c) lambda=0: only the one-step difference feeds each step
            cfg0 = LearnerConfig(lambda_=0.0, alpha=AlphaSchedule(base=1.0), squash=False)
            delta0 = tdleaf_delta(tr, cfg0, fs.k)
            vals = [c * st.value for st in steps] + [float(r)]
            direct0 = np.zeros(fs.k)
            for t, st in enumerate(steps):
                direct0 += c * (vals[t + 1] - vals[t]) * np.array(st.leaf_features)
            checks.append(bool(np.allclose(delta0, direct0, rtol=0, atol=1e-12)))
    ok = bool(checks) and all(checks)
    _verdict(5, "update-rule-special-cases", ok, f"{sum(checks)}/{len(checks)} sub-checks")


# ---------------------------------------------------------------------------
# 06: the worked two-step update comes out exactly (0.7, 1.0)
# ---------------------------------------------------------------------------


def test_c06_worked_update():
    steps = (
        StepRecord(root=None, leaf=None, pv=(), leaf_features=np.array([1.0, 0.0]),
                   value=0.0, raw_value=0.0, opponent_move_predicted=False,
                   opponent_rating_lower=False),
        StepRecord(root=None, leaf=None, pv=(), leaf_features=np.array([0.0, 1.0]),
                   value=0.0, raw_value=0.0, opponent_move_predicted=False,
                   opponent_rating_lower=False),
    )
    tr = GameTrace(Side.WHITE, steps, WIN)
    cfg = LearnerConfig(lambda_=0.7, alpha=AlphaSchedule(base=1.0), squash=False)
    delta = tdleaf_delta(tr, cfg, 2)
    ok = delta[0] == 0.7 and delta[1] == 1.0
    _verdict(6, "worked-two-step-update", ok, f"delta = ({delta[0]}, {delta[1]})")


# ---------------------------------------------------------------------------
# 07: pool training on connect4 beats the frozen baseline
# ---------------------------------------------------------------------------


def test_c07_pool_training_beats_baseline(pool_run):
    fs, trained = _final_weights(pool_run["dir"])
    base = fs.preset("baseline")
    t0 = time.monotonic()
    trained_score, trained_tally = _c4_match(trained, base, 400, seed=4707)
    untrained_score, _ = _c4_match(fs.weights_from({}), base, 400, seed=4707)
    total = pool_run["seconds"] + (time.monotonic() - t0)
    ok = trained_score >= 0.55 and untrained_score <= 0.45 and total < 900.0
    _verdict(7, "pool-training-beats-baseline", ok,
             f"trained {trained_score:.3f} (need >=0.55), untrained {untrained_score:.3f} "
             f"(need <=0.45), {total:.0f}s")


# ---------------------------------------------------------------------------
# 08: plain self-play ends up weaker than pool training at equal budget
# ---------------------------------------------------------------------------


def test_c08_plain_selfplay_weaker_than_pool(pool_run, selfplay_run):
    fs, pool_w = _final_weights(pool_run["dir"])
    _, self_w = _final_weights(selfplay_run["dir"])
    score, tally = _c4_match(self_w, pool_w, 400, seed=4808)
    ok = score < 0.50
    _verdict(8, "plain-selfplay-weaker-than-pool", ok,
             f"selfplay vs pool-trained: {score:.3f} (need <0.50), {tally}")


# ---------------------------------------------------------------------------
# 09: material values learned from scratch come out in the right order
# ---------------------------------------------------------------------------


def test_c09_material_value_ordering(run_root):
    out = run_root / "mc-material"
    seconds = _train("mc_material_selfplay.json", out)
    fs, w = _final_weights(out)
    v = dict(zip(fs.names, w.values))
    p, n, b, r, q = (v[k] for k in
                     ("pawn_diff", "knight_diff", "bishop_diff", "rook_diff", "queen_diff"))
    ordered = p < n and p < b and n < r and b < r and r < q
    ok = ordered and p == 1.0 and seconds < 1800.0
    _verdict(9, "material-value-ordering", ok,
             f"P={p:.2f} N={n:.2f} B={b:.2f} R={r:.2f} Q={q:.2f}, {seconds:.0f}s")


# ---------------------------------------------------------------------------
# 10: bitwise reproducibility and trace replay
# ---------------------------------------------------------------------------


def test_c10_reproducibility_and_replay(run_root, pool_run):
    first = pool_run["dir"]
    second = run_root / "c4-pool-again"
    _train("c4_pool_train.json", second)
    same = all(
        (first / name).read_bytes() == (second / name).read_bytes()
        for name in ("ratings.csv", "traces.log", "weights_000000.snapshot",
                     "weights_final.snapshot")
    )

    replay_out = run_root / "replay"
    replay_out.mkdir()
    replay_cfg = replay_out / "replay_config.json"
    replay_cfg.write_text(json.dumps({
        "mode": "replay",
        "run_dir": str(first),
        "out_dir": str(replay_out),
        "seed": 0,
    }, indent=2) + "\n", encoding="utf-8")
    rc = cli_main(["--config", str(replay_cfg), "--quiet"])
    report = json.loads((replay_out / "replay.json").read_text(encoding="utf-8"))
    replay_ok = rc == 0 and report["step_values_match"] and report["final_weights_match"]
    _verdict(10, "reproducibility-and-replay", same and replay_ok,
             f"bitwise rerun: {same}, replay exit {rc}")
