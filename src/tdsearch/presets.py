"""Named weight presets for experiments and opponent pools."""

from __future__ import annotations

from tdsearch.evaluation import FeatureSet, WeightVector, feature_set

# Hand-set Connect-4 weights: a serviceable but unremarkable evaluator used
# for pool opponents and the frozen comparison baseline.
CONNECT4_BASELINE = {
    "center_col": 0.15,
    "run2_h": 0.08,
    "run2_v": 0.08,
    "run2_diag": 0.08,
    "run3_h": 0.30,
    "run3_v": 0.25,
    "run3_diag": 0.30,
    "win_sq_even_row": 0.45,
    "win_sq_odd_row": 0.55,
    "playable_win_sq": 1.6,
    "low_half": 0.03,
}

# Classical-looking hand values on the pawn scale (pawn anchored at 1).
MINICHESS_MATERIAL = {
    "pawn_diff": 1.0,
    "knight_diff": 4.0,
    "bishop_diff": 4.0,
    "rook_diff": 6.0,
    "queen_diff": 12.0,
}

_PRESETS = {
    ("connect4", "baseline"): CONNECT4_BASELINE,
    ("minichess", "material"): MINICHESS_MATERIAL,
    ("minichess-material", "material"): MINICHESS_MATERIAL,
}


def preset_weights(fs: FeatureSet, name: str) -> WeightVector:
    """Resolve a named preset ("zero", "baseline", "material") for a feature set."""
    if name == "zero":
        return fs.weights_from({})
    table = _PRESETS.get((fs.id, name))
    if table is None:
        raise KeyError(f"no preset {name!r} for feature set {fs.id!r}")
    return fs.weights_from(table)


def resolve_feature_set(game_id: str, features: str | None) -> FeatureSet:
    """Map a config's game + optional feature-set name to a FeatureSet.

    Each game's default feature set carries the game's own id.
    """
    fs = feature_set(game_id if features is None else features)
    if fs.game_id != game_id:
        raise ValueError(f"feature set {features!r} is for {fs.game_id}, not {game_id}")
    return fs
