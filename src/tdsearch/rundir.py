"""The run directory: the one module that knows its file names and layout.

A training run writes config.json (the resolved config, which every mode
echoes into its out_dir), ratings.csv, traces.log, weights_000000.snapshot
(the starting weights), periodic weights_NNNNNN.snapshot files and, last,
weights_final.snapshot.  Replay reads back the config, the first and final
snapshots, and the log, one line at a time from the open file.
"""

import csv
import hashlib
import json
import os
import re
from pathlib import Path

from tdsearch.evaluation import _G, FeatureSet, WeightVector, weights_to_text

CSV_COLUMNS = (
    "game_index", "opponent_id", "color", "outcome", "agent_rating",
    "opponent_rating", "moves", "nodes_searched", "weight_snapshot_hash",
)

# The snapshot files a run writes: numbered, final, and the final one's temporary.
_SNAPSHOT_NAME = re.compile(r"weights_(\d{6,}|final)\.snapshot(\.tmp)?")


def weights_hash(fs: FeatureSet, weights: WeightVector) -> str:
    return hashlib.sha256(weights_to_text(fs, weights).encode()).hexdigest()[:12]


def snapshot_path(run_dir, games: int | None = None) -> Path:
    """The snapshot of the weights after `games` games; the final one for None."""
    return Path(run_dir) / f"weights_{'final' if games is None else f'{games:06d}'}.snapshot"


def write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def write_config(out_dir, cfg: dict) -> None:
    """Echo a resolved config into out_dir, making the directory first."""
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    write_json(Path(out_dir) / "config.json", cfg)


def read_config(run_dir) -> dict:
    return json.loads((Path(run_dir) / "config.json").read_text(encoding="utf-8"))


def open_log(run_dir):
    """traces.log, read one line at a time, each line as written: a non-ASCII
    byte or a carriage return reaches the parser, which names its line."""
    return open(Path(run_dir) / "traces.log", encoding="ascii", errors="surrogateescape",
                newline="\n")


class RunWriter:
    """Streams ratings.csv, traces.log and snapshots for a training run.

    A context manager: leaving it closes both streams, also when the run
    raises, so every finished game's row reaches disk.  weights_final.snapshot
    is written last and renamed into place whole, so it exists only once a
    run has completed.  Snapshots an earlier run left in the directory are
    removed first: a shorter run would otherwise keep later ones whose
    hashes match no row of its ratings.csv.
    """

    def __init__(self, out_dir, fs: FeatureSet, weights: WeightVector, snapshot_every: int):
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        for path in self.out_dir.glob("weights_*.snapshot*"):
            if _SNAPSHOT_NAME.fullmatch(path.name):
                path.unlink()
        self.fs = fs
        self.snapshot_every = snapshot_every
        self._csv_fh = open(self.out_dir / "ratings.csv", "w", newline="", encoding="ascii")
        self._csv = csv.writer(self._csv_fh, lineterminator="\n")
        self._csv.writerow(CSV_COLUMNS)
        self._log_fh = open(self.out_dir / "traces.log", "w", encoding="ascii")
        self.snapshot(weights, 0)

    def snapshot(self, weights: WeightVector, game_count: int) -> None:
        snapshot_path(self.out_dir, game_count).write_text(weights_to_text(self.fs, weights), "ascii")

    def write_game(self, game_index, opponent_id, color, outcome_for_agent, agent_rating,
                   opponent_rating, moves, nodes, weights, logs) -> None:
        """One finished game: its ratings.csv row, its traces.log blocks (the
        texts in logs) and, every snapshot_every games, a snapshot."""
        self._csv.writerow([
            game_index, opponent_id, color, _G(outcome_for_agent), _G(agent_rating),
            _G(opponent_rating), moves, nodes, weights_hash(self.fs, weights),
        ])
        self._log_fh.writelines(logs)
        if self.snapshot_every and (game_index + 1) % self.snapshot_every == 0:
            self.snapshot(weights, game_index + 1)

    def __enter__(self) -> "RunWriter":
        return self

    def __exit__(self, *exc) -> None:
        self._csv_fh.close()
        self._log_fh.close()

    def finish(self, weights: WeightVector) -> None:
        self._csv_fh.flush()
        self._log_fh.flush()
        final = snapshot_path(self.out_dir)
        tmp = final.with_name(final.name + ".tmp")
        tmp.write_text(weights_to_text(self.fs, weights), "ascii")
        os.replace(tmp, final)
