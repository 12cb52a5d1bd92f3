"""Set-up probe: time one tdsearch run from interpreter start to its first game.

    python3 bench/probe.py CONFIG

Runs the real command line path (import, config load, agent and pool build,
run-directory set-up) and stops it when the first game is about to start.
Prints one JSON line: the CLOCK_MONOTONIC reading at that moment, which the
caller compares with its own reading taken before starting this process,
plus the import and config-load times.  Only stdlib modules are imported
before tdsearch, so the probe adds little to what a user's start-up pays.
"""

import json
import sys
import time


class FirstGame(BaseException):
    """Raised at the first game; not an Exception, so the CLI does not catch it."""


def main(config_path: str) -> None:
    t0 = time.perf_counter()
    import tdsearch.arena as arena
    import tdsearch.cli as cli
    import_ms = (time.perf_counter() - t0) * 1e3

    load_ms = []
    load_config = cli.load_config

    def timed_load_config(*args, **kwargs):
        t = time.perf_counter()
        try:
            return load_config(*args, **kwargs)
        finally:
            load_ms.append((time.perf_counter() - t) * 1e3)

    def first_game(*args, **kwargs):
        raise FirstGame(time.monotonic())

    cli.load_config = timed_load_config
    arena.play_game = first_game
    try:
        cli.main(["--config", config_path, "--quiet"])
    except FirstGame as reached:
        print(json.dumps({"ready": reached.args[0], "import_ms": import_ms,
                          "load_config_ms": load_ms[0]}))
        return
    sys.exit("probe: the run ended before its first game")


if __name__ == "__main__":
    main(sys.argv[1])
