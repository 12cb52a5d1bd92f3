"""Re-record the golden digests in expected.json.

    python3 bench/record.py

Plays each workload's recorded-seed episode (the config's own seed) and
stores its per-game and per-file digests with the environment they were
made in.  Only re-record in a change that says why the outputs changed.
"""

import json
import os
import shutil
import sys

from run import BENCH, ROOT, WORKLOADS, make_spec, pinned_env, run_child


def main() -> int:
    tmp = ROOT / ".bench_tmp" / f"record-{os.getpid()}"
    expected = {}
    try:
        for name in WORKLOADS:
            work = tmp / name
            work.mkdir(parents=True)
            spec = make_spec(name, work, record=True)
            (work / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
            report = run_child([str(BENCH / "worker.py"), str(work / "spec.json")],
                               pinned_env(), 600)
            if not report["correct"]:
                print(f"{name}: {report['notes']}", file=sys.stderr)
                return 1
            expected[name] = report["digests"]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    (BENCH / "expected.json").write_text(json.dumps(expected, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
