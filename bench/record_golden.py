"""Record the golden outputs that the benchmark checks requests against.

    python3 bench/record_golden.py

Writes golden/cli/<spec>.<command>.out, the exact stdout of every bundled
cli_cold request, and golden/random_sweep.json, the checker verdict and
oracle dimensions of every pair of the random_sweep corpus.  Record them again
only when a change is meant to alter structcon's output, and say so in the
change: the benchmark counts any other difference as a failed request.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import workloads as wl  # noqa: E402


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for argv, path in wl.bundled_cli_requests(ROOT):
        proc = subprocess.run([sys.executable, "-m", "structcon.cli", *argv], cwd=ROOT, env=env,
                              capture_output=True, check=True)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(proc.stdout)

    import structcon

    rows = []
    for k, pair in enumerate(wl.sweep_corpus(structcon)):
        report = structcon.cross_validate(pair, trials=wl.SWEEP_TRIALS, seed=k)
        rows.append([report.verdict.value, list(report.oracle.dimensions)])
    (wl.GOLDEN_DIR / "random_sweep.json").write_text(
        "[\n" + ",\n".join(json.dumps(r) for r in rows) + "\n]\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
