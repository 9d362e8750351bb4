"""Record the reference values the benchmark checks against.

Run from the repository root, on a commit whose results are trusted:

    python3 perfbench/record_refs.py

It writes perfbench/refs.json: for each size, the BFS table (histogram and
digest) behind the oracle and the CSV, the exhaustive cube audit, and for
every reference seed 0..REF_SEEDS-1 the envelope audit and both drift walks.
The exact audits are checked against tests/golden_distortion.json instead.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from perml1 import audits, metric  # noqa: E402
from workloads import (  # noqa: E402
    CUBE_KEYS, DRIFT_GATE, DISTORTION_KEYS, REF_SEEDS, SIZES, series_record, table_digest,
)
from run import source_revision  # noqa: E402


def table_record(n: int) -> dict:
    dist = metric.bfs_distances(n).dist
    return {"n": n, "hist": np.bincount(dist).tolist(), "sha256": table_digest(dist)}


def size_record(size: dict) -> dict:
    cube = audits.cube_audit(size["cube_n"])
    out = {
        "bfs": table_record(size["bfs_n"]),
        "csv": table_record(size["csv_n"]),
        "cube": {"pairs_checked": cube.pairs_checked, "exact_checked": cube.exact_checked,
                 **{k: getattr(cube, k) for k in CUBE_KEYS}},
        "envelope": {}, "bfs_drift": {}, "drift": {},
    }
    for seed in range(REF_SEEDS):
        n, samples = size["envelope"]
        rep = audits.distortion_audit(n, mode="envelope", sample_size=samples, seed=seed)
        out["envelope"][str(seed)] = {"pairs_checked": rep.pairs_checked,
                                      **{k: getattr(rep, k) for k in DISTORTION_KEYS}}
        n, horizon, trials = size["bfs_drift"]
        out["bfs_drift"][str(seed)] = series_record(
            audits.drift_walk(n, horizon, trials, seed=seed, proxy="bfs"))
        n, horizon, trials = size["drift"]
        rec = series_record(audits.drift_walk(n, horizon, trials, seed=seed, proxy="formula"))
        if (n, horizon) == DRIFT_GATE[:2] and not DRIFT_GATE[2] <= rec["slope"] <= DRIFT_GATE[3]:
            raise SystemExit(f"seed {seed}: drift slope {rec['slope']} fails the gate")
        out["drift"][str(seed)] = rec
        print(f"seed {seed} recorded", file=sys.stderr)
    return out


def main() -> None:
    refs = {"recorded_from": source_revision(ROOT)}
    for name, size in SIZES.items():
        refs[name] = size_record(size)
    path = Path(__file__).resolve().parent / "refs.json"
    path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}", file=sys.stderr)


if __name__ == "__main__":
    main()
