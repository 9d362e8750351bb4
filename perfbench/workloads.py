"""The three workloads: inputs made from a seed, the jobs of one cycle, and
the check on every job's output.

Every job calls a public function of ``perml1`` through its module, so the
traced run's stand-ins (see ``spans.py``) see the call.  Every job's output
is checked; a failed check or an exception counts the job as failed and the
cycle goes on.

Which layers each workload stresses (the reason for having three):

* ``exact-oracle`` is the only one that runs the BFS oracle, the exact pair
  scan, ``all_permutations`` and the oracle CSV.  It runs no formula kernel.
* ``envelope-cube`` certifies beyond the reach of BFS: the dict-backed
  interval profile, and the formula kernel on a few rows at degree 100.
  It runs no BFS.
* ``formula-drift`` runs the formula kernel on many rows at degree 40.
  It runs no BFS and no profile.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import math
from math import factorial

import numpy as np

from perml1 import audits, cli, metric, perms, synth

# Sizes of one cycle.  "tiny" is the self-test mode: same jobs and checks,
# finishing in seconds.
SIZES = {
    "full": {
        "bfs_n": 9,
        "audit_ns": (3, 4, 5, 6),
        "csv_n": 8,
        "synth": (9, 1000),            # degree, targets per cycle
        "bfs_drift": (9, 30, 10_000),  # degree, horizon, trials
        "envelope": (20, 5000),        # degree, sampled pairs
        "cube_n": 5,                   # exhaustive, degree 4*5^2 = 100
        "drift": (40, 10, 2000),       # degree, horizon, trials
    },
    "tiny": {
        "bfs_n": 6,
        "audit_ns": (3, 4),
        "csv_n": 5,
        "synth": (6, 100),
        "bfs_drift": (6, 8, 200),
        "envelope": (8, 300),
        "cube_n": 1,                   # degree 4: small enough for the exact sandwich
        "drift": (12, 6, 300),
    },
}

# Seeded library calls (envelope audit, both drift walks) take
# seed % REF_SEEDS, so that each of their results has a reference value
# recorded from a trusted commit in refs.json.
REF_SEEDS = 16

# Relative tolerance on recorded floats: loose enough for a closed-form or
# re-ordered rewrite of the same quantity, tight enough to catch a changed one.
REL_TOL = 1e-9

# Acceptance gate on the formula-drift slope, for the walk (n=40, T=10).
DRIFT_GATE = (40, 10, 0.6, 0.9)

DISTORTION_KEYS = ("distortion", "max_contraction", "max_expansion")
CUBE_KEYS = ("ratio_lo", "ratio_hi", "certificate")


def table_digest(dist: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(dist, dtype="<i4").tobytes()).hexdigest()


def series_record(series) -> dict:
    return {
        "means": [s.mean for s in series.series],
        "stderrs": [s.stderr for s in series.series],
        "slope": audits.drift_slope(series),
    }


def _close(name: str, got: float, want: float) -> list[str]:
    if math.isclose(got, want, rel_tol=REL_TOL, abs_tol=1e-12):
        return []
    return [f"{name}: got {got!r}, reference {want!r}"]


def check_table(table, ref: dict) -> list[str]:
    dist = np.asarray(table.dist)
    problems = []
    if dist.shape != (factorial(ref["n"]),):
        problems.append(f"table shape {dist.shape}, expected ({factorial(ref['n'])},)")
    if (dist < 0).any():
        problems.append(f"{int((dist < 0).sum())} unreached entries (-1)")
        return problems
    hist = np.bincount(dist).tolist()
    if hist != ref["hist"]:
        problems.append(f"distance histogram {hist} != reference {ref['hist']}")
    if table_digest(dist) != ref["sha256"]:
        problems.append("table digest differs from the reference table")
    return problems


def check_exact(report, gold: dict) -> list[str]:
    problems = []
    if report.mode != "exact":
        problems.append(f"mode {report.mode!r}")
    if report.pairs_checked != gold["pairs_checked"]:
        problems.append(f"pairs_checked {report.pairs_checked} != {gold['pairs_checked']}")
    for key in DISTORTION_KEYS:
        problems += _close(key, getattr(report, key), gold[key])
    return problems


def check_csv(code: int, path: str, ref: dict) -> list[str]:
    if code != 0:
        return [f"oracle exited {code}"]
    n = ref["n"]
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[:1] != [["perm", "dist"]] or len(rows) != factorial(n) + 1:
        return [f"{len(rows)} rows with header {rows[:1]}, expected {factorial(n) + 1}"]
    expected = (",".join(map(str, p)) for p in itertools.permutations(range(n)))
    if any(row[0] != want for row, want in zip(rows[1:], expected)):
        return ["perm column is not Sym_n in Lehmer-rank order"]
    dist = np.array([int(row[1]) for row in rows[1:]])
    if table_digest(dist) != ref["sha256"]:
        return ["dist column differs from the reference table"]
    return []


def check_report(report, ref: dict, keys) -> list[str]:
    problems = []
    if report.pairs_checked != ref["pairs_checked"]:
        problems.append(f"pairs_checked {report.pairs_checked} != {ref['pairs_checked']}")
    for key in keys:
        problems += _close(key, getattr(report, key), ref[key])
    return problems


def check_cube(report, ref: dict) -> list[str]:
    problems = check_report(report, ref, CUBE_KEYS)
    if report.minimizer_at_zero is not True:
        problems.append("displacement sum not uniquely minimized at shift 0")
    if report.exact_checked != ref["exact_checked"] or report.exact_sandwich_ok is False:
        problems.append(f"exact check {report.exact_checked}/{report.exact_sandwich_ok}")
    return problems


def check_series(series, ref: dict, gate: bool) -> list[str]:
    got = series_record(series)
    if len(got["means"]) != len(ref["means"]):
        return [f"{len(got['means'])} steps, expected {len(ref['means'])}"]
    problems = []
    for key in ("means", "stderrs"):
        for t, (a, b) in enumerate(zip(got[key], ref[key])):
            problems += _close(f"{key}[{t}]", a, b)
    problems += _close("slope", got["slope"], ref["slope"])
    lo, hi = DRIFT_GATE[2:]
    if gate and not lo <= got["slope"] <= hi:
        problems.append(f"slope {got['slope']} outside the gate [{lo}, {hi}]")
    return problems


class Inputs:
    """Everything a cycle needs, built before the first job."""

    def __init__(self, workload: str, seed: int, size: str, refs: dict, golden: dict, out_dir: str):
        if workload not in CYCLES:
            raise ValueError(f"unknown workload {workload!r}; choose from {list(CYCLES)}")
        self.size = SIZES[size]
        self.refs = refs[size]
        self.golden = golden
        self.ref_index = seed % REF_SEEDS
        self.csv_path = f"{out_dir}/oracle-{workload}-{seed}.csv"
        n, count = self.size["synth"] if workload == "exact-oracle" else (1, 0)
        rng = np.random.default_rng(seed)
        self.targets = [
            perms.Permutation(n, tuple(int(x) for x in rng.permutation(n))) for _ in range(count)
        ]
        self.synth_totals = {"length": 0, "bfs": 0, "bound": 0}


def _exact_oracle(r, inp: Inputs) -> None:
    size, refs = inp.size, inp.refs
    table = r.job("oracle_s", lambda: metric.bfs_distances(size["bfs_n"]),
                  lambda t: check_table(t, refs["bfs"]))
    for n in size["audit_ns"]:
        # threads left at the library default of 1: co-tenant load stays out
        # of the time, and cpu_s would show any thread use.
        r.job("exact_audit_s", lambda n=n: audits.distortion_audit(n),
              lambda rep, n=n: check_exact(rep, inp.golden[str(n)]))
    argv = ["oracle", "--n", str(size["csv_n"]), "--out", inp.csv_path]
    r.job("oracle_csv_s", lambda: cli.main(argv),
          lambda code: check_csv(code, inp.csv_path, refs["csv"]))

    def check_synth(cert, p):
        if table is None:
            return ["no verified BFS table to check the floor against"]
        floor = table[p]
        problems = []
        if cert.target != p or perms.eval_word(cert.word) != p:
            problems.append(f"word {cert.word} does not evaluate to {p}")
        if not floor <= cert.length <= cert.certified_bound:
            problems.append(f"length {cert.length} outside [{floor}, {cert.certified_bound}] for {p}")
        totals = inp.synth_totals
        totals["length"] += cert.length
        totals["bfs"] += floor
        totals["bound"] += cert.certified_bound
        return problems

    for p in inp.targets:
        r.job("synth", lambda p=p: synth.synthesize(p), lambda cert, p=p: check_synth(cert, p))
    n, horizon, trials = size["bfs_drift"]
    r.job("bfs_drift_s",
          lambda: audits.drift_walk(n, horizon, trials, seed=inp.ref_index, proxy="bfs"),
          lambda s: check_series(s, refs["bfs_drift"][str(inp.ref_index)], gate=False))


def _envelope_cube(r, inp: Inputs) -> None:
    size, refs = inp.size, inp.refs
    n, samples = size["envelope"]
    r.job("envelope_audit_s",
          lambda: audits.distortion_audit(n, mode="envelope", sample_size=samples, seed=inp.ref_index),
          lambda rep: check_report(rep, refs["envelope"][str(inp.ref_index)], DISTORTION_KEYS))
    r.job("cube_audit_s", lambda: audits.cube_audit(size["cube_n"]),
          lambda rep: check_cube(rep, refs["cube"]))


def _formula_drift(r, inp: Inputs) -> None:
    n, horizon, trials = inp.size["drift"]
    gate = (n, horizon) == DRIFT_GATE[:2]
    r.job("drift_s",
          lambda: audits.drift_walk(n, horizon, trials, seed=inp.ref_index, proxy="formula"),
          lambda s: check_series(s, inp.refs["drift"][str(inp.ref_index)], gate))


CYCLES = {
    "exact-oracle": _exact_oracle,
    "envelope-cube": _envelope_cube,
    "formula-drift": _formula_drift,
}

# Per-cycle job times each workload reports (synth is reported as latency
# percentiles instead of a per-cycle sum).
STEPS = {
    "exact-oracle": ("oracle_s", "exact_audit_s", "oracle_csv_s", "bfs_drift_s"),
    "envelope-cube": ("envelope_audit_s", "cube_audit_s"),
    "formula-drift": ("drift_s",),
}
