"""Benchmark of perml1's certification workloads.

Run from the repository root:

    python3 perfbench/run.py --workload exact-oracle --seed 1 --seconds 30 --trace 0

It builds the workload's inputs from --seed, repeats the workload's cycle of
jobs for about --seconds seconds, checks every job's output, and prints as
its last line one JSON object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics, measured with no tracing:
  wall_s       median over cycles of the time a cycle spends in perml1 calls
  setup_s      median over fresh processes of the time from spawn to the first
               job: interpreter, imports, references and seeded inputs
  cpu_s        median over cycles of the process CPU time (user+sys) of those calls
  peak_rss_mb  ru_maxrss of this process at the end of the run

--trace 1 alternates untraced and traced cycles and reports the per-layer
metrics: per-job times of the untraced cycles, and from the traced cycles
each layer's self time and counts per cycle (see spans.py), the tracing
overhead, the traced cycle time and the benchmark's own share of it.

Each run also writes a record (seed, revision, versions, machine, sample
counts, per-cycle times, failures and, when traced, every span) to
.perfbench_out/ in the repository root, and prints it to stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"

# Fresh processes timed for setup_s; their median is reported.
SETUP_SPAWNS = 7

def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: the same jobs and checks at sizes that finish in seconds")
    p.add_argument("--refs", default=str(HERE / "refs.json"), help="reference values to check against")
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the monotonic clock and exit (used to time setup_s)")
    return p.parse_args(argv)


def source_revision(root: Path) -> dict:
    """The git revision when the tree is a repository, and a digest of src/."""
    rev = None
    try:
        head = (root / ".git" / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            loose = root / ".git" / ref
            if loose.exists():
                rev = loose.read_text().strip()
            else:
                for line in (root / ".git" / "packed-refs").read_text().splitlines():
                    if line.endswith(" " + ref):
                        rev = line.split()[0]
        else:
            rev = head
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return {"git_rev": rev, "src_sha256": digest.hexdigest()}


def machine() -> dict:
    import numpy

    model = None
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model or platform.processor(),
        "platform": platform.platform(),
    }


def setup(args):
    """Imports, references and seeded inputs: everything before the first job."""
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    refs = json.loads(Path(args.refs).read_text())
    golden = json.loads((ROOT / "tests" / "golden_distortion.json").read_text())
    return workloads.Inputs(args.workload, args.seed, args.size, refs, golden, str(OUT_DIR))


def time_setup(args) -> list[float]:
    """setup_s samples: fresh processes, each timed from spawn to the end of setup()."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only", "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--refs", args.refs]
    samples = []
    for _ in range(SETUP_SPAWNS):
        t0 = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(proc.stdout.split()[-1]) - t0)
    return samples


class Runner:
    """Runs jobs: times each call, checks its output, counts failures."""

    def __init__(self):
        self.tracer = None
        self.cycle = 0
        self.attempted = 0
        self.failures: list[dict] = []
        self.latencies: dict[str, list[float]] = {}  # untraced cycles only
        self.times: dict[str, float] = {}           # this cycle
        self.cpu = 0.0                               # this cycle

    def _span(self, name):
        return self.tracer.span(name) if self.tracer else nullcontext()

    def job(self, step: str, fn, check):
        """Run fn(); return its result if check(result) finds no problem, else None."""
        self.attempted += 1
        problems = []
        result = None
        with self._span("bench." + step):
            c0, t0 = time.process_time(), time.perf_counter()
            try:
                result = fn()
            except Exception:
                problems = ["raised: " + traceback.format_exc()]
            elapsed = time.perf_counter() - t0
            self.cpu += time.process_time() - c0
        self.times[step] = self.times.get(step, 0.0) + elapsed
        if self.tracer is None:
            self.latencies.setdefault(step, []).append(elapsed)
        if not problems:
            with self._span("bench.check"):
                try:
                    problems = check(result)
                except Exception:
                    problems = ["check raised: " + traceback.format_exc()]
        if problems:
            self.failures.append({"cycle": self.cycle, "step": step, "problems": problems})
            print(f"FAILED {step} (cycle {self.cycle}): {problems[0][:2000]}", file=sys.stderr)
            return None
        return result


def run_cycles(cycle, inputs, seconds: float, runner: Runner, tracer):
    """Repeat the cycle until the next one would end after `seconds`.

    With a tracer, cycles alternate untraced and traced, at least one of each.
    """
    import spans

    records = []
    deadline = time.perf_counter() + seconds
    while True:
        traced = tracer is not None and len(records) % 2 == 1
        runner.cycle, runner.times, runner.cpu = len(records), {}, 0.0
        t0 = time.perf_counter()
        if traced:
            tracer.cycle = runner.cycle
            undo = spans.install(tracer)
            runner.tracer = tracer
            try:
                with tracer.span("bench.cycle"):
                    cycle(runner, inputs)
            finally:
                runner.tracer = None
                spans.uninstall(undo)
        else:
            cycle(runner, inputs)
        wall = time.perf_counter() - t0
        records.append({"traced": traced, "wall": wall, "jobs": sum(runner.times.values()),
                        "cpu": runner.cpu, "steps": dict(runner.times)})
        kinds = {r["traced"] for r in records}
        if len(kinds) == (2 if tracer else 1) and time.perf_counter() + wall > deadline:
            return records


def end_to_end(records, setup_samples) -> dict:
    return {
        "wall_s": {"value": statistics.median(r["jobs"] for r in records), "unit": "s"},
        "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
        "cpu_s": {"value": statistics.median(r["cpu"] for r in records), "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
    }


def per_layer(records, runner: Runner, tracer, inputs) -> dict:
    """Job times of the untraced cycles; layer self times and counts per traced cycle."""
    import spans
    import workloads

    plain = [r for r in records if not r["traced"]]
    traced = [r for r in records if r["traced"]]
    k = len(traced)
    out = {}
    for step in dict.fromkeys(s for steps in workloads.STEPS.values() for s in steps):
        out[step] = {"value": statistics.median(r["steps"].get(step, 0.0) for r in plain), "unit": "s"}
    synth_ms = [1000 * t for t in runner.latencies.get("synth", [])]
    out["synth_ms_p50"] = {"value": statistics.median(synth_ms) if synth_ms else 0.0, "unit": "ms"}
    out["synth_ms_p90"] = {"value": statistics.quantiles(synth_ms, n=10)[8] if len(synth_ms) > 1 else 0.0,
                           "unit": "ms"}
    out["synth_samples"] = {"value": len(synth_ms), "unit": "count"}
    totals = inputs.synth_totals
    out["synth.len_over_bfs"] = {"value": totals["length"] / totals["bfs"] if totals["bfs"] else 0.0,
                                 "unit": "ratio"}
    out["synth.len_over_bound"] = {"value": totals["length"] / totals["bound"] if totals["bound"] else 0.0,
                                   "unit": "ratio"}

    self_times, counts = tracer.self_times(), tracer.counts()
    for span, suffix, unit in spans.METRICS:
        if suffix in ("s", "self_s"):
            value = self_times.get(span, 0.0) / k
        else:
            value = counts.get(span, {}).get(suffix, 0)
            if suffix not in spans.PEAK_COUNTS:
                value /= k
        out[f"{span}.{suffix}"] = {"value": value, "unit": unit}
    bench_self = sum(t for name, t in self_times.items() if name.startswith("bench."))
    out["bench.self_s"] = {"value": bench_self / k, "unit": "s"}
    out["trace.wall_s"] = {"value": statistics.fmean(r["wall"] for r in traced), "unit": "s"}
    overhead = statistics.median(r["jobs"] for r in traced) / statistics.median(r["jobs"] for r in plain) - 1
    out["trace.overhead_frac"] = {"value": overhead, "unit": "ratio"}
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    # One core, like the exact audits' threads=1: keeps co-tenant load on the
    # other cores out of the numbers (numpy's BLAS pool otherwise starts a
    # thread per core at import).  Set before numpy is imported here or in
    # the setup processes, which inherit it.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    if not (ROOT / "src" / "perml1" / "__init__.py").is_file():
        print(f"error: no perml1 sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.setup_only:
        setup(args)
        print(time.monotonic())
        return 0

    setup_samples = [] if args.trace else time_setup(args)
    inputs = setup(args)
    import spans
    import workloads

    runner = Runner()
    tracer = spans.Tracer() if args.trace else None
    records = run_cycles(workloads.CYCLES[args.workload], inputs, args.seconds, runner, tracer)
    plain = [r for r in records if not r["traced"]]
    if args.trace:
        metrics = per_layer(records, runner, tracer, inputs)
    else:
        metrics = end_to_end(plain, setup_samples)

    record = {
        "workload": args.workload, "seed": args.seed, "ref_index": inputs.ref_index,
        "size": args.size, "seconds": args.seconds, "trace": args.trace,
        **source_revision(ROOT), **machine(),
        "samples": {"cycles_untraced": len(plain), "cycles_traced": len(records) - len(plain),
                    "setup_spawns": len(setup_samples),
                    "synth_calls": len(runner.latencies.get("synth", []))},
        "job_medians_s": {step: statistics.median(r["steps"][step] for r in plain)
                          for step in workloads.STEPS[args.workload]},
        "setup_samples": setup_samples, "cycles": records, "failures": runner.failures,
        "metrics": metrics,
    }
    print(json.dumps(record), file=sys.stderr)
    if tracer is not None:
        record["spans"] = [s.to_json() for s in tracer.spans]
    name = f"{args.workload}-seed{args.seed}-{args.size}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(record))
    if os.path.exists(inputs.csv_path):
        os.remove(inputs.csv_path)

    failed = len(runner.failures)
    print(json.dumps({"correct": failed == 0, "attempted": runner.attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
