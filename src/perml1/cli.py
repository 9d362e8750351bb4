"""Command-line entry point.

Every subcommand emits machine-readable output (JSON, or CSV where rows are
natural), records the seed of any randomized run, and uses exit status 0 for
success, 1 for validation problems and 2 for a failed property assertion, so
CI can gate on the difference.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from contextlib import contextmanager
from typing import Iterator, Optional, Sequence, TextIO

from . import __version__
from .audits import (
    PropertyViolation,
    cube_audit,
    distortion_audit,
    drift_walk,
)
from .embed import (
    DEFAULT_GRID_SCALE,
    check_scale1,
    interval_profile,
)
from .metric import (
    ResourceLimitError,
    bfs_distances,
    formula_distance,
    formula_length,
)
from .perms import Permutation, all_permutations, eval_word
from .synth import synthesize

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_PROPERTY = 2


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; remap to the validation status."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_VALIDATION)


@contextmanager
def _opened(out: str) -> Iterator[TextIO]:
    """stdout for "-", else the file `out`, which is closed on exit."""
    if out == "-":
        yield sys.stdout
    else:
        with open(out, "w") as fh:
            yield fh


def _write(text: str, out: str) -> None:
    with _opened(out) as fh:
        fh.write(text)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _parse_perm(text: str, expect_n: Optional[int] = None) -> Permutation:
    p = Permutation.parse(text)
    if expect_n is not None and p.n != expect_n:
        raise ValueError(f"permutation has degree {p.n}, expected {expect_n}")
    return p


def _add_out(sub) -> None:
    sub.add_argument("--out", default="-", help="output path, or - for stdout")


def cmd_oracle(args) -> int:
    table = bfs_distances(args.n)
    with _opened(args.out) as fh:
        writer = csv.writer(fh)
        writer.writerow(["perm", "dist"])
        # both stream in Lehmer-rank order, so no n!-long list is built
        writer.writerows(zip(map(str, all_permutations(args.n)), table.dist))
    return EXIT_OK


def cmd_formula(args) -> int:
    p = _parse_perm(args.perm, args.n)
    if args.other is not None:
        q = _parse_perm(args.other, p.n)
        breakdown = formula_distance(p, q)
    else:
        breakdown = formula_length(p)
    _write(_json_text(breakdown.to_json_dict()), args.out)
    return EXIT_OK


def cmd_synth(args) -> int:
    p = _parse_perm(args.perm, args.n)
    cert = synthesize(p)
    out = {
        "word": str(cert.word),
        "length": cert.length,
        "certified_bound": cert.certified_bound,
        "l_star": cert.shift_used,
    }
    if args.check:
        if eval_word(cert.word) != p:
            raise PropertyViolation("synthesized word does not evaluate to its target")
        out["eval_ok"] = True
        try:
            floor = bfs_distances(p.n)[p]
        except ResourceLimitError:
            floor = None
        out["bfs_distance"] = floor
        if floor is not None and cert.length < floor:
            raise PropertyViolation("word shorter than the exact metric allows")
    _write(_json_text(out), args.out)
    return EXIT_OK


def cmd_embed(args) -> int:
    p = _parse_perm(args.perm, args.n)
    check_scale1(args.scale1)
    out: dict = {"n": p.n, "map": args.map}
    if args.map in ("grid", "combined"):
        import numpy as np

        angles = (2 * np.pi / p.n) * (
            (np.subtract.outer(np.array(p.images), np.array(p.images))) % p.n
        )
        out["angles"] = [round(x, 12) for x in angles.reshape(-1).tolist()]
    if args.map in ("profile", "combined"):
        prof = interval_profile(p)
        records = sorted(
            (key.length, list(key.values), coeff) for key, coeff in prof.coords.items()
        )
        out["profile"] = [
            {"length": length, "values": values, "coeff": coeff}
            for length, values, coeff in records
        ]
    if args.map == "combined":
        out["scale1"] = args.scale1
    _write(_json_text(out), args.out)
    return EXIT_OK


def cmd_audit(args) -> int:
    report = distortion_audit(
        args.n,
        mode=args.mode,
        sample_size=args.sample_size,
        seed=args.seed,
        scale1=args.scale1,
    )
    payload = report.to_json_dict()
    if args.format == "csv":
        keys = sorted(k for k in payload if k not in ("expansion_witness", "contraction_witness", "envelope_note"))
        with _opened(args.out) as fh:
            csv.writer(fh).writerows([keys, [payload[k] for k in keys]])
    else:
        _write(_json_text(payload), args.out)
    return EXIT_OK


def cmd_cube(args) -> int:
    report = cube_audit(args.n, sample_size=args.sample_size, seed=args.seed)
    _write(_json_text(report.to_json_dict()), args.out)
    if not report.minimizer_at_zero:
        raise PropertyViolation("displacement sum not uniquely minimized at shift 0")
    if report.exact_checked and report.exact_sandwich_ok is False:
        raise PropertyViolation("exact distances escaped the formula bracket")
    return EXIT_OK


def cmd_drift(args) -> int:
    series = drift_walk(
        args.n,
        horizon=args.horizon,
        trials=args.trials,
        seed=args.seed,
        proxy=args.proxy,
        four_step=args.four_step,
    )
    if args.format == "csv":
        with _opened(args.out) as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "mean", "stderr"])
            writer.writerows([step.t, step.mean, step.stderr] for step in series.series)
    else:
        _write(_json_text(series.to_json_dict()), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="perml1", description=__doc__)
    parser.add_argument("--version", action="version", version=f"perml1 {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("oracle", parents=[], help="exact BFS word lengths as CSV")
    sub.add_argument("--n", type=int, required=True)
    _add_out(sub)
    sub.set_defaults(func=cmd_oracle)

    sub = subs.add_parser("formula", help="per-shift length formula breakdown")
    sub.add_argument("--n", type=int, default=None)
    sub.add_argument("--perm", required=True, help="one-line images, e.g. 1,2,0")
    sub.add_argument("--other", default=None, help="second permutation for a pairwise breakdown")
    _add_out(sub)
    sub.set_defaults(func=cmd_formula)

    sub = subs.add_parser("synth", help="certified generator word for a permutation")
    sub.add_argument("--n", type=int, default=None)
    sub.add_argument("--perm", required=True)
    sub.add_argument("--check", action="store_true", help="verify evaluation and the BFS floor when feasible")
    _add_out(sub)
    sub.set_defaults(func=cmd_synth)

    sub = subs.add_parser("embed", help="embedding coordinates for a permutation")
    sub.add_argument("--n", type=int, default=None)
    sub.add_argument("--perm", required=True)
    sub.add_argument("--map", choices=("grid", "profile", "combined"), default="combined")
    sub.add_argument("--scale1", type=float, default=DEFAULT_GRID_SCALE)
    _add_out(sub)
    sub.set_defaults(func=cmd_embed)

    sub = subs.add_parser("audit", help="distortion audit of the combined embedding")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--mode", choices=("exact", "envelope"), default="exact")
    sub.add_argument("--sample-size", type=int, default=None)
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--scale1", type=float, default=DEFAULT_GRID_SCALE)
    sub.add_argument("--format", choices=("json", "csv"), default="json")
    _add_out(sub)
    sub.set_defaults(func=cmd_audit)

    sub = subs.add_parser("cube", help="bit-vector embedding audit")
    sub.add_argument("--n", type=int, required=True, help="cube dimension; group degree is 4n^2")
    sub.add_argument("--sample-size", type=int, default=None)
    sub.add_argument("--seed", type=int, default=None)
    _add_out(sub)
    sub.set_defaults(func=cmd_cube)

    sub = subs.add_parser("drift", help="random-walk distance growth")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--horizon", type=int, required=True)
    sub.add_argument("--trials", type=int, required=True)
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--proxy", choices=("formula", "bfs"), default="formula")
    sub.add_argument("--four-step", action="store_true",
                     help="draw steps from the multiset {t, t, c, c^-1} instead of {t, c, c^-1}")
    sub.add_argument("--format", choices=("json", "csv"), default="json")
    _add_out(sub)
    sub.set_defaults(func=cmd_drift)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_VALIDATION
    try:
        return args.func(args)
    except PropertyViolation as exc:
        print(f"property failure: {exc}", file=sys.stderr)
        return EXIT_PROPERTY
    except (ValueError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
