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
from functools import lru_cache
from math import factorial
from typing import Iterator, Optional, Sequence, TextIO

import numpy as np

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
from .perms import Permutation, _block_degree, eval_word, unrank_rows
from .perms import all_permutations  # noqa: F401  the benchmark's tracer (perfbench/spans.py) wraps this binding
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


def _digits(buf: np.ndarray, cols, values: np.ndarray, width: int) -> None:
    """Write values (uint8) as ASCII into `width` columns of buf from cols on,
    right-aligned, with 0 bytes in place of leading zeros."""
    for i in range(width):
        place = 10 ** (width - 1 - i)
        digit = values // place % 10 + ord("0")
        buf[:, cols + i] = digit if place == 1 else digit * (values >= place)


def _csv_lines(rows: np.ndarray, dist: np.ndarray) -> str:
    """The oracle CSV lines of int8 one-line rows and their distances, as
    csv.writer writes them: the perm field quoted for n >= 2, where it holds
    the delimiter, and \r\n line ends.  Each line is a fixed-width uint8
    template; the 0 bytes left by short numbers and by n = 1's missing quotes
    are dropped."""
    m, n = rows.shape
    width = len(str(n - 1))
    quote = b'"' if n > 1 else b"\0"
    line = quote + b",".join([b"\0" * width] * n) + quote + b",\0\0\0\r\n"
    buf = np.tile(np.frombuffer(line, dtype=np.uint8), (m, 1))
    _digits(buf, 1 + (width + 1) * np.arange(n), rows.view(np.uint8), width)
    _digits(buf, len(line) - 5, dist.view(np.uint8), 3)  # int8 distances are below 128
    return buf[buf != 0].tobytes().decode("ascii")


def cmd_oracle(args) -> int:
    n = args.n
    table = bfs_distances(n)
    block = factorial(_block_degree(n))
    with _opened(args.out) as fh:
        fh.write("perm,dist\r\n")
        for lo in range(0, len(table.dist), block):  # one write per range of k! ranks: no n!-long text
            dist = table.dist[lo:lo + block]
            fh.write(_csv_lines(unrank_rows(n, np.arange(lo, lo + len(dist))), dist))
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
        if cert.length > cert.certified_bound:
            raise PropertyViolation(f"word of length {cert.length} exceeds its certified bound {cert.certified_bound}")
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
    report = cube_audit(args.n)
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
    sub.add_argument("--check", action="store_true", help="verify evaluation, bound, and the BFS floor when feasible")
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


# main's parser, built on its first call: parsing leaves it unchanged, and each
# subcommand's cmd_* function looks up its collaborators when it runs.
_parser = lru_cache(maxsize=1)(build_parser)


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_VALIDATION
    try:
        return args.func(args)
    except PropertyViolation as exc:
        print(f"property failure: {exc}", file=sys.stderr)
        return EXIT_PROPERTY
    except (ValueError, ResourceLimitError, OSError) as exc:  # OSError: an --out path that cannot be opened
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
