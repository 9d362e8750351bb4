"""End-to-end audits: distortion certification, the Hamming-cube embedding,
and a random-walk drift diagnostic.

The word metric and the combined embedding are both right-invariant:
d(p s, q s) = d(p, q) for every s.  So every audited pair (p, q) is scored
as the single element sigma = q p^-1 against the identity, with the
closed-form distances of `identity_distances`, and every reported witness
pair is (identity, sigma).  Exact mode sweeps each sigma != id against the
BFS oracle; the sweep stands for all n!(n!-1) ordered pairs.  Envelope
mode, for degrees with infeasible BFS, brackets the true distance by
[F/3, min(6*sum+2*diam)] and reports a certificate that overestimates the
distortion by at most the width (factor 18) of that bracket.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import asdict, dataclass
from math import factorial, isclose, sqrt
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .embed import (
    DEFAULT_GRID_SCALE,
    _identity_temp_bytes,
    check_scale1,
    circle_grid,
    circle_grid_distance,
    identity_distances,
    interval_profile,
)
from .metric import (
    _formula_batch_bytes,
    _generators,
    _rank_deltas,
    bfs_distances,
    check_memory,
    formula_terms_batch,
    rank_rows,
)
from .perms import Permutation, _block_degree, _blocks_bytes, perm_blocks
from .perms import all_permutations  # noqa: F401  the benchmark's tracer (perfbench/spans.py) wraps this binding

__all__ = [
    "PropertyViolation",
    "DistortionReport", "distortion_audit",
    "hamming_embed", "CubeAuditReport", "cube_audit",
    "DriftStep", "DriftSeries", "drift_walk", "drift_slope",
]


class PropertyViolation(AssertionError):
    """An audited invariant failed during a run; the CLI maps this to exit 2."""


@dataclass(frozen=True)
class DistortionReport:
    n: int
    mode: str  # "exact" | "envelope"
    pairs_checked: int
    max_expansion: float
    expansion_witness: tuple[str, str]
    max_contraction: float
    contraction_witness: tuple[str, str]
    distortion: float
    scale1: float
    sample_size: Optional[int]
    seed: Optional[int]
    wall_time_ms: float

    def to_json_dict(self) -> dict:
        out = {"version": __version__, **asdict(self)}
        if self.mode == "envelope":
            out["envelope_note"] = (
                "certificate computed against the [F/3, min(6*sum+2*diam)] bracket; "
                "it overestimates the true distortion by at most a factor 18"
            )
        return out


def _elapsed_ms(start: float) -> float:
    return round((time.perf_counter() - start) * 1000, 3)


def _bracket(sums: np.ndarray, diams: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The formula bracket [F/3, min(6*sum+2*diam)] of each row's word length."""
    d_lo = (sums + diams).min(axis=1) / 3.0
    d_hi = (6 * sums + 2 * diams).min(axis=1).astype(np.float64)
    if (d_lo > d_hi).any():
        raise PropertyViolation("formula bracket inverted: F/3 > min(6*sum+2*diam)")
    return d_lo, d_hi


def _quotients(p_rows: np.ndarray, q_rows: np.ndarray) -> np.ndarray:
    """Rows of q * p^-1, the element that right-invariance scores for (p, q)."""
    return np.take_along_axis(q_rows, np.argsort(p_rows, axis=1), axis=1)


def _witness(row: np.ndarray) -> tuple[Permutation, Permutation]:
    n = len(row)
    return Permutation.identity(n), Permutation(n, tuple(int(x) for x in row))


def _check_witness(row: np.ndarray) -> tuple[str, str]:
    """Check a witness's closed-form grid and profile distances against the
    coordinates and return its text.  Each part sums at most 2n^2 terms of
    size <= 2, each rounded far below 1e-12, hence the tolerance n^2 * 1e-12."""
    p, q = _witness(row)
    coordinates = (circle_grid_distance(circle_grid(p), circle_grid(q)),
                   interval_profile(p).distance(interval_profile(q)))
    parts = identity_distances(row[None, :])
    for name, (closed_form,), reference in zip(("grid", "profile"), parts, coordinates):
        if not isclose(closed_form, reference, rel_tol=1e-9, abs_tol=p.n * p.n * 1e-12):
            raise PropertyViolation(f"closed-form {name} distance {float(closed_form)} of ({p}, {q}) "
                                    f"differs from the coordinate distance {float(reference)}")
    return str(p), str(q)


def _score(sigma: np.ndarray, d_lo: np.ndarray, d_hi: np.ndarray,
           scale1: float) -> tuple[int, tuple[float, np.ndarray], tuple[float, np.ndarray]]:
    """Score a batch of rows sigma against their word-length bracket
    [d_lo, d_hi]: (rows scored, (max expansion, its row), (max contraction,
    its row)).  Rows with d_lo = 0, a sampled pair that repeats an element,
    are not scored; a scored row at combined distance 0 is a violation."""
    distinct = d_lo > 0
    if not distinct.any():
        raise PropertyViolation("all sampled pairs were identical; increase sample_size")
    grid, profile = identity_distances(sigma)
    with np.errstate(over="ignore"):
        emb = scale1 * grid + profile
    del grid, profile  # _check_witness recomputes the witnesses' parts
    if not np.isfinite(emb.max()):  # distances are >= 0: the max is inf or nan iff one is
        raise ValueError(f"combined distances overflow at scale1 = {scale1}")
    exp_ratios = np.where(distinct, emb / np.maximum(d_lo, 1e-300), -1.0)
    con_ratios = np.where(distinct, d_hi / np.maximum(emb, 1e-300), -1.0)
    ei, ci = int(exp_ratios.argmax()), int(con_ratios.argmax())
    if emb[ci] == 0:  # a distinct pair at distance 0 has the largest contraction, >= 1e300 / 3
        p, q = _witness(sigma[ci])
        raise PropertyViolation(f"the combined embedding maps distinct elements {p} and {q} to one point")
    return (int(distinct.sum()), (float(exp_ratios[ei]), sigma[ei].copy()),
            (float(con_ratios[ci]), sigma[ci].copy()))


def distortion_audit(
    n: int,
    mode: str = "exact",
    sample_size: Optional[int] = None,
    seed: Optional[int] = None,
    scale1: float = DEFAULT_GRID_SCALE,
) -> DistortionReport:
    """Certify the combined embedding against the word metric.

    Each pair (p, q) is scored as sigma = q p^-1 against the identity.  Exact
    mode sweeps every sigma != id, which stands for all n!(n!-1) ordered
    pairs, one block of Lehmer ranks (perm_blocks) at a time, or scores a
    seeded sample of pairs, against the BFS oracle; its arrays are checked
    against MEMORY_BUDGET before the BFS runs (the sweep holds the n! table
    and one block: Sym_12 fits).  Envelope mode samples pairs and certifies
    against the two-sided formula bracket instead.
    """
    start = time.perf_counter()
    if mode not in ("exact", "envelope"):
        raise ValueError(f"unknown mode {mode!r}")
    if n < 1:
        raise ValueError(f"degree must be >= 1, got {n}")
    if sample_size is not None and sample_size < 1:
        raise ValueError(f"sample_size must be >= 1, got {sample_size}")
    check_scale1(scale1)
    if mode == "envelope" and sample_size is None:
        sample_size = 20000
    if n == 1:
        return DistortionReport(
            n, mode, 0, 1.0, ("", ""), 1.0, ("", ""), 1.0, scale1, sample_size, seed,
            _elapsed_ms(start),
        )
    rng = np.random.default_rng(seed)
    if mode == "exact":
        size = factorial(n)
        # The int8 table and the blocks, and per scored row at the peak: the
        # distinct mask and four float64 arrays (grid, profile, combined and a
        # temporary, or combined, expansion ratios and two temporaries).  A
        # sampled row also holds its two draws, both rows, quotient and argsort,
        # next to all n! elements.
        if sample_size is None:
            rows, per_row, held = factorial(_block_degree(n)), 33, 0
        else:
            rows, per_row, held = sample_size, 33 + 12 * n + 24, size * n
        check_memory(size + _blocks_bytes(n) + held + rows * per_row + _identity_temp_bytes(rows, n),
                     f"the exact audit of Sym_{n}")
        table = bfs_distances(n)
        if sample_size is None:
            checked, expansion, contraction = 0, (-1.0, None), (-1.0, None)
            for lo, block in perm_blocks(n):
                first = 1 if lo == 0 else 0  # rank 0 is the identity
                if first < len(block):
                    d = table.dist[lo + first:lo + len(block)]
                    scored, exp, con = _score(block[first:], d, d, scale1)
                    checked += scored
                    # strict: the first rank wins ties, as an argmax over all of Sym_n would
                    expansion = exp if exp[0] > expansion[0] else expansion
                    contraction = con if con[0] > contraction[0] else contraction
            checked *= size
        else:
            elements = np.empty((size, n), dtype=np.int8)
            for lo, block in perm_blocks(n):
                elements[lo:lo + len(block)] = block
            ii = rng.integers(0, size, sample_size)
            jj = rng.integers(0, size - 1, sample_size)
            jj = np.where(jj >= ii, jj + 1, jj)
            sigma = _quotients(elements[ii], elements[jj])
            d = table.dist[rank_rows(sigma)]
            checked, expansion, contraction = _score(sigma, d, d, scale1)
    else:
        p_rows = np.array([rng.permutation(n) for _ in range(sample_size)], dtype=np.int64)
        q_rows = np.array([rng.permutation(n) for _ in range(sample_size)], dtype=np.int64)
        sigma = _quotients(p_rows, q_rows)
        checked, expansion, contraction = _score(sigma, *_bracket(*formula_terms_batch(sigma)), scale1)

    return DistortionReport(
        n, mode, checked,
        expansion[0], _check_witness(expansion[1]),
        contraction[0], _check_witness(contraction[1]),
        expansion[0] * contraction[0], scale1, sample_size, seed,
        _elapsed_ms(start),
    )


def hamming_embed(n: int, bits: Sequence[int]) -> Permutation:
    """Map a length-n bit vector into Sym_{4n^2} as a product of the n
    disjoint transpositions (i, n+i), one per set bit."""
    if n < 1:
        raise ValueError("cube dimension must be >= 1")
    if len(bits) != n or any(b not in (0, 1) for b in bits):
        raise ValueError(f"need a 0/1 vector of length {n}")
    degree = 4 * n * n
    images = list(range(degree))
    for i, bit in enumerate(bits):
        if bit:
            images[i], images[n + i] = n + i, i
    return Permutation(degree, tuple(images))


@dataclass(frozen=True)
class CubeAuditReport:
    n: int
    degree: int
    pairs_checked: int
    ratio_lo: float
    ratio_hi: float
    certificate: float
    minimizer_at_zero: bool
    exact_checked: bool
    exact_sandwich_ok: Optional[bool]
    seed: Optional[int]
    wall_time_ms: float

    def to_json_dict(self) -> dict:
        return {"version": __version__, **asdict(self)}


def cube_audit(
    n: int,
    sample_size: Optional[int] = None,
    seed: Optional[int] = None,
) -> CubeAuditReport:
    """Audit the bit-vector embedding against the formula bracket.

    h(e)^-1 h(d) = h(e xor d), so each pair is scored as the single vector
    x = e xor d: the exhaustive audit runs the 2^n - 1 nonzero x, each
    standing for the 2^n ordered pairs (e, e xor x).  Checks
    h/..-proportional bounds via d_lo = F/3 and d_hi = min(6s+2d), verifies
    the displacement sum is uniquely minimized at shift 0 on every pair, and
    (when the degree is BFS-feasible) compares with exact distances.  Its
    arrays are checked against MEMORY_BUDGET first: exhaustive runs reach
    n = 14, and n = 15 raises ResourceLimitError unless sampled.
    """
    start = time.perf_counter()
    if n < 1:
        raise ValueError(f"cube dimension must be >= 1, got {n}")
    if sample_size is not None and sample_size < 1:
        raise ValueError(f"sample_size must be >= 1, got {sample_size}")
    degree = 4 * n * n
    rows = 2 ** n - 1 if sample_size is None else sample_size
    # sigma lives through the kernel, and the bracket reuses the kernel's freed arrays
    check_memory(8 * rows * degree + _formula_batch_bytes(rows, degree),
                 f"the cube audit of {rows:,} vectors at degree {degree}")
    if sample_size is None:
        diffs = [v for v in itertools.product((0, 1), repeat=n) if any(v)]
        pairs = 2 ** n * rows
    else:
        rng = np.random.default_rng(seed)
        diffs = []
        while len(diffs) < sample_size:
            e = rng.integers(0, 2, n)
            dl = rng.integers(0, 2, n)
            if (e != dl).any():
                diffs.append(tuple((e ^ dl).tolist()))
        pairs = sample_size

    sigma = np.fromiter(itertools.chain.from_iterable(hamming_embed(n, x).images for x in diffs),
                        dtype=np.int64, count=rows * degree).reshape(rows, degree)
    sums, diams = formula_terms_batch(sigma)
    h = np.array([sum(x) for x in diffs], dtype=np.int64)
    d_lo, d_hi = _bracket(sums, diams)
    scaled = n * h
    ratio_lo = float((d_lo / scaled).min())
    ratio_hi = float((d_hi / scaled).max())
    minimizer_ok = bool((sums[:, 0] < sums[:, 1:].min(axis=1)).all())

    exact_checked = degree <= 7
    sandwich_ok = None
    if exact_checked:
        table = bfs_distances(degree)
        d_exact = table.dist[rank_rows(sigma)]
        sandwich_ok = bool(
            ((d_lo <= d_exact + 1e-12) & (d_exact <= d_hi + 1e-12)).all()
            and ((h / 3.0 <= d_exact + 1e-12) & (d_exact <= 11 * h + 1e-12)).all()
        )

    return CubeAuditReport(
        n, degree, pairs, ratio_lo, ratio_hi, ratio_hi / ratio_lo,
        minimizer_ok, exact_checked, sandwich_ok, seed,
        _elapsed_ms(start),
    )


@dataclass(frozen=True)
class DriftStep:
    t: int
    mean: float
    stderr: float


@dataclass(frozen=True)
class DriftSeries:
    n: int
    horizon: int
    trials: int
    seed: Optional[int]
    proxy: str  # "formula" | "bfs"
    series: tuple[DriftStep, ...]

    def means(self) -> np.ndarray:
        return np.array([s.mean for s in self.series])

    def to_json_dict(self) -> dict:
        slope = drift_slope(self)
        return {
            "version": __version__,
            **asdict(self),
            "slope": None if np.isnan(slope) else slope,  # null: fewer than two points to fit
        }


def drift_walk(
    n: int,
    horizon: int,
    trials: int,
    seed: Optional[int] = None,
    proxy: str = "formula",
    four_step: bool = False,
) -> DriftSeries:
    """Simple random walk by left multiplication with steps uniform on
    {t, c, c^-1} (or the four-element multiset {t, t, c, c^-1}).

    The distance proxy per step is either the exact BFS length or F/3, the
    lower edge of the formula's 3-approximation bracket.  The BFS proxy
    carries each walker as an inverse row with its Lehmer rank and moves it
    as the BFS does, so no state is ranked from scratch.
    """
    if proxy not in ("formula", "bfs"):
        raise ValueError(f"unknown proxy {proxy!r}")
    if n < 2:
        raise ValueError("the walk needs both generators, so degree >= 2")
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    table = bfs_distances(n) if proxy == "bfs" else None
    rng = np.random.default_rng(seed)
    states = np.tile(np.arange(n, dtype=np.int64), (trials, 1))  # one-line rows, or inverse rows for "bfs"
    ranks = np.zeros(trials, dtype=np.int64)
    steps = [DriftStep(0, 0.0, 0.0)]
    gens, moves = _generators(n)
    letters = np.array([0, 0, 1, 2] if four_step else [0, 1, 2])  # t, c, c^-1
    for t in range(1, horizon + 1):
        g = letters[rng.integers(0, len(letters), trials)]
        if proxy == "bfs":
            ranks += _rank_deltas(n, states[:, 0], states[:, 1], states[:, -1])[g, np.arange(trials)]
            states = np.take_along_axis(states, moves[g], axis=1)
            values = table.dist[ranks].astype(np.float64)
        else:
            states = gens[g[:, None], states]  # left multiplication: g(p(k))
            values = _bracket(*formula_terms_batch(states))[0]
        mean = float(values.mean())
        stderr = float(values.std(ddof=1) / sqrt(trials)) if trials > 1 else 0.0
        if mean > t + 1e-9:
            raise PropertyViolation(f"drift proxy mean {mean} exceeds step count {t}")
        steps.append(DriftStep(t, mean, stderr))
    return DriftSeries(n, horizon, trials, seed, proxy, tuple(steps))


def drift_slope(series: DriftSeries, min_t: int = 2) -> float:
    """Least-squares slope of log(mean) vs log(t) over t >= min_t.

    The first step is excluded by default: there the formula proxy's
    constant-factor bias against the true metric is at its worst (single
    generators have proxy values 1/3 or 1 while every true distance is 1),
    which visibly bends the log-log line before any growth law can show.
    """
    ts = np.array([s.t for s in series.series if s.t >= min_t and s.mean > 0], dtype=np.float64)
    ms = np.array([s.mean for s in series.series if s.t >= min_t and s.mean > 0])
    if len(ts) < 2:
        return float("nan")
    x = np.log(ts)
    y = np.log(ms)
    slope = ((x - x.mean()) * (y - y.mean())).sum() / ((x - x.mean()) ** 2).sum()
    return float(slope)
