"""End-to-end audits: distortion certification, the Hamming-cube embedding,
and a random-walk drift diagnostic.

The word metric and the combined embedding are both right-invariant:
d(p s, q s) = d(p, q) for every s.  So every audited pair (p, q) is scored
as the single element sigma = q p^-1 against the identity, with the
closed-form distances of `identity_distances`, and every reported witness
pair is (identity, sigma).  Exact mode sweeps each sigma != id against the
BFS oracle, decoding ranges of consecutive Lehmer ranks with unrank_rows;
the sweep stands for all n!(n!-1) ordered pairs.  Envelope
mode, for degrees with infeasible BFS, brackets the true distance by
[F/3, min(6*sum+2*diam)] and reports a certificate that overestimates the
distortion by at most the width (factor 18) of that bracket.  The cube audit
scores one row per (weight, top bit) class of bit vectors, which stands for the
whole class; hamming_embed is the scalar reference for every vector's row.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from math import factorial, isclose, sqrt
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .embed import (
    DEFAULT_GRID_SCALE,
    _identity_temp_bytes,
    _profile_bytes,
    check_scale1,
    circle_grid,
    circle_grid_distance,
    identity_distances,
    interval_profile,
)
from .metric import (
    _delta_table,
    _formula_batch_bytes,
    bfs_distances,
    check_memory,
    formula_terms_batch,
    generator_neighbors_rows,
    rank_rows,
)
from .perms import Permutation, _block_degree, unrank_rows
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
    """The formula bracket [F/3, min(6*sum+2*diam)] of each row's word length; it overwrites sums and diams."""
    d_lo = np.add(diams, sums, out=diams).min(axis=1) / 3.0
    sums *= 2
    d_hi = 2.0 * np.add(diams, sums, out=diams).min(axis=1)  # twice min(3*sum + diam)
    if (d_lo > d_hi).any():
        raise PropertyViolation("formula bracket inverted: F/3 > min(6*sum+2*diam)")
    return d_lo, d_hi


def _quotients(p_rows: np.ndarray, q_rows: np.ndarray) -> np.ndarray:
    """Rows of q * p^-1, the element right-invariance scores for (p, q): sigma[p(k)] = q(k)."""
    sigma = np.empty_like(q_rows)
    np.put_along_axis(sigma, p_rows, q_rows, axis=1)
    return sigma


def _witness(row: np.ndarray) -> tuple[Permutation, Permutation]:
    n = len(row)
    return Permutation.identity(n), Permutation(n, tuple(int(x) for x in row))


def _check_witnesses(*rows: np.ndarray) -> list[tuple[str, str]]:
    """Check each witness's closed-form grid and profile distances against the
    coordinates, building the identity's once, and return the witnesses' text.
    Each part sums at most 2n^2 terms of size <= 2, each rounded far below
    1e-12, hence the tolerance n^2 * 1e-12."""
    p = Permutation.identity(len(rows[0]))
    grid, profile = circle_grid(p), interval_profile(p)
    witnesses = [_witness(row)[1] for row in rows]
    for q, *parts in zip(witnesses, *identity_distances(np.array(rows))):
        coordinates = (circle_grid_distance(grid, circle_grid(q)), profile.distance(interval_profile(q)))
        for name, closed_form, reference in zip(("grid", "profile"), parts, coordinates):
            if not isclose(closed_form, reference, rel_tol=1e-9, abs_tol=p.n * p.n * 1e-12):
                raise PropertyViolation(f"closed-form {name} distance {float(closed_form)} of ({p}, {q}) "
                                        f"differs from the coordinate distance {float(reference)}")
    return [(str(p), str(q)) for q in witnesses]


def _score(sigma: np.ndarray, d_lo: np.ndarray, d_hi: np.ndarray,
           scale1: float) -> tuple[int, tuple[float, np.ndarray], tuple[float, np.ndarray]]:
    """Score a batch of rows sigma against their word-length bracket
    [d_lo, d_hi]: (rows scored, (max expansion, its row), (max contraction,
    its row)).  Rows with d_lo = 0, a sampled pair that repeats an element,
    are not scored; a scored row at combined distance 0 is a violation."""
    distinct = d_lo > 0
    if not distinct.any():  # a usage problem, not a failed property: there is no pair to score
        raise ValueError("all sampled pairs were identical; increase sample_size")
    grid, profile = identity_distances(sigma)
    with np.errstate(over="ignore"):
        emb = scale1 * grid + profile
    del grid, profile  # _check_witnesses recomputes the witnesses' parts
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
    pairs, decoding one range of k! Lehmer ranks (unrank_rows) at a time, or
    scores a seeded sample of pairs, against the BFS oracle; its arrays are
    checked against MEMORY_BUDGET before the BFS runs (the sweep holds the n!
    table and one range: Sym_12 fits).  Envelope mode samples pairs and certifies
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
        size, block = factorial(n), factorial(_block_degree(n))
        # The int8 table, the witness re-check's two profiles, and per scored row at the
        # peak: the distinct mask and four float64 arrays (grid, profile, combined and a
        # temporary, or combined, expansion ratios and two temporaries).  A swept row
        # adds its int8 row, int64 rank, three int32 decoder digits and up to n bool
        # carries; a sampled row its two draws (24), both int8 rows, quotient, digits, carries.
        rows, per_row = (block, 33 + 2 * n + 20) if sample_size is None else (sample_size, 33 + 4 * n + 36)
        check_memory(size + 2 * _profile_bytes(n) + rows * per_row + _identity_temp_bytes(rows, n),
                     f"the exact audit of Sym_{n}")
        table = bfs_distances(n)
        if sample_size is None:
            checked, expansion, contraction = 0, (-1.0, None), (-1.0, None)
            for lo in range(1, size, block):  # rank 0 is the identity
                d = table.dist[lo:lo + block]
                scored, exp, con = _score(unrank_rows(n, np.arange(lo, lo + len(d))), d, d, scale1)
                checked += scored
                # strict: the first rank wins ties, as an argmax over all of Sym_n would
                expansion = exp if exp[0] > expansion[0] else expansion
                contraction = con if con[0] > contraction[0] else contraction
            checked *= size
        else:
            ii = rng.integers(0, size, sample_size)
            jj = rng.integers(0, size - 1, sample_size)
            jj = np.where(jj >= ii, jj + 1, jj)
            sigma = _quotients(unrank_rows(n, ii), unrank_rows(n, jj))
            d = table.dist[rank_rows(sigma)]
            checked, expansion, contraction = _score(sigma, d, d, scale1)
    else:
        # per pair: the quotient, the bracket and the scores; and the largest stage: the kernel
        # (its outputs outweigh the two drawn rows), identity_distances, or the witness re-check's profiles
        m = sample_size
        largest = max(_formula_batch_bytes(m, n), _identity_temp_bytes(m, n), 2 * _profile_bytes(n))
        check_memory(m * (8 * n + 49) + largest, f"the envelope audit of {m:,} pairs in Sym_{n}")
        # each row is the rng.permutation(n) draw, in order, shuffled in place
        draws = np.tile(np.arange(n), (2, m, 1))
        sigma = _quotients(*rng.permuted(draws, axis=2, out=draws))
        del draws
        checked, expansion, contraction = _score(sigma, *_bracket(*formula_terms_batch(sigma)), scale1)

    expansion_text, contraction_text = _check_witnesses(expansion[1], contraction[1])
    return DistortionReport(
        n, mode, checked, expansion[0], expansion_text, contraction[0], contraction_text,
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
    wall_time_ms: float

    def to_json_dict(self) -> dict:
        return {"version": __version__, **asdict(self)}


def cube_audit(n: int) -> CubeAuditReport:
    """Audit the bit-vector embedding against the formula bracket.

    h(e)^-1 h(d) = h(e xor d), so each pair is scored as the single vector
    x = e xor d != 0, which stands for the 2^n ordered pairs (e, e xor x).
    Lemma: x's terms depend only on its weight h and its highest set bit i,
    so one row per class (bit i and bits 0..h-2, for 1 <= h <= i + 1 <= n)
    stands for every vector.  Let N = 4n^2 and |a| the ring distance of a
    to 0.  x's row moves each set bit j by +n and its partner n + j by -n:
    the displacement histogram is {0: N - 2h, +-n: h}, so
    sum(l) = (N - 2h)|l| + h(|l + n| + |l - n|).  As h <= n <= N/4, only
    shift 0 matches N/2 or more positions, so every other diameter is N/2;
    shift 0's members, 0 and the 2h moved positions, lie in [0, 2n), within
    half the ring, so diam_0 = n + i.  sum(0) = 2hn, and for l != 0,
    sum(l) >= N - 2h + 2hn, as |l + n| + |l - n| >= 2n: shift 0 is the
    unique minimizer of the sum.  With sum(l) >= N - 2h alone, it also
    minimizes sum + diam and 3 sum + diam, by at least (2n - 1)^2 and
    8n^2 - 8n + 1 (h <= n, i < n).  So F = 2hn + n + i and
    min(6 sum + 2 diam) = 12hn + 2n + 2i.  Over the classes, d_hi / (nh) is
    largest at h = 1, i = n - 1: ratio_hi = 16 - 2/n; and d_lo / (nh), with
    i >= h - 1, is least at h = n: ratio_lo = (2n^2 + 2n - 1) / (3n^2).

    The audit scores the class rows with the kernel, checks the minimizer on
    each, and (when the degree is BFS-feasible) compares with exact distances.
    Its arrays are checked against MEMORY_BUDGET first: n = 39 runs, and
    n = 40 raises ResourceLimitError.
    """
    start = time.perf_counter()
    if n < 1:
        raise ValueError(f"cube dimension must be >= 1, got {n}")
    degree, rows = 4 * n * n, n * (n + 1) // 2
    # the bits and sigma live through the kernel, and the bracket reduces its outputs in place
    check_memory(8 * rows * (n + degree) + _formula_batch_bytes(rows, degree),
                 f"the cube audit of {rows:,} classes at degree {degree}")
    top, low = np.nonzero(np.tri(n, dtype=bool))  # each class's i and h - 1
    bits = (np.arange(n) < low[:, None]) | (np.arange(n) == top[:, None])
    sigma = np.tile(np.arange(degree), (rows, 1))  # hamming_embed: swap columns i and n + i where bit i is set
    sigma[:, :n] += n * bits
    sigma[:, n:2 * n] -= n * bits
    sums, diams = formula_terms_batch(sigma)
    minimizer_ok = bool((sums[:, 0] < sums[:, 1:].min(axis=1)).all())
    h = low + 1
    d_lo, d_hi = _bracket(sums, diams)
    scaled = n * h
    ratio_lo = float((d_lo / scaled).min())
    ratio_hi = float((d_hi / scaled).max())

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
        n, degree, 2 ** n * (2 ** n - 1), ratio_lo, ratio_hi, ratio_hi / ratio_lo,
        minimizer_ok, exact_checked, sandwich_ok,
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
    moves each walker's Lehmer rank by _delta_table, as the BFS does, so no
    state is ranked from scratch.  A walker is an unrotated int8 row q and
    an offset r, its inverse row being j -> q[(j + r) mod n].  Since
    (g p)^-1 = p^-1 g^-1, c and c^-1 move only r (to r - 1 and r + 1), t
    swaps q[r] and q[r + 1], and the delta of the drawn letter reads q[r],
    the position of 0, and one more value: q[r + 1] (t: the position of 1),
    q[r - 1] (c: of n - 1) or q[r] again (c^-1).  Each walker reads that one
    entry of the table, at (g n + q[r]) n + that value, so a step costs O(1)
    per walker.

    The formula proxy scores each distinct element once: F depends only on
    the element, and the walkers drift so little that they keep landing on
    the same ones.  The step's distinct states are rows of the smallest
    unsigned dtype that holds n - 1, and each walker is an index into them.
    A step deduplicates the (state, letter) keys 3 * walker + g, moves one
    row per key, deduplicates the moved rows by content and scores each
    distinct row with the kernel.  The values are gathered back in walker
    order, so every walker's value, and so each step's mean and stderr, are
    those of scoring every walker's own row.
    """
    if proxy not in ("formula", "bfs"):
        raise ValueError(f"unknown proxy {proxy!r}")
    if n < 2:
        raise ValueError("the walk needs both generators, so degree >= 2")
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if proxy == "formula":
        cell = np.min_scalar_type(n - 1)  # the entries of a walk row
        # Per walker, a step holds its index, draw and last proxy value (24) and, outside the kernel, at most
        # five rows (the old, the moved, np.unique's flat and sorted copies, the distinct) and 72 bytes of the
        # np.unique calls: input, flat and sorted copies, order, masks, counts and inverse.  The kernel scores
        # at most `trials` rows; its outputs (16n bytes a row) outweigh the move's intp index (8n).
        check_memory(trials * (5 * n * cell.itemsize + 96) + _formula_batch_bytes(trials, n),
                     f"the formula drift walk of {trials:,} walkers on Sym_{n}")
    else:  # the table; per walker: int8 row, offset, row start, rank (n + 24), draws, slot and the two
        # slots read (32), the values read, the letter mask and the swapped values (8), the int64 delta
        # index temporaries and the delta (24), and the last step's proxy values (8)
        check_memory(factorial(n) + trials * (n + 96),
                     f"the BFS drift walk of {trials:,} walkers on Sym_{n}")
    table = bfs_distances(n) if proxy == "bfs" else None
    rng = np.random.default_rng(seed)
    steps = [DriftStep(0, 0.0, 0.0)]
    letters = np.array([0, 0, 1, 2] if four_step else [0, 1, 2])  # t, c, c^-1
    if proxy == "bfs":
        q = np.tile(np.arange(n, dtype=np.int8), trials)  # the walkers' rows, end to end
        row, r = np.arange(0, n * trials, n), np.zeros(trials, dtype=np.intp)
        ranks = np.zeros(trials, dtype=np.int64)
        same, ahead, behind = np.arange(n), np.roll(np.arange(n), -1), np.roll(np.arange(n), 1)
        # at n * g + r: the offset after t, c, c^-1, and the slot of the delta's second value
        moved, second = np.concatenate([same, behind, ahead]), np.concatenate([ahead, behind, same])
        deltas = _delta_table(n)
    else:  # the distinct one-line rows, each walker's index into them, and the rows of t, c and c^-1
        rows, walker = np.arange(n, dtype=cell)[None, :], np.zeros(trials, dtype=np.intp)
        gens = np.concatenate(generator_neighbors_rows(np.arange(n, dtype=cell)[None, :]))
        row_bytes = np.dtype((np.void, n * cell.itemsize))  # a row as one comparable item
    for t in range(1, horizon + 1):
        g = letters[rng.integers(0, len(letters), trials)]
        if proxy == "bfs":
            slot = n * g + r
            at, other = row + r, row + second.take(slot)
            zero, value = q[at], q[other]
            ranks += deltas.take((n * g + zero) * n + value)
            transpose = g == 0
            q[at], q[other] = np.where(transpose, value, zero), np.where(transpose, zero, value)
            r = moved.take(slot)
            values = table.dist[ranks].astype(np.float64)
        else:
            keys, walker = np.unique(3 * walker + g, return_inverse=True)  # one move per (state, letter)
            moved_rows = gens[(keys % 3)[:, None], rows[keys // 3]]  # left multiplication: g(p(k))
            rows, key_row = np.unique(moved_rows.view(row_bytes).ravel(), return_inverse=True)
            rows, walker = rows.view(cell).reshape(-1, n), key_row[walker]
            values = _bracket(*formula_terms_batch(rows))[0][walker]
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
