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
[F/3, min(6*sum+2*diam)] and reports an estimate from its sample, which is
neither an upper nor a certified lower bound on the distortion.  The cube audit
scores one row per (weight, top bit) class of bit vectors, which stands for the
whole class; hamming_embed is the scalar reference for every vector's row.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from math import factorial, isclose, sqrt
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from . import __version__
from .embed import (
    _ROWS_PER_CHUNK,
    DEFAULT_GRID_SCALE,
    _chord_kernel,
    _coordinate_distances,
    _coordinate_temp_bytes,
    _grid_distances,
    _identity_temp_bytes,
    _inverse_columns,
    _profile_distances,
    check_scale1,
    identity_distances,
)
from .embed import interval_profile  # noqa: F401  the benchmark's tracer (perfbench/spans.py) wraps this binding
from .metric import (
    _bfs_bytes,
    _circulant,
    _formula_batch_bytes,
    _heavy_diameters,
    _moved_blocks,
    _rank_moves,
    bfs_distances,
    check_memory,
    formula_terms_batch,
    generator_neighbors_rows,
    rank_rows,
)
from .perms import Permutation, _block_degree, _displacements, _histograms, _integers, _signed_cells, unrank_rows
from .perms import all_permutations  # noqa: F401  the benchmark's tracer (perfbench/spans.py) wraps this binding

__all__ = [
    "PropertyViolation",
    "DistortionReport", "distortion_audit",
    "hamming_embed", "CubeAuditReport", "cube_audit",
    "DriftStep", "DriftSeries", "drift_walk", "drift_slope",
]
_PENDING_STEPS = 16  # steps a formula drift walk moves before it scores them, at most


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
                "estimate from the sampled pairs against the [F/3, min(6*sum+2*diam)] bracket; the sample can miss "
                "the largest expansion, so it is neither an upper bound nor a certified lower bound on the distortion"
            )
        return out


def _elapsed_ms(start: float) -> float:
    return round((time.perf_counter() - start) * 1000, 3)


def _bracket(sums: np.ndarray, diams: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The formula bracket [F/3, min(6*sum+2*diam)] of each row's word length; it overwrites sums and diams."""
    d_lo = np.add(diams, sums, out=diams).min(axis=1) / 3.0
    sums *= 2
    d_hi = 2.0 * np.add(diams, sums, out=diams).min(axis=1)  # twice min(3*sum + diam)
    return _checked_bracket(d_lo, d_hi)


def _checked_bracket(d_lo: np.ndarray, d_hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(d_lo, d_hi), after checking that no lower end passes its upper end."""
    if (d_lo > d_hi).any():
        raise PropertyViolation("formula bracket inverted: F/3 > min(6*sum+2*diam)")
    return d_lo, d_hi


def _pair_terms(p: np.ndarray, q: np.ndarray, circulant: np.ndarray,
                kernel: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """identity_distances(sigma) and _bracket(*formula_terms_batch(sigma)) for
    sigma = q p^-1 of each pair of rows in one chunk of at most 4,096 pairs,
    (grid, profile, d_lo, d_hi), without forming sigma (distortion_audit's
    proof), given _circulant(n) and _chord_kernel(n).  One histogram of the
    q(k) - p(k) gives the grid term (_grid_distances) and the shift sums
    (times the circulant); a heavy shift l = -d matches the positions p(k)
    with q(k) - p(k) = d, so its member bits are scattered to the p(k)
    (_heavy_diameters); sigma^-1 is the scatter [q(k)] = p(k)
    (_inverse_columns).  The sums are integers below 2**53, and the chunk and
    its histograms are those of identity_distances(sigma), so the four
    outputs are the reference's bit for bit."""
    n = p.shape[1]
    half = n // 2
    disp = _displacements(q, p)
    hist = _histograms(disp)
    r, d = np.divmod(np.flatnonzero(hist >= n - half), n)  # the heavy entries, by row and displacement
    l = -d % n
    bits = np.empty((len(r), n), dtype=bool)
    np.put_along_axis(bits, p[r], disp[r] != d[:, None], axis=1)  # at position p(k): k is no match of shift l
    del disp
    hist = hist.astype(np.float64)
    sums = circulant @ hist.T  # (n, rows): C is symmetric, and the sums are exact integers in any order
    heavy, least = sums[l, r], sums.min(axis=0)
    del sums
    grid = _grid_distances(hist, kernel)
    del hist
    diams = _heavy_diameters(bits, l)
    one, three = least + half, 3 * least + half
    np.minimum.at(one, r, heavy + diams)
    np.minimum.at(three, r, 3 * heavy + diams)
    return grid, _profile_distances(_inverse_columns(q, p)), *_checked_bracket(one / 3.0, 2.0 * three)


def _quotients(p_rows: np.ndarray, q_rows: np.ndarray) -> np.ndarray:
    """Rows of q * p^-1, the element right-invariance scores for (p, q): sigma[p(k)] = q(k)."""
    sigma = np.empty_like(q_rows)
    np.put_along_axis(sigma, p_rows, q_rows, axis=1)
    return sigma


def _pair_row(p: np.ndarray, q: np.ndarray) -> Callable[[int], np.ndarray]:
    """row(i) for _score: sigma = q p^-1 of the pair of rows i, formed when asked, for a witness."""
    return lambda i: _quotients(p[i:i + 1], q[i:i + 1])[0]


def _witness(row: np.ndarray) -> tuple[Permutation, Permutation]:
    n = len(row)
    return Permutation.identity(n), Permutation(n, tuple(row.tolist()))


def _check_witnesses(*rows: np.ndarray) -> list[tuple[str, str]]:
    """Check each witness's closed-form grid and profile distances
    (identity_distances) against its coordinate distances
    (_coordinate_distances), and return the witnesses' text.  The coordinate
    grid distance sums n^2 chord lengths, each rounded far below 1e-12, hence
    the tolerance n^2 * 1e-12; the profile distance is an integer count over
    n, independent of the run-length closed form."""
    sigma = np.array(rows)
    pairs = [_witness(row) for row in rows]
    for name, closed, references in zip(("grid", "profile"), identity_distances(sigma), _coordinate_distances(sigma)):
        for (p, q), closed_form, reference in zip(pairs, closed, references):
            if not isclose(closed_form, reference, rel_tol=1e-9, abs_tol=p.n * p.n * 1e-12):
                raise PropertyViolation(f"closed-form {name} distance {float(closed_form)} of ({p}, {q}) "
                                        f"differs from the coordinate distance {float(reference)}")
    return [(str(p), str(q)) for p, q in pairs]


def _score(blocks: Iterable[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, Callable[[int], np.ndarray]]],
           scale1: float) -> tuple[int, tuple[float, np.ndarray], tuple[float, np.ndarray]]:
    """Score each block (grid, profile, d_lo, d_hi, row) of rows at combined
    distance scale1 * grid + profile against the word-length bracket
    [d_lo, d_hi], as it is made, and keep the running best: (rows scored,
    (max expansion, its row), (max contraction, its row)), where row(i) forms
    the block's row i of sigma, for the witnesses alone.  Rows with d_lo = 0,
    a sampled pair that repeats an element, are not scored: if none is, that
    is a ValueError.  A scored row at combined distance 0 is a violation.
    Only a larger ratio replaces the best, so the first row wins ties, as one
    argmax over the blocks' rows in order would."""
    checked, expansion, contraction, collapsed = 0, (-1.0, None), (-1.0, None), False
    for grid, profile, d_lo, d_hi, row in blocks:
        with np.errstate(over="ignore"):
            emb = scale1 * grid + profile
        del grid, profile
        if not np.isfinite(emb.max()):  # distances are >= 0: the max is inf or nan iff one is
            raise ValueError(f"combined distances overflow at scale1 = {scale1}")
        distinct = d_lo > 0
        checked += int(distinct.sum())
        exp_ratios = np.where(distinct, emb / np.maximum(d_lo, 1e-300), -1.0)
        ei = int(exp_ratios.argmax())
        if exp_ratios[ei] > expansion[0]:
            expansion = float(exp_ratios[ei]), (row, ei)
        con_ratios = np.where(distinct, d_hi / np.maximum(emb, 1e-300), -1.0)
        ci = int(con_ratios.argmax())
        if con_ratios[ci] > contraction[0]:  # a distinct pair at distance 0 has a contraction >= 1e300 / 3
            contraction, collapsed = (float(con_ratios[ci]), (row, ci)), emb[ci] == 0
        del emb, distinct, exp_ratios, con_ratios  # before the next block is made
    if not checked:  # a usage problem, not a failed property: there is no pair to score
        raise ValueError("all sampled pairs were identical; increase sample_size")
    (exp, (exp_row, ei)), (con, (con_row, ci)) = expansion, contraction
    if collapsed:
        p, q = _witness(con_row(ci))
        raise PropertyViolation(f"the combined embedding maps distinct elements {p} and {q} to one point")
    return checked, (exp, exp_row(ei)), (con, con_row(ci))


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
    pairs, or a seeded sample of pairs, against the BFS oracle.  Envelope mode
    scores sampled pairs against the two-sided formula bracket
    [F/3, min(6*sum+2*diam)] instead: an estimate, not a bound.  Every mode
    makes a block at a time, k! consecutive Lehmer ranks (unrank_rows) in the
    sweep or 4,096 sampled pairs, and _score reduces it as it is made.  The
    bytes are checked against MEMORY_BUDGET first (in exact mode, before the
    BFS): the n! table and one block, and 17 bytes a sampled pair of draws; in
    the envelope, p's and q's narrow rows (2n bytes a pair up to n = 127),
    drawn as int64 rows a piece at a time, and one chunk.  A sampled block is
    scored from p and q, and sigma is formed for the witnesses alone:

    * sigma(p(k)) = q(k), so sigma's displacement multiset is
      {q(k) - p(k) mod n}: the grid term and the shift sums s_l need only its
      histogram, and the profile needs only sigma^-1 = p q^-1.
    * The bracket from row minima: every diameter term is at most
      h = n // 2, the largest distance on the ring, and equals it at every
      light shift (formula_terms_batch's lemma).  So for a = 1 and a = 3,
      min_l (a s_l + diam_l) = min(a min_l s_l + h, min over heavy l of
      a s_l + diam_l): a light shift's term a s_l + h is at least
      a min_l s_l + h, and the term at the sums' argmin is at most that.
      F is the case a = 1, and min(6 sum + 2 diam) is twice the case a = 3.
    """
    start = time.perf_counter()
    if mode not in ("exact", "envelope"):
        raise ValueError(f"unknown mode {mode!r}")
    n, sample_size, seed = _integers(n=n, sample_size=sample_size, seed=seed)
    if n < 1:
        raise ValueError(f"degree must be >= 1, got {n}")
    if sample_size is not None and sample_size < 1:
        raise ValueError(f"sample_size must be >= 1, got {sample_size}")
    check_scale1(scale1)
    if mode == "envelope" and sample_size is None:
        sample_size = 20000
    if n == 1:
        return DistortionReport(n, mode, 0, 1.0, ("", ""), 1.0, ("", ""), 1.0, scale1, sample_size, seed,
                                _elapsed_ms(start))
    rng = np.random.default_rng(seed)
    if mode == "exact":
        size, sampled = factorial(n), sample_size is not None
        step = min(sample_size, _ROWS_PER_CHUNK) if sampled else factorial(_block_degree(n))
        # The BFS (_bfs_bytes); then the int8 table, the sample's two int64 draws and jj's bool skip mask, and per
        # row of a block: the distinct mask, four float64 arrays (grid, profile, combined and a temporary, or combined,
        # ratios and two temporaries) and n bool decoder carries; a swept row's int8 row and two earlier blocks' that
        # hold the best so far (3n), rank and three int32 digits, or a sampled row's p and q rows and two earlier
        # blocks' (6n), digits, rank and two temporaries.  The witness re-check holds far less.
        held = 17 * sample_size + step * (33 + 7 * n + 36) if sampled else step * (33 + 4 * n + 20)
        check_memory(max(_bfs_bytes(n), size + held + _identity_temp_bytes(step, n)), f"the exact audit of Sym_{n}")
        table = bfs_distances(n)
        if sampled:
            ii, jj = rng.integers(0, size, sample_size), rng.integers(0, size - 1, sample_size)  # in this order
            jj += jj >= ii  # q != p
            kernel = _chord_kernel(n)

        def blocks():
            for lo in range(0 if sampled else 1, sample_size or size, step):  # rank 0 is the identity
                if sampled:  # identity_distances(sigma) as _pair_terms reads it, with no sigma formed
                    p, q = unrank_rows(n, ii[lo:lo + step]), unrank_rows(n, jj[lo:lo + step])
                    inverse = _inverse_columns(q, p)  # sigma^-1: t, c and c^-1 are closed under inverses,
                    d = table.dist[rank_rows(inverse.T)]  # so its word length is sigma's
                    grid = _grid_distances(_histograms(_displacements(q, p)), kernel)
                    yield grid, _profile_distances(inverse), d, d, _pair_row(p, q)
                else:
                    rows, d = unrank_rows(n, np.arange(lo, min(lo + step, size))), table.dist[lo:lo + step]
                    yield *identity_distances(rows), d, d, rows.__getitem__

        checked, expansion, contraction = _score(blocks(), scale1)
        checked *= 1 if sampled else size  # each swept sigma stands for its n! pairs
    else:
        # p's and q's narrow rows, and the largest stage: a piece of int64 draws; one chunk of _pair_terms
        # (identity_distances' chunk, the circulant, its BLAS-packed copy, 64 bytes a pair of heavy entries and
        # bracket minima) and its 57 bytes a pair of scores (the four terms, then the combined distances, the
        # distinct mask, the ratios and two temporaries); or the witness re-check
        m, cell, chunk = sample_size, _signed_cells(n), min(sample_size, _ROWS_PER_CHUNK)
        largest = max(8 * chunk * n, _identity_temp_bytes(m, n) + 16 * n * n + 121 * chunk, _coordinate_temp_bytes(n))
        check_memory(2 * m * cell.itemsize * n + largest, f"the envelope audit of {m:,} pairs in Sym_{n}")
        # each row is the rng.permutation(n) draw, in order, shuffled in place: int64 rows shuffle faster
        pairs = np.empty((2, m, n), dtype=cell)
        draws = np.empty((chunk, n), dtype=np.int64)
        for rows in pairs:  # p's rows, then q's, a piece at a time, as one rng.permuted call on all 2m rows
            for lo in range(0, m, chunk):
                piece = draws[:m - lo]
                piece[:] = np.arange(n)
                rows[lo:lo + chunk] = rng.permuted(piece, axis=1, out=piece)
        del draws, piece
        kernels = _circulant(n), _chord_kernel(n)
        checked, expansion, contraction = _score(((*_pair_terms(p, q, *kernels), _pair_row(p, q)) for p, q in
                                                  (pairs[:, lo:lo + chunk] for lo in range(0, m, chunk))), scale1)
        del kernels  # the witness re-check builds its own kernel

    expansion_text, contraction_text = _check_witnesses(expansion[1], contraction[1])
    return DistortionReport(n, mode, checked, expansion[0], expansion_text, contraction[0], contraction_text,
                            expansion[0] * contraction[0], scale1, sample_size, seed, _elapsed_ms(start))


def hamming_embed(n: int, bits: Sequence[int]) -> Permutation:
    """Map a length-n bit vector into Sym_{4n^2} as a product of the n
    disjoint transpositions (i, n+i), one per set bit."""
    (n,) = _integers(n=n)
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
    (n,) = _integers(n=n)
    if n < 1:
        raise ValueError(f"cube dimension must be >= 1, got {n}")
    degree, rows = 4 * n * n, n * (n + 1) // 2
    cell = _signed_cells(degree)
    # the bits and sigma live through the kernel, and the bracket reduces its outputs in place
    check_memory(rows * (n + cell.itemsize * degree) + _formula_batch_bytes(rows, degree),
                 f"the cube audit of {rows:,} classes at degree {degree}")
    top, low = np.nonzero(np.tri(n, dtype=bool))  # each class's i and h - 1
    bits = (np.arange(n) < low[:, None]) | (np.arange(n) == top[:, None])
    sigma = np.tile(np.arange(degree, dtype=cell), (rows, 1))  # hamming_embed: swap i and n + i where bit i is set
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
    moves each walker by the BFS's block plans (_moved_blocks): a walker is
    its Lehmer rank B k! + j as the block B and tail index j, k =
    _block_degree(n), and g sends it to g's target block of B, with j or
    Sym_k's neighbour rank of j.  No state is ranked from scratch or held as
    a row, so a step costs O(1) per walker.

    The formula proxy scores each distinct element once: F depends only on
    the element, and the walkers keep landing on the same ones.  A step's
    distinct states are rows of the smallest unsigned dtype that holds
    n - 1, each walker an int32 index into them.  A step flags the (state,
    letter) keys 3 * walker + g (their running count ranks them), moves one
    row per key and deduplicates the moved rows by content.  No move reads a
    score, so up to _PENDING_STEPS steps, holding at most `trials` rows, wait
    for one kernel call on their distinct rows; each step's values are then
    gathered in walker order, as if every walker's own row were scored.
    """
    if proxy not in ("formula", "bfs"):
        raise ValueError(f"unknown proxy {proxy!r}")
    n, horizon, trials, seed = _integers(n=n, horizon=horizon, trials=trials, seed=seed)
    if n < 2:
        raise ValueError("the walk needs both generators, so degree >= 2")
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if proxy == "formula":
        cell = np.min_scalar_type(n - 1)  # the entries of a walk row
        # Per walker: draw, key, index (20), an int32 index per step that can be pending (no more than the horizon),
        # and 76 bytes of flags, counts and np.unique's order, mask and inverse, or of scored values; six rows outside
        # the kernel (pending, the step's distinct, np.unique's input, copies, output), three beside it, whose outputs
        # (16n a row) outweigh the rest.
        index_bytes = 4 * min(horizon, _PENDING_STEPS)
        check_memory(trials * (5 * n * cell.itemsize + 96 + index_bytes) + _formula_batch_bytes(trials, n),
                     f"the formula drift walk of {trials:,} walkers on Sym_{n}")
    else:  # the BFS; then its table and the walk's rank moves, within the BFS's bytes less its level lists
        # (n!), and per walker: its block and tail index, the letters and their draws (32), the flat key, the
        # gathered offset and their sum (24), and the moved block (8); 50 were traced
        check_memory(_bfs_bytes(n) + max(0, trials * 64 - factorial(n)),
                     f"the BFS drift walk of {trials:,} walkers on Sym_{n}")
    table = bfs_distances(n) if proxy == "bfs" else None
    rng = np.random.default_rng(seed)
    steps = [DriftStep(0, 0.0, 0.0)]

    def record(values: np.ndarray) -> None:  # the next step's proxy values, in walker order
        t, mean = len(steps), float(values.mean())
        if mean > t + 1e-9:
            raise PropertyViolation(f"drift proxy mean {mean} exceeds step count {t}")
        steps.append(DriftStep(t, mean, float(values.std(ddof=1) / sqrt(trials)) if trials > 1 else 0.0))

    def score_pending() -> None:  # one kernel call on the pending steps' distinct rows (one step's are distinct)
        stack = np.concatenate([r for r, _ in pending]).view(row_bytes)
        distinct, index = np.unique(stack, return_inverse=True) if len(pending) > 1 else (stack, np.arange(len(stack)))
        # 256-row blocks: one block of the 602 rows of drift_walk(40, 10, 2000) ran 7% slower and held 0.5 MB more
        values = _bracket(*formula_terms_batch(distinct.view(cell).reshape(-1, n), 256))[0][index.ravel()]
        for part, (_, step_walker) in zip(np.split(values, np.cumsum([len(r) for r, _ in pending])), pending):
            record(part[step_walker])
        pending.clear()

    letters = np.array([0, 0, 1, 2] if four_step else [0, 1, 2])  # t, c, c^-1
    if proxy == "bfs":
        moves, head, tail = _rank_moves(n), np.zeros(trials, dtype=np.int64), np.zeros(trials, dtype=np.int64)
    else:  # the distinct one-line rows, each walker's index into them, and the rows of t, c and c^-1, end to end
        rows, walker = np.arange(n, dtype=cell)[None, :], np.zeros(trials, dtype=np.int32)
        gens = np.concatenate(generator_neighbors_rows(np.arange(n, dtype=cell)[None, :])).ravel()
        row_bytes = np.dtype((np.void, n * cell.itemsize))  # a row as one comparable item
        pending: list[tuple[np.ndarray, np.ndarray]] = []  # the unscored steps' distinct rows and walker indices
    for _ in range(horizon):
        g = letters[rng.integers(0, len(letters), trials)]
        if proxy == "bfs":
            head, tail = _moved_blocks(moves, g, head, tail)
            record(table.dist[head * moves[0] + tail].astype(np.float64))  # at rank B k! + j
        else:
            key, flags = 3 * walker + g, np.zeros(3 * len(rows), dtype=bool)
            flags[key] = True  # one move per (state, letter) key; the keys come sorted
            keys = np.flatnonzero(flags)
            rows, key_row = np.unique(gens.take(n * (keys % 3)[:, None] + rows[keys // 3]).view(row_bytes),
                                      return_inverse=True)  # g(p(k)) by one flat gather, then by content
            rows, walker = rows.view(cell).reshape(-1, n), key_row.ravel().astype(np.int32)[np.cumsum(flags)[key] - 1]
            if len(pending) == _PENDING_STEPS or sum(len(p) for p, _ in pending) + len(rows) > trials:
                score_pending()
            pending.append((rows, walker))
    if steps[-1].t < horizon:  # the formula walk's last pending steps
        score_pending()
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
