"""Two L1 embeddings of Sym_n and their combination.

The first embedding places every pairwise image difference p(k)-p(r) on the
unit circle; its distance (a sum of chord lengths) tracks the shift-minimized
displacement sum within the frame [4*S, 4*pi*S].  The second embedding records
the inverse permutation on every circular interval keyed only by (length,
value list) -- the interval's position is forgotten -- skipping intervals whose
interior contains 0; its distance tracks the diameter term.  Their weighted
direct sum is the combined embedding that the distortion audits certify.
CombinedPoint, combined_embed, combined_distance, interval_profile and
SparseVector are kept as the scalar references that the tests compare the
closed forms of identity_distances with; _coordinate_distances, its
coordinate twin, sums the chords and counts the windows on the audits'
witnesses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .perms import Permutation, _check_degree, _displacements, _histograms, _rows, _signed_cells, cycle_dist, inverse

__all__ = [
    "INTERIOR_MARGIN", "DEFAULT_GRID_SCALE",
    "CircleGrid", "IntervalKey", "SparseVector", "CombinedPoint", "check_scale1",
    "circle_grid", "circle_grid_distance", "realize_grid",
    "intervals", "interior_contains_zero", "interval_profile",
    "combined_embed", "combined_distance", "identity_distances",
    "circle_median", "avg_vs_min_check", "count_separating_intervals",
]

# An interval's interior is the set of its points at distance >= INTERIOR_MARGIN
# along the interval from both endpoints; with margin 1 it is empty iff the
# interval has at most 2 points.  The profile skips intervals whose interior
# contains 0; this is what breaks rotation invariance just enough for the
# diameter lower bound while keeping every edge difference bounded.
INTERIOR_MARGIN = 1

# Scale applied to the grid distance in the combined embedding: the grid
# distance lies in [4*S, 4*pi*S], so 1/(4*pi) normalizes it into [S/pi, S].
DEFAULT_GRID_SCALE = 1.0 / (4.0 * math.pi)

# Rows per chunk in identity_distances: its temporaries stay a few MB.
_ROWS_PER_CHUNK = 4096


@dataclass(frozen=True)
class CircleGrid:
    """n x n unit-circle points: entry (k, r) at angle 2*pi*(p(k)-p(r))/n."""

    n: int
    entries: np.ndarray  # complex128, shape (n, n)

    def __post_init__(self):
        self.entries.flags.writeable = False


class IntervalKey(NamedTuple):
    """Coordinate index of the interval embedding: interval length plus the
    inverse-permutation values along it, start position forgotten."""

    length: int
    values: tuple[int, ...]


@dataclass(frozen=True)
class SparseVector:
    """Finitely supported real vector over interval keys; no stored zeros."""

    coords: dict

    def l1_norm(self) -> float:
        return sum(abs(v) for v in self.coords.values())

    def distance(self, other: "SparseVector") -> float:
        total = 0.0
        for key, v in self.coords.items():
            total += abs(v - other.coords.get(key, 0.0))
        for key, v in other.coords.items():
            if key not in self.coords:
                total += abs(v)
        return total


@dataclass(frozen=True)
class CombinedPoint:
    """Direct-sum image: grid part, interval part, and the grid scale."""

    grid: CircleGrid
    sparse: SparseVector
    scale1: float

    def __post_init__(self):
        check_scale1(self.scale1)


def check_scale1(scale1: float) -> None:
    """Reject a grid scale outside (0, inf); nan fails both comparisons."""
    if not 0 < scale1 < math.inf:
        raise ValueError(f"scale1 must be positive and finite, got {scale1}")


def circle_grid(p: Permutation) -> CircleGrid:
    diffs = np.subtract.outer(np.array(p.images), np.array(p.images))
    return CircleGrid(p.n, np.exp(2j * np.pi * diffs / p.n))


def circle_grid_distance(a: CircleGrid, b: CircleGrid) -> float:
    """Sum over all n^2 entries of the planar (chord) distance."""
    if a.n != b.n:
        raise ValueError(f"dimension mismatch: {a.n} vs {b.n}")
    return float(np.abs(a.entries - b.entries).sum())


def realize_grid(a: CircleGrid, directions: int) -> np.ndarray:
    """Flat real vector whose l1 metric approximates the grid distance.

    Each planar entry z becomes `directions` coordinates (pi/(2K)) <z, u_j>
    for equally spaced unit directions u_j; the l1 distance of two
    realizations is within a multiplicative 1 + O(K^-2) of the chord sum.
    """
    if directions < 2:
        raise ValueError(f"need at least 2 directions, got {directions}")
    u = np.exp(1j * np.pi * np.arange(directions) / directions)
    proj = (a.entries[..., None] * u.conj()[None, None, :]).real
    return (np.pi / (2 * directions)) * proj.reshape(-1)


def intervals(n: int) -> Iterator[tuple[int, int]]:
    """All n^2 circular intervals as (start, length), length in [1, n].

    Full-circle intervals are kept distinct per start position.
    """
    for start in range(n):
        for length in range(1, n + 1):
            yield start, length


def interior_contains_zero(n: int, start: int, length: int) -> bool:
    _check_degree(n)
    offset = (-start) % n
    return INTERIOR_MARGIN <= offset <= length - 1 - INTERIOR_MARGIN


def interval_profile(p: Permutation) -> SparseVector:
    """1/n at (length, inverse values along the interval) for every interval
    whose interior avoids 0, lengths 1..n, each from start 0 up.  The inverse
    is injective, so the first value fixes the start and no two intervals
    share a key."""
    n = p.n
    doubled = inverse(p).images * 2  # wrap-free slicing windows
    return SparseVector({IntervalKey(length, doubled[start:start + length]): 1.0 / n
                         for length in range(1, n + 1) for start in range(n)
                         if not interior_contains_zero(n, start, length)})


def _coordinate_temp_bytes(n: int) -> int:
    """Bytes _coordinate_distances holds at its peak on the two witnesses the
    audits re-check: its traced peak at n = 2..700 is two complex grids, their
    difference and its absolute value (56n^2), plus under 128n + 12 KB."""
    return 56 * n * n + 128 * n + 16_384


def _coordinate_distances(sigma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Grid and profile distances from the identity to each one-line row,
    (m, n) -> two (m,) arrays, counted on the coordinates: the coordinate twin
    of identity_distances, which the audits run on their witnesses.  Each grid
    distance sums a row's n^2 chords against the identity's circle_grid, one
    row's grid at a time, and the identity's grid is dropped before the windows.

    A length-l profile key is the window of l inverse values from a kept
    start: 0 and 1..n - l + 1, as interior_contains_zero keeps them.  Both
    profiles put 1/n on each of their keys, so the distance is
    2 (N_kept - common) / n, where common counts the identity's keys that the
    row's inverse shares.  One interval length at a time, the kept windows are
    sliced from one strided view of the doubled inverses, copied and viewed as
    one item each; the identity's are sorted and every row's are looked up in
    them by binary search.  A length's keys are distinct (each first value
    fixes its start), so each count is exact, and the arrays hold O(n^2) cells
    per length.
    """
    m, n = sigma.shape
    base = circle_grid(Permutation.identity(n))
    grid = np.array([circle_grid_distance(base, circle_grid(Permutation(n, tuple(row.tolist())))) for row in sigma])
    del base
    cells = _signed_cells(n)
    k = np.arange(n, dtype=cells)
    doubled = np.empty((m + 1, 2 * n), dtype=cells)  # the identity, then the rows' inverses, each twice
    doubled[0, :n] = k
    np.put_along_axis(doubled[1:, :n], sigma, k, axis=1)
    doubled[:, n:] = doubled[:, :n]
    full = as_strided(doubled, (m + 1, n, n), doubled.strides + doubled.strides[1:])  # [:, u] is columns u..u + n - 1
    differ = np.zeros(m, dtype=np.int64)
    for length in range(1, n + 1):
        windows = full[:, :min(n - length + 2, n), :length].copy()  # from the kept starts, 0..n - l + 1
        keys = windows.view(np.dtype((np.void, length * windows.itemsize)))[..., 0]
        ident = np.sort(keys[0])
        differ += len(ident) - (ident.take(np.searchsorted(ident, keys[1:]), mode="clip") == keys[1:]).sum(axis=1)
    return grid, 2.0 * differ / n


def combined_embed(p: Permutation, scale1: float = DEFAULT_GRID_SCALE) -> CombinedPoint:
    return CombinedPoint(circle_grid(p), interval_profile(p), scale1)


def combined_distance(a: CombinedPoint, b: CombinedPoint) -> float:
    if a.grid.n != b.grid.n:
        raise ValueError(f"degree mismatch: {a.grid.n} vs {b.grid.n}")
    if a.scale1 != b.scale1:
        raise ValueError(f"scale mismatch: {a.scale1} vs {b.scale1}")
    return a.scale1 * circle_grid_distance(a.grid, b.grid) + a.sparse.distance(b.sparse)


def _identity_temp_bytes(m: int, n: int) -> int:
    """Bytes identity_distances holds at its peak: the kernel (8 a cell) and
    the three 2n-value vectors it is read from (48n); per cell of a chunk,
    its grid half's displacements and the last chunk's inverse and breaks (3
    of the narrow itemsize), the histogram, its product with the kernel and
    their product (24), and the histogram's BLAS-packed copy (8), which stays
    resident; 40 bytes a row of per-row temporaries and offsets; and 128 KB
    for the ufuncs' buffers (up to 66 KB were traced beyond the arrays).  The
    profile half holds fewer per cell: 3 narrow and 3 bool."""
    rows = min(m, _ROWS_PER_CHUNK)
    return 8 * n * n + 48 * n + (3 * _signed_cells(n).itemsize + 32) * n * rows + 40 * rows + (1 << 17)


def identity_distances(sigma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Grid and profile distances from the identity to each one-line row,
    (m, n) -> two (m,) arrays, by closed forms of the two parts of
    `combined_distance(combined_embed(id), combined_embed(s))`, which is
    scale1 * grid + profile:

    * grid: entry (k, r) of the two grids differs by the rotation a_k - a_r
      with a = s - id mod n, so the distance is h^T K h, where h is the
      histogram of a and K[a, b] = 2|sin(pi (a - b) / n)|, read off the
      2n - 1 values of a - b (the same floats as from the n^2 products).
    * profile: a key's first value fixes the interval's start (the inverse is
      injective), so no keys collide, every coordinate is 1/n and the
      distance is 2 (N_kept - common) / n.  Interval (start, length) is kept
      iff length <= cap(start), with cap(0) = n and cap(u) = n - u + 1.  The
      identity's kept key at start v matches the interval of s at start u iff
      s^-1(u) = v and s^-1 steps by +1 along it, so
      common = sum_u min(run(u), cap(u), cap(s^-1(u))), where run(u) is the
      length of the unit-step run of s^-1 from u: s^-1(u + 1 mod n) - s^-1(u)
      is 1 or 1 - n along it, and it ends at the first break b >= u, so
      run(u) = b - u + 1.  With no break in [u, n) the run passes n - 1 -> 0,
      and b = n gives n - u + 1 >= cap(u), which keeps the minimum.  Every
      break is at most n, so run(u) <= cap(u) for u >= 1; at u = 0,
      cap(s^-1(0)) <= n = cap(0) already caps it.  With cap(v) - 1 =
      n - max(v, 1), common = n + sum_u min(b - u, n - max(s^-1(u), 1)),
      whose terms lie in [0, n).

    Rows are taken 4,096 at a time in the narrowest signed dtype that holds
    [-n, n] (int8 up to n = 127, int16 above), whatever the input's integer
    dtype: no int64 copy of a chunk is made, the flat cell indices of the
    histogram and of the inverse's scatter aside.  The grid half is
    _grid_distances of the displacement histograms.  The profile half
    (_profile_distances) runs on the (n, chunk) layout of the inverse, one row
    per value u, so the first breaks come from a running minimum over the
    rows, last to first, each step one vector operation on the chunk.  The
    histogram and its float64 product with K are those of the int64 rows, so
    the outputs are theirs bit for bit.  The rows are checked by _rows (2-D,
    integer, every entry in [0, n)); that each is a permutation is the
    caller's contract.
    """
    sigma = _rows(sigma, "sigma")
    m, n = sigma.shape
    kernel = _chord_kernel(n)
    k = np.arange(n, dtype=_signed_cells(n))
    grid, profile = np.empty(m), np.empty(m)
    for lo in range(0, m, _ROWS_PER_CHUNK):
        rows = sigma[lo:lo + _ROWS_PER_CHUNK]
        grid[lo:lo + _ROWS_PER_CHUNK] = _grid_distances(_histograms(_displacements(rows, k)), kernel)
        profile[lo:lo + _ROWS_PER_CHUNK] = _profile_distances(_inverse_columns(rows, k))
    return grid, profile


def _chord_kernel(n: int) -> np.ndarray:
    """K[a, b] = 2|sin(pi (a - b) / n)|, read off the 2n - 1 values of a - b."""
    ring = 2.0 * np.abs(np.sin(np.pi * np.arange(1 - n, n) / n))  # K's entry at a - b = d, at d + n - 1
    return as_strided(ring, (n, n), ring.strides * 2)[:, ::-1].copy()  # row a: ring[a:a + n] reversed


def _grid_distances(hist: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """h^T K h of each row h of displacement histograms (m, n) -> (m,), for
    K = _chord_kernel(n), in float64."""
    hist = hist.astype(np.float64, copy=False)
    return ((hist @ kernel) * hist).sum(axis=1)


def _inverse_columns(images: np.ndarray, values) -> np.ndarray:
    """The (n, m) C-ordered array with [images[r, k], r] = values[r, k], by one
    flat scatter into fresh (m, n) rows and one transposed copy: with values
    the positions 0..n-1, the columns are the rows' inverses."""
    m, n = images.shape
    inv = np.empty(m * n, dtype=_signed_cells(n))
    inv[images + n * np.arange(m)[:, None]] = values
    return inv.reshape(m, n).T.copy()


def _profile_distances(inv: np.ndarray) -> np.ndarray:
    """The profile distances of identity_distances from the inverses, (n, m)
    columns in _signed_cells(n) (_inverse_columns), which are overwritten:
    common is n + sum_u min(b - u, n - max(s^-1(u), 1)), with the first
    breaks b from a running minimum over the rows, last to first."""
    n = len(inv)
    value = np.arange(n, dtype=inv.dtype)[:, None]  # the value u of each row of the (n, m) layout
    kept = n + n * (n + 1) // 2 - 1  # sum of cap: n + (n + (n - 1) + ... + 2)
    step = np.empty_like(inv)
    np.subtract(inv[1:], inv[:-1], out=step[:-1])
    np.subtract(inv[0], inv[-1], out=step[-1])
    breaks = np.where((step == 1) | (step == 1 - n), n, value)  # a unit step is no break
    del step
    for u in range(n - 2, -1, -1):  # breaks[u] becomes the first break b >= u
        np.minimum(breaks[u], breaks[u + 1], out=breaks[u])
    breaks -= value  # run(u) - 1
    np.maximum(inv, 1, out=inv)
    np.subtract(n, inv, out=inv)  # cap(s^-1(u)) - 1
    common = n + np.minimum(breaks, inv, out=breaks).sum(axis=0, dtype=np.int64)
    return 2.0 * (kept - common) / n


def circle_median(n: int, cloud: Sequence[int]) -> tuple[int, int]:
    """(min over l of sum of cycle distances to the cloud, smallest argmin).

    The minimum over all of Z/n is always attained inside the cloud.
    """
    _check_degree(n)
    if not cloud:
        raise ValueError("cloud must be nonempty")
    pts = [x % n for x in cloud]
    best_val = None
    best_l = None
    for l in range(n):
        total = sum(cycle_dist(n, x, l) for x in pts)
        if best_val is None or total < best_val:
            best_val, best_l = total, l
    return best_val, best_l


def avg_vs_min_check(n: int, cloud: Sequence[int]) -> tuple[float, float, bool]:
    """Pairwise-average vs best-member-average comparison on the cycle.

    Returns (avg_pair, min_avg, holds) where holds means
    avg_pair/2 <= min_avg <= avg_pair.
    """
    _check_degree(n)
    if not cloud:
        raise ValueError("cloud must be nonempty")
    pts = [x % n for x in cloud]
    m = len(pts)
    avg_pair = sum(cycle_dist(n, a, b) for a in pts for b in pts) / (m * m)
    min_avg = min(sum(cycle_dist(n, r, b) for b in pts) / m for r in pts)
    holds = avg_pair / 2 <= min_avg + 1e-12 and min_avg <= avg_pair + 1e-12
    return avg_pair, min_avg, holds


def count_separating_intervals(n: int, points: Iterable[int]) -> int:
    """Number of intervals meeting the set properly with interior avoiding 0."""
    _check_degree(n)
    s = {x % n for x in points}
    if not s or len(s) == n:
        raise ValueError("set must be nonempty and proper")
    count = 0
    for start, length in intervals(n):
        if interior_contains_zero(n, start, length):
            continue
        hits = sum(1 for i in range(length) if (start + i) % n in s)
        if 0 < hits < length:
            count += 1
    return count
