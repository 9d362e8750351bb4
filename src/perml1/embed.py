"""Two L1 embeddings of Sym_n and their combination.

The first embedding places every pairwise image difference p(k)-p(r) on the
unit circle; its distance (a sum of chord lengths) tracks the shift-minimized
displacement sum within the frame [4*S, 4*pi*S].  The second embedding records
the inverse permutation on every circular interval keyed only by (length,
value list) -- the interval's position is forgotten -- skipping intervals whose
interior contains 0; its distance tracks the diameter term.  Their weighted
direct sum is the combined embedding that the distortion audits certify.
CombinedPoint, combined_embed, combined_distance and SparseVector.l1_norm are
kept as the scalar references that the tests compare the fast paths with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .perms import Permutation, cycle_dist, inverse

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
    offset = (-start) % n
    return INTERIOR_MARGIN <= offset <= length - 1 - INTERIOR_MARGIN


def _profile_bytes(n: int) -> int:
    """Bytes interval_profile holds at degree n: 8 per value of each kept
    interval's tuple, and per key at most 300 for the tuple's header, the
    IntervalKey, the weight and a dict slot with the dict's resize copy."""
    keys = n * (n + 1) // 2 + n - 1  # cap(0) = n, and cap(u) = n - u + 1 for u >= 1
    values = n * (n + 1) // 2 + n * (n + 1) * (n + 2) // 6 - 1
    return 8 * values + 300 * keys


def interval_profile(p: Permutation) -> SparseVector:
    """Accumulate 1/n at (length, inverse values along the interval) for every
    interval whose interior avoids 0.  Colliding keys add up."""
    n = p.n
    pinv = inverse(p).images
    doubled = pinv + pinv  # wrap-free slicing windows
    weight = 1.0 / n
    coords: dict = {}
    for start, length in intervals(n):
        if interior_contains_zero(n, start, length):
            continue
        key = IntervalKey(length, doubled[start:start + length])
        coords[key] = coords.get(key, 0.0) + weight
    return SparseVector(coords)


def combined_embed(p: Permutation, scale1: float = DEFAULT_GRID_SCALE) -> CombinedPoint:
    return CombinedPoint(circle_grid(p), interval_profile(p), scale1)


def combined_distance(a: CombinedPoint, b: CombinedPoint) -> float:
    if a.grid.n != b.grid.n:
        raise ValueError(f"degree mismatch: {a.grid.n} vs {b.grid.n}")
    if a.scale1 != b.scale1:
        raise ValueError(f"scale mismatch: {a.scale1} vs {b.scale1}")
    return a.scale1 * circle_grid_distance(a.grid, b.grid) + a.sparse.distance(b.sparse)


def _identity_temp_bytes(m: int, n: int) -> int:
    """Temporaries identity_distances holds at its peak, per row and column of
    a chunk: its rows as int64 (8); the previous chunk's inverse, breaks and
    runs until rebound, with this chunk's cells, histogram and temporaries
    (24 + 32), or this chunk's three with the reduction's temporaries
    (24 + 24); and the histogram's BLAS-packed copy (8), which stays resident."""
    return 72 * n * min(m, _ROWS_PER_CHUNK)


def identity_distances(sigma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Grid and profile distances from the identity to each one-line row,
    (m, n) -> two (m,) arrays, by closed forms of the two parts of
    `combined_distance(combined_embed(id), combined_embed(s))`, which is
    scale1 * grid + profile:

    * grid: entry (k, r) of the two grids differs by the rotation a_k - a_r
      with a = s - id mod n, so the distance is h^T K h, where h is the
      histogram of a and K[a, b] = 2|sin(pi (a - b) / n)|.
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
      and b = n gives n - u + 1 >= cap(u), which keeps the minimum.
    """
    m, n = np.shape(sigma)
    k = np.arange(n)
    kernel = 2.0 * np.abs(np.sin(np.pi * np.subtract.outer(k, k) / n))
    cap = np.minimum(n - k + 1, n)
    grid, profile = np.empty(m), np.empty(m)
    for lo in range(0, m, _ROWS_PER_CHUNK):
        rows = np.asarray(sigma[lo:lo + _ROWS_PER_CHUNK], dtype=np.int64)
        cells = rows - k  # s(k) - k, plus n where negative, in histogram row r's cells from n r
        cells += n * (cells < 0) + n * np.arange(len(rows))[:, None]
        hist = np.bincount(cells.ravel(), minlength=cells.size).reshape(-1, n).astype(np.float64)
        grid[lo:lo + _ROWS_PER_CHUNK] = ((hist @ kernel) * hist).sum(axis=1)
        del cells, hist
        inv = np.empty_like(rows)
        np.put_along_axis(inv, rows, k, axis=1)
        step = np.roll(inv, -1, axis=1) - inv
        breaks = np.where((step == 1) | (step == 1 - n), n, k)  # a unit step is no break
        del step
        run = np.minimum.accumulate(breaks[:, ::-1], axis=1)[:, ::-1] - k + 1
        common = np.minimum(np.minimum(run, cap), cap[inv]).sum(axis=1)
        profile[lo:lo + _ROWS_PER_CHUNK] = 2.0 * (cap.sum() - common) / n
    return grid, profile


def circle_median(n: int, cloud: Sequence[int]) -> tuple[int, int]:
    """(min over l of sum of cycle distances to the cloud, smallest argmin).

    The minimum over all of Z/n is always attained inside the cloud.
    """
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
