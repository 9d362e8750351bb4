"""Exact word metric by BFS and the shift-minimization length formula.

The Cayley graph has vertex set Sym_n and undirected edges {(t*p, p), (c*p, p)},
i.e. neighbors are obtained by left multiplication with t, c or c^-1.  The
length formula scans every cyclic shift l and combines a displacement sum with
the diameter of the mismatch set; BFS is the exact oracle it is audited
against.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, chain
from math import factorial
from operator import add, mul, sub
from typing import NamedTuple, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .perms import Permutation, _block_degree, compose, inverse, perm_rank, unrank_rows

__all__ = [
    "MEMORY_BUDGET", "ResourceLimitError", "check_memory",
    "DistanceTable", "bfs_distances",
    "ShiftTerms", "FormulaBreakdown",
    "formula_length", "formula_distance",
    "rank_rows", "generator_neighbors_rows", "formula_terms_batch",
]

# Bytes an exact computation may hold at once; callers add up their arrays
# and call check_memory before allocating them.
MEMORY_BUDGET = 1 << 30

# Largest BFS level the int8 distance table can hold.
_MAX_LEVEL = np.iinfo(np.int8).max

# Byte budget for the largest temporaries of formula_terms_batch, those of one
# block of rows (_row_block's `row` bytes each): it stays a few MB at any degree.
_FORMULA_BLOCK_BYTES = 1 << 23

# Rows per block of formula_terms_batch at most, its `chunk` default.
_FORMULA_CHUNK = 1024


class ResourceLimitError(RuntimeError):
    """Raised when an exact computation would exceed the configured budget."""


def check_memory(nbytes: int, what: str) -> None:
    """Raise ResourceLimitError if `what` needs more than MEMORY_BUDGET bytes."""
    if nbytes > MEMORY_BUDGET:
        raise ResourceLimitError(f"{what} needs {nbytes:,} bytes, over the memory budget of {MEMORY_BUDGET:,}")


@dataclass(frozen=True)
class DistanceTable:
    """Word lengths of all of Sym_n, indexed by Lehmer rank."""

    n: int
    dist: np.ndarray  # shape (n!,), int8: the diameter is 66 at n = 12

    def __getitem__(self, p: Permutation) -> int:
        if p.n != self.n:
            raise ValueError(f"permutation has degree {p.n}, the table has degree {self.n}")
        return int(self.dist[perm_rank(p)])

    def distance(self, p: Permutation, q: Permutation) -> int:
        """d(p, q) via right-invariance: the length of q * p^-1."""
        return self[compose(q, inverse(p))]


def rank_rows(perms: np.ndarray) -> np.ndarray:
    """Lehmer ranks of a batch of one-line rows, shape (m, n) -> (m,)."""
    m, n = perms.shape
    if n > 20:
        raise ValueError(f"Lehmer ranks of Sym_{n} reach {n}! - 1, which overflows int64 (degree <= 20)")
    rank = np.zeros(m, dtype=np.int64)
    for i in range(n - 1):
        smaller = (perms[:, i + 1:] < perms[:, i:i + 1]).sum(axis=1)
        rank = rank * (n - i) + smaller
    return rank


def generator_neighbors_rows(perms: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows for t*p, c*p and c^-1*p: left multiplication maps each value v to g(v), g's row at v."""
    values = np.arange(perms.shape[1], dtype=perms.dtype)
    gens = np.array([values ^ (values < 2), np.roll(values, -1), np.roll(values, 1)])  # t swaps 0 and 1
    return tuple(gens[:, perms])


def _delta_table(n: int) -> np.ndarray:
    """Lehmer-rank change of g*p, flat at (g*n + a)*n + b, where g is t, c or
    c^-1 (0, 1, 2), a is the position in p of 0 and b that of the letter's
    second value: 1, n-1 or 0 (b = a for c^-1).  With fact[i] = (n-1-i)!, the
    weight of digit i, and prefix[a] = sum(fact[:a]):

    - t swaps the values 0 and 1, which changes only the digits at their
      positions a and b: +fact[a] if a < b, else -fact[b].
    - c maps value v to v+1 mod n.  Every digit left of b, the position of
      n-1, gains one (the new 0 lies to its right) and digit b drops from
      n-1-b to 0: up[b] = +prefix[b] - (n-1-b) * fact[b].
    - c^-1 undoes c: -up[b] with b the position of 0.
    """
    idx = np.arange(n)
    fact = np.array([factorial(n - 1 - i) for i in idx], dtype=np.int64)
    swap = np.where(idx[:, None] < idx[None, :], fact[:, None], -fact[None, :])
    up = np.cumsum(fact) - fact - (n - 1 - idx) * fact
    return np.stack(np.broadcast_arrays(swap, up, -up)).ravel()


def bfs_distances(n: int) -> DistanceTable:
    """Exact shortest-path distances from the identity over all of Sym_n.

    A table-scan BFS (Korf, JACM 2008): the frontier of level L, the ranks
    with dist == L, is read in blocks of k! ranks, k = _block_degree(n).
    A block's rows share their first n-k values (the head) and run through
    Sym_k on the rest, so the positions of 0, 1 and n-1 that the O(1) rank
    deltas need (_delta_table) come from the head or from Sym_k's rows.
    Each neighbour's entry becomes its minimum with level + 1 on the table's
    uint8 view, where the sentinel -1 reads 255: reached entries (at most
    level + 1) stay, duplicates write alike, and nothing is compressed.  The table
    and one block are checked against MEMORY_BUDGET once, before the table
    exists: Sym_12 fits; Sym_13 raises ResourceLimitError, as does level 128.
    """
    if n < 1:
        raise ValueError(f"degree must be >= 1, got {n}")
    size, k = factorial(n), _block_degree(n)
    h, block = n - k, factorial(k)
    # per block: its first row, an equality test, an argmax and the heads; per rank: Sym_k's int8 rows with
    # decoder digits and carries (12 + k) or their inverse and its shifted copy (2k), cols, scan temporaries
    check_memory(size + (2 * n + 11) * (size // block) + (3 * k + 2 * n + 76) * block,
                 f"the BFS over Sym_{n}")
    dist = np.full(size, -1, dtype=np.int8)
    dist[0] = 0
    udist = dist.view(np.uint8)  # -1 reads as 255, above every level
    if n == 1:  # Sym_1 is the identity alone, and t needs two columns
        return DistanceTable(n, dist)
    # cols[j], per row of a block: the position of the head's value at j < h, or of the
    # (j-h)-th smallest value off the head, which the block's first row (its tail ascends)
    # has at j.  So heads, the positions of 0, 1 and n-1 in the first rows, index cols.
    sym_k = unrank_rows(k, np.arange(block))
    inv = np.empty_like(sym_k)
    np.put_along_axis(inv, sym_k, np.arange(k, dtype=np.int8), axis=1)  # inv[p(j)] = j
    cols = np.concatenate([np.repeat(np.arange(h, dtype=np.int8), block).reshape(h, block), h + inv.T])
    first = unrank_rows(n, np.arange(0, size, block))
    heads = np.array([(first == v).argmax(axis=1).astype(np.int8) for v in (0, 1, n - 1)])
    t, c, cinv = _delta_table(n).reshape(3, n * n)
    reached = 0
    for level in range(_MAX_LEVEL):
        for lo, zero, one, top in zip(range(0, size, block), *heads):
            rows = np.flatnonzero(dist[lo:lo + block] == level)
            if len(rows):
                reached += len(rows)
                # t reads row a, the position of 0, of its third; c's and c^-1's repeat one row for every a
                at = n * cols[zero][rows].astype(np.int64)
                deltas = np.stack([t.take(at + cols[one][rows]), c.take(cols[top][rows]), cinv.take(cols[zero][rows])])
                candidates = (lo + rows + deltas).ravel()
                known = udist[candidates]
                udist[candidates] = np.minimum(known, level + 1, out=known)
        if reached == size:
            return DistanceTable(n, dist)
    if dist.min() < 0:
        raise ResourceLimitError(f"BFS over Sym_{n} passes level {_MAX_LEVEL}, beyond the int8 distance table")
    return DistanceTable(n, dist)


class ShiftTerms(NamedTuple):
    l: int
    sum: int
    diam: int


@dataclass(frozen=True)
class FormulaBreakdown:
    """Per-shift sum and diameter terms with the minimizing shift."""

    n: int
    per_shift: tuple[ShiftTerms, ...]
    l_star: int
    value: int

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "value": self.value,
            "l_star": self.l_star,
            "per_shift": [{"l": t.l, "sum": t.sum, "diam": t.diam} for t in self.per_shift],
        }


def formula_length(p: Permutation) -> FormulaBreakdown:
    """Per-shift terms of one element: the method of formula_terms_batch in
    Python ints, O(n) plus O(n) per heavy shift, where a pairwise scan of the
    mismatch set is O(n^3).

    sum(l) = sum_k dist0(d_k + l) over the displacements d_k = p(k) - k, with
    dist0(x) = min(x mod n, -x mod n); the diameter term covers {0, l} together
    with the points where p differs from the rotation x -> x-l.  With h = n // 2,

        sum(l + 1) - sum(l) = #{k : (d_k + l) mod n in [0, h)}
                            - #{k : (d_k + l) mod n in [n - h, n)}.

    Proof: for 0 <= x < n, dist0(x + 1) - dist0(x) is +1 on [0, h), where
    x + 1 <= h <= n - x - 1; -1 on [n - h, n), where dist0 goes from n - x to
    n - x - 1; and 0 at x = h between them for odd n = 2h + 1, as h = n - h - 1.
    Both counts are differences of prefix sums of the doubled histogram.

    The diameter is n // 2 for every light shift (the lemma in
    formula_terms_batch), and for the at most two heavy ones the antipodal
    search of that kernel: the largest near(x) - x over the members x, with
    near(x) the last member at or before x + n // 2 on the doubled ring.  It
    stays beside the kernel, whose budget for even one row, about 24n^2 bytes,
    passes MEMORY_BUDGET above n ~ 6,700, and which is slower per single row.

    The terms come from _shift_terms as two lists, which synthesize reads
    directly.
    """
    sums, diams = _shift_terms(p.n, p.images)
    totals = list(map(add, sums, diams))
    value = min(totals)
    return FormulaBreakdown(p.n, tuple(map(ShiftTerms, range(p.n), sums, diams)), totals.index(value), value)


def _shift_terms(n: int, images: Sequence[int]) -> tuple[list[int], list[int]]:
    """formula_length's per-shift sum and diameter terms as two plain lists
    indexed by the shift, for callers that need no breakdown object."""
    half = n // 2
    hist = [0] * n
    for q, image in enumerate(images):
        hist[(image - q) % n] += 1
    below = list(accumulate(hist * 2, initial=0))  # below[i]: the doubled ring's entries before i
    s = sum(map(mul, hist, chain(range(half + 1), range(n - half - 1, 0, -1))))  # dist0(d) = min(d, n - d)
    # sum(l + 1) - sum(l) for l = 0, 1, ...: on the doubled ring, (d_k + l) mod n is in [0, h)
    # at [n - l, n + h - l), and in [n - h, n) at [2n - h - l, 2n - l)
    steps = map(sub, map(add, below[n + half:half + 1:-1], below[2 * n - half:n - half + 1:-1]),
                map(add, below[n:1:-1], below[2 * n:n + 1:-1]))
    sums = list(accumulate(steps, initial=s))
    diams = [half] * n  # the diameter of every light shift
    for d, count in enumerate(hist):
        if 2 * count >= n:  # the heavy shift l = -d matches at least n/2 positions
            l = -d % n
            members = [q for q, image in enumerate(images) if q in (0, l) or (image - q + l) % n]
            ring = members + [q + n for q in members]
            diams[l] = max(ring[bisect_right(ring, q + half) - 1] - q for q in members)
    return sums, diams


def formula_distance(p: Permutation, q: Permutation) -> FormulaBreakdown:
    """Pairwise form of the length formula, right-invariant: formula_length(q * p^-1)."""
    if p.n != q.n:
        raise ValueError(f"degree mismatch: {p.n} vs {q.n}")
    return formula_length(compose(q, inverse(p)))


def _row_block(n: int, chunk: int) -> tuple[int, int]:
    """Rows per block of formula_terms_batch, and a row's bytes at most: 4 int64
    cells a position, and two heavy entries, each its displacement row and member
    bits (9 a position), or the bits and the doubled ring (3) with, per member
    (at most n // 2 + 2 of them), 6 live int64 values."""
    row = 32 * n + 2 * (11 * n + 48 * min(n, n // 2 + 2) + 64)
    return max(1, min(chunk, _FORMULA_BLOCK_BYTES // row)), row


def _formula_batch_bytes(m: int, n: int) -> int:
    """Bytes formula_terms_batch holds at its peak for m rows: the two int64
    outputs; the circulant, its float cast and BLAS-packed copy, which stays
    resident; and one block of rows."""
    block, row = _row_block(n, _FORMULA_CHUNK)
    return 8 * (2 * m * n + 3 * n * n) + min(m, block) * row


def formula_terms_batch(perms: np.ndarray, chunk: int = _FORMULA_CHUNK) -> tuple[np.ndarray, np.ndarray]:
    """Per-shift sum and diameter terms for a batch of one-line rows.

    Returns (sums, diams), each of shape (m, n) with column l holding the
    shift-l term.  Matches formula_length exactly; used by audits and walks
    where per-permutation Python loops would dominate.

    Both terms depend on a row only through its displacements
    d(k) = p(k) - k mod n:

    - Sum term, histogram times circulant: sums = hist @ C, where hist[d]
      counts the k with d(k) = d and C[d, l] = dist0[(d + l) mod n].
    - Diameter term: shift l matches exactly the k = hist[-l mod n]
      positions q with d(q) = -l; its member set M_l holds every other
      position and {0, l}.  Lemma: if 2k < n (l is light), diam_l = n // 2.
      For even n the k < n/2 matched positions miss one of the n/2
      disjoint antipodal pairs {j, j + n/2}, which lies in M_l.  For odd
      n = 2h + 1 each position lies in two of the n pairs {j, j + h}, so
      the matched positions touch at most 2k < n pairs and miss one.  The
      hist values of a row sum to n, so at most two shifts per row are
      heavy (2k >= n), and only those are searched.
    - Antipodal search, h = n // 2: members x, y at forward offset
      o = (y - x) mod n are min(o, n - o) apart, which is o if o <= h, else
      n - o <= h, the offset from y to x.  So diam_l is the largest near(x) - x
      over the members x < n, near(x) being the last member at or before
      x + h < 2n (x qualifies) on the ring of members j and j + n.  A block's
      rings are sorted keys 2n e + j: one np.searchsorted finds every near(x).

    Rows are scored in blocks of at most `chunk`, fewer where a block's
    temporaries would exceed _FORMULA_BLOCK_BYTES, straight into the outputs.
    The float64 products and sums are of integers below 2**53, so they are
    exact whatever the block size.
    """
    perms = np.asarray(perms)
    m, n = perms.shape
    pos = np.arange(n)
    dist0 = np.minimum(pos, n - pos)
    ring = np.concatenate([dist0, dist0]).astype(np.float64)
    circulant = sliding_window_view(ring, n)[:n].copy()  # C[d, l] = ring[d + l]
    sums = np.empty((m, n), dtype=np.int64)
    diams = np.full((m, n), n // 2, dtype=np.int64)
    block, _ = _row_block(n, chunk)
    for lo in range(0, m, block):
        disp = perms[lo:lo + block] - pos
        np.add(disp, n, out=disp, where=disp < 0)
        hist = np.bincount((np.arange(len(disp))[:, None] * n + disp).ravel(), minlength=disp.size).reshape(disp.shape)
        sums[lo:lo + block] = hist.astype(np.float64) @ circulant  # BLAS
        r, d = np.nonzero(hist >= n - n // 2)  # the heavy entries (2 hist >= n), by row and displacement
        del hist
        l = -d % n
        bits = disp[r] != d[:, None]
        bits[:, 0] = bits[np.arange(len(r)), l] = True
        ring = np.flatnonzero(np.concatenate([bits, bits], axis=1))
        entry, x = np.nonzero(bits)
        starts = np.flatnonzero(x == 0)  # position 0 is each entry's first member
        x += 2 * n * entry  # each member's key on the first half of its ring
        del bits, entry
        near = ring[np.searchsorted(ring, x + n // 2, side="right") - 1]
        diams[lo + r, l] = np.maximum.reduceat(near - x, starts)
    return sums, diams
