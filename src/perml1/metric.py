"""Exact word metric by BFS and the shift-minimization length formula.

The Cayley graph has vertex set Sym_n and undirected edges {(t*p, p), (c*p, p)},
i.e. neighbors are obtained by left multiplication with t, c or c^-1.  The
length formula scans every cyclic shift l and combines a displacement sum with
the diameter of the mismatch set; BFS is the exact oracle it is audited
against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import factorial
from typing import NamedTuple

import numpy as np

from .perms import (
    Permutation,
    _block_degree,
    _block_rows,
    compose,
    cycle_diam,
    cycle_dist,
    inverse,
    perm_rank,
)

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

# Byte budget for the largest temporary of formula_terms_batch, the doubled
# shift masks of one block of rows: it stays a few MB at any degree.
_FORMULA_BLOCK_BYTES = 1 << 23


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
    """Rows for t*p, c*p and c^-1*p.  Left multiplication remaps values."""
    n = perms.shape[1]
    tp = perms.copy()
    zeros = tp == 0
    tp[tp == 1] = 0
    tp[zeros] = 1
    cp = (perms + 1) % n
    cinvp = (perms - 1) % n
    return tp, cp, cinvp


@cache
def _delta_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The read-only swap and up tables of _rank_deltas, built once per degree."""
    idx = np.arange(n)
    fact = np.array([factorial(n - 1 - i) for i in idx], dtype=np.int64)
    swap = np.where(idx[:, None] < idx[None, :], fact[:, None], -fact[None, :])
    up = np.cumsum(fact) - fact - (n - 1 - idx) * fact
    swap.flags.writeable = up.flags.writeable = False
    return swap, up


def _rank_deltas(n: int, zero: np.ndarray, one: np.ndarray, top: np.ndarray) -> np.ndarray:
    """Lehmer-rank change of t*p, c*p and c^-1*p, shape (3, m), from the
    positions in p of the values 0, 1 and n-1 (integer arrays over m rows).
    With fact[i] = (n-1-i)!, the weight of digit i, and prefix[a] = sum(fact[:a]):

    - t swaps the values 0 and 1, which changes only the digits at their
      positions a = zero, b = one: swap[a, b] = +fact[a] if a < b, else -fact[b].
    - c maps value v to v+1 mod n.  Every digit left of a = top gains one
      (the new 0 lies to its right) and digit a drops from n-1-a to 0:
      up[a] = +prefix[a] - (n-1-a) * fact[a].
    - c^-1 undoes c: -up[a] with a = zero.
    """
    swap, up = _delta_tables(n)
    # take on the flattened table is several times faster than swap[zero, one]
    return np.stack([swap.take(n * zero.astype(np.int64) + one), up.take(top), -up.take(zero)])


def _generators(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Images of t, c and c^-1 (the order of _rank_deltas), and their column
    moves on inverse rows: (g*p)^-1 = p^-1 g^-1, the images of t, c^-1, c."""
    gens = np.concatenate(generator_neighbors_rows(np.arange(n)[None, :]))
    return gens, gens[[0, 2, 1]]


def bfs_distances(n: int) -> DistanceTable:
    """Exact shortest-path distances from the identity over all of Sym_n.

    A table-scan BFS (Korf, JACM 2008): the frontier of level L, the ranks
    with dist == L, is read in blocks of k! ranks, k = _block_degree(n).
    A block's rows share their first n-k values (the head) and run through
    Sym_k on the rest, so the positions of 0, 1 and n-1 that the O(1) rank
    deltas need (_rank_deltas) come from the head or from Sym_k's rows.
    Unreached neighbours are written level + 1, duplicates alike.  The table
    and one block are checked against MEMORY_BUDGET once, before the table
    exists: Sym_12 fits; Sym_13 raises ResourceLimitError, as does level 128.
    """
    if n < 1:
        raise ValueError(f"degree must be >= 1, got {n}")
    size, k = factorial(n), _block_degree(n)
    h, block = n - k, factorial(k)
    # per block: its first row, an equality test, an argmax and the heads; per rank
    # of a block: Sym_k's rows, argsort and int8 copies, cols, and the scan's temporaries
    check_memory(size + (2 * n + 11) * (size // block) + (9 * k + 2 * n + 64) * block,
                 f"the BFS over Sym_{n}")
    dist = np.full(size, -1, dtype=np.int8)
    dist[0] = 0
    if n == 1:  # Sym_1 is the identity alone, and t needs two columns
        return DistanceTable(n, dist)
    # cols[j], per row of a block: the position of the head's value at j < h, or of the
    # (j-h)-th smallest value off the head, which the block's first row (its tail ascends)
    # has at j.  So heads, the positions of 0, 1 and n-1 in the first rows, index cols.
    cols = np.concatenate([np.repeat(np.arange(h, dtype=np.int8), block).reshape(h, block),
                           h + np.argsort(_block_rows(k, 1), axis=1).T.astype(np.int8)])
    first = _block_rows(n, k)
    heads = np.array([(first == v).argmax(axis=1).astype(np.int8) for v in (0, 1, n - 1)])
    reached = 0
    for level in range(_MAX_LEVEL):
        for lo, zero, one, top in zip(range(0, size, block), *heads):
            rows = np.flatnonzero(dist[lo:lo + block] == level)
            if len(rows):
                reached += len(rows)
                deltas = _rank_deltas(n, cols[zero][rows], cols[one][rows], cols[top][rows])
                candidates = (lo + rows + deltas).ravel()
                dist[candidates[dist[candidates] == -1]] = level + 1
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
    """Scans every shift l in Python.

    sum(l) = sum_k d(k, p(k)+l) on the n-cycle; the diameter term covers
    {0, l} together with the points where p differs from the rotation x -> x-l.
    """
    n = p.n
    terms = []
    for l in range(n):
        s = sum(cycle_dist(n, k, (p.images[k] + l) % n) for k in range(n))
        mismatch = [q for q in range(n) if p.images[q] != (q - l) % n]
        d = cycle_diam(n, [0, l] + mismatch)
        terms.append(ShiftTerms(l, s, d))
    value = min(t.sum + t.diam for t in terms)
    l_star = next(t.l for t in terms if t.sum + t.diam == value)
    return FormulaBreakdown(n, tuple(terms), l_star, value)


def formula_distance(p: Permutation, q: Permutation) -> FormulaBreakdown:
    """Pairwise form of the length formula, right-invariant: formula_length(q * p^-1)."""
    if p.n != q.n:
        raise ValueError(f"degree mismatch: {p.n} vs {q.n}")
    return formula_length(compose(q, inverse(p)))


def _words(mask: int, count: int) -> list[int]:
    """The low `count` 64-bit words of a bit mask, least significant first."""
    return [(mask >> (64 * w)) & 0xFFFF_FFFF_FFFF_FFFF for w in range(count)]


def _mask_layout(n: int, chunk: int) -> tuple[int, int, int]:
    """Words per shift mask and per doubled mask, and rows per block."""
    words = -(-n // 64)
    dwords = words + n // 2 // 64 + 1  # a rot_v window for v <= n // 2 reads no further
    return words, dwords, max(1, min(chunk, _FORMULA_BLOCK_BYTES // (8 * n * dwords)))


def _formula_batch_bytes(m: int, n: int, chunk: int = 1024) -> int:
    """Bytes formula_terms_batch holds at its peak for m int64 rows: per cell,
    the displacements, histogram, sums, matched shifts and diameters, and the
    histogram's BLAS-packed copy, which stays resident; the circulant, its
    float cast and packed copy; and four block-sized arrays (the doubled
    masks, their member part and two shifted windows)."""
    _, dwords, block = _mask_layout(n, chunk)
    return 8 * (6 * m * n + 3 * n * n + 4 * min(m, block) * n * dwords)


def formula_terms_batch(perms: np.ndarray, chunk: int = 1024) -> tuple[np.ndarray, np.ndarray]:
    """Per-shift sum and diameter terms for a batch of one-line rows.

    Returns (sums, diams), each of shape (m, n) with column l holding the
    shift-l term.  Matches formula_length exactly; used by audits and walks
    where per-permutation Python loops would dominate.

    Both terms depend on a row only through its displacements
    d(k) = p(k) - k mod n:

    - Sum term, histogram times circulant: sums = hist @ C, where hist[d]
      counts the k with d(k) = d and C[d, l] = dist0[(d + l) mod n].
    - Diameter term, shift masks: shift l matches exactly the positions q
      with d(q) = -l mod n, so its member set M_l (mismatches plus {0, l})
      is an n-bit mask.  A pair of members at cycle distance v exists iff
      M_l & rot_v(M_l) != 0, with rot_v(M) bit j = M bit (j + v) mod n, so
      the diameter is the largest v <= n // 2 passing that test (0 if
      none).  Masks span ceil(n / 64) uint64 words; each is stored twice
      over ("doubled": bits q and q + n) so that rot_v is a plain right
      shift by v.  v is scanned downward, dropping decided entries.

    Rows are processed in blocks of at most `chunk` rows, fewer where the
    doubled masks of a block would exceed _FORMULA_BLOCK_BYTES.
    """
    perms = np.asarray(perms, dtype=np.int64)
    m, n = perms.shape
    pos = np.arange(n)
    disp = (perms - pos) % n
    dist0 = np.minimum(pos, n - pos)
    circulant = dist0[(pos[:, None] + pos[None, :]) % n]
    hist = np.bincount((np.arange(m)[:, None] * n + disp).ravel(), minlength=m * n)
    # float64 products and sums of integers below 2**53 are exact, and use BLAS
    sums = (hist.reshape(m, n).astype(np.float64) @ circulant).astype(np.int64)

    half = n // 2
    words, dwords, block = _mask_layout(n, chunk)
    low = np.array(_words((1 << n) - 1, words), dtype=np.uint64)
    full = np.array(_words((1 << 2 * n) - 1, dwords), dtype=np.uint64)
    # {0, l} doubled: multiplying by 1 + 2**n copies bits q < n to q + n
    pinned = np.array([_words((1 | 1 << l) * (1 | 1 << n), dwords) for l in range(n)], dtype=np.uint64)
    bits = np.concatenate([pos, pos + n])
    bits = bits[bits < 64 * dwords]
    bit_values = np.left_shift(np.uint64(1), (bits % 64).astype(np.uint64))
    neg = (-disp) % n  # the one shift each position matches
    diams = np.zeros(m * n, dtype=np.int64)
    for lo in range(0, m, block):
        b = min(block, m - lo)
        entries = np.arange(lo * n, (lo + b) * n)
        doubled = np.tile(full, b * n)
        slots = (np.arange(b)[:, None] * n + neg[lo:lo + b, bits % n]) * dwords + bits // 64
        # each bit is set once in `full`, so subtracting a matched bit clears it
        np.subtract.at(doubled, slots.ravel(), np.tile(bit_values, b))
        doubled = (doubled.reshape(b, n, dwords) | pinned).reshape(b * n, dwords)
        member = doubled[:, :words] & low
        for v in range(half, 0, -1):
            s, r = divmod(v, 64)
            # numpy defines a uint64 shift by 64 as 0, which r = 0 relies on
            window = (doubled[:, s:s + words] >> np.uint64(r)
                      | doubled[:, s + 1:s + words + 1] << np.uint64(64 - r))
            hit = (window & member).any(axis=1)
            if hit.any():
                diams[entries[hit]] = v
                keep = ~hit
                entries, doubled, member = entries[keep], doubled[keep], member[keep]
                if not len(entries):
                    break
    return sums, diams.reshape(m, n)
