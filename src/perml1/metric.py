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
from functools import lru_cache
from itertools import accumulate, chain
from math import factorial
from operator import add, mul, sub
from typing import NamedTuple, Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .perms import (
    Permutation, _block_degree, _displacements, _histograms, _integers, _rows, _signed_cells, compose, inverse,
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

# A block keeps a tail-index list of its next BFS level while the list holds
# at most block // _LIST_DIVISOR entries; a longer level is read back from the
# table.  So the lists of one level hold at most n!/2 bytes.
_LIST_DIVISOR = 4

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
    """Lehmer ranks of a batch of one-line rows, shape (m, n) -> (m,).  The
    rows are checked by _rows; that each is a permutation is the caller's contract."""
    perms = _rows(perms)
    m, n = perms.shape
    if n > 20:
        raise ValueError(f"Lehmer ranks of Sym_{n} reach {n}! - 1, which overflows int64 (degree <= 20)")
    rank = np.zeros(m, dtype=np.int64)
    for i in range(n - 1):
        smaller = (perms[:, i + 1:] < perms[:, i:i + 1]).sum(axis=1)
        rank = rank * (n - i) + smaller
    return rank


def generator_neighbors_rows(perms: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows for t*p, c*p and c^-1*p: left multiplication maps each value v to g(v), g's row at v.
    The rows are checked by _rows; that each is a permutation is the caller's contract."""
    perms = _rows(perms)
    values = np.arange(perms.shape[1], dtype=perms.dtype)
    t = values.copy()
    t[:2] = values[1::-1]  # t swaps 0 and 1; Sym_1 has no 1, and there t fixes 0
    gens = np.array([t, np.roll(values, -1), np.roll(values, 1)])
    return tuple(gens[:, perms])


def _block_moves(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Where t, c and c^-1 send the blocks of k! consecutive ranks of Sym_n,
    and whether they reorder the blocks' tails: two (3, n!/k!) arrays.

    Left multiplication acts on values.  Rank B (m-1)! + j of Sym_m has first
    value B, and its other m-1 values in the order of rank j of Sym_{m-1}.  g
    sends B to g(B), and maps the other values in order, unless it moves one
    of them past the rest: t reorders them iff it swaps two of them (B >= 2),
    c iff it wraps m-1 to 0 (B != m-1), c^-1 iff it wraps 0 to m-1 (B != 0).
    On the rest, in their own order, g then acts as the same letter of
    Sym_{m-1}: t swaps their two smallest, c turns their largest into the
    smallest, c^-1 the smallest into the largest.  So g sends rank B (m-1)! + j to
    g(B) (m-1)! + (N_{m-1}[g][j] if g reorders the rest, else j), and the
    recursion from Sym_k up to Sym_n moves whole blocks: a block's tail is
    reordered iff every value g moves past the rest lies in it (0 and 1 for
    t, n-1 for c, 0 for c^-1).  With k = 1 the blocks are single ranks, and
    the first array is Sym_n's neighbour rank maps.
    """
    cells = np.min_scalar_type(factorial(n) // factorial(k) - 1)  # uint16 for the BFS's maps and plans
    blocks = np.zeros((3, 1), dtype=cells)
    reorders = np.ones((3, 1), dtype=bool)
    for m in range(k + 1, n + 1):
        first = np.arange(m)
        images = np.array([np.where(first < 2, 1 - first, first), (first + 1) % m, (first - 1) % m], dtype=cells)
        moved = np.array([first >= 2, first != m - 1, first != 0])[:, :, None]  # g reorders the rest
        rest = blocks.shape[1]
        blocks = (rest * images[:, :, None] + np.where(moved, blocks[:, None, :], np.arange(rest, dtype=cells)))
        blocks = blocks.reshape(3, -1)
        reorders = (moved & reorders[:, None, :]).reshape(3, -1)
    return blocks, reorders


@lru_cache(maxsize=1)  # the BFS drift walk reads the plans its bfs_distances call built
def _rank_moves(n: int) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """How t, c and c^-1 (g = 0, 1, 2) move the Lehmer ranks of Sym_n, in blocks
    of k! ranks, k = _block_degree(n): (k!, maps, targets, offsets).  maps is
    the identity of Sym_k, then its neighbour rank maps, k! uint16 entries
    each; targets and offsets (3, n!/k!) hold the block that g sends block B
    to and the start in maps of the map it applies to B's tails, 0 where g
    keeps their order (_block_moves).  So rank B k! + j goes to rank
    targets[g, B] k! + maps[offsets[g, B] + j].  The last degree's plans are
    kept, read-only."""
    k = _block_degree(n)
    block = factorial(k)
    targets, reorders = _block_moves(n, k)
    maps = np.concatenate([np.arange(block, dtype=np.uint16), _block_moves(k, 1)[0].ravel()], dtype=np.uint16)
    plans = maps, targets.astype(np.int64), block * np.arange(1, 4)[:, None] * reorders
    for plan in plans:
        plan.flags.writeable = False
    return block, *plans


def _moved_blocks(moves: tuple, g: np.ndarray, head: np.ndarray, tail: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The block and tail index, B and j of rank B k! + j, of each g * p, for
    _rank_moves(n), the letters g (0, 1, 2) and p's blocks and tail indices."""
    _, maps, targets, offsets = moves
    key = g * targets.shape[1] + head  # (g, B) in the flat plans
    return targets.take(key), maps.take(offsets.take(key) + tail)


def _bfs_bytes(n: int) -> int:
    """Bytes bfs_distances holds at its peak: the int8 table; the tail-index
    lists of two levels, at most block // _LIST_DIVISOR uint16 entries a block
    each, so n!/2 bytes a level; per block, its plans (as Python lists), its
    dictionary entries and list objects, 1 KB; per rank of a block, Sym_k's maps
    (8), and the larger of the recursion's arrays that build them (24) and one
    block's read-back mask and ranks, gathers and fresh entries (48); and 64 KB
    for the ufuncs' buffers and the small arrays of the recursion."""
    size, block = factorial(n), factorial(_block_degree(n))
    return 2 * size + 1024 * (size // block) + 56 * block + (1 << 16)


def bfs_distances(n: int) -> DistanceTable:
    """Exact shortest-path distances from the identity over all of Sym_n.

    A frontier BFS over blocks of k! consecutive ranks, k = _block_degree(n).
    Left multiplication acts on values, so t, c and c^-1 each send a whole
    block to one block, reordering the tails, the last k values, by one of
    Sym_k's neighbour rank maps or not at all (_block_moves).  A level's frontier is a uint16 list of
    tail indices per block.  Each (frontier block, generator) pair is gathered
    and written on its own, on the table's uint8 view where the sentinel -1
    reads 255: the entries that read 255 before the write are exactly the next
    level's new members, with no duplicates, as each map is a bijection and
    this level's earlier writes already read level + 1.  A block whose next
    level would pass block // _LIST_DIVISOR entries keeps no list and is read
    back from the table (dist == level) instead, as in a table scan (Korf, JACM
    2008); direction-optimizing BFS (Beamer, Asanovic & Patterson, SC 2012)
    likewise scans only dense levels.  _bfs_bytes is checked against
    MEMORY_BUDGET once, before the table exists: Sym_12 fits; Sym_13 raises
    ResourceLimitError, as does level 128.
    """
    (n,) = _integers(n=n)
    if n < 1:
        raise ValueError(f"degree must be >= 1, got {n}")
    check_memory(_bfs_bytes(n), f"the BFS over Sym_{n}")
    size = factorial(n)
    block, maps, targets, offsets = _rank_moves(n)
    targets, offsets, cap = targets.tolist(), offsets.tolist(), block // _LIST_DIVISOR
    dist = np.full(size, -1, dtype=np.int8)
    dist[0] = 0
    udist = dist.view(np.uint8)  # -1 reads as 255, above every level
    # per block of the level: its tail indices in uint16 pieces, or None where they are read back
    frontier: dict[int, Optional[list[np.ndarray]]] = {0: [np.zeros(1, dtype=np.uint16)]}
    reached = 1
    for level in range(_MAX_LEVEL):
        if reached == size:
            return DistanceTable(n, dist)
        nxt: dict[int, Optional[list[np.ndarray]]] = {}
        for b, pieces in frontier.items():
            lo = b * block
            rows = (np.flatnonzero(udist[lo:lo + block] == level) if pieces is None
                    else np.concatenate(pieces, dtype=np.intp))
            for g in range(3):
                at, to = offsets[g][b], targets[g][b]
                idx = maps[at:at + block].take(rows).astype(np.intp) if at else rows
                target = udist[to * block:(to + 1) * block]
                fresh = idx[target.take(idx) == 255]
                if len(fresh):
                    target[fresh] = level + 1
                    reached += len(fresh)
                    pieces = nxt.setdefault(to, [])
                    if pieces is not None:  # at most three pieces, one per generator
                        pieces.append(fresh.astype(np.uint16))
                        if sum(map(len, pieces)) > cap:
                            nxt[to] = None
        frontier = nxt  # this level's pieces are freed here
    if reached < size:
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
    """Rows per block of formula_terms_batch, and a row's bytes at most: a
    narrow displacement and 3 int64 cells a position (the histogram, its float
    cast and product), and two heavy entries, each its narrow displacement row
    and member bits, or the bits and the doubled ring (3), with, per member (at
    most n // 2 + 2 of them), 6 live int64 values."""
    cell = _signed_cells(n).itemsize
    row = (24 + cell) * n + 2 * ((cell + 3) * n + 48 * min(n, n // 2 + 2) + 64)
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

    The displacements are taken in the narrowest signed dtype that holds
    [-n, n] (int8 up to n = 127, int16 above), whatever the rows' integer dtype
    (the drift walk passes uint8 and uint16 rows).  Rows are scored in blocks
    of at most `chunk`, fewer where a block's temporaries would exceed
    _FORMULA_BLOCK_BYTES, straight into the outputs.
    The float64 products and sums are of integers below 2**53, so they are
    exact whatever the block size.  The rows are checked by _rows (2-D,
    integer, every entry in [0, n)); that each is a permutation is the
    caller's contract.
    """
    perms = _rows(perms)
    m, n = perms.shape
    pos = np.arange(n)
    circulant = _circulant(n)
    sums = np.empty((m, n), dtype=np.int64)
    diams = np.full((m, n), n // 2, dtype=np.int64)
    block, _ = _row_block(n, chunk)
    for lo in range(0, m, block):
        disp = _displacements(perms[lo:lo + block], pos)
        hist = _histograms(disp)
        sums[lo:lo + block] = hist.astype(np.float64) @ circulant  # BLAS
        r, d = np.divmod(np.flatnonzero(hist >= n - n // 2), n)  # heavy entries (2 hist >= n): row, displacement
        del hist
        l = -d % n
        diams[lo + r, l] = _heavy_diameters(disp[r] != d[:, None], l)
    return sums, diams


def _circulant(n: int) -> np.ndarray:
    """The sum term's circulant as float64, C[d, l] = dist0[(d + l) mod n]:
    a displacement histogram times C is its row's sums at every shift."""
    pos = np.arange(n)
    dist0 = np.minimum(pos, n - pos)
    ring = np.concatenate([dist0, dist0]).astype(np.float64)
    return sliding_window_view(ring, n)[:n].copy()  # C[d, l] = ring[d + l]


def _heavy_diameters(bits: np.ndarray, l: np.ndarray) -> np.ndarray:
    """The diameter term of each heavy shift l[e] by the antipodal search of
    formula_terms_batch, (e, n) -> (e,).  Row e of bits marks the positions
    where its row differs from the rotation x -> x - l[e]; 0 and l[e] are
    marked here, which makes the row shift l[e]'s member set."""
    e, n = bits.shape
    bits[:, 0] = bits[np.arange(e), l] = True
    ring = np.flatnonzero(np.concatenate([bits, bits], axis=1))
    entry, x = np.nonzero(bits)
    starts = np.flatnonzero(x == 0)  # position 0 is each entry's first member
    x += 2 * n * entry  # each member's key on the first half of its ring
    del bits, entry
    near = ring[np.searchsorted(ring, x + n // 2, side="right") - 1]
    return np.maximum.reduceat(near - x, starts)
