"""Permutations of Z/n, the two standard generators, and cycle-metric helpers.

Permutations are stored in one-line (image array) form: ``images[k] = p(k)``.
Products are read right to left, as in function composition, so
``compose(p, q)`` applies ``q`` first.  Generator words are sequences over
the alphabet {t, c, c^-1} written left to right; the rightmost letter acts
first, matching the way words like "tctCt" are read.  Array code walks all
of Sym_n as int8 rows, in blocks of consecutive Lehmer ranks (perm_blocks).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import factorial
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "T", "C", "CINV", "LETTERS",
    "Permutation", "GeneratorWord", "CycleDecomposition",
    "compose", "inverse", "eval_word",
    "cycle_dist", "cycle_diam", "cycle_decompose",
    "perm_rank", "perm_unrank", "all_permutations", "perm_blocks",
]

# Word alphabet.  These double as the one-character text encoding: a word is
# written as a string such as "tctCt", where 'C' denotes the inverse cycle.
T = "t"
C = "c"
CINV = "C"
LETTERS = (T, C, CINV)

_INVERSE_LETTER = {T: T, C: CINV, CINV: C}

# Array code walks Sym_n in blocks of k! consecutive Lehmer ranks,
# k = min(n, _BLOCK_DEGREE): a block of Sym_8 rows is 40,320 x n int8.
_BLOCK_DEGREE = 8


@dataclass(frozen=True)
class Permutation:
    """A bijection of Z/n in one-line form."""

    n: int
    images: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"degree must be >= 1, got {self.n}")
        if len(self.images) != self.n or sorted(self.images) != list(range(self.n)):
            raise ValueError(f"images {self.images!r} are not a bijection of Z/{self.n}")

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(n, tuple(range(n)))

    @classmethod
    def transposition(cls, n: int, a: int = 0, b: int = 1) -> "Permutation":
        """The transposition (a b); defaults to the generator t = (0 1)."""
        if n < 2:
            raise ValueError("transpositions need degree >= 2")
        a, b = a % n, b % n
        if a == b:
            raise ValueError("transposition endpoints must differ")
        images = list(range(n))
        images[a], images[b] = b, a
        return cls(n, tuple(images))

    @classmethod
    def rotation(cls, n: int, shift: int = 1) -> "Permutation":
        """The power c^shift of the full cycle c = (0 1 ... n-1)."""
        return cls(n, tuple((k + shift) % n for k in range(n)))

    @classmethod
    def from_cycles(cls, n: int, cycles: Iterable[Sequence[int]]) -> "Permutation":
        images = list(range(n))
        seen: set[int] = set()
        for cyc in cycles:
            for x in cyc:
                if x in seen:
                    raise ValueError(f"point {x} appears in two cycles")
                seen.add(x)
            for i, x in enumerate(cyc):
                images[x % n] = cyc[(i + 1) % len(cyc)] % n
        return cls(n, tuple(images))

    @classmethod
    def parse(cls, text: str) -> "Permutation":
        """Parse one-line comma-separated images, e.g. "2,1,0,3"."""
        try:
            images = tuple(int(part) for part in text.split(","))
        except ValueError:
            raise ValueError(f"not a comma-separated image list: {text!r}") from None
        return cls(len(images), images)

    def __call__(self, x: int) -> int:
        return self.images[x % self.n]

    def __str__(self) -> str:
        return ",".join(str(x) for x in self.images)

    def is_identity(self) -> bool:
        return all(v == k for k, v in enumerate(self.images))

    def support(self) -> tuple[int, ...]:
        """Points moved by the permutation, ascending."""
        return tuple(k for k, v in enumerate(self.images) if v != k)


@dataclass(frozen=True)
class GeneratorWord:
    """A word over {t, c, c^-1}; no free reduction is ever applied implicitly."""

    n: int
    letters: tuple[str, ...]

    def __post_init__(self):
        bad = [g for g in self.letters if g not in LETTERS]
        if bad:
            raise ValueError(f"unknown letters {bad!r}; alphabet is {LETTERS}")
        if self.n < 1:
            raise ValueError(f"degree must be >= 1, got {self.n}")

    @classmethod
    def parse(cls, n: int, text: str) -> "GeneratorWord":
        return cls(n, tuple(text))

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return "".join(self.letters)

    def inverse(self) -> "GeneratorWord":
        return GeneratorWord(self.n, tuple(_INVERSE_LETTER[g] for g in reversed(self.letters)))

    def concat(self, other: "GeneratorWord") -> "GeneratorWord":
        if self.n != other.n:
            raise ValueError(f"degree mismatch: {self.n} vs {other.n}")
        return GeneratorWord(self.n, self.letters + other.letters)


@dataclass(frozen=True)
class CycleDecomposition:
    """Disjoint cycles of length >= 2 covering the non-fixed points."""

    n: int
    cycles: tuple[tuple[int, ...], ...]

    def reconstruct(self) -> Permutation:
        return Permutation.from_cycles(self.n, self.cycles)


def compose(p: Permutation, q: Permutation) -> Permutation:
    """The product p*q, applying q first: result(x) = p(q(x))."""
    if p.n != q.n:
        raise ValueError(f"degree mismatch: {p.n} vs {q.n}")
    return Permutation(p.n, tuple(p.images[qx] for qx in q.images))


def inverse(p: Permutation) -> Permutation:
    images = [0] * p.n
    for k, v in enumerate(p.images):
        images[v] = k
    return Permutation(p.n, tuple(images))


def eval_word(w: GeneratorWord) -> Permutation:
    """Evaluate letter by letter, rightmost letter first.

    Left-multiplying by t swaps the values 0 and 1; left-multiplying by
    c^(+-1) shifts every value by +-1 mod n.
    """
    n = w.n
    images = list(range(n))
    for g in reversed(w.letters):
        if g == C:
            images = [(v + 1) % n for v in images]
        elif g == CINV:
            images = [(v - 1) % n for v in images]
        else:
            images = [1 if v == 0 else 0 if v == 1 else v for v in images]
    return Permutation(n, tuple(images))


def cycle_dist(n: int, a: int, b: int) -> int:
    """Shortest-path distance between a and b on the n-cycle."""
    d = (a - b) % n
    return min(d, n - d)


def cycle_diam(n: int, points: Iterable[int]) -> int:
    """Max pairwise cycle distance within the set; 0 for empty or singleton sets."""
    pts = sorted({x % n for x in points})
    m = len(pts)
    if m <= 1:
        return 0
    best = 0
    for i in range(m):
        for j in range(i + 1, m):
            d = pts[j] - pts[i]
            if n - d < d:
                d = n - d
            if d > best:
                best = d
    return best


def cycle_decompose(p: Permutation) -> CycleDecomposition:
    """Orbits of length >= 2, each starting at its smallest point, sorted by it."""
    seen = [False] * p.n
    cycles: list[tuple[int, ...]] = []
    for start in range(p.n):
        if seen[start] or p.images[start] == start:
            seen[start] = True
            continue
        orbit = []
        x = start
        while not seen[x]:
            seen[x] = True
            orbit.append(x)
            x = p.images[x]
        cycles.append(tuple(orbit))
    return CycleDecomposition(p.n, tuple(cycles))


def perm_rank(p: Permutation) -> int:
    """Lehmer (lexicographic) rank of the one-line form, in [0, n!)."""
    images = p.images
    n = p.n
    rank = 0
    for i in range(n):
        smaller = sum(1 for j in range(i + 1, n) if images[j] < images[i])
        rank = rank * (n - i) + smaller
    return rank


def perm_unrank(n: int, rank: int) -> Permutation:
    """Inverse of perm_rank."""
    if not 0 <= rank < factorial(n):
        raise ValueError(f"rank {rank} out of range for degree {n}")
    digits = []
    for i in range(n - 1, -1, -1):
        f = factorial(i)
        digits.append(rank // f)
        rank %= f
    pool = list(range(n))
    return Permutation(n, tuple(pool.pop(d) for d in digits))


def all_permutations(n: int) -> Iterator[Permutation]:
    """All of Sym_n in Lehmer-rank (lexicographic) order."""
    for images in itertools.permutations(range(n)):
        yield Permutation(n, images)


def _block_degree(n: int) -> int:
    """k of the blocks of k! consecutive ranks in which array code walks Sym_n."""
    return min(n, _BLOCK_DEGREE)


def _block_rows(n: int, k: int) -> np.ndarray:
    """The first rows of the blocks of k! consecutive Lehmer ranks of Sym_n in
    rank order, (n!/k!, n) int8: a row over m values is [v, rest + (rest >= v)]
    for v < m and rest over m-1 values, and the last k values ascend."""
    rows = np.arange(k, dtype=np.int8)[None, :]
    for m in range(k + 1, n + 1):
        rows = np.concatenate([np.insert(rows + (rows >= v), 0, v, axis=1) for v in range(m)])
    return rows


def _blocks_bytes(n: int) -> int:
    """Bytes perm_blocks(n) holds at once: the first rows, Sym_k's rows, and
    one block with its tail."""
    k = _block_degree(n)
    block = factorial(k)
    return n * (factorial(n) // block) + (2 * k + n) * block


def perm_blocks(n: int) -> Iterator[tuple[int, np.ndarray]]:
    """Sym_n in Lehmer-rank order as arrays: (lo, rows) per block, where rows
    is the (k!, n) int8 array of ranks lo .. lo + k! - 1, k = _block_degree(n).
    A block's rows share the first n-k values of its first row; the rest are
    that row's last k values, which ascend, indexed by Sym_k's rows.  Each
    block is a new array."""
    if n < 1:
        raise ValueError(f"degree must be >= 1, got {n}")
    k = _block_degree(n)
    sym_k = _block_rows(k, 1)
    for i, first in enumerate(_block_rows(n, k)):
        rows = np.empty((len(sym_k), n), dtype=np.int8)
        rows[:, :n - k] = first[:n - k]
        rows[:, n - k:] = first[n - k:][sym_k]
        yield i * len(sym_k), rows
