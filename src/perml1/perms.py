"""Permutations of Z/n, the two standard generators, and cycle-metric helpers.

Permutations are stored in one-line (image array) form: ``images[k] = p(k)``.
Products are read right to left, as in function composition, so
``compose(p, q)`` applies ``q`` first.  Generator words are sequences over
the alphabet {t, c, c^-1} written left to right; the rightmost letter acts
first, matching the way words like "tctCt" are read.  Array code walks all
of Sym_n as int8 rows, decoding ranges of k! consecutive Lehmer ranks with
unrank_rows; perm_unrank is its scalar reference in the tests.
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
    "perm_rank", "perm_unrank", "unrank_rows", "all_permutations",
]

# Word alphabet.  These double as the one-character text encoding: a word is
# written as a string such as "tctCt", where 'C' denotes the inverse cycle.
T = "t"
C = "c"
CINV = "C"
LETTERS = (T, C, CINV)
_LETTER_SET = frozenset(LETTERS)

_INVERSE_LETTER = {T: T, C: CINV, CINV: C}

# Array code walks Sym_n in ranges of k! consecutive Lehmer ranks,
# k = min(n, _BLOCK_DEGREE): a range of Sym_8 rows is 40,320 x n int8.
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
        try:  # one set inclusion; the per-letter scan runs only when it fails
            known = _LETTER_SET.issuperset(self.letters)
        except TypeError:  # an unhashable item: let the scan decide
            known = False
        if not known and (bad := [g for g in self.letters if g not in LETTERS]):
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


def unrank_rows(n: int, ranks) -> np.ndarray:
    """Batch form of perm_unrank, (m,) ranks -> (m, n) int8 rows.  The digits
    come off last to first by divmod with radix 2, 3, ..., n; digit i is the
    value at position i, and the values right of it at or above it move up."""
    if not 1 <= n <= 20:
        raise ValueError(f"degree must be >= 1 and <= 20, where ranks still fit int64, got {n}")
    rest = np.asarray(ranks, dtype=np.int64)
    if ((rest < 0) | (rest >= factorial(n))).any():
        raise ValueError(f"ranks out of range for degree {n}")
    rest = rest.astype(np.int32 if n <= 12 else np.int64)  # 12! < 2**31, and int32 divides faster
    rows = np.zeros((n, len(rest)), dtype=np.int8)
    for i in range(n - 2, -1, -1):
        rest, rows[i] = np.divmod(rest, n - i)
        rows[i + 1:] += rows[i + 1:] >= rows[i]
    return rows.T
