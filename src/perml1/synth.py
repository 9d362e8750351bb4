"""Constructive generator words with certified length bounds.

Transpositions are built by conjugating t along the circle, taking whichever
of the two rotation directions is shorter; cycles telescope their
transposition chains so adjacent conjugation powers merge; a full permutation
is rebased by the best shift, split into disjoint cycles, and emitted along a
pointer sweep of the support.  Every emitted word carries a length certificate
from the shift formula, which `perml1 synth --check` verifies.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .metric import _shift_terms, check_memory
from .metric import formula_length  # noqa: F401  the benchmark's tracer (perfbench/spans.py) wraps this binding
from .perms import (
    C,
    CINV,
    GeneratorWord,
    Permutation,
    T,
    _INVERSE_LETTER,
    cycle_dist,
)

__all__ = [
    "CertifiedWord",
    "free_reduce", "rotation_word",
    "word_transposition_from_zero", "word_transposition", "word_cycle",
    "synthesize",
]


@dataclass(frozen=True)
class CertifiedWord:
    word: GeneratorWord
    target: Permutation
    certified_bound: int
    shift_used: int

    @property
    def length(self) -> int:
        return len(self.word)


def free_reduce(letters: Sequence[str]) -> list[str]:
    """Cancel adjacent tt, cC and Cc pairs (t is an involution)."""
    stack: list[str] = []
    for g in letters:
        if stack and stack[-1] == _INVERSE_LETTER.get(g):
            stack.pop()
        else:
            stack.append(g)
    return stack


def _join(word: list[str], piece: Sequence[str]) -> list[str]:
    """free_reduce(word + piece) for reduced word and piece, in place: free
    reduction in Z/2 * Z is unique, so only the seam can cancel."""
    cut = 0
    while cut < len(piece) and word and word[-1] == _INVERSE_LETTER[piece[cut]]:
        word.pop()
        cut += 1
    word += piece[cut:]
    return word


def rotation_word(n: int, shift: int) -> list[str]:
    """Letters for c^shift, rotated the shorter way around."""
    j = shift % n
    if j <= n - j:
        return [C] * j
    return [CINV] * (n - j)


def word_transposition_from_zero(n: int, l: int) -> GeneratorWord:
    """A word for (0 l) of length <= 4*d(0,l) + 1.

    For l on the near side of the circle this is (tc)^(l-1) t (tc)^-(l-1);
    on the far side the mirrored form built from t' = c^-1 t c is shorter.
    The two forms meet at l = floor(n/2), chosen by emitted length.
    """
    if l % n == 0:
        raise ValueError("(0 0) is not a transposition")
    return word_transposition(n, 0, l)


def _transposition_letters(n: int, l: int) -> list[str]:
    """The letters of word_transposition_from_zero(n, l), for 0 < l < n."""
    if l <= n // 2:
        return [T, C] * (l - 1) + [T] + [CINV, T] * (l - 1)
    back = n - l
    return [CINV, T] * (back - 1) + [CINV, T, C] + [T, C] * (back - 1)


def word_transposition(n: int, k: int, m: int) -> GeneratorWord:
    """A word for (k m), length <= 4*d(k,m) + 2*d(0,k) + 1."""
    k %= n
    m %= n
    if k == m:
        raise ValueError("transposition endpoints must differ")
    return GeneratorWord(n, tuple(_emit_transposition_stream(n, [(k, m)], [])))


class _Pieces(dict):
    """piece(n, k) as a read-only tuple for each k asked for, built on first use."""

    def __init__(self, n: int, piece):
        self.n, self.piece = n, piece

    def __missing__(self, k: int) -> tuple[str, ...]:
        self[k] = letters = tuple(self.piece(self.n, k))
        return letters


@lru_cache(maxsize=1)
def _letter_tables(n: int) -> tuple[_Pieces, _Pieces]:
    """The letters of rotation_word(n, j) and of the transposition (0 l), by j
    and l in Z/n, for the latest degree only.  Entries are built when first
    read, so a sparse element at high degree builds few of them; all of them
    would be about 1.25 n^2 letter references (0.7 MB at n = 256, 10 MB at
    n = 1,000), about what the word of one random element holds."""
    return _Pieces(n, rotation_word), _Pieces(n, _transposition_letters)


def _emit_transposition_stream(n: int, stream: Sequence[tuple[int, int]], letters: list[str]) -> list[str]:
    """Join onto letters the product, left to right, of the transpositions (a, b).

    Each factor is conjugated to base a; adjacent conjugation powers merge
    into one pointer move, and a last rotation brings the pointer back to 0.
    """
    rotations, swaps = _letter_tables(n)
    pos = 0
    for a, b in stream:
        _join(letters, rotations[(a - pos) % n])
        _join(letters, swaps[(b - a) % n])
        pos = a
    return _join(letters, rotations[-pos % n])


def word_cycle(n: int, points: Sequence[int]) -> GeneratorWord:
    """A word for the cyclic permutation (points[0] ... points[-1]).

    Length <= 2*d(0,k_1) + 6*sum_i d(k_i, k_i+1) + m.
    """
    pts = [x % n for x in points]
    if len(pts) < 2:
        raise ValueError("a cycle needs at least 2 points")
    if len(set(pts)) != len(pts):
        raise ValueError(f"repeated points in {points!r}")
    stream = [(pts[i], pts[i + 1]) for i in range(len(pts) - 1)]
    return GeneratorWord(n, tuple(_emit_transposition_stream(n, stream, [])))


def _sweep_order(n: int, support: Sequence[int]) -> list[int]:
    """Visit order of the ascending support starting near 0: out to the nearer
    arc extreme, back through 0 to the other extreme, or a wrap-around when the
    support spans more than half the circle.  The arc (n//2, n) is the
    wrap-around side, at signed positions x - n."""
    right = [x for x in support if x <= n // 2]
    left = [x for x in support if x > n // 2]
    p = right[-1] if right else 0
    m = n - left[0] if left else 0
    if 2 * (p + m) <= n:
        return right + left[::-1] if p <= m else left[::-1] + right
    return right + left if p <= m else left[::-1] + right[::-1]


def synthesize(p: Permutation) -> CertifiedWord:
    """A word evaluating to p with a certified length bound.

    Picks the shift minimizing the weighted per-shift objective
    6*sum + 2*diam (smallest shift on ties), rebases by that rotation,
    telescopes the disjoint cycles along a support sweep, and prepends the
    rotation undoing the rebase.  The certificate is the rotation cost plus
    the weighted minimum plus an additive n of slack for boundary letters.

    The shift terms come as plain lists from metric._shift_terms, with no
    breakdown objects; the rebased images stay a list whose orbits are traced
    in place, and every piece is read from _letter_tables.

    The word is checked against MEMORY_BUDGET before any letter is emitted:
    at most 17 bytes a letter of the bound in the word's list and tuple, and 8
    in the pieces it reads, whose letters, cancelled ones included, stayed
    within 0.83 of the bound on every element tried.  A random element's
    bound is about 1.47 n^2, so the refusal starts near n = 5,350.
    """
    n = p.n
    sums, diams = _shift_terms(n, p.images)
    weighted = [6 * s + 2 * d for s, d in zip(sums, diams)]
    best = min(weighted)
    l_star = weighted.index(best)
    bound = cycle_dist(n, 0, l_star) + best + n
    # 25 a letter; per point the terms, rebased images, sweep and stream, and two pieces' headers; the call's objects
    check_memory(25 * bound + 500 * n + 4096, f"the word of at most {bound:,} letters for an element of Sym_{n}")

    rebased = [(x + l_star) % n for x in p.images]  # c^l_star * p
    stream: list[tuple[int, int]] = []
    seen = [False] * n
    for x in _sweep_order(n, [x for x in range(n) if rebased[x] != x]):
        if seen[x]:
            continue
        a = x  # the orbit of x, entered at the first of its points the sweep reaches
        while (b := rebased[a]) != x:
            stream.append((a, b))
            seen[b] = True
            a = b
    letters = _emit_transposition_stream(n, stream, list(_letter_tables(n)[0][-l_star % n]))
    return CertifiedWord(GeneratorWord(n, tuple(letters)), p, bound, l_star)
