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
from typing import Sequence

from .metric import formula_length
from .perms import (
    C,
    CINV,
    GeneratorWord,
    Permutation,
    T,
    _INVERSE_LETTER,
    cycle_decompose,
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
    l %= n
    if l == 0:
        raise ValueError("(0 0) is not a transposition")
    return GeneratorWord(n, tuple(_transposition_letters(n, l)))


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
    letters = _join(rotation_word(n, k), _transposition_letters(n, (m - k) % n))
    return GeneratorWord(n, tuple(_join(letters, rotation_word(n, -k))))


def _emit_transposition_stream(n: int, stream: Sequence[tuple[int, int]]) -> tuple[list[str], int]:
    """Letters realizing the left-to-right product of transpositions (a, b).

    Each factor is conjugated to base a; adjacent conjugation powers merge
    into one pointer move.  Returns (reduced letters, final pointer
    position); the caller closes the frame with a rotation back to 0.
    """
    letters: list[str] = []
    pos = 0
    for a, b in stream:
        _join(letters, rotation_word(n, a - pos))
        _join(letters, _transposition_letters(n, (b - a) % n))
        pos = a
    return letters, pos


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
    letters, pos = _emit_transposition_stream(n, stream)
    return GeneratorWord(n, tuple(_join(letters, rotation_word(n, -pos))))


def _signed_position(n: int, x: int) -> int:
    """Position in (-(n - n//2), n//2], negative on the wrap-around side."""
    return x if x <= n // 2 else x - n


def _sweep_order(n: int, support: Sequence[int]) -> list[int]:
    """Visit order of the support starting near 0: out to the nearer arc
    extreme, back through 0 to the other extreme, or a wrap-around when the
    support spans more than half the circle."""
    signed = sorted(_signed_position(n, x) for x in support)
    right = [s for s in signed if s >= 0]
    left = [s for s in signed if s < 0]
    p = right[-1] if right else 0
    m = -left[0] if left else 0
    reverse_cost = 2 * (p + m)
    if reverse_cost <= n:
        if p <= m:
            order = right + left[::-1]
        else:
            order = left[::-1] + right
    else:
        if p <= m:
            order = right + left
        else:
            order = left[::-1] + right[::-1]
    return [s % n for s in order]


def synthesize(p: Permutation) -> CertifiedWord:
    """A word evaluating to p with a certified length bound.

    Picks the shift minimizing the weighted per-shift objective
    6*sum + 2*diam (smallest shift on ties), rebases by that rotation,
    telescopes the disjoint cycles along a support sweep, and prepends the
    rotation undoing the rebase.  The certificate is the rotation cost plus
    the weighted minimum plus an additive n of slack for boundary letters.
    """
    n = p.n
    breakdown = formula_length(p)
    weighted = [6 * t.sum + 2 * t.diam for t in breakdown.per_shift]
    best = min(weighted)
    l_star = weighted.index(best)
    bound = cycle_dist(n, 0, l_star) + best + n

    rebased = Permutation(n, tuple((x + l_star) % n for x in p.images))  # c^l_star * p
    cycles = cycle_decompose(rebased).cycles
    letters = rotation_word(n, -l_star)
    if cycles:
        point_to_cycle = {x: idx for idx, cyc in enumerate(cycles) for x in cyc}
        ordered: list[tuple[int, ...]] = []
        done: set[int] = set()
        for x in _sweep_order(n, sorted(point_to_cycle)):
            idx = point_to_cycle[x]
            if idx in done:
                continue
            done.add(idx)
            cyc = cycles[idx]
            at = cyc.index(x)
            ordered.append(cyc[at:] + cyc[:at])
        stream = [
            (cyc[i], cyc[i + 1]) for cyc in ordered for i in range(len(cyc) - 1)
        ]
        body, pos = _emit_transposition_stream(n, stream)
        _join(_join(letters, body), rotation_word(n, -pos))
    word = GeneratorWord(n, tuple(letters))
    return CertifiedWord(word, p, bound, l_star)
