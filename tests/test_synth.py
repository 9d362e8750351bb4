import hashlib
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import seeded_elements, tau

from perml1 import metric, synth
from perml1.metric import ResourceLimitError, formula_length
from perml1.perms import (
    GeneratorWord,
    Permutation,
    all_permutations,
    cycle_dist,
    eval_word,
)
from perml1.synth import (
    free_reduce,
    rotation_word,
    synthesize,
    word_cycle,
    word_transposition,
    word_transposition_from_zero,
)


def certificate_digest(elements):
    """sha256 over the word, bound and shift synthesize gives each element."""
    digest = hashlib.sha256()
    for p in elements:
        cert = synthesize(p)
        digest.update(f"{cert.word} {cert.certified_bound} {cert.shift_used}\n".encode())
    return digest.hexdigest()


class TestFreeReduce:
    def test_cancellations(self):
        assert free_reduce(list("tcCt")) == []
        assert free_reduce(list("ttt")) == ["t"]
        assert free_reduce(list("cCCc")) == []

    @given(st.lists(st.sampled_from("tcC"), max_size=16))
    @settings(max_examples=100, deadline=None)
    def test_preserves_evaluation(self, letters):
        n = 5
        before = eval_word(GeneratorWord(n, tuple(letters)))
        after = eval_word(GeneratorWord(n, tuple(free_reduce(letters))))
        assert before == after


class TestRotationWord:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_shorter_direction(self, n):
        for shift in range(-n, n + 1):
            letters = rotation_word(n, shift)
            assert len(letters) == cycle_dist(n, 0, shift % n)
            assert eval_word(GeneratorWord(n, tuple(letters))) == Permutation.rotation(n, shift)


class TestTranspositionFromZero:
    def test_adjacent_is_single_letter(self):
        assert word_transposition_from_zero(7, 1).letters == ("t",)

    def test_wraparound_is_three_letters(self):
        w = word_transposition_from_zero(8, 7)
        assert str(w) == "Ctc"
        assert eval_word(w) == Permutation.transposition(8, 0, 7)

    def test_skip_two(self):
        w = word_transposition_from_zero(6, 2)
        assert len(w) == 5
        assert eval_word(w) == Permutation.transposition(6, 0, 2)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            word_transposition_from_zero(5, 0)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_exhaustive_eval_and_bound(self, n):
        for l in range(1, n):
            w = word_transposition_from_zero(n, l)
            assert eval_word(w) == Permutation.transposition(n, 0, l)
            assert len(w) <= 4 * cycle_dist(n, 0, l) + 1


class TestTransposition:
    def test_zero_base_reduces(self):
        assert word_transposition(9, 0, 4).letters == word_transposition_from_zero(9, 4).letters

    def test_adjacent_conjugation(self):
        for n in (5, 8):
            for k in range(n):
                w = word_transposition(n, k, (k + 1) % n)
                assert eval_word(w) == Permutation.transposition(n, k, k + 1)
                assert len(w) <= 2 * cycle_dist(n, 0, k) + 1

    def test_rejects_equal_points(self):
        with pytest.raises(ValueError):
            word_transposition(6, 2, 2)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_exhaustive_eval_and_bound(self, n):
        for k in range(n):
            for m in range(n):
                if k == m:
                    continue
                w = word_transposition(n, k, m)
                assert eval_word(w) == Permutation.transposition(n, k, m)
                assert len(w) <= 4 * cycle_dist(n, k, m) + 2 * cycle_dist(n, 0, k) + 1


class TestCycleWord:
    def test_pair_is_transposition(self):
        w = word_cycle(6, [0, 1])
        assert eval_word(w) == Permutation.transposition(6)

    def test_three_cycle_is_rotation(self):
        w = word_cycle(3, [0, 1, 2])
        assert eval_word(w) == Permutation.rotation(3)

    def test_spread_cycle(self):
        w = word_cycle(8, [1, 3, 5])
        assert eval_word(w) == Permutation.from_cycles(8, [[1, 3, 5]])
        assert len(w) <= 2 * 1 + 6 * (2 + 2) + 3

    def test_rejects_repeats(self):
        with pytest.raises(ValueError):
            word_cycle(6, [1, 4, 1])

    def test_random_cycles(self):
        rng = random.Random(20240)
        for _ in range(400):
            n = rng.randrange(2, 13)
            m = rng.randrange(2, n + 1)
            pts = rng.sample(range(n), m)
            w = word_cycle(n, pts)
            assert eval_word(w) == Permutation.from_cycles(n, [pts])
            bound = (
                2 * cycle_dist(n, 0, pts[0])
                + 6 * sum(cycle_dist(n, pts[i], pts[i + 1]) for i in range(m - 1))
                + m
            )
            assert len(w) <= bound


class TestSynthesize:
    def test_identity_gives_empty_word(self):
        cert = synthesize(Permutation.identity(8))
        assert cert.length == 0
        assert cert.certified_bound == 8  # just the additive slack

    def test_rotation(self):
        cert = synthesize(Permutation.rotation(9))
        assert eval_word(cert.word) == Permutation.rotation(9)
        assert cert.length <= cert.certified_bound
        assert cert.shift_used == 8

    @pytest.mark.parametrize("n", range(1, 7))
    def test_exhaustive_soundness(self, n, tables):
        table = tables.get(n)
        for p in all_permutations(n):
            cert = synthesize(p)
            assert eval_word(cert.word) == p
            assert cert.length <= cert.certified_bound
            if table is not None:
                assert cert.length >= table[p]
            assert cert.length <= 8 * formula_length(p).value + 2 * n

    def test_bfs_floor_sym7(self, tables):
        rng = random.Random(7)
        perms = list(all_permutations(7))
        for p in rng.sample(perms, 500):
            cert = synthesize(p)
            assert eval_word(cert.word) == p
            assert tables[7][p] <= cert.length <= 8 * formula_length(p).value + 2 * 7

    @pytest.mark.parametrize("n", range(7, 13))
    def test_sampled_larger_degrees(self, n):
        rng = random.Random(n)
        for _ in range(1000):
            images = list(range(n))
            rng.shuffle(images)
            p = Permutation(n, tuple(images))
            cert = synthesize(p)
            assert eval_word(cert.word) == p
            assert cert.length <= cert.certified_bound

    @pytest.mark.parametrize("n", range(1, 8))
    def test_seam_joins_are_free_reduction(self, n, monkeypatch):
        # every piece is joined cancelling only at its seam; with plain concatenation
        # in their place the same calls give unreduced letters, whose free reduction
        # must be the word itself
        elements = list(all_permutations(n))
        pairs = [(k, m) for k in range(n) for m in range(n) if k != m]
        words = [synthesize(p).word for p in elements] + [word_transposition(n, k, m) for k, m in pairs]

        def concatenate(word, piece):
            word += piece
            return word

        monkeypatch.setattr(synth, "_join", concatenate)
        unreduced = [synthesize(p).word for p in elements] + [word_transposition(n, k, m) for k, m in pairs]
        for word, letters in zip(words, unreduced):
            assert word.letters == tuple(free_reduce(letters.letters))
        if n >= 3:  # the seams do cancel letters
            assert sum(map(len, unreduced)) > sum(map(len, words))

    def test_output_is_pinned(self):
        # one digest over every word, bound and shift: a change to any letter
        # of any of these 8,913 words changes it
        elements = [p for n in range(1, 8) for p in all_permutations(n)]
        elements += [p for n in (9, 20, 40) for p in seeded_elements(n, 1000)]
        assert certificate_digest(elements) == "1b4e9329d579dd5ce2ad881eead97ff0cd7e1a2c87b8def8537843deee522a24"

    def test_output_is_pinned_at_high_degree(self):
        elements = [p for n in (64, 100, 128, 256, 257) for p in [*seeded_elements(n, 30), tau(n)]]
        assert certificate_digest(elements) == "90a3de04c832e6d6d47cf06a26a8e2342ca4ca7ceca7e5f0821e1bd6f6ef13a4"

    def test_switching_degrees(self):
        # the letter tables are held for the latest degree only: each switch rebuilds them
        pinned = {
            9: "7e4a90ff2358fe6a72b898573aa51b9538ebdfd3ba93bf3ddf178ba73cc72850",
            40: "e3e15377a6a03c301d06b966e94fb904b17a2c699cd46574f6224c8cbd1b10fb",
            256: "9d8cc718790cfb04e241e78144249ad82981b2386299367323aa8a319605e7da",
        }
        for n in (9, 40, 9, 256, 9):
            assert certificate_digest([*seeded_elements(n, 20), tau(n)]) == pinned[n], n

    def test_sparse_element_at_high_degree_builds_few_pieces(self):
        # a transposition at degree 3,000 needs a handful of pieces, where all the
        # rotation and transposition pieces of that degree are 11 million letters;
        # the untraced call at another degree leaves no pieces of degree 3,000 behind
        synthesize(Permutation.transposition(2999, 7, 11))
        tracemalloc.start()
        try:
            cert = synthesize(Permutation.transposition(3000, 7, 11))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cert.length <= cert.certified_bound
        assert peak < 1 << 20

    @pytest.mark.parametrize("n", range(4, 65))
    def test_tau_word_length(self, n):
        # n(n-1)/2, the BFS diameter for n <= 12, except two letters more at n = 2 mod 4
        cert = synthesize(tau(n))
        assert eval_word(cert.word) == tau(n)
        assert cert.length == n * (n - 1) // 2 + (2 if n % 4 == 2 else 0)


class TestMemoryBudget:
    """The traced peak of synthesize, with the pieces of its degree built
    afresh, stays within the bytes it checked against the budget."""

    @pytest.mark.parametrize("n", [2, 3, 9, 40, 200, 500])
    @pytest.mark.parametrize("kind", ["seeded", "tau", "transposition"])
    def test_cold_pieces(self, n, kind, traced_peak_and_largest_check):
        p = {"seeded": next(seeded_elements(n, 1)), "tau": tau(n),
             "transposition": Permutation.transposition(n, 0, n // 2)}[kind]

        def call():
            synth._letter_tables.cache_clear()
            return synthesize(p)

        peak, largest = traced_peak_and_largest_check(call)
        assert peak <= largest

    @pytest.mark.parametrize("n", range(1, 8))
    def test_pieces_within_the_bound(self, n, monkeypatch):
        # the check counts the letters of the pieces a word reads, cancelled ones included,
        # at most the bound: with plain concatenation in place of the seam joins, the
        # words of all of Sym_n and of seeded elements up to degree 256 stay within it
        monkeypatch.setattr(synth, "_join", lambda word, piece: word.extend(piece) or word)
        elements = [*all_permutations(n), *seeded_elements(9 * n, 20), *seeded_elements(256, 2 * n)]
        for p in elements:
            cert = synthesize(p)
            assert cert.length <= cert.certified_bound

    def test_refused_before_any_letter(self, monkeypatch):
        # tau(1000)'s bound is 1,502,000 letters: 38 MB checked, over a 16 MiB budget
        monkeypatch.setattr(metric, "MEMORY_BUDGET", 1 << 24)
        monkeypatch.setattr(synth, "_letter_tables", lambda n: pytest.fail("pieces built"))
        what = "the word of at most 1,502,000 letters for an element of Sym_1000 needs"
        with pytest.raises(ResourceLimitError, match=what):
            synthesize(tau(1000))
