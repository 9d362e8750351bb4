import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perml1.perms import (
    CINV,
    C,
    GeneratorWord,
    Permutation,
    T,
    all_permutations,
    compose,
    cycle_decompose,
    cycle_diam,
    cycle_dist,
    eval_word,
    inverse,
    perm_rank,
    perm_unrank,
    unrank_rows,
)


def words_strategy(n, max_len=12):
    return st.lists(st.sampled_from([T, C, CINV]), max_size=max_len).map(
        lambda ls: GeneratorWord(n, tuple(ls))
    )


class TestPermutation:
    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            Permutation(3, (0, 0, 2))
        with pytest.raises(ValueError):
            Permutation(0, ())

    def test_parse_round_trip(self):
        p = Permutation.parse("2,1,0,3")
        assert p == Permutation(4, (2, 1, 0, 3))
        assert str(p) == "2,1,0,3"

    def test_generators(self):
        assert Permutation.transposition(4).images == (1, 0, 2, 3)
        assert Permutation.rotation(4).images == (1, 2, 3, 0)


class TestCompose:
    def test_transposition_product(self):
        # (12)(23) = (123): apply (23) first, the shared point ends up mapped 1 -> 2
        p = Permutation.transposition(4, 1, 2)
        q = Permutation.transposition(4, 2, 3)
        assert compose(p, q).images == (0, 2, 3, 1)

    def test_identity_neutral(self):
        p = Permutation(4, (2, 0, 3, 1))
        assert compose(Permutation.identity(4), p) == p
        assert compose(p, Permutation.identity(4)) == p

    def test_rotation_cancels(self):
        c = Permutation.rotation(5)
        assert compose(c, inverse(c)).is_identity()

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            compose(Permutation.identity(3), Permutation.identity(4))

    @given(st.integers(2, 6), st.data())
    @settings(max_examples=60, deadline=None)
    def test_associative(self, n, data):
        draw = lambda: Permutation(n, tuple(data.draw(st.permutations(list(range(n))))))
        p, q, r = draw(), draw(), draw()
        assert compose(compose(p, q), r) == compose(p, compose(q, r))


class TestInverse:
    def test_examples(self):
        assert inverse(Permutation.identity(5)).is_identity()
        assert inverse(Permutation.rotation(4)).images == (3, 0, 1, 2)
        t = Permutation.transposition(6)
        assert inverse(t) == t

    @pytest.mark.parametrize("n", range(1, 7))
    def test_exhaustive_cancellation(self, n):
        for p in all_permutations(n):
            assert compose(p, inverse(p)).is_identity()


class TestEvalWord:
    def test_empty_word(self):
        assert eval_word(GeneratorWord(5, ())).is_identity()

    def test_skip_two_conjugation(self):
        # tctCt sends 0 <-> 2 and fixes everything else
        w = GeneratorWord.parse(4, "tctCt")
        assert eval_word(w).images == (2, 1, 0, 3)

    def test_ct_on_three_points(self):
        assert eval_word(GeneratorWord.parse(3, "ct")) == Permutation(3, (2, 1, 0))

    def test_word_length_counts_letters(self):
        w = GeneratorWord(4, (C, CINV, T, T))
        assert len(w) == 4  # no implicit reduction
        assert eval_word(w).is_identity()

    @given(st.integers(2, 7), st.data())
    @settings(max_examples=80, deadline=None)
    def test_concat_homomorphism(self, n, data):
        w1 = data.draw(words_strategy(n))
        w2 = data.draw(words_strategy(n))
        assert eval_word(w1.concat(w2)) == compose(eval_word(w1), eval_word(w2))

    def test_inverse_word(self):
        w = GeneratorWord.parse(5, "tccCtc")
        assert compose(eval_word(w), eval_word(w.inverse())).is_identity()

    def test_unknown_letters_are_named(self):
        with pytest.raises(ValueError) as err:
            GeneratorWord.parse(4, "tcxCTt")
        assert str(err.value) == "unknown letters ['x', 'T']; alphabet is ('t', 'c', 'C')"

    @pytest.mark.parametrize("item", ["", "tc", "T", 0, None, b"t", ("t",), ["t"], {"t"}])
    def test_any_non_letter_is_a_value_error(self, item):
        with pytest.raises(ValueError, match="unknown letters"):
            GeneratorWord(3, (T, item, C))


class TestCycleMetric:
    def test_dist_examples(self):
        assert cycle_dist(6, 1, 5) == 2
        assert cycle_dist(9, 4, 4) == 0
        assert cycle_dist(4, 0, 2) == 2

    @pytest.mark.parametrize("n", range(2, 13))
    def test_triangle_inequality(self, n):
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    assert cycle_dist(n, a, c) <= cycle_dist(n, a, b) + cycle_dist(n, b, c)

    def test_diam_examples(self):
        assert cycle_diam(6, {0, 3}) == 3
        assert cycle_diam(9, {4}) == 0
        assert cycle_diam(9, set()) == 0
        assert cycle_diam(5, range(5)) == 2

    @pytest.mark.parametrize("n", range(2, 13))
    def test_diam_bounded_by_half(self, n):
        rng = random.Random(n)
        for _ in range(200):
            pts = rng.sample(range(n), rng.randrange(1, n + 1))
            assert cycle_diam(n, pts) <= n // 2


class TestCycleDecompose:
    def test_examples(self):
        assert cycle_decompose(Permutation.identity(5)).cycles == ()
        assert cycle_decompose(Permutation.transposition(4, 0, 2)).cycles == ((0, 2),)
        assert cycle_decompose(Permutation(5, (1, 0, 3, 4, 2))).cycles == ((0, 1), (2, 3, 4))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_reconstruct_exhaustive(self, n):
        for p in all_permutations(n):
            dec = cycle_decompose(p)
            assert dec.reconstruct() == p
            assert all(len(c) >= 2 for c in dec.cycles)
            pts = [x for c in dec.cycles for x in c]
            assert len(pts) == len(set(pts))


class TestRanking:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_round_trip_matches_lex_order(self, n):
        for rank, images in enumerate(itertools.permutations(range(n))):
            p = Permutation(n, images)
            assert perm_rank(p) == rank
            assert perm_unrank(n, rank) == p

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            perm_unrank(3, 6)


class TestUnrankRows:
    # itertools order at n = 1..8: test_metric.py::TestBfs::test_block_rows_are_sym_k_in_rank_order

    @pytest.mark.parametrize("n", range(9, 21))
    def test_matches_perm_unrank(self, n):
        rng = random.Random(n)
        ranks = [0, math.factorial(n) - 1] + [rng.randrange(math.factorial(n)) for _ in range(198)]
        rows = unrank_rows(n, np.array(ranks))
        assert rows.shape == (200, n) and rows.dtype == np.int8
        assert [tuple(row.tolist()) for row in rows] == [perm_unrank(n, r).images for r in ranks]

    def test_empty_batch(self):
        assert unrank_rows(5, np.array([], dtype=np.int64)).shape == (0, 5)

    @pytest.mark.parametrize("n, ranks", [(3, [6]), (3, [0, -1]), (12, [math.factorial(12)]),
                                          (20, [math.factorial(20)])])
    def test_rank_out_of_range(self, n, ranks):
        with pytest.raises(ValueError, match=f"ranks out of range for degree {n}"):
            unrank_rows(n, np.array(ranks))

    @pytest.mark.parametrize("n", [0, 21])
    def test_degree_out_of_range(self, n):
        with pytest.raises(ValueError, match="degree must be >= 1 and <= 20"):
            unrank_rows(n, np.array([0]))
