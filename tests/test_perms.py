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
    perm_blocks,
    perm_rank,
    perm_unrank,
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


class TestBlocks:
    @pytest.mark.parametrize(
        "n, block_degree",
        [pytest.param(n, 8, id=str(n)) for n in range(1, 9)]
        + [pytest.param(n, k, id=f"{n}-block{k}") for k in (1, 2, 3) for n in range(1, 9)],
    )
    def test_blocks_are_sym_n_in_rank_order(self, n, block_degree, monkeypatch):
        monkeypatch.setattr("perml1.perms._BLOCK_DEGREE", block_degree)
        blocks = list(perm_blocks(n))
        rows = np.concatenate([rows for _, rows in blocks])
        assert rows.dtype == np.int8
        assert np.array_equal(rows, np.array(list(itertools.permutations(range(n))), dtype=np.int8))
        assert all(rows.shape == (math.factorial(min(n, block_degree)), n) for _, rows in blocks)
        for lo, rows in blocks:
            assert lo == perm_rank(Permutation(n, tuple(int(x) for x in rows[0])))

    def test_degree_must_be_positive(self):
        with pytest.raises(ValueError, match="degree must be >= 1"):
            next(perm_blocks(0))
