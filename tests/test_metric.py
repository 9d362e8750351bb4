import hashlib
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perml1 import metric
from perml1.metric import (
    ResourceLimitError,
    ShiftTerms,
    _rank_deltas,
    bfs_distances,
    formula_distance,
    formula_length,
    formula_terms_batch,
    generator_neighbors_rows,
    rank_rows,
)
from perml1.perms import (
    Permutation,
    _block_rows,
    all_permutations,
    compose,
    cycle_diam,
    cycle_dist,
    inverse,
    perm_rank,
)


def reference_bfs(n):
    """Frontier BFS that ranks every candidate row from scratch."""
    dist = np.full(math.factorial(n), -1, dtype=np.int64)
    frontier = np.arange(n, dtype=np.int8).reshape(1, n)
    dist[0] = 0
    level = 0
    while frontier.size:
        candidates = np.concatenate(generator_neighbors_rows(frontier), axis=0)
        ranks = rank_rows(candidates)
        fresh = dist[ranks] == -1
        if not fresh.any():
            break
        ranks, first = np.unique(ranks[fresh], return_index=True)
        level += 1
        dist[ranks] = level
        frontier = candidates[fresh][first]
    return dist


def pairwise_terms(p, q):
    """Per-shift terms of the pair (p, q) computed from p and q themselves,
    never through q * p^-1: the reference for right-invariance."""
    n = p.n
    pinv, qinv = inverse(p).images, inverse(q).images
    terms = []
    for l in range(n):
        s = sum(cycle_dist(n, (p.images[k] - l) % n, q.images[k]) for k in range(n))
        mismatch = [r for r in range(n) if pinv[r] != qinv[(r - l) % n]]
        terms.append(ShiftTerms(l, s, cycle_diam(n, [0, l] + mismatch)))
    return tuple(terms)


class TestBfs:
    def test_identity_and_generators(self, tables):
        for n, table in tables.items():
            assert table[Permutation.identity(n)] == 0
            assert table[Permutation.transposition(n)] == 1
            assert table[Permutation.rotation(n)] == 1

    def test_sym3_adjacent_swap(self, tables):
        # (1 2) is reachable in two letters (c then t) and no fewer
        assert tables[3][Permutation(3, (0, 2, 1))] == 2

    def test_guard(self, monkeypatch):
        # the table of Sym_13 alone exceeds the budget: refused before any array exists
        monkeypatch.setattr(metric.np, "full", lambda *a, **k: pytest.fail("table allocated"))
        with pytest.raises(ResourceLimitError, match="BFS over Sym_13 needs 6,239,266,920 bytes, over the memory"):
            bfs_distances(13)

    def test_budget_is_checked_once_before_the_table(self, monkeypatch):
        checked = []
        check = metric.check_memory
        monkeypatch.setattr(metric, "check_memory", lambda nbytes, what: checked.append(nbytes) or check(nbytes, what))
        table = bfs_distances(7).dist
        assert len(checked) == 1
        monkeypatch.setattr(metric, "MEMORY_BUDGET", checked[0])
        assert np.array_equal(bfs_distances(7).dist, table)
        monkeypatch.setattr(metric, "MEMORY_BUDGET", checked[0] - 1)
        monkeypatch.setattr(metric.np, "full", lambda *a, **k: pytest.fail("table allocated"))
        with pytest.raises(ResourceLimitError, match=f"BFS over Sym_7 needs {checked[0]:,} bytes, over the memory"):
            bfs_distances(7)

    @pytest.mark.parametrize("n", [8, 9, 10])
    def test_budget_counts_every_live_array(self, n, traced_peak_and_largest_check):
        # tracemalloc sees every numpy buffer: their peak stays within the
        # amount the BFS checked against the budget
        peak, largest = traced_peak_and_largest_check(lambda: bfs_distances(n))
        assert peak <= largest

    @pytest.mark.parametrize("m", [3, 6])
    def test_lookup_rejects_another_degree(self, tables, m):
        p = Permutation(m, tuple(reversed(range(m))))
        with pytest.raises(ValueError, match=f"degree {m}, the table has degree 5"):
            tables[5][p]
        with pytest.raises(ValueError, match=f"degree {m}, the table has degree 5"):
            tables[5].distance(Permutation.identity(m), p)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_generator_table_acts_by_indexing(self, n, perm_arrays):
        # the drift walk moves by indexing the images of t, c, c^-1
        rows = perm_arrays[n]
        gens = np.concatenate(generator_neighbors_rows(np.arange(n)[None, :]))
        for g, neighbours in enumerate(generator_neighbors_rows(rows)):
            assert np.array_equal(gens[g][rows], neighbours)

    @pytest.mark.parametrize(
        "n, block_degree",
        [pytest.param(n, 8, id=str(n)) for n in range(1, 10)]
        + [pytest.param(n, k, id=f"{n}-block{k}") for k in (1, 2, 3) for n in range(1, 6 if k == 1 else 8)],
    )
    def test_matches_reference_bfs(self, n, block_degree, monkeypatch):
        # blocks smaller than Sym_n: heads that hold none, some or all of 0, 1 and n-1
        monkeypatch.setattr("perml1.perms._BLOCK_DEGREE", block_degree)
        dist = bfs_distances(n).dist
        assert dist.dtype == np.int8
        assert np.array_equal(dist, reference_bfs(n))

    @pytest.mark.parametrize("k", range(1, 9))
    def test_block_rows_are_sym_k_in_rank_order(self, k):
        rows = np.array(list(itertools.permutations(range(k))), dtype=np.int8)
        assert np.array_equal(_block_rows(k, 1), rows)
        for j in range(1, k + 1):
            # the first row of each block of j! ranks
            assert np.array_equal(_block_rows(k, j), rows[::math.factorial(j)])

    def test_table_at_degree_ten_is_pinned(self):
        # golden values, recorded with a frontier BFS
        dist = bfs_distances(10).dist
        assert np.bincount(dist).tolist() == [
            1, 3, 6, 12, 24, 47, 87, 161, 297, 528, 927, 1611, 2726, 4492, 7184, 11109, 16751, 24624,
            35105, 48718, 66154, 87373, 111996, 140388, 171657, 204213, 236429, 266276, 291271, 308831,
            316158, 310824, 290837, 254374, 199563, 129134, 61718, 20467, 5183, 1116, 302, 92, 21, 6, 3, 1,
        ]
        digest = hashlib.sha256(np.ascontiguousarray(dist, dtype="<i4").tobytes()).hexdigest()
        assert digest == "bab26a036bce8f89700cd9cb3ac3d30c9d65b05d328939bfa72449d9bbd28181"

    @pytest.mark.parametrize("n", range(4, 11))
    def test_unique_antipode(self, n):
        # tau_n = (1, 0, n-1, ..., 2) is the only element at the diameter n(n-1)/2
        dist = bfs_distances(n).dist
        tau = Permutation(n, (1, 0) + tuple(range(n - 1, 1, -1)))
        assert dist.max() == n * (n - 1) // 2
        assert np.flatnonzero(dist == dist.max()).tolist() == [perm_rank(tau)]

    def test_degree_one(self):
        # Sym_1 has no column 1 for t to swap
        assert bfs_distances(1).dist.tolist() == [0]

    @pytest.mark.parametrize("n", [0, -3])
    def test_rejects_degree_below_one(self, n):
        with pytest.raises(ValueError, match="degree must be >= 1"):
            bfs_distances(n)

    def test_level_past_table_range_raises(self, monkeypatch):
        # the diameter of Sym_5 is 10: a table of 10 levels holds it, 9 do not
        monkeypatch.setattr(metric, "_MAX_LEVEL", 10)
        assert bfs_distances(5).dist.max() == 10
        monkeypatch.setattr(metric, "_MAX_LEVEL", 9)
        with pytest.raises(ResourceLimitError, match="level 9"):
            bfs_distances(5)

    def test_matches_dict_bfs(self):
        # independent oracle: hash-map BFS over tuples
        for n in (2, 3, 4, 5):
            t = Permutation.transposition(n)
            c = Permutation.rotation(n)
            ci = inverse(c)
            dist = {Permutation.identity(n).images: 0}
            frontier = [Permutation.identity(n)]
            while frontier:
                nxt = []
                for p in frontier:
                    for g in (t, c, ci):
                        q = compose(g, p)
                        if q.images not in dist:
                            dist[q.images] = dist[p.images] + 1
                            nxt.append(q)
                frontier = nxt
            table = bfs_distances(n)
            for p in all_permutations(n):
                assert table[p] == dist[p.images]

    def test_undirected_symmetry(self, tables):
        # the metric of an undirected graph is symmetric under inversion
        for n in (3, 4, 5):
            table = tables[n]
            for p in all_permutations(n):
                assert table[p] == table[inverse(p)]


class TestFormulaLength:
    def test_identity(self):
        fb = formula_length(Permutation.identity(6))
        assert fb.value == 0 and fb.l_star == 0

    @pytest.mark.parametrize("n", [3, 4, 6, 9])
    def test_rotation(self, n):
        fb = formula_length(Permutation.rotation(n))
        assert fb.value == 1
        assert fb.l_star == n - 1
        terms = fb.per_shift[n - 1]
        assert terms.sum == 0 and terms.diam == 1

    @pytest.mark.parametrize("n", [3, 4, 5, 7])
    def test_transposition(self, n):
        fb = formula_length(Permutation.transposition(n))
        assert fb.value == 3
        assert fb.l_star == 0
        assert fb.per_shift[0] == (0, 2, 1)

    def test_diam_term_bounded(self):
        for p in all_permutations(5):
            for t in formula_length(p).per_shift:
                assert t.diam <= 5 // 2

    def test_json_shape(self):
        d = formula_length(Permutation.rotation(6)).to_json_dict()
        assert d["value"] == 1 and d["l_star"] == 5
        assert len(d["per_shift"]) == 6
        assert set(d["per_shift"][0]) == {"l", "sum", "diam"}


class TestFormulaDistance:
    def test_reflexive(self):
        p = Permutation(5, (3, 1, 4, 0, 2))
        assert formula_distance(p, p).value == 0

    def test_to_rotation(self):
        assert formula_distance(Permutation.identity(6), Permutation.rotation(6)).value == 1
        assert formula_distance(Permutation.identity(6), Permutation.transposition(6)).value == 3

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            formula_distance(Permutation.identity(3), Permutation.identity(4))

    @pytest.mark.parametrize("n", range(2, 7))
    def test_right_invariance_exhaustive(self, n):
        # formula_distance goes through q * p^-1; the pairwise reference
        # must agree with it shift by shift
        perms = list(all_permutations(n))
        import random

        rng = random.Random(n)
        pairs = [(rng.choice(perms), rng.choice(perms)) for _ in range(60)]
        if n <= 4:
            pairs = [(p, q) for p in perms for q in perms]
        for p, q in pairs:
            pair = formula_distance(p, q)
            terms = pairwise_terms(p, q)
            assert pair.per_shift == terms
            assert pair.value == min(t.sum + t.diam for t in terms)
            assert pair.l_star == next(t.l for t in terms if t.sum + t.diam == pair.value)


class TestSplitTerms:
    def test_examples(self, term_minima):
        ident = Permutation.identity(6)
        c = Permutation.rotation(6)
        t = Permutation.transposition(6)
        assert term_minima(ident, c) == (0, 1)
        assert term_minima(ident, t) == (2, 1)
        assert term_minima(t, t) == (0, 0)

    def test_split_check_examples(self, term_minima):
        # (joint minimum, split bound 2*(sum min) + (diam min)) per pair
        ident = Permutation.identity(6)
        p = Permutation(6, (2, 4, 0, 5, 3, 1))
        for a, b, joint, bound in [
            (ident, Permutation.rotation(6), 1, 1),
            (ident, Permutation.transposition(6), 3, 5),
            (p, p, 0, 0),
        ]:
            sum_min, diam_min = term_minima(a, b)
            assert formula_distance(a, b).value == joint <= bound == 2 * sum_min + diam_min

    @pytest.mark.parametrize("n", range(2, 7))
    def test_split_holds_per_sigma(self, n, perm_arrays):
        # right-invariance reduces the all-pairs sweep to all sigma
        sums, diams = formula_terms_batch(perm_arrays[n])
        joint = (sums + diams).min(axis=1)
        bound = 2 * sums.min(axis=1) + diams.min(axis=1)
        assert (joint <= bound).all()

    @pytest.mark.parametrize("n", range(2, 7))
    def test_case_b2_never_fires(self, n, perm_arrays):
        # when the sum term stays under n/2, one shift attains both minima;
        # a violation is reported as a finding, not a failure
        sums, diams = formula_terms_batch(perm_arrays[n])
        t1 = sums.min(axis=1)
        t2 = diams.min(axis=1)
        both = ((sums == t1[:, None]) & (diams == t2[:, None])).any(axis=1)
        exceptions = ((t1 < n / 2) & ~both).nonzero()[0]
        if exceptions.size:
            warnings.warn(f"joint-minimizer exceptions at n={n}: ranks {exceptions.tolist()}")

    @pytest.mark.parametrize("n", range(2, 7))
    def test_joint_at_least_sum_min(self, n, perm_arrays):
        sums, diams = formula_terms_batch(perm_arrays[n])
        assert ((sums + diams).min(axis=1) >= sums.min(axis=1)).all()


class TestBatch:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_pure_python(self, n, perm_arrays):
        sums, diams = formula_terms_batch(perm_arrays[n])
        for i, p in enumerate(all_permutations(n)):
            fb = formula_length(p)
            assert sums[i].tolist() == [t.sum for t in fb.per_shift]
            assert diams[i].tolist() == [t.diam for t in fb.per_shift]

    @staticmethod
    def _assert_matches_scalar(rows):
        sums, diams = formula_terms_batch(rows)
        for row, row_sums, row_diams in zip(rows, sums, diams):
            fb = formula_length(Permutation(len(row), tuple(int(x) for x in row)))
            assert row_sums.tolist() == [t.sum for t in fb.per_shift]
            assert row_diams.tolist() == [t.diam for t in fb.per_shift]

    @pytest.mark.parametrize("n", [63, 64, 65, 127, 128, 129])
    def test_matches_pure_python_at_word_boundaries(self, n):
        rng = np.random.default_rng(n)
        near_rotations = []
        for _ in range(2):
            row = np.roll(np.arange(n), rng.integers(n))
            i, j = rng.choice(n, 2, replace=False)
            row[[i, j]] = row[[j, i]]
            near_rotations.append(row)
        rows = np.array([rng.permutation(n), rng.permutation(n), np.arange(n)] + near_rotations)
        self._assert_matches_scalar(rows)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 130).flatmap(lambda n: st.permutations(range(n))))
    def test_matches_pure_python_property(self, images):
        self._assert_matches_scalar(np.array([images]))

    def test_blocking_does_not_change_result(self, perm_arrays, monkeypatch):
        rng = np.random.default_rng(0)
        for rows in (perm_arrays[5], np.array([rng.permutation(70) for _ in range(9)])):
            default = formula_terms_batch(rows)
            for chunk in (1, 4):
                sums, diams = formula_terms_batch(rows, chunk=chunk)
                assert (sums == default[0]).all() and (diams == default[1]).all()
            with monkeypatch.context() as patch:
                patch.setattr(metric, "_FORMULA_BLOCK_BYTES", 1)  # one row per block
                sums, diams = formula_terms_batch(rows)
            assert (sums == default[0]).all() and (diams == default[1]).all()

    def test_rank_rows_matches_perm_rank(self, perm_arrays):
        arr = perm_arrays[6]
        ranks = rank_rows(arr)
        assert ranks.tolist() == [perm_rank(p) for p in all_permutations(6)]

    def test_rank_rows_top_rank_at_degree_20(self):
        assert rank_rows(np.arange(20)[None, ::-1]).tolist() == [math.factorial(20) - 1]

    def test_rank_rows_rejects_int64_overflow(self):
        with pytest.raises(ValueError, match="Sym_21"):
            rank_rows(np.arange(21)[None, :])


def assert_rank_deltas(rows):
    """t, c and c^-1 change rank_rows by exactly the deltas of _rank_deltas."""
    pos = np.argsort(rows, axis=1).astype(np.int8)  # pos[v] = position of v
    deltas = _rank_deltas(rows.shape[1], pos[:, 0], pos[:, 1], pos[:, -1])
    ranks = rank_rows(rows)
    for neighbours, delta in zip(generator_neighbors_rows(rows), deltas):
        assert np.array_equal(rank_rows(neighbours), ranks + delta)


class TestRankDeltas:
    @pytest.mark.parametrize("n", range(2, 8))
    def test_exhaustive(self, n, perm_arrays):
        assert_rank_deltas(perm_arrays[n])

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 20).flatmap(lambda n: st.permutations(range(n))))
    def test_property_up_to_degree_20(self, images):
        assert_rank_deltas(np.array([images], dtype=np.int64))


class TestSandwich:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_formula_brackets_bfs(self, n, tables, perm_arrays):
        sums, diams = formula_terms_batch(perm_arrays[n])
        value = (sums + diams).min(axis=1)
        upper = (6 * sums + 2 * diams).min(axis=1)
        d = tables[n].dist.astype(np.int64)
        assert (value <= 3 * d).all()
        assert (d <= upper).all()
        assert (upper <= 6 * value).all()

    @pytest.mark.parametrize("n", range(2, 7))
    def test_per_step_stability(self, n, perm_arrays):
        # one generator changes the formula value by at most 3
        arr = perm_arrays[n]
        sums, diams = formula_terms_batch(arr)
        value = (sums + diams).min(axis=1)
        for rows in generator_neighbors_rows(arr.astype(np.int8)):
            neighbor_value = value[rank_rows(rows.astype(np.int64))]
            assert (abs(neighbor_value - value) <= 3).all()
