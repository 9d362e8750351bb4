import hashlib
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import seeded_elements, tau

from perml1 import metric
from perml1.metric import (
    ResourceLimitError,
    ShiftTerms,
    _delta_table,
    bfs_distances,
    formula_distance,
    formula_length,
    formula_terms_batch,
    generator_neighbors_rows,
    rank_rows,
)
from perml1.perms import (
    Permutation,
    all_permutations,
    compose,
    cycle_diam,
    cycle_dist,
    inverse,
    perm_rank,
    unrank_rows,
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


def reference_shift(p, l):
    """The shift-l terms of p by the plain scan: the cycle_dist sum and the
    cycle_diam of {0, l} with the mismatch set.  O(n^2) per shift."""
    n = p.n
    s = sum(cycle_dist(n, k, (p.images[k] + l) % n) for k in range(n))
    mismatch = [q for q in range(n) if p.images[q] != (q - l) % n]
    return ShiftTerms(l, s, cycle_diam(n, [0, l] + mismatch))


def reference_terms(p):
    """Per-shift terms of p by the plain scan.  O(n^3) per element."""
    return tuple(reference_shift(p, l) for l in range(p.n))


def heavy_shifts(rows):
    """Bool (m, n): shift l of a row is heavy when it matches at least n/2
    positions, i.e. 2 * #{q : p(q) = q - l mod n} >= n."""
    m, n = rows.shape
    disp = (rows - np.arange(n)) % n
    hist = np.bincount((np.arange(m)[:, None] * n + disp).ravel(), minlength=m * n).reshape(m, n)
    return 2 * hist[:, -np.arange(n) % n] >= n


def reference_diams(rows):
    """Diameter terms of a batch by the pairwise scan of every shift's member
    set, vectorised: shape (m, n), O(n^3) per row."""
    m, n = rows.shape
    pos = np.arange(n)
    member = rows[:, None, :] != (pos[None, :] - pos[:, None]) % n  # [row, l, q]
    member[:, :, 0] = True
    member[:, pos, pos] = True
    gap = np.abs(pos[:, None] - pos[None, :])
    dist = np.minimum(gap, n - gap).astype(np.int8)  # the (m, n, n, n) pair tensor stays 1 B a cell
    pairs = member[..., :, None] & member[..., None, :]
    return np.where(pairs, dist, 0).max(axis=(2, 3))


def heavy_families(n, seed=0):
    """The identity, the reflection i -> -i (no heavy shift from n = 5 on),
    every rotation, and every rotation times 1, 2 and 3 seeded transpositions."""
    rng = np.random.default_rng(seed)
    rows = [np.arange(n), -np.arange(n) % n]
    for r in range(n):
        row = np.roll(np.arange(n), r)
        rows.append(row)
        for _ in range(3):  # one more transposition each time
            row = row.copy()
            if n > 1:
                i, j = rng.choice(n, 2, replace=False)
                row[[i, j]] = row[[j, i]]
            rows.append(row)
    return np.array(rows)


def wrap_families(n, seed=0):
    """Every rotation with a seeded cluster of positions -w..w-1 (mod n), which
    straddles 0, cycled among themselves: the members of the rotation's heavy
    shift then lie on both sides of the wrap from n - 1 to 0."""
    rng = np.random.default_rng(seed)
    rows = []
    for r in range(n):
        row = np.roll(np.arange(n), r)
        cluster = np.arange(-int(rng.integers(1, max(1, n // 4) + 1)), 0) % n
        cluster = np.concatenate([cluster, np.arange(len(cluster)) % n])
        row[cluster] = row[np.roll(cluster, 1)]
        rows.append(row)
    return np.array(rows)


def cube_rows(n):
    """hamming_embed of every nonzero bit vector of the n-cube, at degree 4n^2."""
    degree = 4 * n * n
    bits = np.arange(1, 2 ** n)[:, None] >> np.arange(n - 1, -1, -1) & 1
    rows = np.tile(np.arange(degree), (len(bits), 1))
    rows[:, :n] += n * bits
    rows[:, n:2 * n] -= n * bits
    return rows


def assert_matches_reference(p):
    fb = formula_length(p)
    terms = reference_terms(p)
    assert fb.per_shift == terms
    assert fb.value == min(t.sum + t.diam for t in terms)
    assert fb.l_star == next(t.l for t in terms if t.sum + t.diam == fb.value)


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
        with pytest.raises(ResourceLimitError, match="BFS over Sym_13 needs 6,237,815,400 bytes, over the memory"):
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
        # the rows of t*p, c*p and c^-1*p, in the dtype of p's rows (unsigned ones included,
        # where c^-1 must not wrap 0 - 1 around the dtype), against the scalar product
        gens = [Permutation.transposition(n), Permutation.rotation(n), Permutation.rotation(n, -1)]
        elements = list(all_permutations(n))
        for rows in (perm_arrays[n].astype(dtype) for dtype in (np.int64, np.int8, np.uint8)):
            for g, neighbours in zip(gens, generator_neighbors_rows(rows)):
                assert neighbours.dtype == rows.dtype
                assert neighbours.tolist() == [list(compose(g, p).images) for p in elements]

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
        # the rows the BFS decodes: all of Sym_k, and the first row of each block of j! ranks
        rows = np.array(list(itertools.permutations(range(k))), dtype=np.int8)
        decoded = unrank_rows(k, np.arange(math.factorial(k)))
        assert decoded.dtype == np.int8 and np.array_equal(decoded, rows)
        for j in range(1, k + 1):
            firsts = unrank_rows(k, np.arange(0, math.factorial(k), math.factorial(j)))
            assert np.array_equal(firsts, rows[::math.factorial(j)])

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
        assert dist.max() == n * (n - 1) // 2
        assert np.flatnonzero(dist == dist.max()).tolist() == [perm_rank(tau(n))]

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

    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_reference_exhaustive(self, n):
        for p in all_permutations(n):
            assert_matches_reference(p)

    # the reference is O(n^3): 200 elements take about 3 s at each of n = 63..65
    # and 22 s at each of n = 128, 129, so those degrees run with the slow tests
    @pytest.mark.parametrize(
        "n", [9, 12, 40] + [pytest.param(n, marks=pytest.mark.slow) for n in (63, 64, 65, 128, 129)])
    def test_matches_reference_sampled(self, n):
        for p in seeded_elements(n, 200):
            assert_matches_reference(p)

    @pytest.mark.parametrize("n", range(1, 65))
    def test_matches_reference_on_families(self, n):
        # the identity, c, t and tau_n: the fewest and the most mismatches
        family = [Permutation.identity(n), Permutation.rotation(n)]
        if n >= 2:
            family += [Permutation.transposition(n), tau(n)]
        for p in family:
            assert_matches_reference(p)


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
    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_pure_python(self, n, perm_arrays):
        sums, diams = formula_terms_batch(perm_arrays[n])
        for i, p in enumerate(all_permutations(n)):
            terms = reference_terms(p)
            assert sums[i].tolist() == [t.sum for t in terms]
            assert diams[i].tolist() == [t.diam for t in terms]

    @staticmethod
    def _assert_matches_scalar(rows):
        # against the plain scan, and formula_length against it too
        sums, diams = formula_terms_batch(rows)
        for row, row_sums, row_diams in zip(rows, sums, diams):
            p = Permutation(len(row), tuple(int(x) for x in row))
            terms = reference_terms(p)
            assert row_sums.tolist() == [t.sum for t in terms]
            assert row_diams.tolist() == [t.diam for t in terms]
            assert formula_length(p).per_shift == terms

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

    @pytest.mark.parametrize("n", range(1, 9))
    def test_light_shift_lemma_exhaustive(self, n, perm_arrays):
        # every light shift has diameter n // 2, and a row has at most two heavy shifts
        rows = perm_arrays[n] if n in perm_arrays else unrank_rows(n, np.arange(math.factorial(n))).astype(np.int64)
        heavy = heavy_shifts(rows)
        assert (heavy.sum(axis=1) <= 2).all()
        diams = reference_diams(rows)
        assert (diams[~heavy] == n // 2).all()
        assert np.array_equal(formula_terms_batch(rows)[1], diams)

    # n = 127..129 take about 0.8 s each, so they run with the slow tests
    @pytest.mark.parametrize(
        "n", [*range(1, 21), 63, 64, 65] + [pytest.param(n, marks=pytest.mark.slow) for n in (127, 128, 129)])
    def test_heavy_shift_families_match_reference(self, n):
        # every shift up to n = 20; beyond, the heavy ones (the plain scan of a light shift is O(n^2))
        rows = heavy_families(n)
        heavy = heavy_shifts(rows)
        assert heavy[2::4].any(axis=1).all()  # a rotation matches every position at its shift
        sums, diams = formula_terms_batch(rows)
        for row, row_heavy, row_sums, row_diams in zip(rows, heavy, sums, diams):
            p = Permutation(n, tuple(int(x) for x in row))
            scalar = formula_length(p).per_shift
            for l in range(n) if n <= 20 else np.flatnonzero(row_heavy):
                assert (l, row_sums[l], row_diams[l]) == scalar[l] == reference_shift(p, l)

    @pytest.mark.parametrize(
        "n", [*range(1, 21), 63, 64, 65] + [pytest.param(n, marks=pytest.mark.slow) for n in (127, 128, 129)])
    def test_wrapping_members_match_reference(self, n):
        # clusters straddling 0 against the plain scan, at every shift up to n = 20 and
        # the heavy ones beyond; a rotation's heavy shift l has the two members {0, l}
        sums, diams = formula_terms_batch(wrap_families(n))
        for row, row_sums, row_diams in zip(wrap_families(n), sums, diams):
            p = Permutation(n, tuple(int(x) for x in row))
            scalar = formula_length(p).per_shift
            for l in range(n) if n <= 20 else np.flatnonzero(heavy_shifts(row[None, :])[0]):
                assert (l, row_sums[l], row_diams[l]) == scalar[l] == reference_shift(p, l)
        rotations = np.array([np.roll(np.arange(n), l) for l in range(n)])  # q -> q - l matches all at shift l
        assert np.diagonal(formula_terms_batch(rotations)[1]).tolist() == [min(l, n - l) for l in range(n)]

    @pytest.mark.parametrize("n", [256, 257, 1000])
    def test_formula_length_matches_batch_at_high_degree(self, n):
        # formula_length's O(n) sum steps and heavy-shift search, row by row against the
        # kernel: random rows, the identity and the reflection, and 12 seeded rotations,
        # each alone and times 1, 2 and 3 transpositions
        rng = np.random.default_rng(n)
        families = heavy_families(n)
        picked = [0, 1] + [2 + 4 * r + k for r in rng.choice(n, 12, replace=False) for k in range(4)]
        rows = np.concatenate([[rng.permutation(n) for _ in range(6)], families[picked]])
        sums, diams = formula_terms_batch(rows)
        for row, row_sums, row_diams in zip(rows, sums, diams):
            terms = formula_length(Permutation(n, tuple(int(x) for x in row))).per_shift
            assert terms == tuple(zip(range(n), row_sums.tolist(), row_diams.tolist()))

    def test_budget_covers_cube_rows(self):
        # the nonzero vectors of the 12-cube: degree 576 and 4,095 heavy entries, in several row blocks
        rows = cube_rows(12)
        m, n = rows.shape
        assert heavy_shifts(rows).sum() == m == 4095 > metric._row_block(n, metric._FORMULA_CHUNK)[0]
        tracemalloc.start()
        try:
            formula_terms_batch(rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= metric._formula_batch_bytes(m, n)

    def test_blocking_does_not_change_result(self, perm_arrays, monkeypatch):
        # blocks split the rows, so the rows and their heavy entries must span more than one block
        for rows in (perm_arrays[5], heavy_families(70)[::7]):
            assert len(rows) > 4 and heavy_shifts(rows).sum() > 4
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
    """t, c and c^-1 change rank_rows by exactly the _delta_table entry at
    (g, the position of 0, that of the letter's second value 1, n-1 or 0)."""
    n = rows.shape[1]
    pos = np.argsort(rows, axis=1)  # pos[v] = position of v
    table = _delta_table(n).reshape(3, n, n)
    ranks = rank_rows(rows)
    for g, (neighbours, second) in enumerate(zip(generator_neighbors_rows(rows), (1, n - 1, 0))):
        assert np.array_equal(rank_rows(neighbours), ranks + table[g, pos[:, 0], pos[:, second]])


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
