import itertools
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import generator_edges, masked

from perml1 import audits, embed, metric
from perml1.audits import (
    CubeAuditReport,
    DistortionReport,
    PropertyViolation,
    cube_audit,
    distortion_audit,
    drift_slope,
    drift_walk,
    hamming_embed,
)
from perml1.embed import DEFAULT_GRID_SCALE, combined_distance, combined_embed, identity_distances
from perml1.metric import ResourceLimitError, bfs_distances, formula_terms_batch, generator_neighbors_rows, rank_rows
from perml1.perms import Permutation, _signed_cells, all_permutations, compose, inverse, perm_unrank, unrank_rows


def reference_sampled_exact(n, sample_size, seed):
    """The sampled exact audit built on all n! rows: every element decoded
    and indexed by the drawn ranks."""
    rng = np.random.default_rng(seed)
    size = math.factorial(n)
    elements = unrank_rows(n, np.arange(size))
    ii = rng.integers(0, size, sample_size)
    jj = rng.integers(0, size - 1, sample_size)
    jj = np.where(jj >= ii, jj + 1, jj)
    sigma = audits._quotients(elements[ii], elements[jj])
    d = bfs_distances(n).dist[rank_rows(sigma)]
    checked, (exp, exp_row), (con, con_row) = audits._score([(*identity_distances(sigma), d, d, sigma.__getitem__)],
                                                            DEFAULT_GRID_SCALE)
    exp_text, con_text = audits._check_witnesses(exp_row, con_row)
    return masked(DistortionReport(n, "exact", checked, exp, exp_text, con, con_text, exp * con, DEFAULT_GRID_SCALE,
                                   sample_size, seed, 0.0).to_json_dict())


def reference_cube(n):
    """The cube audit with one hamming_embed permutation per nonzero vector,
    the vectors in itertools.product order."""
    diffs = [v for v in itertools.product((0, 1), repeat=n) if any(v)]
    degree = 4 * n * n
    sigma = np.array([hamming_embed(n, x).images for x in diffs], dtype=np.int64)
    sums, diams = formula_terms_batch(sigma)
    h = np.array([sum(x) for x in diffs], dtype=np.int64)
    d_lo, d_hi = audits._bracket(sums, diams)
    ratio_lo, ratio_hi = float((d_lo / (n * h)).min()), float((d_hi / (n * h)).max())
    sandwich = None
    if degree <= 7:
        d = bfs_distances(degree).dist[rank_rows(sigma)]
        sandwich = bool(((d_lo <= d + 1e-12) & (d <= d_hi + 1e-12)).all()
                        and ((h / 3.0 <= d + 1e-12) & (d <= 11 * h + 1e-12)).all())
    minimizer = bool((sums[:, 0] < sums[:, 1:].min(axis=1)).all())
    return masked(CubeAuditReport(n, degree, 2 ** n * len(diffs), ratio_lo, ratio_hi, ratio_hi / ratio_lo, minimizer,
                                  degree <= 7, sandwich, 0.0).to_json_dict())


class TestDistortionExact:
    def test_sym3_exhaustive(self, tables):
        report = distortion_audit(3)
        assert report.pairs_checked == 6 * 5
        assert report.mode == "exact"
        assert 1.0 <= report.distortion <= 1000.0

    def test_matches_direct_recomputation(self, tables):
        # witnesses and extremes must agree with per-pair recomputation
        report = distortion_audit(4)
        table = tables[4]
        perms = list(all_permutations(4))
        points = {p.images: combined_embed(p) for p in perms}
        exp = con = 0.0
        for p in perms:
            for q in perms:
                if p == q:
                    continue
                emb = combined_distance(points[p.images], points[q.images])
                d = table.distance(p, q)
                exp = max(exp, emb / d)
                con = max(con, d / emb)
        assert report.max_expansion == pytest.approx(exp, rel=1e-9)
        assert report.max_contraction == pytest.approx(con, rel=1e-9)
        assert report.distortion == pytest.approx(exp * con, rel=1e-9)
        pw = Permutation.parse(report.expansion_witness[0])
        qw = Permutation.parse(report.expansion_witness[1])
        embw = combined_distance(points[pw.images], points[qw.images])
        assert embw / table.distance(pw, qw) == pytest.approx(exp, rel=1e-9)

    def test_sampled_mode_is_reproducible(self):
        a = distortion_audit(5, sample_size=500, seed=11)
        b = distortion_audit(5, sample_size=500, seed=11)
        assert a.max_expansion == b.max_expansion
        assert a.expansion_witness == b.expansion_witness
        assert a.pairs_checked == 500

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("n", range(3, 9))
    def test_sampled_matches_all_rows_reference(self, n, seed):
        # the drawn rows alone give the report that indexing all n! rows gave
        report = distortion_audit(n, sample_size=2000, seed=seed)
        assert masked(report.to_json_dict()) == reference_sampled_exact(n, 2000, seed)

    def test_sampled_chunks_match_all_rows_reference(self):
        # three chunks, each scored from p and q with sigma^-1's rank, against sigma formed and ranked whole
        report = distortion_audit(7, sample_size=9000, seed=4)
        assert masked(report.to_json_dict()) == reference_sampled_exact(7, 9000, 4)

    def test_element_sweep_matches_pair_sweep(self, tables):
        # the (id, sigma) sweep against every ordered pair scored on its own
        for n in (3, 4, 5):
            perms = list(all_permutations(n))
            points = [combined_embed(p) for p in perms]
            exp = con = 0.0
            pairs = 0
            for p, x in zip(perms, points):
                for q, y in zip(perms, points):
                    if p != q:
                        emb = combined_distance(x, y)
                        d = tables[n].distance(p, q)
                        exp, con = max(exp, emb / d), max(con, d / emb)
                        pairs += 1
            report = distortion_audit(n)
            assert report.pairs_checked == pairs
            assert report.max_expansion == pytest.approx(exp, rel=1e-12)
            assert report.max_contraction == pytest.approx(con, rel=1e-12)
            assert report.expansion_witness[0] == str(Permutation.identity(n))

    @pytest.mark.parametrize("n", range(3, 10))
    def test_expansion_is_the_t_edge(self, n, sweep):
        # the combined distance is a right-invariant pseudometric, so along a shortest word to sigma,
        # emb(sigma) <= d(sigma) * max_g emb(g): the largest ratio over Sym_n is a generator's, t's
        s = sweep[n]
        emb = DEFAULT_GRID_SCALE * s.grid[1:] + s.profile[1:]  # rank 0 is the identity
        grid, profile = generator_edges(n)
        edges = DEFAULT_GRID_SCALE * grid + profile  # t, c, c^-1
        assert edges.argmax() == 0
        assert (emb / bfs_distances(n).dist[1:]).max() == pytest.approx(edges[0], rel=1e-12, abs=0)
        if n <= 8:
            assert distortion_audit(n).max_expansion == pytest.approx(edges[0], rel=1e-12, abs=0)

    @pytest.mark.parametrize("block_degree", [2, 3])
    @pytest.mark.parametrize("n", range(4, 8))
    def test_streamed_sweep_matches_one_block(self, n, block_degree, monkeypatch):
        # one block holds Sym_n unpatched; patched, the running maxima cross blocks
        whole = distortion_audit(n)
        monkeypatch.setattr("perml1.perms._BLOCK_DEGREE", block_degree)
        streamed = distortion_audit(n)
        for key in ("distortion", "max_expansion", "max_contraction"):
            assert getattr(streamed, key) == pytest.approx(getattr(whole, key), rel=1e-12, abs=0)
        assert streamed.expansion_witness == whole.expansion_witness
        assert streamed.contraction_witness == whole.contraction_witness
        assert streamed.pairs_checked == whole.pairs_checked

    @pytest.mark.slow
    def test_sym11_is_pinned(self):
        # the streamed sweep over 11! - 1 elements: about 25 s and 85 MB
        report = distortion_audit(11)
        identity = str(Permutation.identity(11))
        assert report.distortion == pytest.approx(16.180579260482038, rel=1e-9, abs=0)
        assert report.expansion_witness == (identity, str(Permutation.transposition(11)))
        assert report.contraction_witness == (identity, "1,0,10,9,8,7,6,5,4,3,2")  # tau_11
        assert report.pairs_checked == math.factorial(11) * (math.factorial(11) - 1)

    def test_guard(self):
        # refused before the BFS runs: the sweep holds the n! table, 6.2 GB at n = 13
        with pytest.raises(ResourceLimitError, match="exact audit of Sym_13 needs .* over the memory budget"):
            distortion_audit(13)

    def test_sampled_sym12_fits_the_budget(self, monkeypatch):
        # the table and the sample, with no n! x n array of elements
        class Reached(Exception):
            pass

        def bfs_reached(n):
            raise Reached

        monkeypatch.setattr(audits, "bfs_distances", bfs_reached)
        with pytest.raises(Reached):
            distortion_audit(12, sample_size=100_000, seed=1)

    def test_sampled_sym13_is_refused(self):
        with pytest.raises(ResourceLimitError, match="exact audit of Sym_13 needs .* over the memory budget"):
            distortion_audit(13, sample_size=100, seed=1)

    def test_single_element_group_is_isometric(self):
        report = distortion_audit(1)
        assert report.distortion == 1.0 and report.pairs_checked == 0

    def test_witness_is_rechecked_against_the_coordinates(self, monkeypatch):
        closed_form = audits.identity_distances
        for part in ("grid", "profile"):
            def perturbed(sigma, part=part):
                grid, profile = closed_form(sigma)
                return (grid * (1 + 1e-6), profile) if part == "grid" else (grid, profile * (1 + 1e-6))

            monkeypatch.setattr(audits, "identity_distances", perturbed)
            with pytest.raises(PropertyViolation, match=f"closed-form {part} distance .* coordinate distance"):
                distortion_audit(4)

    @pytest.mark.parametrize("call", [
        lambda: distortion_audit(5),
        lambda: distortion_audit(20, mode="envelope", sample_size=200, seed=1),
        lambda: distortion_audit(200, mode="envelope", sample_size=20, seed=1),
    ], ids=["exact5", "envelope20", "envelope200"])
    def test_profile_off_by_one_key_is_a_violation(self, call, monkeypatch):
        # a closed-form profile 1/n too large, one key's coordinate, fails the window count
        closed_form = audits.identity_distances

        def shifted(sigma):
            grid, profile = closed_form(sigma)
            return grid, profile + 1 / sigma.shape[1]

        monkeypatch.setattr(audits, "identity_distances", shifted)
        with pytest.raises(PropertyViolation, match="closed-form profile distance .* coordinate distance"):
            call()

    def test_witness_recheck_builds_no_dict_profile(self, monkeypatch):
        # the re-check counts whole windows in arrays; the dict profile is the tests' reference only
        monkeypatch.setattr(embed.SparseVector, "distance", lambda self, other: pytest.fail("dict profile built"))
        distortion_audit(6)
        distortion_audit(40, mode="envelope", sample_size=100, seed=2)

    def test_degree_two_collapse_is_a_violation(self):
        # both elements of Sym_2 land on one point, so no distortion exists
        with pytest.raises(PropertyViolation, match="0,1 and 1,0"):
            distortion_audit(2)

    @pytest.mark.parametrize("mode", ["exact", "envelope"])
    def test_sample_size_must_be_positive(self, mode):
        with pytest.raises(ValueError, match="sample_size"):
            distortion_audit(5, mode=mode, sample_size=0)

    @pytest.mark.parametrize("scale1", [-1.0, 0.0, float("nan"), float("inf")])
    @pytest.mark.parametrize("mode", ["exact", "envelope"])
    def test_scale1_must_be_positive_and_finite(self, mode, scale1):
        with pytest.raises(ValueError, match="scale1 must be positive and finite"):
            distortion_audit(5, mode=mode, sample_size=100, seed=1, scale1=scale1)

    @pytest.mark.parametrize("scale1", [1e6, 1e300])
    def test_large_scale1_keeps_the_grid_residue_out_of_the_check(self, scale1):
        # the witness c^2 has grid distance 0; its coordinate grid is a rounding residue
        report = distortion_audit(4, scale1=scale1)
        assert np.isfinite(report.distortion)

    def test_overflowing_scale1_is_a_validation_error(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflow at scale1 = 1e[+]308"):
                distortion_audit(4, scale1=1e308)


class TestDistortionEnvelope:
    def test_certificate_brackets_exact(self, tables):
        # on a BFS-feasible degree the envelope certificate must dominate the
        # exact distortion of the same sampled pairs
        exact = distortion_audit(5)
        env = distortion_audit(5, mode="envelope", sample_size=4000, seed=3)
        assert env.distortion >= exact.distortion / 18 - 1e-9
        assert env.mode == "envelope"
        assert "envelope_note" in env.to_json_dict()

    @pytest.mark.parametrize("n, seed", [(3, 0), (3, 7), (8, 1), (33, 2), (64, 5)])
    def test_draws_are_per_row_permutations(self, n, seed, monkeypatch):
        # the audit draws p's rows, then q's, as rng.permutation(n) would one row at a time,
        # and leaves its generator where those draws leave it
        generators, drawn = [], []
        default_rng, pair_terms = np.random.default_rng, audits._pair_terms
        made = lambda s: generators.append(default_rng(s)) or generators[-1]  # noqa: E731
        monkeypatch.setattr(audits.np.random, "default_rng", made)
        monkeypatch.setattr(audits, "_pair_terms",
                            lambda p, q, *kernels: drawn.append((p, q)) or pair_terms(p, q, *kernels))
        distortion_audit(n, mode="envelope", sample_size=40, seed=seed)
        reference = default_rng(seed)
        for rows in drawn[0]:
            assert np.array_equal(rows, [reference.permutation(n) for _ in range(40)])
        assert generators[0].integers(1 << 62, size=4).tolist() == reference.integers(1 << 62, size=4).tolist()

    def test_sample_of_one_repeated_element_is_a_validation_error(self):
        # at this seed the single sampled pair of Sym_3 repeats one element: nothing is scored
        with pytest.raises(ValueError, match="all sampled pairs were identical; increase sample_size"):
            distortion_audit(3, mode="envelope", sample_size=1, seed=11)

    def test_runs_beyond_bfs_range(self):
        report = distortion_audit(15, mode="envelope", sample_size=300, seed=1)
        assert report.pairs_checked <= 300
        assert np.isfinite(report.distortion)


    @pytest.mark.parametrize("n, dtype", [(8, np.int8), (127, np.int8), (128, np.int16), (300, np.int16)])
    def test_scores_narrow_rows(self, n, dtype, monkeypatch):
        # the draws are int64 rows, which shuffle fastest; the pairs are scored in the narrow dtype
        scored, pair_terms = [], audits._pair_terms
        monkeypatch.setattr(audits, "_pair_terms",
                            lambda p, q, *kernels: scored.append((p.dtype, q.dtype)) or pair_terms(p, q, *kernels))
        distortion_audit(n, mode="envelope", sample_size=30, seed=4)
        assert scored == [(np.dtype(dtype), np.dtype(dtype))]


class TestQuotients:
    @pytest.mark.parametrize("dtype", [np.int8, np.int64])
    @pytest.mark.parametrize("n", [1, 2, 5, 9, 40])
    def test_matches_compose_with_inverse(self, n, dtype):
        rng = np.random.default_rng(n)
        identity = np.broadcast_to(np.arange(n), (50, n))
        p_rows, q_rows = (rng.permuted(identity, axis=1).astype(dtype) for _ in range(2))
        sigma = audits._quotients(p_rows, q_rows)
        assert sigma.dtype == dtype
        for p, q, row in zip(p_rows, q_rows, sigma):
            p, q = (Permutation(n, tuple(int(x) for x in r)) for r in (p, q))
            assert tuple(row.tolist()) == compose(q, inverse(p)).images


def pair_terms(p_rows, q_rows):
    """_pair_terms over every pair, one 4,096-pair chunk at a time, as the envelope calls it."""
    n, step = p_rows.shape[1], embed._ROWS_PER_CHUNK
    kernels = metric._circulant(n), embed._chord_kernel(n)
    chunks = [audits._pair_terms(p_rows[lo:lo + step], q_rows[lo:lo + step], *kernels)
              for lo in range(0, len(p_rows), step)]
    return tuple(np.concatenate(terms) for terms in zip(*chunks))


def pair_rows(n, count, seed, dtype=None):
    """`count` seeded rows of Sym_n, in the narrow dtype the envelope draws take by default."""
    rng = np.random.default_rng(seed)
    rows = rng.permuted(np.tile(np.arange(n), (count, 1)), axis=1)
    return rows.astype(dtype or _signed_cells(n))


class TestPairTerms:
    """_pair_terms against the reference composition on sigma = q p^-1, bit for bit."""

    @staticmethod
    def assert_matches_reference(p_rows, q_rows):
        sigma = audits._quotients(p_rows, q_rows)
        reference = (*identity_distances(sigma), *audits._bracket(*formula_terms_batch(sigma)))
        got = pair_terms(p_rows, q_rows)
        for name, value, want in zip(("grid", "profile", "d_lo", "d_hi"), got, reference):
            assert value.dtype == want.dtype == np.float64, name
            assert value.tobytes() == want.tobytes(), name

    @pytest.mark.parametrize("n", range(2, 10))
    def test_seeded_pairs(self, n):
        # at small degrees most quotients have a heavy shift, many of them two
        self.assert_matches_reference(pair_rows(n, 3000, n), pair_rows(n, 3000, 100 + n))

    @pytest.mark.parametrize("n", [2, 3, 7, 20, 200])
    def test_equal_pairs(self, n):
        rows = pair_rows(n, 50, n)
        self.assert_matches_reference(rows, rows.copy())
        d_lo = pair_terms(rows, rows)[2]
        assert not d_lo.any()

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 13, 40, 129])
    def test_near_rotations(self, n):
        # q = c^k t p, so sigma = c^k t: n - 2 positions move by k, a heavy shift for every k once n >= 4
        p = pair_rows(n, n, n)
        t = np.arange(n)
        t[:2] = t[1::-1]
        q = ((t[p.astype(np.int64)] + np.arange(n)[:, None]) % n).astype(p.dtype)
        self.assert_matches_reference(p, q)

    @pytest.mark.parametrize("n", [128, 300])
    def test_int16_degrees(self, n):
        p, q = pair_rows(n, 300, 1), pair_rows(n, 300, 2)
        assert p.dtype == np.int16
        self.assert_matches_reference(p, q)

    @pytest.mark.parametrize("n, count", [(6, 9000), (20, 4097)])
    def test_more_than_one_chunk(self, n, count):
        assert count > embed._ROWS_PER_CHUNK
        self.assert_matches_reference(pair_rows(n, count, 5), pair_rows(n, count, 6))

    @pytest.mark.parametrize("dtype", [np.int16, np.int64])
    def test_wider_rows(self, dtype):
        self.assert_matches_reference(pair_rows(9, 500, 1, dtype), pair_rows(9, 500, 2, dtype))

    def test_envelope_forms_only_the_witnesses(self, monkeypatch):
        formed, quotients = [], audits._quotients
        monkeypatch.setattr(audits, "_quotients", lambda p, q: formed.append(len(p)) or quotients(p, q))
        distortion_audit(20, mode="envelope", sample_size=5000, seed=3)
        assert formed == [1, 1]


class TestBlocks:
    """Every mode scores its blocks as it makes them and keeps the running best (audits._score): the
    report is that of one _score call over the whole sample."""

    @staticmethod
    def scored(call, monkeypatch):
        """Run call with _score spied on: the report, the blocks it reduced and the sample indices of the
        rows it formed, with blocks of 4,096 rows."""
        blocks, formed, score = [], [], audits._score

        def spy(made, scale1):
            for k, (*terms, row) in enumerate(made):
                blocks.append(terms)
                yield *terms, lambda i, k=k, row=row: formed.append(k * 4096 + i) or row(i)

        with monkeypatch.context() as patch:
            patch.setattr(audits, "_score", lambda made, scale1: score(spy(made, scale1), scale1))
            return call(), blocks, formed

    @pytest.mark.parametrize("mode", ["exact", "envelope"])
    def test_ties_across_chunks_report_the_first_pair(self, mode, monkeypatch):
        # 10,000 pairs of Sym_5 repeat each quotient about 80 times, so both maxima recur in every chunk
        call = lambda: distortion_audit(5, mode=mode, sample_size=10_000, seed=2)  # noqa: E731
        report, blocks, formed = self.scored(call, monkeypatch)
        assert [len(grid) for grid, *_ in blocks] == [4096, 4096, 1808]
        grid, profile, d_lo, d_hi = (np.concatenate(terms) for terms in zip(*blocks))
        checked, (exp, ei), (con, ci) = audits._score([(grid, profile, d_lo, d_hi, int)], DEFAULT_GRID_SCALE)
        assert (report.pairs_checked, report.max_expansion, report.max_contraction) == (checked, exp, con)
        assert formed == [ei, ci]  # the rows of the two witnesses alone are formed
        emb, distinct = DEFAULT_GRID_SCALE * grid + profile, d_lo > 0  # the envelope's repeated pairs read 0 / 0
        with np.errstate(invalid="ignore"):
            ratios = emb / d_lo, d_hi / emb
        for ratio, best, first in zip(ratios, (exp, con), (ei, ci)):
            tied = np.flatnonzero(distinct & (ratio == best))
            assert tied[0] == first and len(set(tied // 4096)) == 3

    def test_sampled_exact_forms_only_the_witnesses(self, monkeypatch):
        # each chunk is scored from its rows p and q, and sigma^-1's rank reads the table
        formed, quotients = [], audits._quotients
        monkeypatch.setattr(audits, "_quotients", lambda p, q: formed.append(len(p)) or quotients(p, q))
        distortion_audit(8, sample_size=9000, seed=5)
        assert formed == [1, 1]

    def test_fully_repeated_sample_is_refused_after_every_chunk(self, monkeypatch):
        # unshuffled draws make every pair (id, id): no chunk scores a pair, and the error comes once, at the end
        class Unshuffled:
            def permuted(self, rows, axis, out):
                return out

        monkeypatch.setattr(audits.np.random, "default_rng", lambda seed: Unshuffled())
        made = []
        monkeypatch.setattr(audits, "_pair_terms", lambda p, q, *kernels, terms=audits._pair_terms:
                            made.append(len(p)) or terms(p, q, *kernels))
        with pytest.raises(ValueError, match="all sampled pairs were identical; increase sample_size"):
            distortion_audit(4, mode="envelope", sample_size=10_000, seed=1)
        assert made == [4096, 4096, 1808]

    def test_a_block_without_distinct_pairs_is_not_refused(self):
        blocks = [(*np.zeros((4, 3)), int), (np.ones(3), np.ones(3), np.array([0.0, 2.0, 1.0]), np.full(3, 4.0), int)]
        checked, (exp, ei), (con, ci) = audits._score(blocks, 1.0)
        assert (checked, exp, ei, con, ci) == (2, 2.0, 2, 2.0, 1)


class TestMemoryBudget:
    """tracemalloc sees every numpy buffer: their peak must stay within the
    largest amount an audit checked against the budget."""

    @pytest.mark.parametrize("n", [7, 8, 9])
    def test_exact_audit(self, n, traced_peak_and_largest_check):
        peak, largest = traced_peak_and_largest_check(lambda: distortion_audit(n))
        assert peak <= largest

    @pytest.mark.parametrize("n", [8, 9])
    def test_sampled_exact_audit(self, n, traced_peak_and_largest_check):
        peak, largest = traced_peak_and_largest_check(lambda: distortion_audit(n, sample_size=20000, seed=1))
        assert peak <= largest

    def test_envelope_audit(self, traced_peak_and_largest_check):
        call = lambda: distortion_audit(20, mode="envelope", sample_size=5000, seed=1)  # noqa: E731
        peak, largest = traced_peak_and_largest_check(call)
        assert peak <= largest

    def test_large_sampled_exact_audit_at_a_small_degree(self, traced_peak_and_largest_check):
        # the sample holds its two int64 draws, and one chunk of rows at a time is scored: scoring the
        # whole sample at once would hold 33 + 4n + 36 bytes a sample beside the table
        m = 200_000
        peak, largest = traced_peak_and_largest_check(lambda: distortion_audit(8, sample_size=m, seed=1))
        assert peak <= largest < math.factorial(8) + m * (33 + 4 * 8 + 36)

    def test_large_envelope_sample_at_a_small_degree(self, traced_peak_and_largest_check):
        # p's and q's int8 rows, and one chunk of scores at a time: scores of the whole sample, made at
        # once, would add 57 bytes a pair to the rows
        m, n = 200_000, 20
        call = lambda: distortion_audit(n, mode="envelope", sample_size=m, seed=1)  # noqa: E731
        peak, largest = traced_peak_and_largest_check(call)
        assert peak <= largest < m * (2 * n + 57)

    def test_envelope_witness_profiles(self, traced_peak_and_largest_check):
        # few pairs at a high degree, where the witness re-check's grids and interval windows
        # are a large share of the peak
        call = lambda: distortion_audit(100, mode="envelope", sample_size=100, seed=1)  # noqa: E731
        peak, largest = traced_peak_and_largest_check(call)
        assert peak <= largest

    def test_envelope_at_degree_300_fits_16_mib(self, monkeypatch, traced_peak_and_largest_check):
        # the witness re-check holds one interval length of each profile at a time, so its bytes are
        # O(n^2); two whole profiles at degree 300 would take about 100 MB
        monkeypatch.setattr(metric, "MEMORY_BUDGET", 16 << 20)
        call = lambda: distortion_audit(300, mode="envelope", sample_size=100, seed=1)  # noqa: E731
        peak, largest = traced_peak_and_largest_check(call)
        assert peak <= largest

    def test_formula_drift_walk(self, traced_peak_and_largest_check):
        peak, largest = traced_peak_and_largest_check(lambda: drift_walk(40, 5, 2000, seed=1))
        assert peak <= largest

    @pytest.mark.parametrize("args", [(40, 60, 2000), (3, 10, 100_000)], ids=["rarely-coinciding", "many-walkers"])
    def test_formula_drift_walk_largest_stages(self, args, traced_peak_and_largest_check):
        # at (40, 60, 2000) nearly every walker has its own row by the end, so the kernel scores about
        # 2,000 rows; at degree 3 the six rows are nothing and the np.unique calls on the keys dominate
        peak, largest = traced_peak_and_largest_check(lambda: drift_walk(*args, seed=1))
        assert peak <= largest

    def test_formula_drift_walk_at_the_step_cap(self, traced_peak_and_largest_check):
        # six states a step, so every score waits for _PENDING_STEPS steps: their int32 walker indices dominate
        peak, largest = traced_peak_and_largest_check(lambda: drift_walk(3, 40, 100_000, seed=1))
        assert peak <= largest

    def test_formula_drift_walk_charges_the_pending_steps_it_can_hold(self, monkeypatch):
        # an int32 walker index per pending step: at most min(horizon, _PENDING_STEPS) steps are pending
        checked = []
        monkeypatch.setattr(audits, "check_memory", lambda nbytes, what: checked.append(nbytes))
        horizons = (0, 1, 10, 16, 17, 40)
        for horizon in horizons:
            drift_walk(40, horizon, 500, seed=1)
        assert [c - checked[0] for c in checked] == [4 * 500 * min(h, audits._PENDING_STEPS) for h in horizons]

    def test_bfs_drift_walk(self, traced_peak_and_largest_check):
        peak, largest = traced_peak_and_largest_check(lambda: drift_walk(8, 5, 20000, seed=1, proxy="bfs"))
        assert peak <= largest

    @pytest.mark.parametrize("proxy", ["formula", "bfs"])
    def test_drift_walkers_are_checked(self, proxy, monkeypatch):
        monkeypatch.setattr(metric, "MEMORY_BUDGET", 200_000)
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match="drift walk of 20,000 walkers on Sym_5 needs"):
                drift_walk(5, 3, 20_000, proxy=proxy)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 200_000  # refused before the walkers exist

    @pytest.mark.parametrize("n", [7, 8, 20, pytest.param(39, marks=pytest.mark.slow)])  # 39: 780 classes at degree 6084
    def test_cube_audit(self, n, traced_peak_and_largest_check):
        peak, largest = traced_peak_and_largest_check(lambda: cube_audit(n))
        assert peak <= largest

    @pytest.mark.parametrize("call, what", [
        (lambda: distortion_audit(3386, mode="envelope"), "envelope audit of 20,000 pairs in Sym_3386 needs"),
        (lambda: drift_walk(100, 1, 10 ** 6), "formula drift walk of 1,000,000 walkers on Sym_100 needs"),
        (lambda: cube_audit(40), "cube audit of 820 classes at degree 6400 needs"),
    ], ids=["envelope", "drift", "cube"])
    def test_refused_before_allocating(self, call, what):
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match=what):
                call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestHammingEmbed:
    def test_zero_vector(self):
        assert hamming_embed(3, [0, 0, 0]).is_identity()

    def test_single_bit_small(self, tables):
        p = hamming_embed(1, [1])
        assert p == Permutation.transposition(4, 0, 1)
        assert tables[4][p] == 1

    def test_two_dim_first_bit(self):
        p = hamming_embed(2, [1, 0])
        assert p.n == 16
        assert p.support() == (0, 2)

    def test_involution_support(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            n = int(rng.integers(1, 6))
            bits = rng.integers(0, 2, n).tolist()
            p = hamming_embed(n, bits)
            assert compose(p, p).is_identity()
            assert len(p.support()) == 2 * sum(bits)

    def test_validation(self):
        with pytest.raises(ValueError):
            hamming_embed(2, [1])
        with pytest.raises(ValueError):
            hamming_embed(2, [2, 0])


class TestCubeAudit:
    def test_dim_one_exact(self):
        report = cube_audit(1)
        assert report.exact_checked and report.exact_sandwich_ok
        assert report.minimizer_at_zero
        assert report.pairs_checked == 2

    @pytest.mark.parametrize("n", [2, 3])
    def test_full_grid(self, n):
        report = cube_audit(n)
        assert report.pairs_checked == 2 ** n * (2 ** n - 1)
        assert report.minimizer_at_zero
        assert report.ratio_lo <= report.ratio_hi
        assert report.certificate <= 600

    def test_exhaustive_at_degree_196(self):
        report = cube_audit(7)
        assert report.degree == 196
        assert report.pairs_checked == 2 ** 7 * (2 ** 7 - 1)
        assert report.minimizer_at_zero

    def test_guard_without_sampling(self):
        # 820 classes at degree 6400 exceed the budget; the 16- and 20-cubes, past the 2^n vectors' reach, run
        with pytest.raises(ResourceLimitError, match="cube audit of 820 classes at degree 6400 needs"):
            cube_audit(40)
        for n in (16, 20):
            report = cube_audit(n)
            assert report.pairs_checked == 2 ** n * (2 ** n - 1)
            assert report.minimizer_at_zero

    def test_validation(self):
        with pytest.raises(ValueError, match="dimension"):
            cube_audit(0)

    # n = 1..8 keep their ids from the earlier (n, sample_size, seed) parametrization
    @pytest.mark.parametrize("n", [pytest.param(n, id=f"{n}-None-None") for n in range(1, 9)] + [*range(9, 14)])
    def test_matches_hamming_embed_reference(self, n):
        assert masked(cube_audit(n).to_json_dict()) == reference_cube(n)

    @pytest.mark.parametrize("n", [*range(1, 25), 32])
    def test_laws(self, n):
        # the closed forms of the cube_audit docstring, as the float steps the audit takes:
        # (2n^2 + 2n - 1) / (3n^2) as one division differs in the last bit at n = 5, 6, 18, 21 and 24
        report = cube_audit(n)
        assert report.ratio_hi == (16 * n - 2) / n
        assert report.ratio_lo == (2 * n * n + 2 * n - 1) / 3.0 / (n * n)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_xor_collapse_matches_pair_enumeration(self, n):
        vectors = list(itertools.product((0, 1), repeat=n))
        pairs = [(e, d) for e in vectors for d in vectors if e != d]
        sigma = np.array([
            compose(hamming_embed(n, d), inverse(hamming_embed(n, e))).images for e, d in pairs
        ])
        sums, diams = formula_terms_batch(sigma)
        h = np.array([sum(a != b for a, b in zip(e, d)) for e, d in pairs])
        d_lo = (sums + diams).min(axis=1) / 3.0
        d_hi = (6 * sums + 2 * diams).min(axis=1)
        report = cube_audit(n)
        assert report.pairs_checked == len(pairs)
        assert report.ratio_lo == (d_lo / (n * h)).min()
        assert report.ratio_hi == (d_hi / (n * h)).max()
        assert report.minimizer_at_zero == bool((sums[:, 0] < sums[:, 1:].min(axis=1)).all())


class TestDrift:
    def test_starts_at_zero(self):
        series = drift_walk(8, 4, 64, seed=0)
        assert series.series[0].mean == 0.0

    def test_bfs_walk_builds_the_block_plans_once(self, monkeypatch):
        # the walk moves its walkers by the plans its bfs_distances call built
        built, block_moves = [], metric._block_moves
        monkeypatch.setattr(metric, "_block_moves", lambda n, k: built.append((n, k)) or block_moves(n, k))
        metric._rank_moves.cache_clear()
        drift_walk(9, 3, 100, seed=1, proxy="bfs")
        assert built == [(9, 8), (8, 1)]

    def test_first_step_bfs_is_exactly_one(self):
        series = drift_walk(6, 3, 256, seed=1, proxy="bfs")
        assert series.series[1].mean == 1.0
        assert series.series[1].stderr == 0.0

    def test_mean_bounded_by_time(self):
        for proxy in ("formula", "bfs"):
            series = drift_walk(7, 6, 200, seed=9, proxy=proxy)
            for step in series.series:
                assert step.mean <= step.t + 1e-9

    def test_reproducible(self):
        a = drift_walk(12, 5, 100, seed=31)
        b = drift_walk(12, 5, 100, seed=31)
        assert a.means().tolist() == b.means().tolist()

    def test_four_step_variant(self):
        series = drift_walk(10, 4, 100, seed=4, four_step=True)
        assert len(series.series) == 5

    @pytest.mark.parametrize("proxy, scale, totals", [
        # per step, the sum over the 40 walks of F (formula) or of the word length (bfs)
        ("formula", 3, [0, 74, 77, 125, 129, 154, 171, 182, 170, 197, 199]),
        ("bfs", 1, [0, 40, 56, 76, 90, 108, 125, 129, 127, 143, 155]),
    ])
    def test_four_step_series_is_pinned(self, proxy, scale, totals):
        series = drift_walk(7, 10, 40, seed=11, proxy=proxy, four_step=True)
        assert np.allclose(series.means() * 40 * scale, totals, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("four_step", [False, True])
    def test_bfs_proxy_matches_ranking_every_state(self, four_step, tables):
        # reference walk: one-line states, each ranked from scratch.  The offset walkers
        # wrap around often at n = 2 and 3, and at n = 2 the slots r + 1 and r - 1 coincide
        horizon, trials, seed = 30, 50, 4
        for n in (2, 3, 6, 9):
            table = tables[n] if n in tables else bfs_distances(n)
            series = drift_walk(n, horizon, trials, seed=seed, proxy="bfs", four_step=four_step)
            gens = np.concatenate(generator_neighbors_rows(np.arange(n)[None, :]))
            if four_step:
                gens = gens[[0, 0, 1, 2]]
            rng = np.random.default_rng(seed)
            states = np.tile(np.arange(n), (trials, 1))
            for step in series.series[1:]:
                states = gens[rng.integers(0, len(gens), trials)[:, None], states]
                assert step.mean == table.dist[rank_rows(states)].mean()

    @pytest.mark.parametrize("four_step", [False, True])
    def test_formula_proxy_matches_scoring_every_walker(self, four_step):
        # reference walk: one-line states, every walker's row scored by the kernel.  128 and 256 are
        # the dtype boundaries of the distinct rows; by step 40 the 60 walkers have (nearly) stopped
        # coinciding at n >= 40, while at n = 2 and 3 they share one and six states
        horizon, trials, seed = 40, 60, 4
        for n in (2, 3, 7, 40, 130, 257):
            series = drift_walk(n, horizon, trials, seed=seed, four_step=four_step)
            gens = np.concatenate(generator_neighbors_rows(np.arange(n)[None, :]))
            if four_step:
                gens = gens[[0, 0, 1, 2]]
            rng = np.random.default_rng(seed)
            states = np.tile(np.arange(n), (trials, 1))
            for step in series.series[1:]:
                states = gens[rng.integers(0, len(gens), trials)[:, None], states]
                values = audits._bracket(*formula_terms_batch(states))[0]
                assert step.mean == float(values.mean())
                assert step.stderr == float(values.std(ddof=1) / math.sqrt(trials))
            if n >= 40:
                assert len(np.unique(states, axis=0)) >= trials - 1

    @pytest.mark.parametrize("n, horizon, trials, seed, expected", [
        (40, 10, 2000, 1, [602]),  # every step waits for one call: 1,153 per-step rows, 602 distinct states
        (40, 30, 200, 2, None),  # the pending rows would pass 200: more than one call
        (3, 40, 1000, 3, [6, 6, 6]),  # six states a step: 16, 16 and 8 steps, capped at _PENDING_STEPS
    ])
    def test_formula_proxy_scores_pending_steps_together(self, monkeypatch, n, horizon, trials, seed, expected):
        calls, kernel = [], audits.formula_terms_batch
        monkeypatch.setattr(audits, "formula_terms_batch",
                            lambda rows, *chunk: calls.append(rows.copy()) or kernel(rows, *chunk))
        drift_walk(n, horizon, trials, seed=seed)
        assert audits._PENDING_STEPS == 16
        for rows in calls:
            assert len(rows) <= trials
            assert len(np.unique(rows, axis=0)) == len(rows)
            assert (np.sort(rows, axis=1) == np.arange(n)).all()
        if expected is None:
            assert len(calls) > 1
        else:
            assert [len(rows) for rows in calls] == expected

    def test_formula_proxy_lower_bounds_bfs_proxy(self):
        a = drift_walk(7, 5, 300, seed=17, proxy="formula")
        b = drift_walk(7, 5, 300, seed=17, proxy="bfs")
        # same seed, same walk: F/3 never exceeds the exact distance
        assert (a.means() <= b.means() + 1e-9).all()

    def test_validation(self):
        with pytest.raises(ValueError, match="trials"):
            drift_walk(8, 2, 0)
        with pytest.raises(ValueError, match="horizon"):
            drift_walk(8, -1, 4)

    def test_short_series_has_null_slope(self):
        series = drift_walk(8, 2, 16, seed=0)
        assert np.isnan(drift_slope(series))
        assert series.to_json_dict()["slope"] is None

    def test_slope_of_clean_power_law(self):
        from perml1.audits import DriftSeries, DriftStep

        series = DriftSeries(
            0, 8, 1, None, "formula",
            tuple(DriftStep(t, float(t) ** 0.75 if t else 0.0, 0.0) for t in range(9)),
        )
        assert drift_slope(series) == pytest.approx(0.75, abs=1e-9)
        assert drift_slope(series, min_t=1) == pytest.approx(0.75, abs=1e-9)


class TestArguments:
    """Degrees, horizons, trials and sample sizes are integers and not bools, and a seed is None or a
    non-negative integer; each error names the argument."""

    @pytest.mark.parametrize("call, error, what", [
        (lambda: drift_walk(40.0, 3, 10), TypeError, "n must be an integer, got 40.0"),
        (lambda: drift_walk(40, 3.0, 10), TypeError, "horizon must be an integer, got 3.0"),
        (lambda: drift_walk(40, 10, 2.5), TypeError, "trials must be an integer, got 2.5"),
        (lambda: drift_walk(40, 10, True), TypeError, "trials must be an integer, got True"),
        (lambda: drift_walk(40, 3, 10, seed=-1), ValueError, "seed must be None or a non-negative integer, got -1"),
        (lambda: drift_walk(40, 3, 10, seed=1.5), TypeError, "seed must be an integer, got 1.5"),
        (lambda: distortion_audit(3.0), TypeError, "n must be an integer, got 3.0"),
        (lambda: distortion_audit(True), TypeError, "n must be an integer, got True"),
        (lambda: distortion_audit(5, sample_size=10.0), TypeError, "sample_size must be an integer, got 10.0"),
        (lambda: distortion_audit(5, sample_size=False), TypeError, "sample_size must be an integer, got False"),
        (lambda: distortion_audit(5, "envelope", seed=-2), ValueError, "seed must be None or a non-negative"),
        (lambda: distortion_audit(5, "envelope", seed="1"), TypeError, "seed must be an integer, got '1'"),
        (lambda: cube_audit(2.0), TypeError, "n must be an integer, got 2.0"),
        (lambda: cube_audit(True), TypeError, "n must be an integer, got True"),
        (lambda: cube_audit(np.True_), TypeError, "n must be an integer, got "),
        (lambda: bfs_distances(3.0), TypeError, "n must be an integer, got 3.0"),
        (lambda: bfs_distances(True), TypeError, "n must be an integer, got True"),
        (lambda: unrank_rows(3.0, [0]), TypeError, "n must be an integer, got 3.0"),
        (lambda: unrank_rows(True, [0]), TypeError, "n must be an integer, got True"),
        (lambda: perm_unrank(3, 0.5), TypeError, "rank must be an integer, got 0.5"),
        (lambda: hamming_embed(2.0, [0, 1]), TypeError, "n must be an integer, got 2.0"),
    ], ids=["drift-n", "drift-horizon", "drift-trials", "drift-trials-bool", "drift-seed-negative",
            "drift-seed-float", "audit-n", "audit-n-bool", "audit-sample-size", "audit-sample-size-bool",
            "audit-seed-negative", "audit-seed-str", "cube-n", "cube-n-bool", "cube-n-numpy-bool",
            "bfs-n", "bfs-n-bool", "unrank-n", "unrank-n-bool", "perm-unrank-rank", "hamming-n"])
    def test_checked_at_the_boundary(self, call, error, what):
        with pytest.raises(error) as err:
            call()
        assert str(err.value).startswith(what)

    def test_numpy_integers_are_plain_ints_in_the_reports(self):
        series = drift_walk(np.int64(8), np.int32(2), np.uint16(16), seed=np.int64(0))
        assert series == drift_walk(8, 2, 16, seed=0)
        assert json.loads(json.dumps(series.to_json_dict()))["seed"] == 0
        report = distortion_audit(np.int8(5), "envelope", sample_size=np.int64(50), seed=np.uint8(3))
        plain = distortion_audit(5, "envelope", sample_size=50, seed=3)
        assert masked(report.to_json_dict()) == masked(plain.to_json_dict())
        assert json.dumps(report.to_json_dict()) and json.dumps(cube_audit(np.int64(3)).to_json_dict())
        assert type(bfs_distances(np.int64(3)).n) is int
