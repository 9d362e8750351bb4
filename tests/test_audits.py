import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from perml1 import audits, metric
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
from perml1.embed import DEFAULT_GRID_SCALE, combined_distance, combined_embed
from perml1.metric import ResourceLimitError, bfs_distances, formula_terms_batch, generator_neighbors_rows, rank_rows
from perml1.perms import Permutation, all_permutations, compose, inverse, unrank_rows


def masked(report):
    """A report's JSON fields without the wall time."""
    out = report.to_json_dict()
    del out["wall_time_ms"]
    return out


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
    checked, (exp, exp_row), (con, con_row) = audits._score(sigma, d, d, DEFAULT_GRID_SCALE)
    exp_text, con_text = audits._check_witnesses(exp_row, con_row)
    return masked(DistortionReport(n, "exact", checked, exp, exp_text, con, con_text, exp * con, DEFAULT_GRID_SCALE,
                                   sample_size, seed, 0.0))


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
                                  degree <= 7, sandwich, 0.0))


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
        assert masked(distortion_audit(n, sample_size=2000, seed=seed)) == reference_sampled_exact(n, 2000, seed)

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
        default_rng, quotients = np.random.default_rng, audits._quotients
        made = lambda s: generators.append(default_rng(s)) or generators[-1]  # noqa: E731
        monkeypatch.setattr(audits.np.random, "default_rng", made)
        monkeypatch.setattr(audits, "_quotients", lambda p, q: drawn.append((p, q)) or quotients(p, q))
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

    def test_envelope_witness_profiles(self, traced_peak_and_largest_check):
        # few pairs at a high degree: the witness re-check's two dict-backed profiles dominate
        call = lambda: distortion_audit(100, mode="envelope", sample_size=100, seed=1)  # noqa: E731
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
        (lambda: distortion_audit(1000, mode="envelope"), "envelope audit of 20,000 pairs in Sym_1000 needs"),
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
        assert masked(cube_audit(n)) == reference_cube(n)

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

    def test_formula_proxy_scores_each_distinct_row_once(self, monkeypatch):
        calls, kernel = [], audits.formula_terms_batch
        monkeypatch.setattr(audits, "formula_terms_batch", lambda rows: calls.append(rows.copy()) or kernel(rows))
        n, horizon, trials = 40, 30, 200
        drift_walk(n, horizon, trials, seed=2)
        assert len(calls) == horizon
        assert len(calls[0]) == 3  # t, c and c^-1 of the identity
        for rows in calls:
            assert len(rows) <= trials
            assert len(np.unique(rows, axis=0)) == len(rows)
            assert (np.sort(rows, axis=1) == np.arange(n)).all()

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
