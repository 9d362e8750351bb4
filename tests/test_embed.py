import itertools
import math
import random
import warnings

import numpy as np
import pytest

from conftest import generator_edges, seeded_elements

from perml1.embed import (
    DEFAULT_GRID_SCALE,
    CircleGrid,
    avg_vs_min_check,
    circle_grid,
    circle_grid_distance,
    circle_median,
    combined_distance,
    combined_embed,
    count_separating_intervals,
    identity_distances,
    interval_profile,
    realize_grid,
)
from perml1.perms import (
    Permutation,
    all_permutations,
    compose,
    cycle_diam,
    cycle_dist,
    inverse,
)


def brute_chord_sum(p, q):
    """Independent oracle: sum of planar distances between grid entries."""
    n = p.n
    total = 0.0
    for k in range(n):
        for r in range(n):
            a = 2 * math.pi * ((p.images[k] - p.images[r]) % n) / n
            b = 2 * math.pi * ((q.images[k] - q.images[r]) % n) / n
            total += math.hypot(math.cos(a) - math.cos(b), math.sin(a) - math.sin(b))
    return total


class TestCircleGrid:
    def test_entries_on_unit_circle(self):
        g = circle_grid(Permutation(5, (3, 1, 4, 0, 2)))
        assert np.allclose(np.abs(g.entries), 1.0)
        assert np.allclose(np.diag(g.entries), 1.0)

    def test_transposition_entry_angle(self):
        g = circle_grid(Permutation.transposition(4))
        assert np.isclose(g.entries[0, 1], np.exp(1j * np.pi / 2))

    def test_distance_identity_to_transposition(self):
        p, q = Permutation.identity(4), Permutation.transposition(4)
        d = circle_grid_distance(circle_grid(p), circle_grid(q))
        assert d == pytest.approx(4 + 8 * math.sqrt(2), rel=1e-12)
        assert d == pytest.approx(brute_chord_sum(p, q), rel=1e-12)

    def test_zero_on_equal(self):
        g = circle_grid(Permutation(6, (2, 5, 1, 0, 3, 4)))
        assert circle_grid_distance(g, g) == 0.0

    @pytest.mark.parametrize("n", range(2, 7))
    def test_rotation_invariance(self, n):
        rng = random.Random(n)
        for _ in range(20):
            images = list(range(n))
            rng.shuffle(images)
            p = Permutation(n, tuple(images))
            for j in range(n):
                shifted = compose(Permutation.rotation(n, j), p)
                assert circle_grid_distance(circle_grid(p), circle_grid(shifted)) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            circle_grid_distance(circle_grid(Permutation.identity(3)),
                                 circle_grid(Permutation.identity(4)))

    @pytest.mark.parametrize("n", range(2, 10))
    def test_frame_against_sum_term(self, n, sweep):
        s = sweep[n]
        assert (4 * s.t1 - 1e-9 <= s.grid).all() and (s.grid <= 4 * math.pi * s.t1 + 1e-9).all()


class TestRealize:
    def test_identical_grids(self):
        g = circle_grid(Permutation(5, (4, 2, 0, 3, 1)))
        v = realize_grid(g, 8)
        assert np.abs(v - v).sum() == 0.0

    def test_two_directions_axis_case(self):
        # opposite real points: the two-direction sum sees only the real axis
        a = CircleGrid(1, np.array([[1 + 0j]]))
        b = CircleGrid(1, np.array([[-1 + 0j]]))
        expected = (math.pi / 4) * sum(
            abs((2 * u.conjugate()).real) for u in [1, 1j]
        ) / 2  # oracle: (pi/2K) * sum_j |<z_a - z_b, u_j>|
        va, vb = realize_grid(a, 2), realize_grid(b, 2)
        assert np.abs(va - vb).sum() == pytest.approx(math.pi / 2, rel=1e-12)
        assert np.abs(va - vb).sum() == pytest.approx(2 * expected, rel=1e-12)

    def test_rejects_single_direction(self):
        with pytest.raises(ValueError):
            realize_grid(circle_grid(Permutation.identity(3)), 1)

    def test_ratio_tightens_quadratically(self):
        rng = np.random.default_rng(99)
        angles = rng.uniform(0, 2 * np.pi, (1000, 2))
        worst = 0.0
        for t1, t2 in angles:
            z1, z2 = np.exp(1j * t1), np.exp(1j * t2)
            a = CircleGrid(1, np.array([[z1]]))
            b = CircleGrid(1, np.array([[z2]]))
            true = abs(z1 - z2)
            if true < 1e-9:
                continue
            approx = np.abs(realize_grid(a, 64) - realize_grid(b, 64)).sum()
            worst = max(worst, abs(approx / true - 1))
        assert worst < 0.01


def oracle_profile_mass(n):
    """Independent count of intervals whose interior avoids 0."""
    total = 0
    for a in range(n):
        for length in range(1, n + 1):
            pts = [(a + i) % n for i in range(length)]
            if 0 not in pts[1:length - 1]:
                total += 1
    return total / n


class TestIntervalProfile:
    def test_mass_degree_four(self):
        mass = interval_profile(Permutation.identity(4)).l1_norm()
        assert mass == pytest.approx(13 / 4)
        assert mass == pytest.approx(oracle_profile_mass(4))

    @pytest.mark.parametrize("n", range(2, 8))
    def test_mass_depends_only_on_degree(self, n):
        rng = random.Random(n)
        expected = oracle_profile_mass(n)
        for _ in range(15):
            images = list(range(n))
            rng.shuffle(images)
            p = Permutation(n, tuple(images))
            assert interval_profile(p).l1_norm() == pytest.approx(expected)

    def test_distance_reflexive(self):
        v = interval_profile(Permutation(5, (2, 0, 4, 1, 3)))
        assert v.distance(v) == 0.0

    @pytest.mark.parametrize("n", range(2, 7))
    def test_edge_bounds(self, n):
        t_max, c_max, _ = generator_edges(n)[1]
        assert c_max <= 2 + 1e-9
        assert t_max <= 5 + 1e-9
        if t_max > 4 + 1e-9:
            warnings.warn(
                f"t-edge profile difference {t_max:.3f} in (4, 5] at n={n}: "
                "the interval-interior convention caveat applies"
            )

    @pytest.mark.parametrize("n", range(3, 10))
    def test_conditional_lower_bound(self, n, sweep):
        s = sweep[n]
        near = s.t1 < n / 3
        assert (s.profile[near] >= s.t2[near] / 8 - 1e-9).all()

    def test_swap_pair_at_degree_ten(self, term_minima):
        # the swapped pair differs on a tight mismatch set, so the diameter
        # floor is 1 and the profile must keep at least 1/8 of it
        ident = Permutation.identity(10)
        t = Permutation.transposition(10)
        assert term_minima(ident, t)[1] == 1
        d = interval_profile(ident).distance(interval_profile(t))
        assert d >= 1 / 8

    def test_degree_two_collapse_is_total(self, term_minima):
        # with only two points no interval has an interior, so nothing is
        # ever excluded and the profile cannot see rotations at all; the
        # diameter lower bound is inherently unattainable at this degree
        ident, swap = all_permutations(2)
        assert interval_profile(ident).distance(interval_profile(swap)) == 0.0
        assert term_minima(ident, swap) == (0, 1)

    @pytest.mark.parametrize("n", [5, 6])
    def test_separating_keys_not_collapsed(self, n):
        # whenever an interval straddles the mismatch set, its key from p
        # matches no key of q, over any interval whatsoever
        rng = random.Random(n)
        perms = list(all_permutations(n))
        for _ in range(200):
            p, q = rng.choice(perms), rng.choice(perms)
            breakdown_sums = [
                sum(cycle_dist(n, (p.images[k] - l) % n, q.images[k]) for k in range(n))
                for l in range(n)
            ]
            t1 = min(breakdown_sums)
            if t1 >= n / 3:
                continue
            l = breakdown_sums.index(t1)
            pinv, qinv = inverse(p).images, inverse(q).images
            mismatch = {r for r in range(n) if pinv[r] != qinv[(r - l) % n]}
            if not mismatch:
                continue
            q_keys = set()
            qd = qinv + qinv
            for a in range(n):
                for length in range(1, n + 1):
                    q_keys.add((length, qd[a:a + length]))
            pd = pinv + pinv
            for a in range(n):
                for length in range(1, n + 1):
                    pts = {(a + i) % n for i in range(length)}
                    hits = pts & mismatch
                    if hits and hits != pts:
                        assert (length, pd[a:a + length]) not in q_keys


class TestCombined:
    def test_zero_on_equal(self):
        x = combined_embed(Permutation(5, (1, 3, 0, 4, 2)))
        assert combined_distance(x, x) == 0.0

    def test_rotation_pair_is_profile_only(self):
        a = combined_embed(Permutation.identity(6))
        b = combined_embed(Permutation.rotation(6))
        d = combined_distance(a, b)
        assert d == pytest.approx(a.sparse.distance(b.sparse))
        assert d <= 2 + 1e-9

    def test_scale_mismatch_rejected(self):
        a = combined_embed(Permutation.identity(4), scale1=0.1)
        b = combined_embed(Permutation.identity(4), scale1=0.2)
        with pytest.raises(ValueError):
            combined_distance(a, b)
        with pytest.raises(ValueError):
            combined_embed(Permutation.identity(4), scale1=0.0)
        with pytest.raises(ValueError):
            combined_embed(Permutation.identity(4), scale1=float("nan"))

    @pytest.mark.parametrize("n", range(2, 7))
    def test_seven_lipschitz_per_edge(self, n):
        grid, profile = generator_edges(n)
        assert (DEFAULT_GRID_SCALE * grid + profile <= 7 + 1e-9).all()

    @pytest.mark.parametrize("n", range(2, 6))
    def test_scaled_grid_within_sum_term(self, n, sweep):
        s = sweep[n]
        scaled = DEFAULT_GRID_SCALE * s.grid
        assert (s.t1 / math.pi - 1e-9 <= scaled).all() and (scaled <= s.t1 + 1e-9).all()


class TestIdentityDistances:
    """The closed form against the coordinate embeddings, by right-invariance:
    d(p, q) = d(id, q p^-1)."""

    @staticmethod
    def closed_form(pairs, scale1=DEFAULT_GRID_SCALE):
        sigma = np.array([compose(q, inverse(p)).images for p, q in pairs], dtype=np.int64)
        grid, profile = identity_distances(sigma)
        return scale1 * grid + profile

    @pytest.mark.parametrize("n", range(1, 6))  # n = 5 spans several chunks
    def test_exhaustive_pairs(self, n):
        perms = list(all_permutations(n))
        points = [combined_embed(p) for p in perms]
        pairs = [(p, q) for p in perms for q in perms]
        want = np.array([combined_distance(x, y) for x in points for y in points])
        assert np.allclose(self.closed_form(pairs), want, rtol=1e-12, atol=1e-12)

    @staticmethod
    def coordinate_parts(x, y):
        """Grid and profile distances of two points of the coordinate embedding."""
        return circle_grid_distance(x.grid, y.grid), x.sparse.distance(y.sparse)

    @staticmethod
    def generators(n):
        return Permutation.transposition(n), Permutation.rotation(n), Permutation.rotation(n, -1)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_parts_match_their_coordinates(self, n):
        perms = list(all_permutations(n))
        grid, profile = identity_distances(np.array([p.images for p in perms]))
        ident = combined_embed(Permutation.identity(n))
        want = np.array([self.coordinate_parts(ident, combined_embed(p)) for p in perms])
        assert np.allclose(grid, want[:, 0], rtol=1e-12, atol=1e-12)
        assert np.allclose(profile, want[:, 1], rtol=1e-12, atol=1e-12)
        combined = [combined_distance(ident, combined_embed(p)) for p in perms]
        assert np.allclose(DEFAULT_GRID_SCALE * grid + profile, combined, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("n", [*range(2, 13), 20, 33, 40])
    def test_rotations_and_near_rotations(self, n):
        # the inverse of a rotation is one unit-step run through n - 1 -> 0, and a
        # transposition of a rotation (seeded, or of the wrapping pair n - 1, 0) cuts it
        rng = np.random.default_rng(n)
        rows = []
        for r in range(n):
            row = np.roll(np.arange(n), r)
            rows.append(row)
            for i, j in (rng.choice(n, 2, replace=False), (n - 1, 0)):
                near = row.copy()
                near[[i, j]] = near[[j, i]]
                rows.append(near)
        grid, profile = identity_distances(np.array(rows))
        ident = combined_embed(Permutation.identity(n))
        want = np.array([self.coordinate_parts(ident, combined_embed(Permutation(n, tuple(int(x) for x in row))))
                         for row in rows])
        assert np.allclose(grid, want[:, 0], rtol=1e-12, atol=1e-12)
        assert np.allclose(profile, want[:, 1], rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("n", range(6, 13))
    def test_edges_match_their_coordinates(self, n):
        # right-invariance: d(p, g p) = d(id, g) for every p
        want = np.transpose(generator_edges(n))
        for p in seeded_elements(n, 200):
            x = combined_embed(p)
            got = [self.coordinate_parts(x, combined_embed(compose(g, p))) for g in self.generators(n)]
            assert np.allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_generator_edge_laws(self):
        # every edge stays bounded (sups 8 pi for the t grid, 6 and 2 for the t and
        # c profiles), but the t-edge's profile passes 5 at n = 9 and its combined
        # distance passes 7 at n = 11
        for n in range(3, 257):
            t_grid = 8 * (n - 2) * math.sin(math.pi / n) + 4 * math.sin(2 * math.pi / n)
            laws = [[t_grid, 0.0, 0.0], [6 - 8 / n, 2 - 4 / n, 2 - 4 / n]]
            assert np.allclose(generator_edges(n), laws, rtol=1e-12, atol=1e-12)
            if n <= 12:
                ident = combined_embed(Permutation.identity(n))
                got = [self.coordinate_parts(ident, combined_embed(g)) for g in self.generators(n)]
                assert np.allclose(np.transpose(got), laws, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("n", [13, 20, 40])
    def test_seeded_pairs(self, n):
        rng = np.random.default_rng(n)
        pairs = [
            tuple(Permutation(n, tuple(int(x) for x in rng.permutation(n))) for _ in range(2))
            for _ in range(60)
        ]
        scale1 = 0.3
        want = [
            combined_distance(combined_embed(p, scale1), combined_embed(q, scale1)) for p, q in pairs
        ]
        assert np.allclose(self.closed_form(pairs, scale1), want, rtol=1e-12, atol=0)

    def test_degree_two_collapses(self):
        # no interval has an interior and the grid of t is a rotation of id's
        grid, profile = identity_distances(np.array([[0, 1], [1, 0]]))
        assert grid.tolist() == profile.tolist() == [0.0, 0.0]

class TestCircleMedian:
    def test_singleton(self):
        assert circle_median(9, [4]) == (0, 4)

    def test_weighted_cloud(self):
        assert circle_median(6, [0, 0, 3]) == (3, 0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            circle_median(6, [])

    @pytest.mark.parametrize("n", range(2, 9))
    def test_minimum_attained_inside_cloud(self, n):
        for size in range(1, 7):
            for cloud in itertools.combinations_with_replacement(range(n), size):
                value, argmin = circle_median(n, cloud)
                inside = min(sum(cycle_dist(n, x, r) for x in cloud) for r in cloud)
                assert value == inside
                assert argmin in range(n)


class TestAvgVsMin:
    def test_singleton(self):
        assert avg_vs_min_check(7, [3]) == (0.0, 0.0, True)

    def test_weighted_cloud(self):
        avg_pair, min_avg, holds = avg_vs_min_check(6, [0, 0, 3])
        assert avg_pair == pytest.approx(12 / 9)
        assert min_avg == pytest.approx(1.0)
        assert holds

    @pytest.mark.parametrize("n", range(2, 13))
    def test_random_multisets(self, n):
        rng = random.Random(n * 31)
        for _ in range(100):
            cloud = [rng.randrange(n) for _ in range(rng.randrange(1, 8))]
            _, _, holds = avg_vs_min_check(n, cloud)
            assert holds


class TestSeparatingIntervals:
    def test_single_point_example(self):
        count = count_separating_intervals(8, [3])
        assert count >= (8 / 4) * cycle_diam(8, [0, 3])

    def test_rejects_trivial_sets(self):
        with pytest.raises(ValueError):
            count_separating_intervals(6, [])
        with pytest.raises(ValueError):
            count_separating_intervals(6, range(6))

    @pytest.mark.parametrize("n", range(4, 13))
    def test_adjacent_singleton(self, n):
        for x in (1, n - 1):
            assert count_separating_intervals(n, [x]) >= n / 4

    @pytest.mark.parametrize("n", range(3, 10))
    def test_counting_bound_small_sets(self, n):
        for size in range(1, n // 3 + 1):
            for points in itertools.combinations(range(n), size):
                count = count_separating_intervals(n, points)
                bound = (n / 4) * cycle_diam(n, {0} | set(points))
                assert count >= bound
