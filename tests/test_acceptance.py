"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and the measured numbers they gate.
"""

import itertools
import json
import math
import pathlib
import random

import numpy as np
import pytest

from conftest import generator_edges

from perml1.audits import cube_audit, distortion_audit, drift_slope, drift_walk
from perml1.embed import (
    circle_median,
    avg_vs_min_check,
    count_separating_intervals,
    identity_distances,
)
from perml1.metric import formula_length, formula_terms_batch, generator_neighbors_rows, rank_rows
from perml1.perms import Permutation, cycle_diam, cycle_dist

GOLDEN = pathlib.Path(__file__).parent / "golden_distortion.json"


def report(num, name, ok, detail=""):
    line = f"[criterion {num:>2}] {'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f" | {detail}"
    print(line)
    return ok


def coverage(counts):
    """`counts` maps n to a number of elements of Sym_n; each stands for the
    n! pairs (p, sigma p), since every distance checked is right-invariant."""
    pairs = sum(k * math.factorial(n) for n, k in counts.items())
    return f"elements checked {sum(counts.values()):,}, standing for {pairs:,} pairs"


def test_criterion_1_word_metric_sandwich(tables, sweep):
    ok = True
    worst = 0.0
    for n in range(2, 8):
        value, upper = sweep[n].value, sweep[n].upper
        d = tables[n].dist.astype(np.int64)
        ok &= bool((value <= 3 * d).all() and (d <= upper).all() and (upper <= 6 * value).all())
        nz = value > 0
        worst = max(worst, float((3 * d[nz] / value[nz]).max()))
    assert report(
        1, "word-metric sandwich F/3 <= BFS <= min(6s+2d) <= 6F, n=2..7", ok,
        f"max 3*BFS/F={worst:.3f}",
    )


def test_criterion_2_splitting(sweep):
    failing = []
    for n in range(2, 10):
        s = sweep[n]
        failing += [s.rows[i] for i in np.flatnonzero(s.value > 2 * s.t1 + s.t2)[:1]]
    if failing:
        sigma = Permutation(len(failing[0]), tuple(failing[0].tolist()))
        print(json.dumps(formula_length(sigma).to_json_dict(), indent=2))
    assert report(
        2, "splitting min(s+d) <= 2*min(s) + min(d), n=2..9", not failing,
        coverage({n: len(sweep[n].rows) for n in range(2, 10)}),
    )


def test_criterion_3_grid_frame(sweep):
    ok = True
    lo_ratio, hi_ratio = math.inf, 0.0
    for n in range(2, 10):
        grid, t1 = sweep[n].grid, sweep[n].t1.astype(np.float64)
        nz = t1 > 0
        ok &= bool(
            (grid[~nz] < 1e-9).all()
            and (grid[nz] >= 4 * t1[nz] * (1 - 1e-9)).all()
            and (grid[nz] <= 4 * math.pi * t1[nz] * (1 + 1e-9)).all()
        )
        ratios = grid[nz] / t1[nz]
        lo_ratio = min(lo_ratio, ratios.min(initial=math.inf))
        hi_ratio = max(hi_ratio, ratios.max(initial=0.0))
    assert report(
        3, "grid frame 4*Smin <= dist <= 4*pi*Smin (Smin = min displacement sum), n=2..9", ok,
        f"observed ratio range [{lo_ratio:.4f}, {hi_ratio:.4f}] vs [4, {4 * math.pi:.4f}]; "
        + coverage({n: len(sweep[n].rows) for n in range(2, 10)}),
    )


def test_criterion_4_profile_edge_lipschitz():
    # d(p, g p) = d(id, g) for every p: one value per generator and degree
    profiles = np.array([generator_edges(n)[1] for n in range(2, 7)])  # columns t, c, c^-1
    t_worst, c_worst = profiles[:, 0].max(), profiles[:, 1:].max()
    ok = c_worst <= 2 + 1e-9 and t_worst <= 5 + 1e-9
    detail = f"t-edge max {t_worst:.4f}, c-edge max {c_worst:.4f}"
    if t_worst > 4 + 1e-9:
        detail += " | FLAG: t-edge in (4, 5], interval-interior convention caveat"
    assert report(4, "profile edges <= 4 (t, flag to 5) and <= 2 (c), n<=6", ok, detail)


def _near_rotations(n, count, rng):
    """Sampled elements whose displacement sum stays under n/3 (where the
    conditional bound bites); uniform elements almost never qualify."""
    rows = []
    for _ in range(count):
        sigma = list(Permutation.rotation(n, -rng.randrange(n)).images)
        for _ in range(rng.randrange(0, n // 3 + 1)):
            a = rng.randrange(n)
            b = (a + 1) % n
            sigma[a], sigma[b] = sigma[b], sigma[a]
        rows.append(sigma)
    return np.array(rows)


def _conditional_bound(n, t1, t2, profile):
    """(qualifying elements, whether all hold, min dist/(Dmin/8)) of the
    bound profile >= t2/8 over the elements with t1 < n/3."""
    near = t1 < n / 3
    d, lower = profile[near], t2[near] / 8
    ratios = d[lower > 0] / lower[lower > 0]
    return int(near.sum()), bool((d >= lower - 1e-9).all()), float(ratios.min(initial=math.inf))


def test_criterion_5_profile_conditional_lower_bound(sweep):
    ok = True
    counts, worst = {}, {}
    for n in range(3, 10):
        s = sweep[n]
        counts[n], holds, worst[n] = _conditional_bound(n, s.t1, s.t2, s.profile)
        ok &= holds
    rng = random.Random(90210)
    sampled = 0
    for n in (10, 12, 16):
        sigma = _near_rotations(n, 10_000, rng)
        sums, diams = formula_terms_batch(sigma)
        qualifying, holds, worst[n] = _conditional_bound(
            n, sums.min(axis=1), diams.min(axis=1), identity_distances(sigma)[1])
        sampled += qualifying
        ok &= holds
    assert report(
        5, "profile distance >= Dmin/8 when Smin < n/3 (n=3..9 exhaustive; 10, 12, 16 sampled)", ok,
        f"qualifying {coverage(counts)}, sampled {sampled:,}; "
        f"min dist/(Dmin/8) = {min(worst.values()):.3f}, sampled {worst[10]:.3f}, {worst[12]:.3f}, "
        f"{worst[16]:.3f} (degree 2 is degenerate: no interval interior exists, see ledger)",
    )


def test_criterion_6_combined_distortion(tables):
    golden = json.loads(GOLDEN.read_text())
    ok = True
    details = []
    for n in (3, 4, 5, 6):
        rep = distortion_audit(n)
        ok &= rep.distortion <= 1000
        ok &= abs(rep.distortion - golden[str(n)]["distortion"]) <= 1e-9 * golden[str(n)]["distortion"]
        details.append(f"n={n}: {rep.distortion:.3f}")
    assert report(6, "exact combined distortion <= 1000 on Sym_3..6 (golden pinned)", ok,
                  ", ".join(details))


def test_criterion_7_circle_medians():
    ok = True
    checked = 0
    for n in range(2, 9):
        for size in range(1, 6):
            for cloud in itertools.combinations_with_replacement(range(n), size):
                value, argmin = circle_median(n, cloud)
                inside = min(sum(cycle_dist(n, x, r) for x in cloud) for r in cloud)
                full = min(sum(cycle_dist(n, x, l) for x in cloud) for l in range(n))
                avg_pair, min_avg, holds = avg_vs_min_check(n, cloud)
                ok &= value == inside == full and holds
                ok &= sum(cycle_dist(n, x, argmin) for x in cloud) == value
                checked += 1
    assert report(7, "circle medians live in the cloud; min vs average frame", ok,
                  f"multisets checked {checked:,}")


def test_criterion_8_interval_counting():
    ok = True
    worst = math.inf
    checked = 0
    for n in range(2, 13):
        for size in range(1, n // 3 + 1):
            for points in itertools.combinations(range(n), size):
                count = count_separating_intervals(n, points)
                bound = (n / 4) * cycle_diam(n, {0} | set(points))
                checked += 1
                if bound > 0:
                    worst = min(worst, count / bound)
                if count < bound:
                    ok = False
    assert report(8, "separating intervals >= (n/4)*diam({0} u S), |S| <= n/3, n <= 12", ok,
                  f"sets checked {checked:,}, min count/bound = {worst:.3f}")


def test_criterion_9_hamming_cube():
    r1 = cube_audit(1)
    ok = bool(r1.exact_checked and r1.exact_sandwich_ok and r1.minimizer_at_zero)
    details = [f"n=1 exact sandwich ok={r1.exact_sandwich_ok}"]
    for n in (2, 3):
        rep = cube_audit(n)
        ok &= rep.certificate <= 600 and rep.minimizer_at_zero
        details.append(f"n={n}: certificate {rep.certificate:.2f}, minimizer@0 {rep.minimizer_at_zero}")
    assert report(9, "bit-vector cube: n=1 exact, n=2,3 certificate <= 600", ok,
                  "; ".join(details))


def test_criterion_10_drift_diagnostic():
    series = drift_walk(40, 10, 10_000, seed=20240817, proxy="formula")
    slope = drift_slope(series)
    slope_all = drift_slope(series, min_t=1)
    ok = 0.6 <= slope <= 0.9
    assert report(
        10, "drift slope in [0.6, 0.9] (n=40, T=10, 1e4 trials)", ok,
        f"slope(t>=2)={slope:.4f}, slope(t>=1)={slope_all:.4f}, target 0.75",
    )


def test_criterion_11_oracle_self_consistency(tables, sweep):
    ok = True
    for n in range(2, 7):
        d = tables[n].dist.astype(np.int64)
        value = sweep[n].value
        for rows in generator_neighbors_rows(sweep[n].rows):
            ranks = rank_rows(rows.astype(np.int64))
            ok &= bool((np.abs(d[ranks] - d) <= 1).all())
            ok &= bool((np.abs(value[ranks] - value) <= 3).all())
    assert report(11, "BFS 1-Lipschitz per edge; formula changes <= 3 per edge, n <= 6", ok)
