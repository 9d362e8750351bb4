import itertools
import math
import random
import tracemalloc
from typing import NamedTuple

import numpy as np
import pytest

from perml1 import audits, metric, synth
from perml1.embed import identity_distances
from perml1.metric import bfs_distances, formula_distance, formula_terms_batch, generator_neighbors_rows
from perml1.perms import Permutation, unrank_rows


def seeded_elements(n, count):
    """`count` elements of Sym_n, shuffled by random.Random(n)."""
    rng = random.Random(n)
    for _ in range(count):
        images = list(range(n))
        rng.shuffle(images)
        yield Permutation(n, tuple(images))


def tau(n):
    """tau_n = (1, 0, n-1, ..., 2), the unique antipode of Sym_n for 4 <= n <= 12."""
    return Permutation(n, (1, 0) + tuple(range(n - 1, 1, -1)))


def generator_edges(n):
    """Grid and profile parts of d(p, g p) for g = t, c, c^-1, each an array in
    that order, scored on the rows generator_neighbors_rows gives for the
    identity.  Both distances are right-invariant, so for every p this is
    d(id, g)."""
    return identity_distances(np.concatenate(generator_neighbors_rows(np.arange(n)[None])))


class Sweep(NamedTuple):
    """Every element sigma of one Sym_n, in Lehmer-rank order, with its scores.
    The formula, grid and profile distances are right-invariant, so sigma
    stands for the n! pairs (p, sigma p)."""

    rows: np.ndarray  # (n!, n) int8
    t1: np.ndarray  # min over shifts of the sum term
    t2: np.ndarray  # min over shifts of the diameter term
    value: np.ndarray  # F = min over shifts of sum + diam
    upper: np.ndarray  # min over shifts of 6 sum + 2 diam
    grid: np.ndarray  # grid distance d(id, sigma)
    profile: np.ndarray  # profile distance d(id, sigma)


@pytest.fixture(scope="session")
def sweep():
    """A Sweep of Sym_n for n = 1..9."""

    def scores(rows):
        sums, diams = formula_terms_batch(rows)
        mins = [sums.min(axis=1), diams.min(axis=1), (sums + diams).min(axis=1),
                (6 * sums + 2 * diams).min(axis=1)]
        return [rows, *mins, *identity_distances(rows)]

    def ranges(n, block=math.factorial(8)):  # Sym_9 a range of 8! ranks at a time
        size = math.factorial(n)
        return (unrank_rows(n, np.arange(lo, min(lo + block, size))) for lo in range(0, size, block))

    return {n: Sweep(*map(np.concatenate, zip(*map(scores, ranges(n))))) for n in range(1, 10)}


@pytest.fixture(scope="session")
def tables():
    """Exact distance tables for the degrees the suites audit against."""
    return {n: bfs_distances(n) for n in range(2, 8)}


@pytest.fixture(scope="session")
def perm_arrays():
    """All one-line rows per degree, in Lehmer-rank order."""
    return {
        n: np.array(list(itertools.permutations(range(n))), dtype=np.int64)
        for n in range(1, 8)
    }


@pytest.fixture(scope="session")
def term_minima():
    """(min over shifts of the sum term, min over shifts of the diameter term)
    of the pair (p, q), read off the formula's per-shift breakdown."""

    def minima(p, q):
        terms = formula_distance(p, q).per_shift
        return min(t.sum for t in terms), min(t.diam for t in terms)

    return minima


@pytest.fixture
def traced_peak_and_largest_check(monkeypatch):
    """Run a callable twice, the first time untraced so that one-time lazy
    imports and caches stay out; return the tracemalloc peak of every Python
    allocation in the second run and the largest byte count it passed to
    check_memory."""

    def run(call):
        call()
        checked = []
        check = metric.check_memory
        record = lambda nbytes, what: checked.append(nbytes) or check(nbytes, what)  # noqa: E731
        monkeypatch.setattr(metric, "check_memory", record)
        monkeypatch.setattr(audits, "check_memory", record)
        monkeypatch.setattr(synth, "check_memory", record)
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak, max(checked)

    return run
