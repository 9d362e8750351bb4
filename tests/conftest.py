import itertools
import random
import tracemalloc

import numpy as np
import pytest

from perml1 import audits, metric
from perml1.metric import bfs_distances, formula_distance
from perml1.perms import Permutation


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
    """Run a callable; return the tracemalloc peak of its numpy buffers and the
    largest byte count it passed to check_memory."""

    def run(call):
        checked = []
        check = metric.check_memory
        record = lambda nbytes, what: checked.append(nbytes) or check(nbytes, what)  # noqa: E731
        monkeypatch.setattr(metric, "check_memory", record)
        monkeypatch.setattr(audits, "check_memory", record)
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak, max(checked)

    return run
