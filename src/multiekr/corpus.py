"""Seeded random maximal families for property suites.

A random maximal t-intersecting family is built greedily over a shuffled
enumeration of all k-multisets, so the same seed always reproduces the same
corpus. Parameters are drawn from the desk-scale grid n <= n_max, k <= k_max,
t <= k with n >= 2k - t (the regime where the compression theorem applies).
"""

from __future__ import annotations

import random

from . import kernels
from .bounds import check_domain, in_compression_range
from .core import Family, multiset_vectors

DEFAULT_SEED = 988

CorpusEntry = tuple[int, int, int, Family]


def random_maximal_family(
    n: int, k: int, t: int, rng: random.Random
) -> Family:
    """Greedy maximal t-intersecting family over a shuffled member order."""
    check_domain(n, k, t)
    pool = list(multiset_vectors(n, k))
    rng.shuffle(pool)
    chosen: list[tuple[int, ...]] = []
    for vec in pool:
        if kernels.compatible_with_all(vec, chosen, k, t):
            chosen.append(vec)
    return Family(chosen, n=n, k=k)


def corpus_parameters(
    rng: random.Random, n_max: int = 6, k_max: int = 4
) -> tuple[int, int, int]:
    """Draw one admissible (n, k, t) with n >= 2k - t."""
    grid = [
        (n, k, t)
        for k in range(1, k_max + 1)
        for t in range(1, k + 1)
        for n in range(1, n_max + 1)
        if in_compression_range(n, k, t)
    ]
    return rng.choice(grid)


def random_family_corpus(
    count: int,
    seed: int = DEFAULT_SEED,
    n_max: int = 6,
    k_max: int = 4,
) -> list[CorpusEntry]:
    """``count`` seeded random maximal families with their (n, k, t)."""
    rng = random.Random(seed)
    entries: list[CorpusEntry] = []
    for _ in range(count):
        n, k, t = corpus_parameters(rng, n_max=n_max, k_max=k_max)
        entries.append((n, k, t, random_maximal_family(n, k, t, rng)))
    return entries
