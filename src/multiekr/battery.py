"""The acceptance battery: the identities behind the paper's claims.

Each criterion is a generator of :class:`Row` tuples ``(check, params,
expected, actual)``; a row passes when ``expected == actual``. ``multiekr
table`` prints every row as CSV and ``tests/test_acceptance.py`` asserts on
the same rows, so each check has exactly one implementation.
"""

from __future__ import annotations

from itertools import chain
from math import comb
from typing import Iterator, NamedTuple

from . import corpus as corpus_mod
from .bounds import ak_family_size, mp_threshold, multiset_bound, star_bound
from .compression import (
    CompressionStep,
    IntervalFamily,
    down_compress,
    interval_distance,
    phi_center,
    potential,
    reduce_kernel,
)
from .core import (
    Family,
    Multiset,
    count_multisets,
    enumerate_multisets,
    first_row,
    intersect,
    is_t_intersecting,
    is_t_kernel,
    l1_distance,
    rectangle,
)
from .search import (
    DEFAULT_NODE_BUDGET,
    DEFAULT_VERTEX_BUDGET,
    ORACLE_VERTEX_LIMIT,
    build_ak_set_family,
    build_kernel_family,
    lift_to_sets,
    max_t_intersecting,
    support_profile,
)

HEADER = "check,params,expected,actual,status"
SHARPNESS_LIMIT = 500  # largest C(n+k-1, k) in the sharpness grid
CORPUS_SIZE = 200
QUICK_CORPUS_SIZE = 40


class Row(NamedTuple):
    """One checked instance of one criterion."""

    check: str
    params: str
    expected: object
    actual: object

    @property
    def ok(self) -> bool:
        return self.expected == self.actual

    def csv(self) -> str:
        status = "pass" if self.ok else "FAIL"
        return f"{self.check},{self.params},{self.expected},{self.actual},{status}"


def star_identity() -> Iterator[Row]:
    """Criterion 1: at t = 1 the bound is the star, C(n+k-2, k-1)."""
    for k in range(2, 7):
        for n in range(k + 1, 15):
            yield Row(
                "star_identity_t1",
                f"n={n};k={k};t=1",
                comb(n + k - 2, k - 1),
                multiset_bound(n, k, 1),
            )


def threshold() -> Iterator[Row]:
    """Criterion 2: the star is optimal exactly from n = t(k-t)+2 on.

    Below the threshold (and from n = 2k-t, where the bound is proven) the
    star is strictly beaten whenever a wider-window family exists, which
    needs k > t. At k == t only (1, 1, 1) is below it: two distinct
    k-multisets never k-intersect, so both bounds are 1 there.
    """
    for k in range(1, 7):
        for t in range(1, k + 1):
            for n in range(1, 21):
                params = f"n={n};k={k};t={t}"
                if mp_threshold(n, k, t):
                    yield Row(
                        "star_optimal_regime",
                        params,
                        star_bound(n, k, t),
                        multiset_bound(n, k, t),
                    )
                elif n < 2 * k - t:
                    continue
                elif k > t:
                    yield Row(
                        "star_beaten_regime",
                        params,
                        True,
                        multiset_bound(n, k, t) > star_bound(n, k, t),
                    )
                else:
                    yield Row(
                        "degenerate_corner",
                        params,
                        star_bound(n, k, t),
                        multiset_bound(n, k, t),
                    )


def _sharpness_grid(limit: int) -> list[tuple[int, int, int]]:
    """(7, 5, 3) plus every n >= 2k-t, k <= 4 point with C(n+k-1, k) <= limit."""
    instances = [(7, 5, 3)]
    for k in range(1, 5):
        for t in range(1, k + 1):
            n = max(1, 2 * k - t)
            while count_multisets(n, k) <= limit:
                instances.append((n, k, t))
                n += 1
    return sorted(set(instances))


def sharpness(
    quick: bool = False,
    budget_vertices: int = DEFAULT_VERTEX_BUDGET,
    budget_nodes: int = DEFAULT_NODE_BUDGET,
) -> Iterator[Row]:
    """Criterion 3: max |F| = AK(n+k-1, k, t), exhaustively.

    The independent oracle (pivoted Bron–Kerbosch, no size bound and no
    code shared with the pruned search) re-checks every instance of at most
    ORACLE_VERTEX_LIMIT vertices. ``quick`` keeps only those instances and
    skips the oracle.
    """
    limit = ORACLE_VERTEX_LIMIT if quick else SHARPNESS_LIMIT
    for n, k, t in _sharpness_grid(limit):
        params = f"n={n};k={k};t={t}"
        bound = multiset_bound(n, k, t)
        result = max_t_intersecting(
            n, k, t, budget_vertices=budget_vertices, budget_nodes=budget_nodes
        )
        yield Row("sharpness", params, bound, result.max_size)
        if not quick and count_multisets(n, k) <= ORACLE_VERTEX_LIMIT:
            oracle = max_t_intersecting(
                n,
                k,
                t,
                budget_vertices=budget_vertices,
                budget_nodes=budget_nodes,
                method="oracle",
            )
            yield Row("sharpness_oracle", params, bound, oracle.max_size)


def kernel_family() -> Iterator[Row]:
    """Criterion 4: the five-column window family beats the star at (7,5,3)."""
    fam = build_kernel_family(7, 5, Multiset((1, 1, 1, 1, 1, 0, 0)), 4)
    params = "n=7;k=5;t=3;|T|=5;r=4"
    yield Row("kernel_family_beats_star", params, True, len(fam) > star_bound(7, 5, 3))
    yield Row("kernel_family_size", params, multiset_bound(7, 5, 3), len(fam))
    yield Row("kernel_family_t_intersecting", params, True, is_t_intersecting(fam, 3))


def interval_lemma() -> Iterator[Row]:
    """Criterion 6: centering never shrinks an interval distance, k <= 5.

    One row per k counts the violating pairs over all equal-length interval
    families of {1, ..., 2k} with consecutive starts.
    """
    for k in range(1, 6):
        top = 2 * k
        families = [
            IntervalFamily(k, p, tuple(range(lo, hi - p + 2)))
            for lo in range(1, top + 1)
            for hi in range(lo, top + 1)
            for p in range(1, hi - lo + 2)
        ]
        centered = [phi_center(fam) for fam in families]
        violations = sum(
            interval_distance(ca, cb) < interval_distance(a, b)
            for a, ca in zip(families, centered)
            for b, cb in zip(families, centered)
        )
        yield Row("interval_lemma", f"k={k}", 0, violations)


def algebra() -> Iterator[Row]:
    """Criterion 9: intersection vs l1 distance, counts and window sizes."""
    for n in range(1, 5):
        for k in range(0, 5):
            members = list(enumerate_multisets(n, k))
            bad = sum(
                len(intersect(f, g)) != k - l1_distance(f, g) // 2
                for f in members
                for g in members
            )
            yield Row("intersection_distance_identity", f"n={n};k={k}", 0, bad)
    for n in range(1, 7):
        for k in range(0, 7):
            params = f"n={n};k={k}"
            yield Row("enumeration_count", params, comb(n + k - 1, k), count_multisets(n, k))
            yield Row(
                "enumeration_length",
                params,
                comb(n + k - 1, k),
                len(list(enumerate_multisets(n, k))),
            )
    # the closed-sum A(n, k, t, i) sizes against k-subset enumeration, one
    # row per ground-set size counting the mismatching (k, t, i)
    for n in range(1, 13):
        mismatches = 0
        for k in range(1, min(n, 6) + 1):
            for t in range(0, k + 1):
                i = 0
                while t + 2 * i <= n and t + i <= k:
                    if ak_family_size(n, k, t, i) != len(build_ak_set_family(n, k, t, i)):
                        mismatches += 1
                    i += 1
        yield Row("window_size", f"n={n}", 0, mismatches)


def _reduces_to_first_row(fam: Family, t: int) -> bool:
    """Peel the full rectangle down to the first row, checking each step."""
    region = rectangle(fam.n, fam.k)
    current = fam
    while max(region.mult) >= 2:
        current, smaller = reduce_kernel(current, region, t)
        if (
            len(current) != len(fam)
            or smaller.k != region.k - 1
            or not is_t_kernel(current, smaller, t)
        ):
            return False
        region = smaller
    return region == first_row(fam.n)


def corpus(
    size: int = CORPUS_SIZE, seed: int = corpus_mod.DEFAULT_SEED
) -> Iterator[Row]:
    """Criteria 5, 7 and 8 over one seeded corpus of random maximal families.

    Each family is down-compressed once. Compression (5): size kept, first
    row a t-kernel, height not raised, potential strictly decreasing.
    Kernel reduction (7): the full rectangle peels down to the first row.
    Lifting (8): |lift| = sum_s |G_s| C(k-1, k-s) >= |F|, t-intersecting.
    """
    entries = corpus_mod.random_family_corpus(size, seed=seed)
    for index, (n, k, t, fam) in enumerate(entries):
        params = f"index={index};n={n};k={k};t={t}"
        steps: list[CompressionStep] = []
        compressed = down_compress(fam, t, on_step=steps.append)
        potentials = [potential(fam)] + [s.potential for s in steps]
        compression_ok = (
            len(compressed) == len(fam)
            and is_t_kernel(compressed, first_row(n), t)
            and compressed.max_height() <= fam.max_height()
            and all(a > b for a, b in zip(potentials, potentials[1:]))
        )
        yield Row("compression_suite", params, True, compression_ok)
        yield Row("kernel_reduction", params, True, _reduces_to_first_row(fam, t))
        lifted = lift_to_sets(compressed, t)
        expected = sum(
            count * comb(k - 1, k - s)
            for s, count in support_profile(compressed).items()
        )
        lift_ok = (
            len(lifted) == expected
            and len(lifted) >= len(compressed)
            and lifted.is_t_intersecting(t)
        )
        yield Row("lifting_identity", params, True, lift_ok)


def rows(
    *,
    quick: bool = False,
    corpus_size: int = CORPUS_SIZE,
    seed: int = corpus_mod.DEFAULT_SEED,
    budget_vertices: int = DEFAULT_VERTEX_BUDGET,
    budget_nodes: int = DEFAULT_NODE_BUDGET,
) -> Iterator[Row]:
    """Every criterion in table order; ``quick`` also caps the corpus size."""
    if quick:
        corpus_size = min(QUICK_CORPUS_SIZE, corpus_size)
    return chain(
        star_identity(),
        threshold(),
        kernel_family(),
        algebra(),
        interval_lemma(),
        sharpness(quick, budget_vertices, budget_nodes),
        corpus(corpus_size, seed),
    )
