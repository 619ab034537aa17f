import gc
import itertools
import json
import random
from math import comb

import pytest

from multiekr import (
    BudgetError,
    CertificationError,
    Family,
    Multiset,
    ParameterError,
    PreconditionError,
    build_ak_set_family,
    build_kernel_family,
    build_optimal_multiset_family,
    build_star_multiset_family,
    count_multisets,
    down_compress,
    enumerate_multisets,
    intersection_size,
    is_t_intersecting,
    lift_to_sets,
    max_t_intersecting,
    multiset_bound,
    star_bound,
    support_profile,
    verify_theorem,
)
from multiekr import battery, kernels
from multiekr.search import _oracle_max_clique


class TestMaxTIntersecting:
    def test_tiny_oracle_instance(self):
        res = max_t_intersecting(3, 2, 1, method="oracle")
        assert res.max_size == 3 and res.method == "oracle"

    def test_oracle_leaves_no_garbage(self):
        # the oracle's graph must be freed on return, not by the collector
        gc.collect()
        gc.disable()
        try:
            max_t_intersecting(4, 3, 2, method="oracle")
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_full_intersection_is_singleton(self):
        assert max_t_intersecting(2, 2, 2).max_size == 1

    def test_sharp_instance(self):
        res = max_t_intersecting(7, 5, 3)
        assert res.max_size == 31 == multiset_bound(7, 5, 3)

    def test_witness_is_valid(self):
        res = max_t_intersecting(5, 3, 2)
        assert len(res.witness) == res.max_size
        assert is_t_intersecting(res.witness, 2)

    def test_engines_agree_small_grid(self):
        # the search stopping at the proven bound against one that does not
        # assume it; criterion 3's sharpness_oracle rows add the oracle here
        for k in range(1, 5):
            for t in range(1, k + 1):
                for n in range(max(1, 2 * k - t), 9 - k + 1):
                    if count_multisets(n, k) > 70:
                        continue
                    pruned = max_t_intersecting(n, k, t)
                    vectors = [m.mult for m in enumerate_multisets(n, k)]
                    unassisted = kernels.max_t_clique(vectors, k, t)[0]
                    assert pruned.max_size == unassisted, (n, k, t)

    def test_below_proven_range_is_searchable(self):
        # no bound is claimed there, but the exact search still runs;
        # (1,1) meets both extremes, the extremes miss each other
        res = max_t_intersecting(2, 2, 1)
        assert res.max_size == 2

    def test_height_cap_restricts(self):
        capped = max_t_intersecting(4, 2, 1, cap=1)
        assert capped.max_size == 3  # a star of 2-sets over one point
        assert capped.witness.max_height() <= 1

    def test_vertex_budget(self):
        with pytest.raises(BudgetError):
            max_t_intersecting(10, 5, 1, budget_vertices=100)

    def test_node_budget(self):
        with pytest.raises(BudgetError):
            max_t_intersecting(5, 3, 1, budget_nodes=3)

    def test_parameter_checks(self):
        with pytest.raises(ParameterError):
            max_t_intersecting(3, 2, 0)
        with pytest.raises(ParameterError):
            max_t_intersecting(3, 2, 3)

    def test_json_round_trip(self):
        res = max_t_intersecting(3, 2, 1)
        data = json.loads(res.to_json())
        assert data["max_size"] == 3 and "elapsed" not in data



def _brute_force_max_clique(vectors, t):
    """Largest t-intersecting sublist, over all 2^N vertex subsets."""
    nv = len(vectors)
    adj = [
        sum(1 << j for j in range(nv) if j != i and sum(map(min, vectors[i], vectors[j])) >= t)
        for i in range(nv)
    ]
    clique = [True] * (1 << nv)  # clique[S]: S is pairwise t-intersecting
    best = 0
    for subset in range(1, 1 << nv):
        low = subset & -subset
        rest = subset ^ low
        clique[subset] = clique[rest] and adj[low.bit_length() - 1] & rest == rest
        if clique[subset]:
            best = max(best, subset.bit_count())
    return best


def _small_enumerations():
    """Every enumeration with n <= 4, k <= 3, cap None or 1 and <= 12 vertices."""
    for n in range(1, 5):
        for k in range(1, 4):
            for cap in (None, 1):
                vectors = [m.mult for m in enumerate_multisets(n, k, cap)]
                if len(vectors) <= 12:
                    yield pytest.param(k, vectors, id=f"n{n}-k{k}-cap{cap}")


def _unclosed_sublists(seed, count):
    """Seeded sublists of small enumerations that column permutations move."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n, k = rng.randint(2, 5), rng.randint(2, 4)
        vectors = [m.mult for m in enumerate_multisets(n, k)]
        sub = sorted(rng.sample(vectors, rng.randint(2, min(12, len(vectors) - 1))))
        if not kernels.column_closed(sub):
            out.append(pytest.param(k, sub, id=f"sublist{len(out)}-n{n}-k{k}"))
    return out


class TestOracle:
    """The oracle against brute force, and orbit pruning against the oracle."""

    @pytest.mark.parametrize(
        "k,vectors", [*_small_enumerations(), *_unclosed_sublists(7, 40)]
    )
    def test_matches_brute_force(self, k, vectors):
        for t in range(1, k + 1):
            size, witness, nodes = _oracle_max_clique(vectors, t, 10**6)
            assert size == _brute_force_max_clique(vectors, t), t
            assert witness == sorted(set(witness)) and len(witness) == size
            assert all(
                sum(map(min, vectors[a], vectors[b])) >= t
                for a, b in itertools.combinations(witness, 2)
            ), t
            with pytest.raises(BudgetError, match="oracle exceeded node budget"):
                _oracle_max_clique(vectors, t, nodes - 1)

    @pytest.mark.parametrize(
        "n,k,t,size,nodes",
        [(6, 3, 1, 21, 3343), (4, 3, 2, 4, 65), (5, 3, 2, 5, 164), (4, 4, 1, 22, 128)],
    )
    def test_node_counts(self, n, k, t, size, nodes):
        # pinned pivoted branching; the budget stops a search that lost it early
        vectors = [m.mult for m in enumerate_multisets(n, k)]
        got, witness, explored = _oracle_max_clique(vectors, t, 10 * nodes)
        assert (got, len(witness), explored) == (size, size, nodes)

    def test_orbit_pruning_agrees_on_sharpness_grid(self):
        # every criterion-3 point of at most 200 vertices: the oracle finds
        # the bound, orbit pruning refutes bound + 1 and finds bound
        points = [
            p for p in battery._sharpness_grid(200) if count_multisets(*p[:2]) <= 200
        ]
        assert len(points) == 259
        for n, k, t in points:
            vectors = [m.mult for m in enumerate_multisets(n, k)]
            bound = multiset_bound(n, k, t)
            assert _oracle_max_clique(vectors, t, 10**6)[0] == bound, (n, k, t)
            size, witness, _ = kernels.max_t_clique(vectors, k, t, lower_bound=bound)
            assert (size, witness) == (bound, []), (n, k, t)
            if bound > 1:
                size, witness, _ = kernels.max_t_clique(
                    vectors, k, t, lower_bound=bound - 1
                )
                assert size == len(witness) == bound, (n, k, t)
                assert kernels.all_pairs_at_least(
                    [vectors[i] for i in witness], k, t
                ), (n, k, t)


class TestBuildStar:
    def test_small_example(self):
        star = build_star_multiset_family(3, 2, 1, Multiset((1, 0, 0)))
        assert sorted(m.mult for m in star) == [(1, 0, 1), (1, 1, 0), (2, 0, 0)]
        assert len(star) == star_bound(3, 2, 1)

    def test_center_only_when_t_equals_k(self):
        center = Multiset((2, 1, 0))
        star = build_star_multiset_family(3, 3, 3, center)
        assert list(star) == [center]

    def test_size_matches_star_bound_grid(self):
        for n in range(1, 11):
            for k in range(1, 6):
                for t in range(1, k + 1):
                    center = next(iter(enumerate_multisets(n, t)))
                    star = build_star_multiset_family(n, k, t, center)
                    assert len(star) == star_bound(n, k, t)
                    assert is_t_intersecting(star, t)

    def test_size_is_center_independent(self):
        for n in range(1, 5):
            for k in range(1, 5):
                for t in range(1, k + 1):
                    for center in enumerate_multisets(n, t):
                        star = build_star_multiset_family(n, k, t, center)
                        assert len(star) == star_bound(n, k, t)

    def test_bad_center(self):
        with pytest.raises(ParameterError):
            build_star_multiset_family(3, 2, 1, Multiset((1, 1, 0)))


class TestBuildKernelFamily:
    def test_star_degenerates(self):
        center = Multiset((1, 1, 0, 0))
        fam = build_kernel_family(4, 3, center, 2)
        star = build_star_multiset_family(4, 3, 2, center)
        assert fam == star

    def test_beats_star_below_threshold(self):
        region = Multiset((1, 1, 1, 1, 1, 0, 0))
        fam = build_kernel_family(7, 5, region, 4)
        assert len(fam) == 31 > star_bound(7, 5, 3) == 28
        assert is_t_intersecting(fam, 3)

    def test_guaranteed_intersection_level(self, small_corpus):
        import random

        rng = random.Random(12)
        for n in range(2, 5):
            for k in range(2, 5):
                size = rng.randint(1, k)
                vec = [0] * n
                for _ in range(size):
                    vec[rng.randrange(n)] += 1
                region = Multiset(vec)
                for r in range(0, region.k + 1):
                    fam = build_kernel_family(n, k, region, r)
                    level = 2 * r - region.k
                    if level >= 0:
                        assert is_t_intersecting(fam, level)


class TestBuildAkSetFamily:
    def test_window_zero_is_star(self):
        fam = build_ak_set_family(4, 2, 1, 0)
        assert fam.members == ((1, 2), (1, 3), (1, 4))

    def test_t_intersecting_for_all_indices(self):
        for n in range(1, 11):
            for k in range(1, min(n, 5) + 1):
                for t in range(1, k + 1):
                    i = 0
                    while t + 2 * i <= n and t + i <= k:
                        fam = build_ak_set_family(n, k, t, i)
                        assert fam.is_t_intersecting(t), (n, k, t, i)
                        i += 1


class TestBuildOptimal:
    def test_star_cases(self):
        for k in range(1, 5):
            for n in range(2 * k - 1, 2 * k + 4):
                fam = build_optimal_multiset_family(n, k, 1)
                assert len(fam) == comb(n + k - 2, k - 1)

    def test_wide_window_case(self):
        fam = build_optimal_multiset_family(7, 5, 3)
        assert len(fam) == 31
        assert is_t_intersecting(fam, 3)

    def test_certifies_across_grid(self):
        for k in range(1, 6):
            for t in range(1, k + 1):
                for n in range(max(1, 2 * k - t), 13):
                    fam = build_optimal_multiset_family(n, k, t)
                    assert len(fam) == multiset_bound(n, k, t)
                    assert is_t_intersecting(fam, t)

    def test_refuses_below_range(self):
        with pytest.raises(PreconditionError):
            build_optimal_multiset_family(4, 5, 3)


class TestLiftToSets:
    def test_star_lifts_to_star(self):
        center = Multiset((1, 1, 0, 0, 0))
        star = build_star_multiset_family(5, 3, 2, center)
        lifted = lift_to_sets(star, 2)
        assert lifted.n_ground == 7
        expected = sorted(
            tuple(sorted((1, 2) + extra))
            for extra in itertools.combinations(range(3, 8), 1)
        )
        assert list(lifted.members) == expected
        assert len(lifted) == comb(5 + 3 - 1 - 2, 1)

    def test_identity_and_monotonicity(self, small_corpus):
        for n, k, t, fam in small_corpus:
            compressed = down_compress(fam, t)
            lifted = lift_to_sets(compressed, t)
            profile = support_profile(compressed)
            assert len(lifted) == sum(
                cnt * comb(k - 1, k - s) for s, cnt in profile.items()
            )
            assert len(lifted) >= len(compressed)
            assert lifted.is_t_intersecting(t)

    def test_requires_first_row_kernel(self):
        fam = Family([(2, 0), (1, 1)])  # 2-intersecting only off the first row
        with pytest.raises(PreconditionError):
            lift_to_sets(fam, 2)


class TestVerifyTheorem:
    def test_small_sharp(self):
        report = verify_theorem(3, 2, 1)
        assert report.sharp and report.max_size == report.bound == 3
        assert "SHARP" in report.summary()

    def test_wide_window_instance(self):
        report = verify_theorem(7, 5, 3)
        assert report.sharp and report.max_size == 31

    def test_full_intersection(self):
        report = verify_theorem(4, 3, 3)
        assert report.max_size == report.bound == 1

    def test_out_of_range_refused(self):
        with pytest.raises(PreconditionError):
            verify_theorem(2, 3, 1)

    def test_reports_stability_flag(self):
        report = verify_theorem(4, 2, 1)
        assert report.compressed_stable is True


class TestSearchInvariants:
    def test_max_never_exceeds_bound_in_range(self):
        for k in range(1, 4):
            for t in range(1, k + 1):
                for n in range(max(1, 2 * k - t), 7):
                    res = max_t_intersecting(n, k, t)
                    assert res.max_size <= multiset_bound(n, k, t)

    def test_witness_files_round_trip(self, tmp_path):
        res = max_t_intersecting(4, 3, 2)
        path = tmp_path / "witness.txt"
        res.witness.save(str(path))
        assert Family.load(str(path)) == res.witness
