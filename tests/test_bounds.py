import random
from math import comb

import pytest

from multiekr import (
    Family,
    ParameterError,
    PreconditionError,
    ak,
    ak_family_size,
    bound_report,
    build_ak_set_family,
    build_optimal_multiset_family,
    down_compress,
    max_t_intersecting,
    mp_threshold,
    multiset_bound,
    multiset_bound_proven,
    rectangle,
    reduce_kernel,
    star_bound,
    verify_theorem,
)
from multiekr.corpus import random_maximal_family
from multiekr.bounds import BOUND_CSV_HEADER


class TestAkFamilySize:
    def test_small_window_cases(self):
        # all 2-subsets of [4] containing element 1
        assert ak_family_size(4, 2, 1, 0) == 3
        # 2-subsets of [3], as sets meeting [3] in >= 2 points
        assert ak_family_size(4, 2, 1, 1) == 3

    def test_i_zero_is_star(self):
        for n in range(1, 10):
            for k in range(1, min(n, 6) + 1):
                for t in range(0, k + 1):
                    assert ak_family_size(n, k, t, 0) == comb(n - t, k - t)

    def test_matches_enumeration_oracle(self):
        for n in range(1, 13):
            for k in range(1, min(n, 6) + 1):
                for t in range(0, k + 1):
                    i = 0
                    while t + 2 * i <= n and t + i <= k:
                        closed = ak_family_size(n, k, t, i)
                        enumerated = len(build_ak_set_family(n, k, t, i))
                        assert closed == enumerated, (n, k, t, i)
                        i += 1

    def test_range_errors(self):
        with pytest.raises(ParameterError):
            ak_family_size(3, 4, 1, 0)
        with pytest.raises(ParameterError):
            ak_family_size(4, 2, 1, 2)  # window 5 > n
        with pytest.raises(ParameterError):
            ak_family_size(4, 2, 1, -1)


class TestAk:
    def test_plain_intersecting_regime(self):
        for k in range(1, 6):
            for n in range(2 * k, 2 * k + 8):
                value, i_star = ak(n, k, 1)
                assert value == comb(n - 1, k - 1)
                assert i_star == 0

    def test_exhaustively_derived_instance(self):
        assert ak(11, 5, 3) == (31, 1)

    def test_single_subset(self):
        for k in range(1, 6):
            for t in range(1, k + 1):
                assert ak(k, k, t).value == 1

    def test_star_wins_past_threshold(self):
        for k in range(1, 7):
            for t in range(1, k + 1):
                for n in range(k, 30):
                    if n >= (t + 1) * (k - t + 1):
                        assert ak(n, k, t).i_star == 0

    def test_tie_breaks_to_smaller_i(self):
        # at the exact threshold i=0 and i=1 tie
        for k in range(2, 6):
            for t in range(1, k):
                n = (t + 1) * (k - t + 1)
                assert ak_family_size(n, k, t, 0) == ak_family_size(n, k, t, 1)
                assert ak(n, k, t).i_star == 0


class TestMultisetBound:
    def test_plain_intersection_identity(self):
        for k in range(2, 7):
            for n in range(k + 1, 15):
                assert multiset_bound(n, k, 1) == comb(n + k - 2, k - 1)

    def test_derived_instance(self):
        assert multiset_bound(7, 5, 3) == 31

    def test_full_intersection_forces_singleton(self):
        for k in range(1, 6):
            for n in range(1, 8):
                assert multiset_bound(n, k, k) == 1

    def test_proven_flag(self):
        assert multiset_bound_proven(7, 5, 3)
        assert not multiset_bound_proven(6, 5, 3)

    def test_never_below_star(self):
        for k in range(1, 7):
            for t in range(1, k + 1):
                for n in range(1, 21):
                    assert multiset_bound(n, k, t) >= star_bound(n, k, t)


class TestStarBound:
    def test_values(self):
        assert star_bound(3, 2, 1) == 3
        for n in range(1, 8):
            for k in range(1, 6):
                assert star_bound(n, k, k) == 1

    def test_range_error(self):
        with pytest.raises(ParameterError):
            star_bound(3, 2, 3)


class TestThresholds:
    def test_examples(self):
        assert not mp_threshold(7, 5, 3)  # threshold is 8
        assert mp_threshold(8, 5, 3)

    def test_threshold_matches_equality_grid(self):
        # derived by evaluating both sides over t <= k <= 6, 2k-t <= n <= 20:
        # the threshold predicts bound == star everywhere except the single
        # degenerate corner (1, 1, 1), where k == t makes both bounds 1
        exceptions = []
        for k in range(1, 7):
            for t in range(1, k + 1):
                for n in range(max(1, 2 * k - t), 21):
                    equal = multiset_bound(n, k, t) == star_bound(n, k, t)
                    if mp_threshold(n, k, t) != equal:
                        exceptions.append((n, k, t))
        assert exceptions == [(1, 1, 1)]

    def test_degenerate_corner_values(self):
        # pinned: at (1, 1, 1) both bounds equal 1, so no strict gap exists
        assert multiset_bound(1, 1, 1) == star_bound(1, 1, 1) == 1


class TestExactArithmetic:
    def test_large_parameters_stay_exact(self):
        # far past any float precision: everything is integer arithmetic
        assert star_bound(100, 28, 1) == comb(126, 27)
        value, i_star = ak(127, 63, 1)
        assert value == comb(126, 62) and i_star == 0
        assert multiset_bound(65, 64, 64) == 1
        big = multiset_bound(100, 29, 2)
        assert isinstance(big, int) and big == ak(128, 29, 2).value


class TestBoundReport:
    def test_fields_and_csv(self):
        report = bound_report(7, 5, 3)
        assert report.star == 28 and report.ak_set == 31 and report.i_star == 1
        assert report.proven
        assert report.csv_row() == "7,5,3,28,31,1"
        assert BOUND_CSV_HEADER.count(",") == report.csv_row().count(",")

    def test_per_i_consistency(self):
        for n in range(1, 12):
            for k in range(1, 6):
                for t in range(1, k + 1):
                    report = bound_report(n, k, t)
                    values = dict(report.per_i)
                    assert report.ak_set == max(values.values())
                    assert values[report.i_star] == report.ak_set
                    smaller = [i for i, v in values.items() if v == report.ak_set]
                    assert report.i_star == min(smaller)
                    assert report.star <= report.ak_set

    def test_json_includes_per_i(self):
        data = bound_report(3, 2, 1).to_dict()
        assert "per_i" in data and "proven" in data


def _family_entry(operator):
    """Run a family operator on the empty family of (n, k); no family has
    n = 0, so that point stops at the Family constructor's own n >= 1 rule."""
    return lambda n, k, t: operator(Family.empty(n, k), n, k, t)


DOMAIN_ENTRY_POINTS = {
    "star_bound": star_bound,
    "multiset_bound": multiset_bound,
    "mp_threshold": mp_threshold,
    "multiset_bound_proven": multiset_bound_proven,
    "max_t_intersecting": max_t_intersecting,
    "build_optimal_multiset_family": build_optimal_multiset_family,
    "verify_theorem": verify_theorem,
    "random_maximal_family": lambda n, k, t: random_maximal_family(
        n, k, t, random.Random(0)
    ),
    "down_compress": _family_entry(lambda fam, n, k, t: down_compress(fam, t)),
    "reduce_kernel": _family_entry(
        lambda fam, n, k, t: reduce_kernel(fam, rectangle(n, k), t)
    ),
}

COMPRESSION_RANGE_ENTRY_POINTS = {
    name: DOMAIN_ENTRY_POINTS[name]
    for name in ("build_optimal_multiset_family", "down_compress", "reduce_kernel")
}


class TestParameterRules:
    @pytest.mark.parametrize("point", [(3, 2, 0), (3, 2, 3), (0, 2, 1)])
    @pytest.mark.parametrize("name", sorted(DOMAIN_ENTRY_POINTS))
    def test_domain_rejected_everywhere(self, name, point):
        with pytest.raises(ParameterError):
            DOMAIN_ENTRY_POINTS[name](*point)

    @pytest.mark.parametrize("t", [0, 3])
    def test_operators_check_t_on_any_family(self, t):
        # t outside 1..k, on the empty family and on a 1-intersecting one
        for fam in (Family.empty(4, 2), Family([(1, 1, 0, 0), (1, 0, 1, 0)])):
            with pytest.raises(ParameterError):
                down_compress(fam, t)
            with pytest.raises(ParameterError):
                reduce_kernel(fam, rectangle(4, 2), t)

    @pytest.mark.parametrize("name", sorted(COMPRESSION_RANGE_ENTRY_POINTS))
    def test_compression_range_names_its_caller(self, name):
        with pytest.raises(PreconditionError, match=f"^{name} needs n >= 2k - t"):
            COMPRESSION_RANGE_ENTRY_POINTS[name](4, 5, 3)

    def test_window_builders_share_a_domain(self):
        with pytest.raises(ParameterError):
            ak_family_size(10, 3, 2, 2)  # t+i = 4 > k
        with pytest.raises(ParameterError):
            build_ak_set_family(10, 3, 2, 2)
        for n in range(0, 6):
            for k in range(-1, 5):
                for t in range(-1, 5):
                    for i in range(-1, 4):
                        outcomes = []
                        for build in (ak_family_size, build_ak_set_family):
                            try:
                                build(n, k, t, i)
                                outcomes.append(True)
                            except ParameterError:
                                outcomes.append(False)
                        assert outcomes[0] == outcomes[1], (n, k, t, i)
