import random
import time
from itertools import product
from math import comb

import pytest

from multiekr import (
    DimensionError,
    Family,
    FormatError,
    Multiset,
    ParameterError,
    count_multisets,
    enumerate_multisets,
    first_row,
    intersect,
    intersection_size,
    is_t_intersecting,
    is_t_kernel,
    l1_distance,
    multiset_vectors,
    rectangle,
)
from multiekr.search import build_kernel_family


class TestMultiset:
    def test_basic_fields(self):
        m = Multiset((3, 1, 2, 0, 0))
        assert m.n == 5 and m.k == 6 and len(m) == 6
        assert m.multiplicity(1) == 3 and m.multiplicity(4) == 0
        assert m.support() == {1, 2, 3}

    def test_validation(self):
        with pytest.raises(ParameterError):
            Multiset(())
        with pytest.raises(ParameterError):
            Multiset((1, -1))
        with pytest.raises(ParameterError):
            Multiset((1.7, 0.9))
        with pytest.raises(ParameterError):
            Multiset(('2', 1))

    def test_immutability_and_hash(self):
        m = Multiset((1, 2))
        with pytest.raises(AttributeError):
            m.mult = (0, 0)
        assert len({Multiset((1, 2)), Multiset((1, 2)), Multiset((2, 1))}) == 2

    def test_canonical_order_is_lex(self):
        assert Multiset((0, 2)) < Multiset((1, 1)) < Multiset((2, 0))


class TestIntersection:
    def test_worked_example(self):
        f = Multiset((3, 1, 2, 0, 0))
        g = Multiset((2, 2, 0, 1, 1))
        assert intersect(f, g) == Multiset((2, 1, 0, 0, 0))

    def test_idempotent(self):
        f = Multiset((3, 1, 2, 0, 0))
        assert intersect(f, f) == f

    def test_disjoint_supports(self):
        assert intersect(Multiset((1, 1, 0)), Multiset((0, 0, 2))) == Multiset(
            (0, 0, 0)
        )

    def test_dimension_error(self):
        with pytest.raises(DimensionError):
            intersect(Multiset((1,)), Multiset((1, 0)))

    def test_intersection_size(self):
        f = Multiset((3, 1, 2, 0, 0))
        assert intersection_size(f, Multiset((2, 2, 0, 1, 1))) == 3
        assert intersection_size(Multiset((0, 0)), Multiset((0, 0))) == 0
        with pytest.raises(DimensionError):
            intersection_size(Multiset((1,)), Multiset((1, 0)))


class TestL1Distance:
    def test_worked_example_ties_to_intersection(self):
        f = Multiset((3, 1, 2, 0, 0))
        g = Multiset((2, 2, 0, 1, 1))
        assert l1_distance(f, g) == 6
        assert 6 - 6 // 2 == len(intersect(f, g))

    def test_zero_on_equal(self):
        f = Multiset((2, 0, 1))
        assert l1_distance(f, f) == 0

    def test_identity_exhaustive_small(self):
        for n in range(1, 5):
            for k in range(0, 5):
                members = list(enumerate_multisets(n, k))
                for f in members:
                    for g in members:
                        d = l1_distance(f, g)
                        assert d % 2 == 0
                        assert len(intersect(f, g)) == k - d // 2

    def test_identity_randomized(self):
        rng = random.Random(31)
        for _ in range(300):
            n = rng.randint(1, 8)
            k = rng.randint(0, 9)
            pool = [
                Multiset(vec)
                for vec in (_random_vec(rng, n, k), _random_vec(rng, n, k))
            ]
            f, g = pool
            assert len(intersect(f, g)) == k - l1_distance(f, g) // 2


def _random_vec(rng, n, k):
    vec = [0] * n
    for _ in range(k):
        vec[rng.randrange(n)] += 1
    return tuple(vec)


class TestEnumeration:
    @pytest.mark.parametrize("n,k", [(3, 2), (1, 5), (4, 0)])
    def test_counts_match_binomial(self, n, k):
        members = list(enumerate_multisets(n, k))
        assert len(members) == comb(n + k - 1, k)

    def test_counts_exhaustive_grid(self):
        for n in range(1, 7):
            for k in range(0, 7):
                members = list(enumerate_multisets(n, k))
                assert len(members) == comb(n + k - 1, k)
                assert len(set(members)) == len(members)
                assert members == sorted(members)
                assert count_multisets(n, k) == len(members)

    def test_single_column(self):
        assert [m.mult for m in enumerate_multisets(1, 5)] == [(5,)]

    def test_cap_one_gives_subsets(self):
        members = list(enumerate_multisets(4, 3, 1))
        assert len(members) == 4 == comb(4, 3)
        assert all(max(m.mult) == 1 for m in members)

    def test_cap_counts(self):
        for n in range(1, 5):
            for k in range(0, 6):
                for cap in range(1, 5):
                    members = list(enumerate_multisets(n, k, cap))
                    assert len(members) == count_multisets(n, k, cap)
                    assert all(max(m.mult, default=0) <= cap for m in members)

    def test_unsatisfiable_is_empty(self):
        assert list(enumerate_multisets(2, 5, 2)) == []
        assert count_multisets(2, 5, 2) == 0

    def test_order_matches_bruteforce(self):
        for n in range(1, 7):
            for k in range(0, 6):
                for cap in (None, 1, 2, 3):
                    top = k if cap is None else cap
                    expected = sorted(
                        v for v in product(range(top + 1), repeat=n) if sum(v) == k
                    )
                    got = [m.mult for m in enumerate_multisets(n, k, cap)]
                    vectors = list(multiset_vectors(n, k, cap))
                    assert got == vectors == expected, (n, k, cap)

    def test_vectors_are_fresh_tuples(self):
        # every item must outlive the next step of the odometer
        for n, k, cap in [(1, 3, None), (3, 2, None), (4, 4, 2), (5, 3, 1)]:
            vectors = list(multiset_vectors(n, k, cap))
            assert all(type(v) is tuple for v in vectors)
            assert len({id(v) for v in vectors}) == len(vectors)

    def test_members_equal_validated_multisets(self):
        # the members skip Multiset's checks; they must not differ from it
        for n, k, cap in [(1, 0, None), (4, 0, 2), (1, 3, None), (3, 2, None),
                          (4, 4, 2), (5, 3, 1), (6, 5, None)]:
            vectors = list(multiset_vectors(n, k, cap))
            members = list(enumerate_multisets(n, k, cap))
            assert len(members) == len(vectors)
            for member, vec in zip(members, vectors):
                built = Multiset(vec)
                assert type(member) is Multiset
                assert member == built and not member < built and member <= built
                assert (member.mult, member.k, member.n) == (built.mult, built.k, built.n)
                assert type(member.mult) is tuple and type(member.k) is int
                assert hash(member) == hash(built)
                with pytest.raises(AttributeError):
                    member.k = k + 1

    @pytest.mark.parametrize("n,k,cap", [(0, 2, None), (3, -1, None), (3, 2, 0)])
    def test_errors_raised_on_first_next(self, n, k, cap):
        for generate in (enumerate_multisets, multiset_vectors):
            stream = generate(n, k, cap)
            with pytest.raises(ParameterError):
                next(stream)

    def test_streams(self):
        # C(3001, 2) = 4,501,500 members: the first must not wait for the rest
        smallest = (0,) * 2999 + (2,)
        started = time.perf_counter()
        first = next(enumerate_multisets(3000, 2))
        assert time.perf_counter() - started < 1.0
        assert first.mult == smallest
        started = time.perf_counter()
        first = next(multiset_vectors(3000, 2))
        assert time.perf_counter() - started < 1.0
        assert first == smallest


class TestFamily:
    def test_members_sorted_dedup(self):
        fam = Family([(1, 1), (2, 0), (1, 1), (0, 2)])
        assert [m.mult for m in fam] == [(0, 2), (1, 1), (2, 0)]

    def test_mixed_shapes_rejected(self):
        with pytest.raises(ParameterError):
            Family([(1, 1), (2, 1)])
        with pytest.raises(DimensionError):
            Family([(1, 1), (1, 1, 0)])

    def test_empty_needs_explicit_shape(self):
        with pytest.raises(ParameterError):
            Family([])
        fam = Family.empty(3, 2)
        assert len(fam) == 0 and fam.n == 3 and fam.k == 2

    def test_contains_multiset_or_tuple(self):
        fam = Family([(1, 1), (2, 0)])
        assert Multiset((1, 1)) in fam and (2, 0) in fam
        assert (0, 2) not in fam

    def test_serialization_roundtrip(self, tmp_path):
        fam = Family([(0, 1, 1), (1, 1, 0), (2, 0, 0)])
        path = tmp_path / "fam.txt"
        fam.save(str(path))
        assert Family.load(str(path)) == fam
        assert path.read_text() == "n=3 k=2\n0,1,1\n1,1,0\n2,0,0\n"

    def test_equal_families_serialize_identically(self):
        a = Family([(1, 1), (2, 0)])
        b = Family([(2, 0), (1, 1)])
        assert a == b and a.to_text() == b.to_text()

    def test_format_errors(self):
        with pytest.raises(FormatError):
            Family.from_text("")
        with pytest.raises(FormatError):
            Family.from_text("k=2 n=3\n1,1")
        with pytest.raises(FormatError):
            Family.from_text("n=2 k=2\n1,x")

    def test_repeated_member_line_rejected(self):
        # the file would otherwise load with fewer members than lines
        with pytest.raises(FormatError, match="repeated member line: '1, 1,0'"):
            Family.from_text("n=3 k=2\n1,1,0\n2,0,0\n1, 1,0\n1,0,1\n")


class TestPredicates:
    def test_t_intersecting_examples(self):
        assert is_t_intersecting(Family([(2, 0), (1, 1)]), 1)
        assert not is_t_intersecting(Family([(2, 0, 0), (0, 2, 0)]), 1)
        all_pairs = Family(list(enumerate_multisets(3, 2)))
        assert not is_t_intersecting(all_pairs, 1)

    def test_degenerate_conventions(self):
        fam = Family([(2, 0), (1, 1)])
        assert is_t_intersecting(fam, 0)
        assert is_t_intersecting(Family.empty(3, 2), 5)
        # the diagonal pair forces t <= k
        assert not is_t_intersecting(Family([(1, 0)]), 2)

    def test_full_rectangle_kernel_equals_plain_intersection(self):
        rng = random.Random(7)
        for _ in range(50):
            n = rng.randint(1, 4)
            k = rng.randint(1, 4)
            t = rng.randint(0, k)
            pool = list(enumerate_multisets(n, k))
            members = [m for m in pool if rng.random() < 0.5]
            fam = Family(members, n=n, k=k)
            box = rectangle(n, k)
            assert is_t_kernel(fam, box, t) == is_t_intersecting(fam, t)

    def test_star_center_is_kernel(self):
        center = Multiset((1, 1, 0, 0))
        star = build_kernel_family(4, 3, center, 2)
        assert is_t_kernel(star, center, 2)

    def test_kernel_dimension_check(self):
        with pytest.raises(DimensionError):
            is_t_kernel(Family([(1, 1)]), Multiset((1, 1, 1)), 1)


class TestMaxHeight:
    def test_single_member(self):
        assert Family([(3, 1, 2, 0, 0)]).max_height() == 3

    def test_capped_family(self):
        fam = Family(list(enumerate_multisets(4, 3, 1)))
        assert fam.max_height() == 1

    def test_empty(self):
        assert Family.empty(3, 2).max_height() == 0

    def test_first_row_and_rectangle(self):
        assert first_row(4) == Multiset((1, 1, 1, 1))
        assert rectangle(2, 3) == Multiset((3, 3))
