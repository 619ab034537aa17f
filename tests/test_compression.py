import itertools
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from multiekr import (
    DimensionError,
    Family,
    IntervalFamily,
    Multiset,
    ParameterError,
    PreconditionError,
    down_compress,
    first_row,
    interval_distance,
    is_stable,
    is_t_intersecting,
    is_t_kernel,
    kernel_shift,
    max_t_intersecting,
    multiset_vectors,
    phi_center,
    potential,
    psi,
    rectangle,
    reduce_kernel,
)
import multiekr
from multiekr import compression
from multiekr.search import build_kernel_family, build_optimal_multiset_family


def slices(family, i, j):
    """Group members by their columns outside i and j and by m(i) + m(j).

    Returns, per slice, the (m(i), m(j)) pairs in member order.
    """
    groups = {}
    for vec in family.mult_vectors():
        rest = tuple(v for c, v in enumerate(vec, 1) if c not in (i, j))
        s = vec[i - 1] + vec[j - 1]
        groups.setdefault((rest, s), []).append((vec[i - 1], vec[j - 1]))
    return groups


def centered_by_phi(k, s, column_i):
    """Whether phi_center leaves a slice with these m(i) values in place."""
    if s == 0:
        return True  # psi leaves a slice with both columns empty alone
    folded = IntervalFamily(k, s, tuple(k - x + 1 for x in column_i))
    return phi_center(folded).starts == folded.starts


def all_subintervals(k, p, lo, hi):
    """I(p, Y) for Y = {lo, ..., hi} inside {1, ..., 2k}."""
    return IntervalFamily(k, p, tuple(range(lo, hi - p + 2)))


class TestIntervalFamily:
    def test_validation(self):
        with pytest.raises(ParameterError):
            IntervalFamily(2, 5, (1,))  # length beyond the line
        with pytest.raises(ParameterError):
            IntervalFamily(2, 2, (4,))  # sticks out on the right
        with pytest.raises(ParameterError):
            IntervalFamily(2, 1, ())
        # non-integers are refused, not truncated
        with pytest.raises(ParameterError):
            IntervalFamily(3, 2, (1.5, 2.9))
        with pytest.raises(ParameterError):
            IntervalFamily(3.7, 2, (1,))
        with pytest.raises(ParameterError):
            IntervalFamily(3, 2.0, (1,))
        with pytest.raises(ParameterError):
            IntervalFamily(3, 2, ("1",))

    def test_starts_normalized(self):
        fam = IntervalFamily(3, 2, (4, 1, 4))
        assert fam.starts == (1, 4)


class TestPhiCenter:
    def test_worked_example(self):
        fam = all_subintervals(3, 1, 1, 3)
        assert phi_center(fam).starts == (2, 3, 4)

    def test_idempotent_exhaustive(self):
        for k in range(1, 5):
            for p in range(1, 2 * k + 1):
                for lo in range(1, 2 * k - p + 2):
                    for hi in range(lo + p - 1, 2 * k + 1):
                        fam = all_subintervals(k, p, lo, hi)
                        centered = phi_center(fam)
                        assert phi_center(centered) == centered
                        assert len(centered) == len(fam)
                        first = centered.starts[0]
                        assert centered.starts == tuple(range(first, first + len(fam)))

    def test_non_consecutive_starts(self):
        fam = IntervalFamily(3, 2, (1, 4))
        assert phi_center(fam).starts == (2, 3)

    def test_interval_lemma_exhaustive_small(self):
        # distance never shrinks under centering; full scan for k <= 4
        for k in range(1, 5):
            fams = [
                all_subintervals(k, p, lo, hi)
                for lo in range(1, 2 * k + 1)
                for hi in range(lo, 2 * k + 1)
                for p in range(1, hi - lo + 2)
            ]
            for fam1 in fams:
                c1 = phi_center(fam1)
                for fam2 in fams:
                    assert interval_distance(c1, phi_center(fam2)) >= (
                        interval_distance(fam1, fam2)
                    )


class TestIntervalDistance:
    def test_identical_singletons(self):
        fam = IntervalFamily(3, 2, (4,))
        assert interval_distance(fam, fam) == 2

    def test_disjoint(self):
        a = IntervalFamily(3, 2, (1,))
        b = IntervalFamily(3, 2, (5,))
        assert interval_distance(a, b) == 0

    def test_ambient_mismatch(self):
        with pytest.raises(DimensionError):
            interval_distance(IntervalFamily(2, 1, (1,)), IntervalFamily(3, 1, (1,)))


# one slice with m(1) values {0, 2}, which psi centers to {1, 2}
MOVING = [(2, 0), (0, 2)]


def run_optimized(patch):
    """Run psi on the MOVING family under ``python -O`` after ``patch``; it
    must raise CertificationError."""
    script = textwrap.dedent("""
        from multiekr import Family, compression
        from multiekr.errors import CertificationError
    """) + textwrap.dedent(patch) + textwrap.dedent(f"""
        try:
            compression.psi(Family({MOVING!r}), 1, 2)
        except CertificationError:
            raise SystemExit(0)
        raise SystemExit("psi returned without a CertificationError")
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(multiekr.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


class TestPsi:
    def test_full_slice_is_fixed(self):
        fam = Family([(0, 2), (1, 1), (2, 0)])
        assert psi(fam, 1, 2) == fam

    def test_returns_input_when_nothing_moves(self):
        centered = Family([(1, 1, 0), (1, 0, 1), (0, 1, 1)])
        assert psi(centered, 1, 2) is centered
        # the first slice, of (0, 2, 0), moves; the last, of (1, 0, 1), stays
        fam = Family([(0, 2, 0), (1, 0, 1)])
        out = psi(fam, 1, 2)
        assert out is not fam and out != fam
        assert [m.mult for m in out] == [(1, 0, 1), (1, 1, 0)]

    def test_concentrated_member_balances(self):
        fam = Family([(3, 0, 0)])
        assert [m.mult for m in psi(fam, 1, 2)] == [(2, 1, 0)]
        fam2 = Family([(4, 0)])
        assert [m.mult for m in psi(fam2, 1, 2)] == [(2, 2)]

    def test_certificate_survives_optimize_flag(self):
        # psi's size certificate must fire even where asserts are stripped:
        # a centering that loses a value has to raise, not shrink
        fam = Family(MOVING)
        assert psi(fam, 1, 2) != fam  # so the patched centering is consulted
        run_optimized("""
            real = compression._block
            compression._block = lambda s, r: real(s, r)[1:]
        """)

    def test_stuck_certificate_survives_optimize_flag(self):
        # a slice the closure test finds uncentered must move: a centering
        # that returns the slice's own values has to raise, not hand back an
        # equal copy
        fam = Family(MOVING)
        assert psi(fam, 1, 2) != fam
        run_optimized("""
            compression._block = lambda s, r: (0, 2)
        """)

    def test_size_always_preserved(self, small_corpus):
        for n, k, t, fam in small_corpus:
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    if i != j:
                        assert len(psi(fam, i, j)) == len(fam)

    def test_t_intersection_preserved(self, small_corpus):
        for n, k, t, fam in small_corpus:
            for i, j in itertools.combinations(range(1, n + 1), 2):
                assert is_t_intersecting(psi(fam, i, j), t)

    def test_t_intersection_preserved_nonmaximal(self, small_corpus):
        rng = random.Random(6)
        for n, k, t, fam in small_corpus:
            part = [m for m in fam if rng.random() < 0.6]
            if not part:
                continue
            sub = Family(part, n=n, k=k)
            for i, j in itertools.combinations(range(1, n + 1), 2):
                out = psi(sub, i, j)
                assert len(out) == len(sub)
                assert is_t_intersecting(out, t)

    def test_slice_size_multiset_preserved(self, small_corpus):
        for n, k, t, fam in small_corpus[:10]:
            for i, j in itertools.combinations(range(1, n + 1), 2):
                before = sorted(len(v) for v in slices(fam, i, j).values())
                after = sorted(len(v) for v in slices(psi(fam, i, j), i, j).values())
                assert before == after

    def test_balanced_cap_formula(self):
        # the centered slice with r members of track length s is the block
        # of r consecutive values topping out at ceil((s + r - 1) / 2) in the
        # first-named column
        for s in range(1, 7):
            for r in range(1, s + 2):
                mi_values = sorted(random.Random(s * 10 + r).sample(range(s + 1), r))
                members = [(mi, s - mi) for mi in mi_values]
                fam = Family(members, n=2, k=s)
                out = psi(fam, 1, 2)
                top = (s + r) // 2
                assert [m.mult[0] for m in out] == list(range(top - r + 1, top + 1))

    def test_fold_is_intersection_faithful_on_slices(self, small_corpus):
        # within one slice, interval overlap equals the two-column part of
        # the multiset intersection
        for n, k, t, fam in small_corpus[:10]:
            for i, j in itertools.combinations(range(1, n + 1), 2):
                for (_, s), pairs in slices(fam, i, j).items():
                    for (a1, b1), (a2, b2) in itertools.combinations(pairs, 2):
                        restricted = min(a1, a2) + min(b1, b2)
                        overlap = max(0, s - abs(a1 - a2))
                        assert restricted == overlap

    def test_column_checks(self):
        fam = Family([(1, 1)])
        with pytest.raises(ParameterError):
            psi(fam, 1, 1)
        with pytest.raises(ParameterError):
            psi(fam, 0, 2)


class TestCenteredTest:
    """psi's closure test for "every slice is centered" against phi_center."""

    def test_agrees_with_phi_center_exhaustive(self):
        for k in range(1, 7):
            for s in range(k + 1):
                for r in range(1, s + 2):
                    for column_i in itertools.combinations(range(s + 1), r):
                        expected = centered_by_phi(k, s, column_i)
                        for i, j in ((1, 2), (2, 1)):
                            members = []
                            for x in column_i:
                                vec = [0, 0, k - s]
                                vec[i - 1], vec[j - 1] = x, s - x
                                members.append(vec)
                            fam = Family(members)
                            assert compression._centered(fam, i, j) == expected

    def test_psi_returns_input_exactly_on_centered_slices(self, small_corpus):
        seen = set()
        for n, k, t, fam in small_corpus:
            for i, j in itertools.permutations(range(1, n + 1), 2):
                centered = all(
                    centered_by_phi(k, s, [x for x, _ in pairs])
                    for (_, s), pairs in slices(fam, i, j).items()
                )
                assert (psi(fam, i, j) is fam) == centered
                seen.add(centered)
        assert seen == {True, False}


class TestPotential:
    def test_empty(self):
        assert potential(Family.empty(3, 2)) == 0

    def test_worked_value(self):
        fam = Family([(3, 1, 2, 0, 0)])
        assert potential(fam) == 2531

    def test_strict_drop_when_psi_changes(self, small_corpus):
        for n, k, t, fam in small_corpus:
            for i, j in itertools.combinations(range(1, n + 1), 2):
                out = psi(fam, i, j)
                if out != fam:
                    assert potential(out) < potential(fam)


class TestDownCompress:
    def test_star_over_first_row_center_unchanged(self):
        center = Multiset((1, 1, 0, 0, 0))
        star = build_kernel_family(5, 3, center, 2)
        steps = []
        out = down_compress(star, 2, on_step=steps.append)
        assert out == star and steps == []

    def test_tall_star_gets_first_row_kernel(self):
        center = Multiset((2, 1, 0, 0, 0))
        star = build_kernel_family(5, 4, center, 3)
        out = down_compress(star, 3)
        assert len(out) == len(star)
        assert is_t_kernel(out, first_row(5), 3)

    def test_two_cell_column_balances(self):
        out = down_compress(Family([(2, 0)]), 2)
        assert [m.mult for m in out] == [(1, 1)]

    def test_theorem_properties_on_corpus(self, small_corpus):
        for n, k, t, fam in small_corpus:
            steps = []
            out = down_compress(fam, t, on_step=steps.append)
            pots = [potential(fam)] + [s.potential for s in steps]
            assert len(out) == len(fam)
            assert is_t_kernel(out, first_row(n), t)
            assert out.max_height() <= fam.max_height()
            assert all(a > b for a, b in zip(pots, pots[1:]))
            assert is_t_intersecting(out, t)
            assert len(steps) <= potential(fam)

    def test_step_sequence_pinned(self, small_corpus):
        # (corpus index, i, j, potential) of every step; changing the
        # sweep order or psi's notion of "moved" would change these
        steps = []
        for idx, (n, k, t, fam) in enumerate(small_corpus):
            down_compress(
                fam, t, on_step=lambda s: steps.append((idx, s.i, s.j, s.potential))
            )
        assert steps == [
            (0, 1, 2, 142), (0, 3, 4, 141), (1, 1, 3, 2330), (1, 2, 3, 2326),
            (2, 1, 3, 28), (2, 2, 3, 27), (3, 1, 4, 145), (3, 2, 4, 143),
            (3, 3, 5, 141), (5, 1, 3, 36), (5, 2, 3, 35), (6, 1, 2, 5),
            (8, 1, 3, 140), (8, 1, 2, 87), (9, 1, 2, 144), (9, 2, 3, 143),
            (9, 3, 5, 141), (10, 1, 5, 7083), (10, 1, 2, 5166), (11, 1, 2, 392),
            (11, 1, 3, 266), (12, 1, 2, 114), (13, 1, 2, 518), (13, 1, 3, 392),
            (13, 1, 2, 391), (13, 1, 4, 266), (14, 1, 3, 230), (14, 1, 2, 141),
            (15, 3, 4, 29928), (16, 1, 2, 3), (17, 1, 3, 6), (19, 1, 2, 19),
            (20, 1, 3, 297), (21, 1, 3, 297), (23, 2, 3, 374), (23, 3, 4, 372),
            (25, 1, 3, 4), (26, 1, 2, 3), (28, 1, 4, 14445), (28, 1, 2, 10450),
            (28, 3, 4, 10445), (29, 1, 3, 87),
        ]

    def test_wide_step_sequence_pinned(self, monkeypatch):
        # relabelled optimal families on wide ground sets, where almost every
        # psi call moves nothing: (n, k, t), the (i, j, potential) of every
        # step and the number of psi calls
        real = compression.psi
        calls = []

        def counted_psi(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(compression, "psi", counted_psi)
        got = []
        for n, k, t in ((20, 3, 1), (30, 2, 1), (9, 4, 1)):
            perm = list(range(n))
            random.Random(1).shuffle(perm)
            optimal = build_optimal_multiset_family(n, k, t)
            fam = Family([tuple(v[c] for c in perm) for v in optimal.mult_vectors()], n=n, k=k)
            steps = []
            calls.clear()
            down_compress(fam, t, on_step=lambda s: steps.append((s.i, s.j, s.potential)))
            got.append(((n, k, t), steps, len(calls)))
        assert got == [
            ((20, 3, 1), [(1, 6, 26918220)], 195),
            ((30, 2, 1), [(1, 15, 223695)], 449),
            ((9, 4, 1), [(1, 6, 23002320)], 41),
        ]

    def test_refuses_below_proven_range(self):
        fam = Family([(2, 1)])  # n=2, k=3, t=1 needs n >= 5
        with pytest.raises(PreconditionError):
            down_compress(fam, 1)

    def test_refuses_non_intersecting(self):
        fam = Family([(2, 0, 0), (0, 2, 0)])
        with pytest.raises(PreconditionError):
            down_compress(fam, 1)


class TestKernelShift:
    def test_returns_input_when_nothing_moves(self):
        fam = Family([(2, 1), (3, 0), (1, 2)])
        assert kernel_shift(fam, 1, 2, 2) is fam

    def test_moves_rows(self):
        fam = Family([(3, 0)])
        assert [m.mult for m in kernel_shift(fam, 1, 2, 2)] == [(1, 2)]

    def test_occupied_target_blocks(self):
        fam = Family([(2, 1)])
        assert kernel_shift(fam, 1, 2, 2) == fam

    def test_existing_image_blocks(self):
        fam = Family([(3, 0), (1, 2)])
        assert kernel_shift(fam, 1, 2, 2) == fam

    def test_size_preserved(self, small_corpus):
        for n, k, t, fam in small_corpus[:10]:
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    if i == j:
                        continue
                    for s in range(1, k + 1):
                        assert len(kernel_shift(fam, i, s, j)) == len(fam)

    def test_parameter_checks(self):
        fam = Family([(1, 1)])
        with pytest.raises(ParameterError):
            kernel_shift(fam, 1, 1, 1)
        with pytest.raises(ParameterError):
            kernel_shift(fam, 1, 0, 2)


class TestReduceKernel:
    def test_refuses_flat_kernel(self):
        fam = Family([(1, 1)])
        with pytest.raises(PreconditionError):
            reduce_kernel(fam, first_row(2), 1)

    def test_refuses_non_kernel(self):
        fam = Family([(2, 0, 0), (1, 1, 0), (1, 0, 1)])
        bad = Multiset((0, 2, 2))
        with pytest.raises(PreconditionError):
            reduce_kernel(fam, bad, 1)

    def test_full_descent_from_rectangle(self, small_corpus):
        for n, k, t, fam in small_corpus:
            region = rectangle(n, k)
            current = fam
            steps = 0
            while max(region.mult) >= 2:
                new_fam, new_region = reduce_kernel(current, region, t)
                steps += 1
                assert len(new_fam) == len(current)
                assert new_region.k == region.k - 1
                assert is_t_kernel(new_fam, new_region, t)
                assert is_t_intersecting(new_fam, t)
                current, region = new_fam, new_region
            assert region == first_row(n)
            assert steps == n * (k - 1)


class TestIsStable:
    def test_everything_is_stable(self):
        fam = Family(list(multiset_vectors(3, 2)))
        assert is_stable(fam)

    def test_gap_without_exchange_is_not(self):
        assert not is_stable(Family([(0, 2)]))
        assert is_stable(Family([(0, 2), (1, 1), (2, 0)]))

    def test_search_plus_compression_reaches_stability(self):
        for k in range(1, 4):
            for t in range(1, k + 1):
                for n in range(max(1, 2 * k - t), 5):
                    witness = max_t_intersecting(n, k, t).witness
                    assert is_stable(down_compress(witness, t))
