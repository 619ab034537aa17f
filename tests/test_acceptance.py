"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every criterion is implemented once, in :mod:`multiekr.battery`; these tests
assert that its rows pass and pin the facts the paper's claims rest on. Run
with ``pytest -v tests/test_acceptance.py`` (add ``-s`` to see the
per-criterion lines live). Criteria 5, 7 and 8 share one pass over the
seeded corpus of 200 random maximal families.
"""

import time

import pytest

from multiekr import battery, star_bound


def _passing(criterion, name, limit=None):
    """Run one criterion, assert every row passes, and return its rows."""
    started = time.perf_counter()
    rows = list(criterion)
    elapsed = time.perf_counter() - started
    assert [row.csv() for row in rows if not row.ok] == []
    if limit is not None:
        assert elapsed < limit
    print(f"ACCEPTANCE {name}: PASS [{elapsed:.2f}s]")
    return rows


def _of(rows, check):
    return [row for row in rows if row.check == check]


@pytest.fixture(scope="module")
def corpus_rows():
    return _passing(
        battery.corpus(),
        "5/7/8 compression, kernel reduction and lifting on the corpus",
        limit=60.0,
    )


def test_criterion_1_star_identity_for_plain_intersection():
    _passing(battery.star_identity(), "1 star identity at t=1", limit=1.0)


def test_criterion_2_star_threshold_regime():
    rows = _passing(battery.threshold(), "2 star-optimality threshold", limit=5.0)
    assert [row.params for row in _of(rows, "star_beaten_regime")] == [
        "n=7;k=5;t=3", "n=9;k=6;t=3", "n=10;k=6;t=3", "n=8;k=6;t=4", "n=9;k=6;t=4",
    ]


def test_criterion_2_degenerate_corner_is_equality():
    rows = list(battery.threshold())
    assert _of(rows, "degenerate_corner") == [
        ("degenerate_corner", "n=1;k=1;t=1", 1, 1)
    ]


def test_criterion_3_exhaustive_sharpness():
    rows = _passing(battery.sharpness(), "3 sharpness")
    sharp = _of(rows, "sharpness")
    assert len(sharp) == 608
    assert len(_of(rows, "sharpness_oracle")) == 150
    assert ("sharpness", "n=7;k=5;t=3", 31, 31) in sharp


def test_criterion_4_wider_window_beats_star():
    rows = _passing(battery.kernel_family(), "4 window family beats the star")
    (size,) = _of(rows, "kernel_family_size")
    assert size.actual == 31 > 28 == star_bound(7, 5, 3)


def test_criterion_5_compression_suite(corpus_rows):
    assert len(_of(corpus_rows, "compression_suite")) >= 200


def test_criterion_6_interval_lemma_exhaustive():
    rows = _passing(battery.interval_lemma(), "6 interval centering lemma", limit=10.0)
    assert [row.params for row in rows] == [f"k={k}" for k in range(1, 6)]


def test_criterion_7_kernel_reduction_suite(corpus_rows):
    assert len(_of(corpus_rows, "kernel_reduction")) >= 200


def test_criterion_8_lifting_identity(corpus_rows):
    assert len(_of(corpus_rows, "lifting_identity")) >= 200


def test_criterion_9_algebraic_identities():
    rows = _passing(battery.algebra(), "9 algebraic identities")
    assert {row.check for row in rows} == {
        "intersection_distance_identity",
        "enumeration_count",
        "enumeration_length",
        "window_size",
    }
