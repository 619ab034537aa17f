"""Exact extremal bounds for t-intersecting families.

Everything here is plain integer arithmetic on binomial coefficients
(``math.comb``), so the values feed equality assertions directly. The
central quantity is the complete-intersection-theorem function

    AK(n, k, t) = max_i |A(n, k, t, i)|,
    A(n, k, t, i) = { A in [n] choose k : |A cap [t+2i]| >= t+i },

which is the exact maximum size of a t-intersecting family of k-subsets of
[n]. A t-intersecting family of k-multisets of [n] is bounded by the same
function on the lifted ground set of n+k-1 points, which is what
:func:`multiset_bound` evaluates.

The parameter rules live here once each, as a predicate and a check that
raises: the (n, k, t) domain, the compression range n >= 2k-t, and the
window domain of A(n, k, t, i); :func:`multiset_height` checks n, k and
a cap. The other modules read them from here.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import NamedTuple, Optional

from .errors import ParameterError, PreconditionError

BOUND_CSV_HEADER = "n,k,t,star,ak_set,i_star"


class AKValue(NamedTuple):
    """AK maximum together with the smallest index attaining it."""

    value: int
    i_star: int


def in_domain(n: int, k: int, t: int) -> bool:
    """1 <= t <= k and n >= 1: the domain of the bounds, searches and operators."""
    return 1 <= t <= k and n >= 1


def check_domain(n: int, k: int, t: int) -> None:
    """Raise ParameterError outside :func:`in_domain`."""
    if not in_domain(n, k, t):
        raise ParameterError(f"need 1 <= t <= k and n >= 1, got {(n, k, t)}")


def in_compression_range(n: int, k: int, t: int) -> bool:
    """n >= 2k-t: the compression theorem's range, the proof route to AK."""
    return n >= 2 * k - t


def check_compression_range(n: int, k: int, t: int, caller: str) -> None:
    """Raise PreconditionError, naming ``caller``, outside the compression range."""
    if not in_compression_range(n, k, t):
        raise PreconditionError(f"{caller} needs n >= 2k - t; got n={n}, k={k}, t={t}")


def in_window_domain(n: int, k: int, t: int, i: int) -> bool:
    """Whether A(n, k, t, i) is defined: 0 <= t <= k <= n, i >= 0,
    t+2i <= n and t+i <= k."""
    return 0 <= t <= k <= n and i >= 0 and t + 2 * i <= n and t + i <= k


def check_window_domain(n: int, k: int, t: int, i: int) -> None:
    """Raise ParameterError outside :func:`in_window_domain`."""
    if not in_window_domain(n, k, t, i):
        raise ParameterError(
            f"need 0 <= t <= k <= n, i >= 0, t+2i <= n, t+i <= k; got {(n, k, t, i)}"
        )


def multiset_height(n: int, k: int, cap: Optional[int] = None) -> int:
    """Raise ParameterError unless n >= 1, k >= 0 and cap >= 1 when given;
    return the largest multiplicity a k-multiset of [n] under the cap has."""
    if n < 1:
        raise ParameterError("need n >= 1")
    if k < 0:
        raise ParameterError("need k >= 0")
    if cap is not None and cap < 1:
        raise ParameterError("cap must be >= 1 when given")
    return k if cap is None else min(cap, k)


def count_multisets(n: int, k: int, cap: Optional[int] = None) -> int:
    """Number of k-multisets of [n], honoring an optional height cap.

    Inclusion–exclusion over j columns above the height h, in O(k/(h+1))
    terms: sum_j (-1)^j C(n, j) C(n+k-1-j(h+1), k-j(h+1)).
    """
    top = multiset_height(n, k, cap)
    return sum(
        (-1) ** j * comb(n, j) * comb(n + k - 1 - j * (top + 1), k - j * (top + 1))
        for j in range(min(n, k // (top + 1)) + 1)
    )


def ak_family_size(n: int, k: int, t: int, i: int) -> int:
    """|A(n, k, t, i)| by closed summation.

    Splits each k-subset by its overlap j with the window [t+2i]:
    sum over j >= t+i of C(t+2i, j) * C(n-t-2i, k-j). The sum is gated on
    an exhaustive-enumeration oracle in the test suite before use.
    """
    check_window_domain(n, k, t, i)
    window = t + 2 * i
    total = 0
    for j in range(t + i, min(window, k) + 1):
        total += comb(window, j) * comb(n - window, k - j)
    return total


def _windows(n: int, k: int, t: int) -> list[tuple[int, int]]:
    """(i, |A(n, k, t, i)|) for each i in the window domain, a prefix of 0..k-t."""
    check_window_domain(n, k, t, 0)
    return [(i, ak_family_size(n, k, t, i))
            for i in range(k - t + 1) if in_window_domain(n, k, t, i)]


def _first_max(per_i: list[tuple[int, int]]) -> AKValue:
    # max keeps the first of equal keys, so ties go to the smaller i
    i_star, value = max(per_i, key=lambda pair: pair[1])
    return AKValue(value, i_star)


def ak(n: int, k: int, t: int) -> AKValue:
    """Maximize |A(n, k, t, i)| over all admissible i.

    i ranges over i >= 0 with t+2i <= n and t+i <= k; ties break toward the
    smaller i so reports and constructions are deterministic.
    """
    return _first_max(_windows(n, k, t))


def star_bound(n: int, k: int, t: int) -> int:
    """Size of a star: all k-multisets of [n] over one fixed t-multiset."""
    check_domain(n, k, t)
    return comb(n + k - t - 1, k - t)


def multiset_bound(n: int, k: int, t: int) -> int:
    """AK(n+k-1, k, t): the exact maximum for t-intersecting k-multisets.

    The value is a proven bound only for n >= 2k-t; outside that range it
    is still computed, and :func:`multiset_bound_proven` (or the ``proven``
    field of :func:`bound_report`) flags it as conjectural territory.
    """
    check_domain(n, k, t)
    return ak(n + k - 1, k, t).value


def multiset_bound_proven(n: int, k: int, t: int) -> bool:
    """Whether multiset_bound(n, k, t) is a proven bound: n >= 2k-t, the
    compression range."""
    check_domain(n, k, t)
    return in_compression_range(n, k, t)


def mp_threshold(n: int, k: int, t: int) -> bool:
    """True when n >= t(k-t)+2, the regime where the star is optimal.

    On the lifted ground set this is the set-family threshold
    n+k-1 >= (t+1)(k-t+1), since (t+1)(k-t+1) - (k-1) = t(k-t)+2.
    """
    check_domain(n, k, t)
    return n >= t * (k - t) + 2


@dataclass(frozen=True)
class BoundReport:
    """Star and AK values for one (n, k, t), plus the per-i breakdown."""

    n: int
    k: int
    t: int
    star: int
    ak_set: int
    i_star: int
    per_i: tuple[tuple[int, int], ...]
    proven: bool

    def csv_row(self) -> str:
        return f"{self.n},{self.k},{self.t},{self.star},{self.ak_set},{self.i_star}"

    def to_dict(self) -> dict:
        return dict(vars(self))


def bound_report(n: int, k: int, t: int) -> BoundReport:
    """Evaluate star and AK bounds on the lifted ground set n+k-1."""
    per_i = _windows(n + k - 1, k, t)
    value, i_star = _first_max(per_i)
    return BoundReport(
        n=n,
        k=k,
        t=t,
        star=star_bound(n, k, t),
        ak_set=value,
        i_star=i_star,
        per_i=tuple(per_i),
        proven=multiset_bound_proven(n, k, t),
    )
