"""Balancing, compression and kernel-reduction operators on k-multisets.

Two kinds of operators live here:

* the two-column balancing operator ``psi``, which centers every slice
  of two columns, iterated to a fixed point by ``down_compress``;
* the kernel-reduction operator ``kernel_shift`` / ``reduce_kernel`` that
  peels a staircase t-kernel down to the first row one cell at a time.

``psi`` and ``kernel_shift`` return their input object when they move no
member, so a fixed point is recognised by identity. ``psi`` decides this
before grouping any slice, by a closure test on single members. Write
x = m(i,F) and y = m(j,F), and call F balanced when x - y is 0 or 1. Then psi(i, j) moves nothing if and only if every
unbalanced member F has two partners in the family, F with columns i and
j replaced

* by (x-1, y+1) (the step) and by (y+1, x-1) (the mirror) if x >= y + 2;
* by (x+1, y-1) (the step) and by (y, x) (the mirror) if x < y.

Sketch: a slice (the members that agree outside columns i and j) has at
most one balanced member; its m(i) values {lo..hi} are centered exactly
when they are contiguous and lo + hi is s or s + 1, where s = x + y; the
steps give contiguity toward the centre and the mirrors give the condition
on lo + hi. The mirror of the mirror is the step, or the mirror is itself
the step, so only mirrors are looked up. The full proof is in
:func:`psi`'s docstring.

``down_compress`` is the map certified by the compression theorem: it
preserves the family size, never increases the maximum height, and forces
the first row of the rectangle to be a t-kernel. Termination is certified
by the strictly decreasing integer potential of :func:`potential`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from operator import index
from typing import Callable, Optional

from .bounds import check_compression_range, check_domain
from .core import Family, Multiset, first_row, is_t_intersecting, is_t_kernel
from .errors import (
    CertificationError,
    DimensionError,
    ParameterError,
    PreconditionError,
)

# --------------------------------------------------------------------------
# interval systems on the line {1, ..., 2k}


def _block(s: int, r: int) -> range:
    """The m(i) values of a centered slice of r members with m(i) + m(j) = s.

    The r consecutive values ending at floor((s + r) / 2): their minimum
    plus maximum is s or s + 1, so ties in balance land on column i.
    """
    top = (s + r) // 2
    return range(top - r + 1, top + 1)


@dataclass(frozen=True)
class IntervalFamily:
    """Equal-length subintervals of {1, ..., 2k}, held by their starts.

    The family models a two-column slice under the fold that lays column i
    top-down onto {1..k} and column j bottom-up onto {k+1..2k}; the interval
    lemma is checked on it, while :func:`psi` writes the centered values of
    :func:`_block` directly. Starts are kept deduplicated and ascending.
    """

    k: int
    p: int
    starts: tuple[int, ...]

    def __post_init__(self):
        try:
            k, p = index(self.k), index(self.p)
            starts = tuple(sorted(set(map(index, self.starts))))
        except TypeError as exc:
            raise ParameterError(f"k, p and the starts must be integers: {exc}") from None
        if k < 1:
            raise ParameterError("need k >= 1")
        if not 1 <= p <= 2 * k:
            raise ParameterError(f"interval length {p} outside 1..{2 * k}")
        if not starts:
            raise ParameterError("an interval family needs at least one interval")
        if starts[0] < 1 or starts[-1] + p - 1 > 2 * k:
            raise ParameterError(f"intervals of length {p} at {starts} leave 1..{2 * k}")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "starts", starts)

    def __len__(self) -> int:
        return len(self.starts)


def phi_center(fam: IntervalFamily) -> IntervalFamily:
    """Push an interval family to the middle of {1, ..., 2k}.

    The image depends only on the count r and common length p: it lays the
    centered values x of :func:`_block` (p, r) at starts k - x + 1, the r
    consecutive p-intervals whose union is the centered interval of size
    p+r-1, i.e. {k - ceil(w/2) + 1, ..., k + floor(w/2)} for w = p+r-1.
    On a complete block (all p-subintervals of some Y) this centers Y; it
    is idempotent, and a centered family comes back unchanged.
    """
    starts = tuple(fam.k - x + 1 for x in _block(fam.p, len(fam)))
    return IntervalFamily(fam.k, fam.p, starts)


def interval_distance(fam1: IntervalFamily, fam2: IntervalFamily) -> int:
    """Smallest pairwise overlap between one interval of each family."""
    if fam1.k != fam2.k:
        raise DimensionError(f"ambient lines differ: k={fam1.k} vs k={fam2.k}")
    best = None
    for a in fam1.starts:
        for b in fam2.starts:
            overlap = min(a + fam1.p, b + fam2.p) - max(a, b)
            size = overlap if overlap > 0 else 0
            if best is None or size < best:
                best = size
    assert best is not None
    return best


# --------------------------------------------------------------------------
# two-column balancing


def _check_columns(n: int, i: int, j: int) -> None:
    if not (1 <= i <= n and 1 <= j <= n):
        raise ParameterError(f"columns {(i, j)} outside 1..{n}")
    if i == j:
        raise ParameterError("need two distinct columns")


def _centered(family: Family, i: int, j: int) -> bool:
    """True when every slice of columns i and j is already centered.

    The closure test of :func:`psi`'s docstring: a balanced member costs
    one subtraction, an unbalanced one a lookup of its mirror.
    """
    a, b = i - 1, j - 1
    for vec in family.mult_vectors():
        x, y = vec[a], vec[b]
        if 0 <= x - y <= 1:
            continue
        mirror = list(vec)
        mirror[a], mirror[b] = (y + 1, x - 1) if x > y else (y, x)
        if tuple(mirror) not in family:
            return False
    return True


def psi(family: Family, i: int, j: int) -> Family:
    """Balance columns i and j of every slice of the family.

    A slice is the set of members that agree outside columns i and j; its
    members share s = m(i,F) + m(j,F), so each slice is keyed on the member
    vector with column j folded into column i. The centered slice depends
    only on s and its size r: its m(i) values are :func:`_block` (s, r).
    Member count is preserved slice by slice, and so is t-intersection;
    ties in balance land on column i.

    When every slice is already centered the input family itself is
    returned, decided without grouping by the closure test of the module
    docstring. Proof, on one slice with m(i) values M and c = ceil(s/2):

    * the balanced value is c, so a slice has at most one balanced member;
    * the centered image of r values is the block {lo..hi} of r consecutive
      values with lo + hi in {s, s+1} (one of the two has the parity of
      r - 1), so M is centered exactly when it is contiguous and
      min M + max M lies in {s, s+1};
    * the mirror of x is s + 1 - x when x > c and s - x when x < c, on the
      other side of c or at c; the mirror of the mirror is x - 1 or x + 1,
      the step toward c, and a mirror at c is itself the step. So if every
      unbalanced value has its mirror in M, the steps walk every value of
      M toward c inside M, and M is contiguous and contains c whenever it
      has an unbalanced value;
    * the mirror of max M > c gives min M + max M <= s + 1 and the mirror
      of min M < c gives min M + max M >= s; a block that ends at c meets
      the other bound by itself, since 2c lies in {s, s+1};
    * conversely, the mirrors of a centered block {lo..hi} lie in
      [s + 1 - hi, s - lo], inside the block.

    A slice that the test finds uncentered must move; if the centering
    moves nothing, :class:`CertificationError` is raised instead of
    returning an equal new family, which would keep ``down_compress``
    sweeping forever.
    """
    _check_columns(family.n, i, j)
    if _centered(family, i, j):
        return family
    a, b = i - 1, j - 1
    slices: Counter[tuple[int, ...]] = Counter()
    for vec in family.mult_vectors():
        key = list(vec)
        key[a] += key[b]
        key[b] = 0
        slices[tuple(key)] += 1
    new_members = []
    for key, r in slices.items():
        s = key[a]
        for x in _block(s, r):
            vec = list(key)
            vec[a], vec[b] = x, s - x
            new_members.append(tuple(vec))
    if len(new_members) != len(family):
        raise CertificationError(
            f"psi({i}, {j}) produced {len(new_members)} members from {len(family)}"
        )
    out = Family(new_members, n=family.n, k=family.k)
    if out == family:
        raise CertificationError(
            f"psi({i}, {j}) found an uncentered slice but moved no member"
        )
    return out


def potential(family: Family) -> int:
    """Integer termination measure that every changing psi strictly lowers.

    Sum over members of |A| * n * k^2 * sum_i m(i,F)^2 + sum_i i * m(i,F),
    with 1-based column weights. The quadratic term drops whenever a slice
    becomes more balanced; the linear term breaks ties toward low columns
    and is dominated by the k^2 factor, so the total strictly decreases.
    """
    size = len(family)
    n, k = family.n, family.k
    scale = size * n * k * k
    total = 0
    for vec in family.mult_vectors():
        square = sum(v * v for v in vec)
        linear = sum((idx + 1) * v for idx, v in enumerate(vec))
        total += scale * square + linear
    return total


@dataclass(frozen=True)
class CompressionStep:
    """One changing psi application inside down_compress."""

    step: int
    i: int
    j: int
    potential: int
    size: int
    kernel_ok: bool


def down_compress(
    family: Family,
    t: int,
    on_step: Optional[Callable[[CompressionStep], None]] = None,
) -> Family:
    """Iterate psi over the column pairs i < j until a full sweep is silent.

    The pairs are tried in order and the sweep restarts from (1, 2) after
    every change.

    Requires 1 <= t <= k and a t-intersecting input with n >= 2k - t (the
    first-row kernel guarantee is not claimed below that, so the operation
    refuses rather than silently weakening its contract). The fixed point
    has the same size, no larger maximum height, and the first row as a
    t-kernel; an empty family returns at once.

    ``on_step`` receives a :class:`CompressionStep` after every psi
    application that changed the family.
    """
    n, k = family.n, family.k
    check_domain(n, k, t)
    check_compression_range(n, k, t, "down_compress")
    if not is_t_intersecting(family, t):
        raise PreconditionError("input family is not t-intersecting")
    if not len(family):
        return family
    row = first_row(n)
    current = family
    step = 0
    while True:
        for i, j in combinations(range(1, n + 1), 2):
            candidate = psi(current, i, j)
            if candidate is not current:
                break
        else:
            return current
        current = candidate
        step += 1
        if on_step is not None:
            on_step(
                CompressionStep(
                    step=step,
                    i=i,
                    j=j,
                    potential=potential(current),
                    size=len(current),
                    kernel_ok=is_t_kernel(current, row, t),
                )
            )


# --------------------------------------------------------------------------
# kernel reduction


def kernel_shift(family: Family, i: int, s: int, j: int) -> Family:
    """Move rows s..m(i,F) of column i to the bottom of an empty column j.

    Acts on every member F with m(j,F) = 0 and m(i,F) >= s, producing F'
    with m(i,F') = s-1 and m(j,F') = m(i,F) - s + 1, unless F' is already
    present in the input snapshot. Size is always preserved.
    """
    _check_columns(family.n, i, j)
    if not 1 <= s <= max(family.k, 1):
        raise ParameterError(f"need 1 <= s <= k, got s={s}, k={family.k}")
    vectors = family.mult_vectors()
    out = []
    for vec in vectors:
        if vec[j - 1] == 0 and vec[i - 1] >= s:
            moved = list(vec)
            moved[i - 1] = s - 1
            moved[j - 1] = vec[i - 1] - s + 1
            candidate = tuple(moved)
            out.append(candidate if candidate not in family else vec)
        else:
            out.append(vec)
    if out == vectors:
        return family
    if len(set(out)) != len(out):
        raise CertificationError("kernel_shift produced a collision")
    return Family(out, n=family.n, k=family.k)


def reduce_kernel(
    family: Family, region: Multiset, t: int
) -> tuple[Family, Multiset]:
    """Shrink a staircase t-kernel by one cell while rearranging the family.

    ``region`` must be a t-kernel of the family that covers the whole first
    row and has some column of height >= 2; the operation picks the first
    such column i, runs kernel_shift(i, m(i,region), j) for every other
    column j in order, and removes the top cell of column i from the
    kernel. The returned family has the same size and the returned region
    is a t-kernel for it. Iterating lands on the first row.
    """
    if region.n != family.n:
        raise DimensionError("kernel region lives on a different ground set")
    n, k = family.n, family.k
    check_domain(n, k, t)
    check_compression_range(n, k, t, "reduce_kernel")
    if any(v < 1 for v in region.mult):
        raise PreconditionError("kernel region must contain the whole first row")
    if not is_t_kernel(family, region, t):
        raise PreconditionError("region is not a t-kernel of the family")
    tall = [c for c in range(1, n + 1) if region.mult[c - 1] >= 2]
    if not tall:
        raise PreconditionError("kernel region is already the first row")
    i = tall[0]
    s = region.mult[i - 1]
    current = family
    for j in range(1, n + 1):
        if j != i:
            current = kernel_shift(current, i, s, j)
    reduced = list(region.mult)
    reduced[i - 1] -= 1
    return current, Multiset(reduced)


def is_stable(family: Family) -> bool:
    """Check the exchange-closure property of a family.

    For every member F: if m(i,F) + 1 < m(j,F) for any i != j, then
    F - e_j + e_i must be a member too, and the same with the weak
    inequality m(i,F) + 1 <= m(j,F) whenever i < j.
    """
    n = family.n
    for vec in family.mult_vectors():
        for jcol in range(n):
            vj = vec[jcol]
            if vj == 0:
                continue
            for icol in range(n):
                if icol == jcol:
                    continue
                gap_strict = vec[icol] + 1 < vj
                gap_weak = icol < jcol and vec[icol] + 1 <= vj
                if not (gap_strict or gap_weak):
                    continue
                moved = list(vec)
                moved[icol] += 1
                moved[jcol] -= 1
                if tuple(moved) not in family:
                    return False
    return True
