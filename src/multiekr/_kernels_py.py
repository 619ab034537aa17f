"""Pure-Python kernels: pairwise intersection tests, adjacency, clique search.

Python integers serve as bit sets in two ways. A staircase mask packs one
multiplicity vector: the cell (column c, row r) of a k-multiset occupies
bit c*k + r, so the intersection size of two multisets is the popcount of
the AND of their masks. The pair check of a small family and the rows of
a list that is not canonical read the masks pair by pair. The column
levels slice the other way: one bit set per cell, with a bit per vertex
(or member) that owns the cell. :func:`_column_levels` reads them from the
whole list at once, as one byte string, with no Python work per vertex.
The trie walk, the column orbits and the bit-sliced pair check read the
levels; at t = 1 that check tests each member of a large family against
the first levels of its own columns, not against every other member.

One decision picks the work. :func:`_canonical_levels` recognises the
canonical list, ``multiset_vectors(n, s, cap)`` in its own order with
s >= 1, as every search in the package passes it, and returns its levels;
for any other list it returns None. ``kernels.max_t_clique`` asks once and
hands the answer to ``adjacency_bitsets`` and, in a refutation, to the
orbits. ``adjacency_bitsets`` has two row builders: it walks the canonical
list's multiset trie on its levels, with no work per vertex beyond the bit
operations of its row, and builds any other list's rows pair by pair from
the staircase masks. Both return the same rows,
closed and with the lowest vertex on the top bit; ``adjacency_bitsets``
states that layout, and the column orbits and the branch and bound read
it. :func:`column_orbits` takes only the canonical list's levels, so a
refutation prunes by orbits only on a list that column permutations map
onto itself. Its orbits are a partition of the candidate set, and one
refinement, :func:`_refine`, builds both the shape classes and every
path's orbits from the levels, counted bit-sliced by the same counter
that checks the canonical list's vector sums.

These are the only implementations of the pair checks, the adjacency, the
column orbits and the clique search; set families use the same pair
predicates, each k-subset as a 0/1 vector, and the predicates pick the
pair check or the bit-sliced one from their input. Every path raises
ParameterError when an entry exceeds k or is negative, and DimensionError
when the vectors it reads differ in length; only ``compatible_with_all``
stops reading at its answer.
"""

from __future__ import annotations

import sys
from functools import reduce
from itertools import chain, compress, islice, repeat
from operator import lt, or_
from typing import Callable, Iterable, Optional, Sequence

from .bounds import count_multisets
from .errors import BudgetError, DimensionError, ParameterError


def _too_high(v: int, k: int) -> ParameterError:
    return ParameterError(f"multiplicity {v} exceeds the staircase height {k}")


def staircase_mask(vec: Sequence[int], k: int) -> int:
    """Pack a multiplicity vector into a staircase bit mask (k bits/column).

    Raises ParameterError when a multiplicity exceeds k, which would spill
    into the next column's cells, or is negative.
    """
    mask = 0
    base = 0
    try:
        for v in vec:
            if v > k:
                raise _too_high(v, k)
            mask |= ((1 << v) - 1) << base
            base += k
    except ParameterError:
        raise
    except ValueError:  # a negative shift count: the entry is below 0
        raise ParameterError(f"negative multiplicity in {tuple(vec)}") from None
    return mask


# At t = 1 the bit-sliced check of a member costs about this many pair-row
# popcounts per column it holds, the level read included: timed on the t = 1
# families of one round of each benchmark workload, the pair loop was faster
# up to 13-17 members at k = 2 and 14-21 at k = 3, and the sliced check
# faster from there, by 8x at 165 and 210 members
SLICED_CELL_COST = 6


def _pairs_at_least(
    vectors: Sequence[Sequence[int]],
    k: int,
    t: int,
    region: Optional[Sequence[int]] = None,
) -> bool:
    """min over pairs (diagonal included) of sum_c min(a_c, b_c, region_c) >= t.

    The region is every column at full height when None. The pair check
    costs one popcount per member for each member. At t = 1 a member holds
    at most min(k, n) columns, and when the members outnumber
    SLICED_CELL_COST times that, :func:`_sliced_intersecting` answers
    instead, in O(N * min(k, n)) big-int ORs. Raises ParameterError when an
    entry exceeds the height, max(k, max(region)), or is negative, and
    DimensionError when the vectors, or the region, differ in length.
    """
    if region is None:
        n = _width(vectors)
        height, region_mask = k, -1
    else:
        n = _width(chain(vectors, [region]))
        height = max(k, max(region, default=0))
        region_mask = staircase_mask(region, height)
    if t == 1 and len(vectors) > SLICED_CELL_COST * min(k, n):
        levels = _column_levels(vectors, height, 1)
        if levels is not None:
            return _sliced_intersecting(vectors, levels, region)
    masks = [staircase_mask(v, height) for v in vectors]
    for i in range(len(masks)):
        mi = masks[i] & region_mask
        for j in range(i, len(masks)):
            if (mi & masks[j]).bit_count() < t:
                return False
    return True


def _sliced_intersecting(
    vectors: Sequence[Sequence[int]],
    levels: list[list[int]],
    region: Optional[Sequence[int]],
) -> bool:
    """Every member shares a cell of the region with every member: t = 1.

    ``levels[c][0]``, as :func:`_column_levels` reads it, holds the members
    with an entry in column c. Two members share a cell exactly when they
    share a column, so each member needs the OR of its columns' first
    levels, within the region, to hold every member, itself included: that
    is its own diagonal, |F| >= 1. O(N * min(k, n)) big-int ORs for N
    members.
    """
    everyone = (1 << len(vectors)) - 1
    first = [lv[0] if lv else 0 for lv in levels]
    if region is not None:
        first = [lv if h else 0 for lv, h in zip(first, region)]
    return all(reduce(or_, compress(first, vec), 0) == everyone for vec in vectors)


def all_pairs_at_least(
    vectors: Sequence[Sequence[int]], k: int, t: int
) -> bool:
    """min over pairs (diagonal included) of |Fi cap Fj| >= t.

    Checked pair by pair, in O(N²) popcounts, except a large family at
    t = 1: it is checked bit-sliced, in O(N * min(k, n)) big-int ORs;
    :func:`_pairs_at_least` states the cost that picks one.
    """
    return _pairs_at_least(vectors, k, t)


def all_pairs_at_least_in_region(
    vectors: Sequence[Sequence[int]],
    k: int,
    region: Sequence[int],
    t: int,
) -> bool:
    """min over pairs (diagonal included) of |Fi cap Fj cap region| >= t.

    Checked as :func:`all_pairs_at_least` checks it, within the region.
    """
    return _pairs_at_least(vectors, k, t, region)


def compatible_with_all(
    cand: Sequence[int], vectors: Sequence[Sequence[int]], k: int, t: int
) -> bool:
    """True when the candidate t-intersects every listed vector.

    The answer comes at the first vector the candidate misses; the greedy
    corpus asks this once per candidate, and most candidates miss one of
    the first vectors. Raises DimensionError when a vector read up to then
    differs in length from the candidate, so an accepted candidate has the
    length of every vector.
    """
    n = len(cand)
    cmask = staircase_mask(cand, k)
    for v in vectors:
        if len(v) != n:
            raise DimensionError(f"vectors of different lengths {sorted({n, len(v)})}")
        if (cmask & staircase_mask(v, k)).bit_count() < t:
            return False
    return True


def _width(vectors: Iterable[Sequence[int]]) -> int:
    """The vectors' common length; raises DimensionError when they differ.

    A column that only some vectors have would be read as theirs alone,
    not as the zero that the others hold there.
    """
    widths = set(map(len, vectors))
    if len(widths) > 1:
        raise DimensionError(f"vectors of different lengths {sorted(widths)}")
    return widths.pop() if widths else 0


def _column_levels(
    vectors: Sequence[Sequence[int]], k: int, depth: int = 255
) -> Optional[list[list[int]]]:
    """``levels[c][r]``: the vertices whose entry in column c is above r, r < depth.

    The list is read once, as one byte string with a vector every n bytes,
    so a column is every n-th byte from its offset. A column's list runs
    up to its largest entry, or to depth levels when that is less (the
    pair predicates read only the first), and vectors[0] is the top bit, as
    in the rows.
    Each level is parsed from the column's bytes, so no Python loop runs
    over the vertices. Returns None when an entry is not a byte: above 255,
    or negative. Raises ParameterError when an entry exceeds k and
    DimensionError when the vectors differ in length.
    """
    n = _width(vectors)
    try:
        raw = bytearray(chain.from_iterable(vectors))
    except ValueError:
        return None
    if k < 255:
        above = raw.translate(None, bytes(range(k + 1)))
        if above:
            raise _too_high(max(above), k)
    levels = []
    for c in range(n):
        col = raw[c::n]
        ranks = []
        for r in range(min(k, depth, 255)):
            # the table takes a byte to b"1" when it exceeds r, else to b"0"
            level = int(col.translate(b"0" * (r + 1) + b"1" * (255 - r)), 2)
            if not level:  # the levels shrink as r grows
                break
            ranks.append(level)
        levels.append(ranks)
    return levels


def _tally(sets: Iterable[int]) -> list[int]:
    """How many of the sets hold each vertex, as bit slices.

    ``bits[i]`` holds the vertices whose count has bit i set. Each set is
    added with a ripple carry, so no vertex is read on its own.
    """
    bits: list[int] = []
    for carry in sets:
        for i, bit in enumerate(bits):
            bits[i] = bit ^ carry
            carry &= bit
            if not carry:
                break
        else:
            if carry:
                bits.append(carry)
    return bits


def _canonical_levels(vectors: list[tuple[int, ...]], k: int) -> Optional[list[list[int]]]:
    """The column levels when the list is ``multiset_vectors(n, s, m)`` in
    its own order, with s >= 1 and m <= 255; else None.

    Three checks pin the list: it is strictly ascending, it has as many
    vectors as there are s-multisets of [n] with entries <= m, its largest
    entry, and every vector has the sum s of the first. The ascending check
    runs first, so the levels of a list out of order are never read. An
    entry that does not fit in a byte leaves the list without levels. Raises
    ParameterError when an entry of an ascending list exceeds k and
    DimensionError when its vectors differ in length.
    """
    s = sum(vectors[0]) if vectors else 0
    if s < 1 or not all(map(lt, vectors, islice(vectors, 1, None))):
        return None
    levels = _column_levels(vectors, k)
    if levels is None:
        return None
    nv = len(vectors)
    m = max(map(len, levels))
    if nv != count_multisets(len(levels), s, m) or not _all_of_size(levels, nv, s):
        return None
    return levels


def _all_of_size(levels: list[list[int]], nv: int, s: int) -> bool:
    """Every vertex lies in exactly s levels: every vector has the sum s."""
    bits = _tally(chain.from_iterable(levels))
    if s >> len(bits):
        return False
    everyone = (1 << nv) - 1
    return all(bit == (everyone if s >> i & 1 else 0) for i, bit in enumerate(bits))


def _trie_rows(levels: list[list[int]], nv: int, s: int, m: int, t: int) -> list[int]:
    """The rows of ``multiset_vectors(n, s, m)``, its last vector first.

    Walks the trie of the sorted element tuples of the s-multisets of [n]
    with entries <= m, depth first; its leaves, in order, are the list read
    backwards, so the i-th leaf is bit i. A node at depth j holds, for the
    j cells of its prefix, the rows R[q] of the vertices that share at least
    q of them, for q in the window [t - (s - j), min(j, t)]: fewer could not
    reach t with the cells left, and more are not needed. R[q] is every
    vertex for q <= 0. The child that adds the cell (e, r), which
    ``levels[e][r]`` holds, takes ``R[q] | (R[q - 1] & levels[e][r])``.
    The last two levels are inlined: the leaves of a depth s - 1 node come
    from one comprehension over the columns after its last element.
    """
    n = len(levels)
    first = [col[0] for col in levels]
    if s == 1:  # at t = 1 a 1-multiset meets only itself: its row is its one level
        return first
    out: list[int] = []
    emit = out.append
    # (depth, last element, its count, window); the root has no last element
    stack = [(0, -1, m, [(1 << nv) - 1] * (s - t + 1))]
    while stack:
        j, p, c, rows = stack.pop()
        left = s - j - 1  # the cells after a child's
        # the children in order, p once more and then each larger element,
        # those whose column and the later ones have room for the cells left
        kids = [(p, c + 1, levels[p][c])] if c < m and m * (n - p) - c - 1 >= left else []
        stop = n - left // m
        kids += zip(range(p + 1, stop), repeat(1), first[p + 1:stop])
        if j + 2 < s:
            widen = j < t
            for e, ce, cell in reversed(kids):
                nxt = [a | (b & cell) for a, b in zip(rows[1:], rows)]
                if widen:
                    nxt.append(rows[-1] & cell)
                stack.append((j + 1, e, ce, nxt))
            continue
        # depth s - 2: the window is R[t - 2], R[t - 1], R[t], padded with
        # the empty sets for q > s - 2; a child needs R[t - 1] and R[t]
        r0, r1, r2 = (rows + [0, 0])[:3]
        for e, ce, cell in kids:
            at_least_t = r2 | (r1 & cell)
            one_short = r1 | (r0 & cell)
            if ce < m:
                emit(at_least_t | (one_short & levels[e][ce]))
            out += [at_least_t | (one_short & cell) for cell in first[e + 1:]]
    return out


def adjacency_bitsets(
    vectors: list[tuple[int, ...]],
    k: int,
    t: int,
    levels: Optional[list[list[int]]],
) -> list[int]:
    """Closed neighbourhood rows of the t-intersection graph, lowest vertex on top.

    This is the row layout that the column orbits and the branch and bound
    read. Row v is a bit set holding vertex v itself and every vertex it
    t-intersects; vertex w is bit ``nv - 1 - w``, so vertex 0 is the highest
    bit of an ``nv``-bit set. The lowest vertex of a set ``s`` is then
    ``nv - s.bit_length()``, and the int that holds a set shrinks as its
    lowest vertices leave. Both builders below return this layout.

    ``levels`` are the canonical list's column levels, as
    :func:`_canonical_levels` returns them, or None for any other list.
    With levels and 1 <= t <= s, the walk of the list's multiset trie
    (:func:`_trie_rows`) builds the rows, with no work per vertex beyond its
    row's bit operations. Otherwise the rows come pair by pair, from the
    popcounts of the staircase masks' ANDs: O(nv²) popcounts, for the lists
    that tests and outside callers pass. Raises ParameterError when an
    entry exceeds k or is negative and DimensionError when the vectors
    differ in length.
    """
    nv = len(vectors)
    s = sum(vectors[0]) if levels is not None else 0
    if 1 <= t <= s:
        rows = _trie_rows(levels, nv, s, max(map(len, levels)), t)
        rows.reverse()
        return rows
    _width(vectors)
    masks = [staircase_mask(v, k) for v in vectors]
    binary = bytes.maketrans(b"\0\1", b"01")
    adj = []
    for i, mi in enumerate(masks):
        hits = bytes(map(t.__le__, map(int.bit_count, map(mi.__and__, masks))))
        # closed: a vertex with |v| < t keeps its bit
        adj.append(int(hits.translate(binary), 2) | 1 << (nv - 1 - i))
    return adj


def _refine(
    parts: list[int], levels: list[list[int]], groups: Iterable[Sequence[int]]
) -> list[int]:
    """Split the vertex sets so two vertices stay together only when, for
    every group of columns and every r, as many of the group's columns hold
    an entry above r.

    Those counts, over r, are the conjugate of the values a vertex holds on
    the group, so two vertices stay together exactly when they hold the same
    multiset of values on every group. ``levels`` are the column levels as
    :func:`_column_levels` reads them; each count is taken bit-sliced by
    :func:`_tally`, with no Python work per vertex.
    """
    for cols in groups:
        for r in range(max((len(levels[c]) for c in cols), default=0)):
            for bit in _tally(levels[c][r] for c in cols if len(levels[c]) > r):
                parts = [p for part in parts for p in (part & bit, part & ~bit) if p]
    return parts


def column_orbits(
    vectors: list[tuple[int, ...]],
    levels: list[list[int]],
) -> Callable[[tuple[int, ...], int], list[int]]:
    """Orbits of the column permutations that fix a path, as a partition.

    ``levels`` are the list's column levels, and the list must be closed
    under column permutations: every one maps it onto itself, so, as it
    preserves sums of minima, it is an automorphism of every t-intersection
    graph. The canonical list is closed by construction, and
    ``kernels.max_t_clique`` passes only the levels that
    :func:`_canonical_levels` returns for it. On a list that is not closed
    the classes need not be orbits of any automorphism, and pruning by them
    can lose the maximum. An empty list is closed.

    Returns ``orbit_masks(path, cand)``. ``path`` is a tuple of vertices
    and ``cand`` a vertex set in the layout of :func:`adjacency_bitsets`;
    the result is a list of disjoint, nonzero vertex sets whose union is
    ``cand``: its orbits under the column permutations that fix every
    vertex of ``path``, each cut to ``cand``. Those permutations are the
    ones that keep each class of columns with one profile
    ``(v[c] for v in path)``, so two vertices share an orbit exactly when
    they have the same shape and the same multiset of values on every class
    whose profile is not all zero, singleton classes included; the values
    on the all-zero class follow from the shape. :func:`_refine` splits the
    vertices by their shapes once, over every column as one group, and
    each call splits the shape classes, cut to ``cand``, over the path's
    classes, all bit-sliced. At the empty path the orbits are the shape
    classes cut to ``cand``.
    """
    shapes = _refine([(1 << len(vectors)) - 1], levels, [range(len(levels))])

    def orbit_masks(path: tuple[int, ...], cand: int) -> list[int]:
        classes: dict[tuple[int, ...], list[int]] = {}
        for c, profile in enumerate(zip(*map(vectors.__getitem__, path))):
            if any(profile):
                classes.setdefault(profile, []).append(c)
        return _refine([p for cls in shapes if (p := cls & cand)], levels, classes.values())

    return orbit_masks


def branch_and_bound(
    adj: list[int],
    node_budget: int,
    stop_at: int,
    lower_bound: int,
    orbits: Optional[Callable[[tuple[int, ...], int], list[int]]] = None,
) -> tuple[int, list[int], int]:
    """Exact maximum clique of the graph whose vertex i has the row adj[i].

    The rows are in the layout that :func:`adjacency_bitsets` states. The
    colouring finds the lowest vertex of a set from its bit length and
    removes it with its neighbours by one AND and one XOR, both on
    non-negative ints, so the sets shrink as their lowest vertices leave.
    That removal relies on each row holding its own vertex.

    Branch and bound over the vertex order with a greedy-coloring bound.
    ``stop_at`` > 0 halts as soon as the incumbent reaches that size (used
    with a proven upper bound, so the result stays exact). ``lower_bound``
    seeds the incumbent size without a witness; if nothing larger is found
    the returned witness list is empty.

    ``orbits``, when given, prunes by symmetry. It is an ``orbit_masks``
    callback as :func:`column_orbits` states it: given a path and a
    candidate set, it returns the set's partition into orbits of a group of
    graph automorphisms that fix the path and map the set onto itself. The
    node rule: each node whose path has fewer than two vertices asks for
    its candidates' partition on entry; once its branch on v is exhausted,
    the part that holds v, v's whole orbit, leaves its candidate set, and
    the colour order skips the vertices that left. The size stays exact;
    the witness is then one maximum clique, not necessarily the one the
    plain search returns.

    Returns (best_size, sorted_witness, nodes). Raises BudgetError when
    more than ``node_budget`` tree nodes would be expanded.
    """
    nv = len(adj)
    state = [max(0, lower_bound), [], 0]  # best_size, best, nodes

    def expand(cur: list[int], cand: int) -> None:
        state[2] += 1
        if state[2] > node_budget:
            raise BudgetError(
                f"clique search exceeded node budget {node_budget}"
            )
        if stop_at > 0 and state[0] >= stop_at:
            return
        parts = orbits(tuple(cur), cand) if orbits is not None and len(cur) < 2 else None
        # greedy coloring; order holds vertices by ascending color
        order: list[int] = []
        color_of: list[int] = []
        uncolored = cand
        color = 0
        while uncolored:
            color += 1
            avail = uncolored
            while avail:
                bl = avail.bit_length()
                v = nv - bl  # the lowest vertex is the top bit
                order.append(v)
                color_of.append(color)
                uncolored ^= 1 << (bl - 1)
                avail ^= avail & adj[v]  # v and its neighbours; the row is closed
        for idx in range(len(order) - 1, -1, -1):
            if len(cur) + color_of[idx] <= state[0]:
                return
            v = order[idx]
            bit = 1 << (nv - 1 - v)
            if not cand & bit:  # its orbit left after an earlier branch
                continue
            cand ^= bit
            sub = cand & adj[v]
            cur.append(v)
            if sub:
                expand(cur, sub)
            elif len(cur) > state[0]:
                state[0] = len(cur)
                state[1] = cur.copy()
            cur.pop()
            if parts is not None:
                cand &= ~next(p for p in parts if p & bit)
            if stop_at > 0 and state[0] >= stop_at:
                return

    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, 2 * nv + 200))
    try:
        expand([], (1 << nv) - 1)
    finally:
        sys.setrecursionlimit(old_limit)
        del expand  # it refers to itself; without this the graph waits for gc
    return state[0], sorted(state[1]), state[2]
