"""Pure-Python kernels: pairwise intersection tests, adjacency, clique search.

Python integers serve as bit sets in two ways. The pair predicates pack each
multiplicity vector into a staircase mask: the cell (column c, row r) of a
k-multiset occupies bit c*k + r, so the intersection size of two multisets
is the popcount of the AND of their masks. The adjacency build slices the
other way: one bit set per cell, with a bit per vertex that owns the cell,
so each vertex finds all its neighbours at once instead of pair by pair.
Its second pass reads each vertex's cell list from the first and carries
the shared-cell counts over the cell prefix that consecutive vertices have
in common; in canonical order fewer than two cells per vertex lie past it,
on average. The rows it returns are closed and put the lowest vertex on
the top bit; ``adjacency_bitsets`` states that layout, and the column
orbits and the branch and bound read it.
These are the only implementations of the pair checks, the adjacency, the
column orbits and the clique search; set families use the same pair check,
each k-subset as a 0/1 vector.
"""

from __future__ import annotations

import sys
from collections import Counter
from itertools import accumulate, compress, count
from math import factorial, prod
from operator import add, itemgetter
from typing import Callable, Iterable, Optional, Sequence

from .errors import BudgetError, ParameterError


def _too_high(v: int, k: int) -> ParameterError:
    return ParameterError(f"multiplicity {v} exceeds the staircase height {k}")


def staircase_mask(vec: Sequence[int], k: int) -> int:
    """Pack a multiplicity vector into a staircase bit mask (k bits/column).

    Raises ParameterError when a multiplicity exceeds k, which would spill
    into the next column's cells.
    """
    mask = 0
    base = 0
    for v in vec:
        if v > k:
            raise _too_high(v, k)
        mask |= ((1 << v) - 1) << base
        base += k
    return mask


def _pairs_at_least(masks: list[int], t: int, region: int = -1) -> bool:
    """min over pairs (diagonal included) of popcount(mi & mj & region) >= t."""
    for i in range(len(masks)):
        mi = masks[i] & region
        for j in range(i, len(masks)):
            if (mi & masks[j]).bit_count() < t:
                return False
    return True


def all_pairs_at_least(
    vectors: list[tuple[int, ...]], k: int, t: int
) -> bool:
    """min over pairs (diagonal included) of |Fi cap Fj| >= t."""
    return _pairs_at_least([staircase_mask(v, k) for v in vectors], t)


def all_pairs_at_least_in_region(
    vectors: list[tuple[int, ...]],
    k: int,
    region: Sequence[int],
    t: int,
) -> bool:
    """min over pairs (diagonal included) of |Fi cap Fj cap region| >= t."""
    height = max(k, max(region, default=0))
    masks = [staircase_mask(v, height) for v in vectors]
    return _pairs_at_least(masks, t, staircase_mask(region, height))


def compatible_with_all(
    cand: Sequence[int], vectors: list[tuple[int, ...]], k: int, t: int
) -> bool:
    """True when the candidate t-intersects every listed vector."""
    cmask = staircase_mask(cand, k)
    for v in vectors:
        if (cmask & staircase_mask(v, k)).bit_count() < t:
            return False
    return True


def adjacency_bitsets(vectors: list[tuple[int, ...]], k: int, t: int) -> list[int]:
    """Closed neighbourhood rows of the t-intersection graph, lowest vertex on top.

    This is the row layout that the column orbits and the branch and bound
    read. Row v is a bit set holding vertex v itself and every vertex it
    t-intersects; vertex w is bit ``nv - 1 - w``, so vertex 0 is the highest
    bit of an ``nv``-bit set. The lowest vertex of a set ``s`` is then
    ``nv - s.bit_length()``, and the int that holds a set shrinks as its
    lowest vertices leave.

    Bit-sliced: ``level[c*k + r]`` holds the vertices whose multiplicity in
    column c exceeds r. Vertex i shares its cell (c, r) with exactly the
    vertices in that level, so a count over i's own cells of "at least s
    shared cells" gives its neighbours with whole-graph bit operations.

    The first pass fills the levels and records each vertex's cells in
    column order, from the last vertex to the first, so that the i-th vertex
    read is bit i. The second pass keeps the counts row by row: the row
    after a vertex's first j cells depends on those cells alone, so a
    vertex takes over the rows of the longest cell prefix it shares with
    the vertex before it. Read backwards, canonical order shares the same
    prefixes, which leaves 1 to 1.7 new cells per vertex on average (1.6 at
    n = 10, k = 6); any order gives the same result. Raises ParameterError
    when a multiplicity exceeds k.
    """
    nv = len(vectors)
    if nv == 0:
        return []
    columns = range(len(vectors[0]))
    level = [0] * (len(columns) * k)
    cell_lists = []
    for i, vec in enumerate(reversed(vectors)):
        bit = 1 << i
        cells: list[int] = []
        for c in compress(columns, vec):
            if vec[c] > k:
                raise _too_high(vec[c], k)
            base = c * k
            cells.extend(range(base, base + vec[c]))
        for r in cells:
            level[r] |= bit
        cell_lists.append(cells)
    everyone = (1 << nv) - 1
    adj = [0] * nv
    # rows[j][s]: the vertices sharing at least s of the first j cells of
    # ``prev``, for s <= min(j, t); the last cell of a vertex needs only s = t
    rows = [[everyone]]
    prev: list[int] = []
    for i, cells in enumerate(cell_lists):
        cell_lists[i] = None  # only ``prev`` is kept once a vertex is read
        last = len(cells) - 1
        limit = min(last, len(rows) - 1)
        p = 0
        while p < limit and cells[p] == prev[p]:
            p += 1
        del rows[p + 1:]
        row = rows[p]
        for r in cells[p:last]:
            shared = level[r]
            nxt = [everyone]
            for s in range(1, len(row)):
                nxt.append(row[s] | (row[s - 1] & shared))
            if len(row) <= t:
                nxt.append(row[-1] & shared)
            rows.append(nxt)
            row = nxt
        hit = row[t] if t < len(row) else 0
        if 0 < t <= len(row) and last >= 0:
            hit |= row[t - 1] & level[cells[last]]
        adj[nv - 1 - i] = hit | (1 << i)  # closed: a vertex with |v| < t keeps its bit
        prev = cells
    return adj


def _members(bits: int, nv: int) -> list[int]:
    """The vertices of an ``nv``-vertex set, ascending, from one ``bin`` scan.

    Read from its top, the string lists the vertices in ascending order;
    its ``0b`` prefix counts as two places of the first zero run.
    """
    gaps = bin(bits).split("1")[:-1]  # the zero runs above each set bit
    return list(map(add, accumulate(map(len, gaps)), count(nv - bits.bit_length() - 2)))


def column_orbits(
    vectors: list[tuple[int, ...]],
) -> Optional[Callable[[tuple[int, ...], int], dict[int, int]]]:
    """Orbits of the column permutations that fix a path, as vertex sets.

    Returns None unless every column permutation maps the list onto itself:
    the vectors are distinct and each shape (sorted vector) occurs as often
    as it has arrangements, checked in the O(N) pass that numbers the
    shapes. A column permutation preserves sums of minima, so on such a
    list it is an automorphism of every t-intersection graph.

    Otherwise returns ``orbit_masks(path, cand)``. ``path`` is a tuple of
    vertices and ``cand`` a vertex set in the layout of
    :func:`adjacency_bitsets`; the result maps each vertex w of ``cand`` to
    the set of the members of ``cand`` in w's orbit under the column
    permutations that fix every vertex of ``path``. Those permutations are
    the ones that keep each class of columns with one profile
    ``(v[c] for v in path)``, so two vertices share an orbit exactly when
    they have the same shape and the same multiset of values on every class
    whose profile is not all zero, singleton classes included; the values on
    the all-zero class follow from the shape. At the empty path the orbits
    are the shapes. A call costs O(|cand|·|support of the path|) beyond one
    scan of ``cand``.
    """
    nv = len(vectors)
    shapes: dict[tuple[int, ...], int] = {}
    root = [shapes.setdefault(tuple(sorted(w)), len(shapes)) for w in vectors]
    if len(set(vectors)) != nv:
        return None
    counts = Counter(root)
    for shape, sid in shapes.items():
        same = map(factorial, Counter(shape).values())
        if counts[sid] != factorial(len(shape)) // prod(same):
            return None

    def orbit_masks(path: tuple[int, ...], cand: int) -> dict[int, int]:
        members = _members(cand, nv)
        classes: dict[tuple[int, ...], list[int]] = {}
        for c, profile in enumerate(zip(*map(vectors.__getitem__, path))):
            if any(profile):
                classes.setdefault(profile, []).append(c)
        chosen = list(map(vectors.__getitem__, members))
        keys: list[Iterable] = [map(root.__getitem__, members)]
        for cols in classes.values():
            values = map(itemgetter(*cols), chosen)
            keys.append(values if len(cols) == 1 else map(tuple, map(sorted, values)))
        orbits: dict[tuple, list[int]] = {}
        for w, key in zip(members, zip(*keys)):
            orbits.setdefault(key, []).append(w)
        masks: dict[int, int] = {}
        for orbit in orbits.values():
            # parsed once from binary digits, not OR-ed one vertex bit at a time
            low, high = orbit[0], orbit[-1]
            digits = bytearray(b"0") * (high - low + 1)
            for w in orbit:
                digits[w - low] = 49  # ord("1"); the lowest vertex comes first
            masks.update(dict.fromkeys(orbit, int(digits, 2) << (nv - 1 - high)))
        return masks

    return orbit_masks


def branch_and_bound(
    adj: list[int],
    node_budget: int,
    stop_at: int,
    lower_bound: int,
    orbits: Optional[Callable[[tuple[int, ...], int], dict[int, int]]] = None,
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

    ``orbits``, when given, prunes by symmetry at depths 0 and 1. It is an
    ``orbit_masks`` callback as :func:`column_orbits` states it, for a group
    of graph automorphisms that maps each set it is asked about onto
    itself. The search asks for the orbits of all vertices at the root, and
    below each root branch on v for those of the depth-1 candidates with
    the path ``(v,)``. Once the branch on v at depth 0 or 1 is exhausted,
    v's whole orbit leaves that depth's candidate set, and the colour order
    skips the vertices that left. The size stays exact; the witness is then
    one maximum clique, not necessarily the one the plain search returns.

    Returns (best_size, sorted_witness, nodes). Raises BudgetError when
    more than ``node_budget`` tree nodes would be expanded.
    """
    nv = len(adj)
    state = [max(0, lower_bound), [], 0]  # best_size, best, nodes

    def expand(cur: list[int], cand: int, orbit_of: Optional[dict[int, int]]) -> None:
        state[2] += 1
        if state[2] > node_budget:
            raise BudgetError(
                f"clique search exceeded node budget {node_budget}"
            )
        if stop_at > 0 and state[0] >= stop_at:
            return
        if cand == 0:
            if len(cur) > state[0]:
                state[0] = len(cur)
                state[1] = cur.copy()
            return
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
                below = None
                if orbit_of is not None and len(cur) == 1:
                    below = orbits((v,), sub)
                expand(cur, sub, below)
            elif len(cur) > state[0]:
                state[0] = len(cur)
                state[1] = cur.copy()
            cur.pop()
            if orbit_of is not None:
                cand ^= cand & orbit_of[v]
            if stop_at > 0 and state[0] >= stop_at:
                return

    everyone = (1 << nv) - 1
    root = orbits((), everyone) if orbits is not None else None
    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, 2 * nv + 200))
    try:
        expand([], everyone, root)
    finally:
        sys.setrecursionlimit(old_limit)
        del expand  # it refers to itself; without this the graph waits for gc
    return state[0], sorted(state[1]), state[2]
