"""Pure-Python kernels: pairwise intersection tests, adjacency, clique search.

Python integers serve as bit sets in two ways. The pair predicates pack each
multiplicity vector into a staircase mask: the cell (column c, row r) of a
k-multiset occupies bit c*k + r, so the intersection size of two multisets
is the popcount of the AND of their masks. The adjacency build and the
column orbits slice the other way: the column levels, one bit set per cell
with a bit per vertex that owns the cell. :func:`_column_levels` reads them
from the whole list at once, as one byte string, with no Python work per
vertex; ``kernels.max_t_clique`` reads them once per refutation and hands
the same levels to both.

On the levels, each vertex finds all its neighbours at once instead of
pair by pair. The adjacency build takes one of two paths, chosen from the
list itself. The canonical list of s-multisets, s >= 2, that is
``multiset_vectors(n, s, cap)`` in its own order as the searches pass it,
is served by a walk of its multiset trie, with no work per vertex beyond
the bit operations of its row. Any other list, 1-multisets included, takes
the prefix-sharing pass, which reads each vertex's cell list and carries
the shared-cell counts over the cell prefix that consecutive vertices have
in common; it does not read the levels. Both return the same rows, closed
and with the lowest vertex on the top bit; ``adjacency_bitsets`` states
that layout, and the column orbits and the branch and bound read it. The
shape classes of the column orbits come from counting the levels
bit-sliced, by the same counter that checks the walk's vector sums.

These are the only implementations of the pair checks, the adjacency, the
column orbits and the clique search; set families use the same pair check,
each k-subset as a 0/1 vector. The adjacency build and the column orbits
raise DimensionError when the vectors differ in length.
"""

from __future__ import annotations

import sys
from collections import Counter
from itertools import accumulate, chain, compress, count, islice, repeat
from math import factorial, prod
from operator import add, itemgetter, lt
from typing import Callable, Iterable, Optional, Sequence

from .errors import BudgetError, DimensionError, ParameterError


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


def _width(vectors: list[tuple[int, ...]]) -> int:
    """The vectors' common length; raises DimensionError when they differ.

    A column that only some vectors have would be read as theirs alone,
    not as the zero that the others hold there.
    """
    widths = set(map(len, vectors))
    if len(widths) > 1:
        raise DimensionError(f"vectors of different lengths {sorted(widths)}")
    return widths.pop() if widths else 0


def _column_levels(vectors: list[tuple[int, ...]], k: int) -> Optional[list[list[int]]]:
    """``levels[c][r]``: the vertices whose entry in column c is above r.

    The list is read once, as one byte string with a vector every n bytes,
    so a column is every n-th byte from its offset. A column's list runs
    up to its largest entry, and vectors[0] is the top bit, as in the rows.
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
        for r in range(min(k, 255)):
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


def _canonical_rows(
    vectors: list[tuple[int, ...]],
    k: int,
    t: int,
    levels: Optional[list[list[int]]] = None,
) -> Optional[list[int]]:
    """The rows by :func:`_trie_rows` when the list is ``multiset_vectors(n,
    s, m)`` in its own order, with s >= 2, 1 <= t <= s and m <= 255; else None.

    Three checks pin the list: it is strictly ascending, it has as many
    vectors as there are s-multisets of [n] with entries <= m, its largest
    entry, and every vector has the sum s of the first. The cheap ones run
    first: a list of 1-multisets fails at its first vector, before its
    levels are read, if the caller has not read them already.
    """
    from .core import count_multisets  # core imports this module

    s = sum(vectors[0])
    if s < 2 or not 1 <= t <= s:
        return None
    if not all(map(lt, vectors, islice(vectors, 1, None))):
        return None
    if levels is None:
        levels = _column_levels(vectors, k)
        if levels is None:
            return None
    nv = len(vectors)
    m = max(map(len, levels))
    if nv != count_multisets(len(levels), s, m) or not _all_of_size(levels, nv, s):
        return None
    rows = _trie_rows(levels, nv, s, m, t)
    rows.reverse()
    return rows


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
    levels: Optional[list[list[int]]] = None,
) -> list[int]:
    """Closed neighbourhood rows of the t-intersection graph, lowest vertex on top.

    This is the row layout that the column orbits and the branch and bound
    read. Row v is a bit set holding vertex v itself and every vertex it
    t-intersects; vertex w is bit ``nv - 1 - w``, so vertex 0 is the highest
    bit of an ``nv``-bit set. The lowest vertex of a set ``s`` is then
    ``nv - s.bit_length()``, and the int that holds a set shrinks as its
    lowest vertices leave. Both paths below return this layout.

    Bit-sliced: the level of the cell (c, r) holds the vertices whose
    multiplicity in column c exceeds r. Vertex i shares that cell with
    exactly the vertices in its level, so a count over i's own cells of "at
    least q shared cells" gives its neighbours with whole-graph bit
    operations.

    The canonical list, ``multiset_vectors(n, s, cap)`` in its own order,
    as every search in the package passes it, takes a walk of its multiset
    trie (:func:`_trie_rows`) on the column levels; there is no work per
    vertex beyond its row's two bit operations. ``levels`` are the levels
    as :func:`_column_levels` reads them, when the caller has them; else
    they are read here, once the cheap checks of :func:`_canonical_rows`,
    which recognises the list from the vectors themselves, have passed.

    Any other list takes the prefix-sharing pass: shuffled or with members
    missing or repeated, mixed sizes, 1-multisets, t outside [1, s], and
    entries above 255. Its first pass fills the levels and records each
    vertex's cells in column order, from the last vertex to the first, so
    that the i-th vertex read is bit i. The second pass keeps the counts row
    by row: the row after a vertex's first j cells depends on those cells
    alone, so a vertex takes over the rows of the longest cell prefix it
    shares with the vertex before it. Raises ParameterError when a
    multiplicity exceeds k and DimensionError when the vectors differ in
    length.
    """
    nv = len(vectors)
    if nv == 0:
        return []
    adj = _canonical_rows(vectors, k, t, levels)
    if adj is not None:
        return adj
    columns = range(_width(vectors))
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
    levels: Optional[list[list[int]]] = None,
) -> Optional[Callable[[tuple[int, ...], int], dict[int, int]]]:
    """Orbits of the column permutations that fix a path, as vertex sets.

    ``levels`` are the list's column levels as :func:`_column_levels` reads
    them; they are read here when not given. Returns None unless every
    column permutation maps the list onto itself: the vectors are distinct
    and each shape (sorted vector) occurs as often as it has arrangements.
    A column permutation preserves sums of minima, so on such a list it is
    an automorphism of every t-intersection graph. Also returns None, and
    so prunes nothing, when an entry does not fit in a byte (above 255, or
    negative): no pruning is always sound. An empty list is closed. Raises
    DimensionError when the vectors differ in length.

    The shapes are found bit-sliced, with no Python work per vertex: the
    number of columns whose entry is above r is the (r+1)-th part of the
    conjugate of a vertex's shape, so counting the levels ``levels[c][r]``
    over c, for each r, splits the vertices into their shape classes. Each
    class's count is then one popcount, and one set of the vectors shows
    that they are distinct.

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
    are the shape classes, cut to ``cand``. A longer path costs
    O(|cand|·|support of the path|) beyond one scan of ``cand``.
    """
    if levels is None:
        levels = _column_levels(vectors, k=255)
        if levels is None:
            return None
    nv = len(vectors)
    shapes = [(1 << nv) - 1] if nv else []
    for r in range(max(map(len, levels), default=0)):
        for bit in _tally(col[r] for col in levels if len(col) > r):
            shapes = [part for cls in shapes for part in (cls & bit, cls & ~bit) if part]
    for cls in shapes:
        shape = vectors[nv - cls.bit_length()]
        same = map(factorial, Counter(shape).values())
        if cls.bit_count() != factorial(len(shape)) // prod(same):
            return None
    if len(set(vectors)) != nv:
        return None
    # each vertex's shape index, a base-256 digit at a time: the binary
    # digits of a class translate to that digit of its index at its members
    shape_of: list[int] = []
    for d in range(0, max(len(shapes) - 1, 1).bit_length(), 8):
        acc = 0
        for sid, cls in enumerate(shapes):
            table = bytes.maketrans(b"01", bytes((0, sid >> d & 255)))
            acc |= int.from_bytes(format(cls, f"0{nv}b").encode().translate(table), "big")
        digit = acc.to_bytes(nv, "big")
        shape_of = list(map(add, shape_of, map((1 << d).__mul__, digit))) if d else list(digit)

    def orbit_masks(path: tuple[int, ...], cand: int) -> dict[int, int]:
        members = _members(cand, nv)
        sids = map(shape_of.__getitem__, members)
        if not path:
            parts = [cls & cand for cls in shapes]
            return dict(zip(members, map(parts.__getitem__, sids)))
        classes: dict[tuple[int, ...], list[int]] = {}
        for c, profile in enumerate(zip(*map(vectors.__getitem__, path))):
            if any(profile):
                classes.setdefault(profile, []).append(c)
        chosen = list(map(vectors.__getitem__, members))
        keys: list[Iterable] = [sids]
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
