"""Exact maximum t-intersecting family search and extremal constructions.

The maximum search is an exact branch-and-bound over the canonical multiset
order (a maximum-clique search in the t-intersection graph). An independent
oracle — Bron–Kerbosch over maximal cliques with Tomita pivoting, and no
size bound — is kept alongside for cross-checking at small instance sizes;
it never shares the pruned path's machinery beyond the definition of
intersection itself.
"""

from __future__ import annotations

import sys
from collections import Counter
from dataclasses import dataclass
from functools import partial, reduce
from itertools import combinations, compress, repeat
from math import comb
from operator import add, ge, itemgetter
from typing import Optional

from . import kernels
from .bounds import (
    ak,
    check_compression_range,
    check_domain,
    check_window_domain,
    multiset_bound,
    multiset_bound_proven,
)
from .compression import down_compress, is_stable
from .core import (
    Family,
    Multiset,
    count_multisets,
    first_row,
    is_t_intersecting,
    is_t_kernel,
    multiset_vectors,
)
from .errors import (
    BudgetError,
    CertificationError,
    DimensionError,
    ParameterError,
    PreconditionError,
)

DEFAULT_VERTEX_BUDGET = 4000
DEFAULT_NODE_BUDGET = kernels.DEFAULT_NODE_BUDGET


@dataclass(frozen=True)
class SearchResult:
    """Outcome of one exact maximum search."""

    n: int
    k: int
    t: int
    cap: Optional[int]
    max_size: int
    witness: Family
    method: str
    nodes_explored: int

    def to_dict(self) -> dict:
        return {**vars(self), "witness": self.witness.mult_vectors()}


_BINARY_DIGITS = bytes.maketrans(b"\0\1", b"01")


def _oracle_graph(vectors: list[tuple[int, ...]], t: int) -> list[int]:
    """Open neighbour rows of the t-intersection graph, one row at a time.

    Bit j of row i is set when i != j and the sum over columns c of
    min(v_i[c], v_j[c]) is at least t. Row i takes each nonzero column c
    of v_i and caps it at v_i[c] for every vertex at once: ``caps[a][x]``
    is min(x, a), so picking column c's entries out of ``caps[a]`` gives
    min(a, w_c) for every vertex w. Zero columns add min(0, w_c) = 0 and
    are skipped. The capped columns are added up, each sum is compared with
    t, and the results are read as one string of binary digits. The columns
    are picked last vertex first, so the string's last digit is vertex 0.
    """
    nv = len(vectors)
    if nv < 2:
        return [0] * nv
    top = max(map(max, vectors))
    caps = [tuple(map(min, range(top + 1), repeat(a))) for a in range(top + 1)]
    picks = [itemgetter(*column[::-1]) for column in zip(*vectors)]
    zeros = (0,) * nv
    rows = []
    for i, v in enumerate(vectors):
        capped = [pick(caps[a]) for pick, a in compress(zip(picks, v), v)]
        sums = reduce(partial(map, add), capped) if capped else zeros
        digits = bytes(map(ge, sums, repeat(t))).translate(_BINARY_DIGITS)
        rows.append(int(digits, 2) & ~(1 << i))
    return rows


def _oracle_max_clique(
    vectors: list[tuple[int, ...]], t: int, node_budget: int
) -> tuple[int, list[int], int]:
    """Largest maximal clique, by Bron–Kerbosch with Tomita pivoting.

    Every maximal t-intersecting subfamily is reported once and the first
    largest one wins; no size bound prunes anything. The graph comes from
    ``_oracle_graph``, which reads the definition and nothing of the
    pruned search.
    """
    nv = len(vectors)
    neighbors = _oracle_graph(vectors, t)
    state = [0, [], 0]  # best_size, best, nodes

    def visit(cur: list[int], cand: int, excl: int) -> None:
        state[2] += 1
        if state[2] > node_budget:
            raise BudgetError(f"oracle exceeded node budget {node_budget}")
        if not cand:
            if not excl and len(cur) > state[0]:
                state[0] = len(cur)
                state[1] = cur.copy()
            return
        # pivot: the first vertex of cand | excl with most neighbours in cand
        pivot_degree = -1
        rest = cand | excl
        while rest:
            low = rest & -rest
            rest ^= low
            u = low.bit_length() - 1
            degree = (cand & neighbors[u]).bit_count()
            if degree > pivot_degree:
                pivot_degree, pivot = degree, u
        branch = cand & ~neighbors[pivot]
        while branch:
            low = branch & -branch
            branch ^= low
            v = low.bit_length() - 1
            cur.append(v)
            visit(cur, cand & neighbors[v], excl & neighbors[v])
            cur.pop()
            cand ^= low
            excl |= low

    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, 2 * nv + 200))
    try:
        visit([], (1 << nv) - 1, 0)
    finally:
        sys.setrecursionlimit(old_limit)
        del visit  # it refers to itself; without this the graph waits for gc
    return state[0], sorted(state[1]), state[2]


def max_t_intersecting(
    n: int,
    k: int,
    t: int,
    cap: Optional[int] = None,
    *,
    budget_vertices: int = DEFAULT_VERTEX_BUDGET,
    budget_nodes: int = DEFAULT_NODE_BUDGET,
    method: str = "pruned",
) -> SearchResult:
    """Exact maximum size of a t-intersecting family of k-multisets of [n].

    Needs 1 <= t <= k and n >= 1. ``method`` selects the engine: "pruned"
    is the branch-and-bound with the greedy-coloring bound. Where
    multiset_bound_proven holds, it stops as soon as it holds a family of
    the proven AK bound's size: the result is the maximum by the theorem,
    but the search itself then shows only max >= bound. "oracle" is the
    independent cross-check, the largest maximal clique by pivoted
    Bron–Kerbosch, searched to the end: it shows max = bound.
    Budgets are hard: exceeding the vertex or node budget raises
    BudgetError rather than degrading.
    """
    check_domain(n, k, t)
    if method not in ("pruned", "oracle"):
        raise ParameterError(f"unknown method {method!r}")
    n_vertices = count_multisets(n, k, cap)
    if n_vertices > budget_vertices:
        raise BudgetError(
            f"instance has {n_vertices} vertices, over the budget "
            f"{budget_vertices}"
        )
    vectors = list(multiset_vectors(n, k, cap))

    if method == "oracle":
        size, indices, nodes = _oracle_max_clique(vectors, t, budget_nodes)
    else:
        stop_at = 0
        if multiset_bound_proven(n, k, t):
            stop_at = multiset_bound(n, k, t)
        size, indices, nodes = kernels.max_t_clique(
            vectors, k, t, node_budget=budget_nodes, stop_at=stop_at
        )
    witness = Family([vectors[idx] for idx in indices], n=n, k=k)
    result = SearchResult(
        n=n,
        k=k,
        t=t,
        cap=cap,
        max_size=size,
        witness=witness,
        method=method,
        nodes_explored=nodes,
    )
    if len(witness) != size or not is_t_intersecting(witness, t):
        raise CertificationError("search produced an inconsistent witness")
    return result


# --------------------------------------------------------------------------
# constructions


def build_kernel_family(n: int, k: int, region: Multiset, r: int) -> Family:
    """All k-multisets F of [n] with |F cap region| >= r.

    Any two members meet inside the region in at least 2r - |region|
    elements, so the family is (2r - |region|)-intersecting by
    construction.

    Only the members are enumerated. Each one splits at w, one past the
    region's last nonzero column: its head, columns 1..w, decides
    |F cap region| >= r by itself, since min(0, b) = 0 beyond w. The heads
    come from the odometer as the (w+1)-vectors of sum k, whose last entry
    is the slack that the tail, columns w+1..n, must hold. Each passing head
    is joined to every tail of its slack, and each slack's tails are
    enumerated once, by the same odometer. So the cost is C(w+k, k) head
    tests plus one tuple concatenation per member, not a test of each of
    the C(n+k-1, k) k-multisets of [n]. A region that reaches column n has
    no tail; its heads are the k-multisets of [n] themselves. Heads and
    tails both come in canonical order, so the members do too.
    """
    if region.n != n:
        raise DimensionError(f"region has n={region.n}, expected {n}")
    if not 0 <= r <= region.k:
        raise ParameterError(f"need 0 <= r <= |region|, got r={r}")
    if region.k > k:
        raise ParameterError(
            f"region cardinality {region.k} exceeds member cardinality {k}"
        )
    w = max((c + 1 for c, a in enumerate(region.mult) if a), default=0)
    front = region.mult[:w]  # map(min, front, head) stops before the slack
    if w == n:
        members = [
            head for head in multiset_vectors(n, k) if sum(map(min, front, head)) >= r
        ]
        return Family(members, n=n, k=k)
    members = []
    tails = {}
    for head in multiset_vectors(w + 1, k):
        if sum(map(min, front, head)) >= r:
            slack = head[w]
            if slack not in tails:
                tails[slack] = list(multiset_vectors(n - w, slack))
            members.extend(map(head[:w].__add__, tails[slack]))
    return Family(members, n=n, k=k)


@dataclass(frozen=True)
class SetFamily:
    """Duplicate-free k-subsets of {1, ..., n_ground}, canonically sorted."""

    n_ground: int
    members: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        seen = set()
        size = None
        for member in self.members:
            if list(member) != sorted(set(member)):
                raise ParameterError(f"member {member!r} is not a sorted set")
            if member and (member[0] < 1 or member[-1] > self.n_ground):
                raise ParameterError(f"member {member!r} leaves the ground set")
            if size is None:
                size = len(member)
            elif len(member) != size:
                raise ParameterError("members have mixed sizes")
            seen.add(member)
        object.__setattr__(self, "members", tuple(sorted(seen)))

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def is_t_intersecting(self, t: int) -> bool:
        """True when every pair of members, a member with itself included,
        shares at least t points: each k-subset goes through the multiset
        pair check as a 0/1 vector, built from its k points. On a large
        family at t = 1 that check is bit-sliced: each member is tested
        against the sets of members that hold its points, not pair by pair."""
        if not self.members:
            return True
        vectors = []
        for member in self.members:
            vec = [0] * self.n_ground
            for x in member:
                vec[x - 1] = 1
            vectors.append(tuple(vec))
        return kernels.all_pairs_at_least(vectors, len(self.members[0]), t)


def build_ak_set_family(n_ground: int, k: int, t: int, i: int) -> SetFamily:
    """A(n_ground, k, t, i) by direct enumeration of k-subsets."""
    check_window_domain(n_ground, k, t, i)
    window = t + 2 * i
    need = t + i
    members = [
        combo
        for combo in combinations(range(1, n_ground + 1), k)
        if sum(1 for x in combo if x <= window) >= need
    ]
    return SetFamily(n_ground, tuple(members))


def build_optimal_multiset_family(n: int, k: int, t: int) -> Family:
    """A t-intersecting family of k-multisets meeting the AK bound.

    Realized as a support threshold: take every k-multiset whose support
    meets the first t + 2*i_star columns in at least t + i_star places,
    where i_star is the maximizing index of the bound; that is the kernel
    family of the 0/1 row over those columns at level t + i_star. It is
    built split after the window of w = t + 2*i_star columns: C(w+k, k)
    heads are tested, and each passing head is joined to its tails, so the
    cost is those tests plus one join per member, not a test of each of the
    C(n+k-1, k) multisets of [n]. Needs 1 <= t <= k and n >= 2k - t, so
    the window fits: t + 2*i_star <= 2k - t as i_star <= k - t. The result
    is certified at runtime — t-intersection is rechecked and the size must
    equal multiset_bound(n, k, t); a CertificationError means the
    realization is wrong at this instance, never that the bound is.
    """
    check_domain(n, k, t)
    check_compression_range(n, k, t, "build_optimal_multiset_family")
    value, i_star = ak(n + k - 1, k, t)
    window = t + 2 * i_star
    need = t + i_star
    row = Multiset((1,) * window + (0,) * (n - window))
    family = build_kernel_family(n, k, row, need)
    if not is_t_intersecting(family, t):
        raise CertificationError(
            f"support-threshold family is not {t}-intersecting at {(n, k, t)}"
        )
    if len(family) != value:
        raise CertificationError(
            f"support-threshold family has size {len(family)}, expected the "
            f"bound {value} at {(n, k, t)}"
        )
    return family


# --------------------------------------------------------------------------
# lifting multiset families to set families


def lift_to_sets(family: Family, t: int) -> SetFamily:
    """Expand a first-row-kernel family into sets on n + k - 1 points.

    Each member contributes its support G (an s-subset of the first n
    points) united with every (k-s)-subset of the k-1 extra points. The
    result is t-intersecting and its size is sum_s |G_s| * C(k-1, k-s),
    which is at least the input size.
    """
    n, k = family.n, family.k
    if not is_t_kernel(family, first_row(n), t):
        raise PreconditionError("the first row is not a t-kernel of the family")
    supports = _supports(family)
    extras = range(n + 1, n + k)
    members = [
        sup + extension
        for sup in supports
        for extension in combinations(extras, k - len(sup))
    ]
    lifted = SetFamily(n + k - 1, tuple(members))
    expected = sum(comb(k - 1, k - len(sup)) for sup in supports)
    if len(lifted) != expected:
        raise CertificationError("lift produced colliding members")
    return lifted


def _supports(family: Family) -> set[tuple[int, ...]]:
    """The distinct member supports, each a sorted tuple of columns."""
    return {tuple(c for c, a in enumerate(v, 1) if a) for v in family.mult_vectors()}


def support_profile(family: Family) -> dict[int, int]:
    """|G_s| per support size s: distinct first-row restrictions."""
    return dict(sorted(Counter(map(len, _supports(family))).items()))


# --------------------------------------------------------------------------
# theorem verification


@dataclass(frozen=True)
class VerifyReport:
    """Search outcome versus the proven bound for one (n, k, t)."""

    n: int
    k: int
    t: int
    max_size: int
    bound: int
    sharp: bool
    witness: Family
    compressed_stable: bool
    method: str
    nodes_explored: int

    def summary(self) -> str:
        tag = "SHARP" if self.sharp else "NOT-SHARP"
        stable = "yes" if self.compressed_stable else "no"
        return (
            f"n={self.n} k={self.k} t={self.t} max={self.max_size} "
            f"bound={self.bound} {tag} stable={stable}"
        )

    def to_dict(self) -> dict:
        """Every field but the witness."""
        return {key: value for key, value in vars(self).items() if key != "witness"}


def verify_theorem(
    n: int,
    k: int,
    t: int,
    *,
    budget_vertices: int = DEFAULT_VERTEX_BUDGET,
    budget_nodes: int = DEFAULT_NODE_BUDGET,
) -> VerifyReport:
    """Compare the exact search maximum against the proven AK bound.

    Requires n >= 2k - t (below that no bound is claimed; run the search
    directly for exploratory data). A non-sharp outcome is reported, not
    patched. The report also notes whether the witness, after
    down-compression, satisfies the exchange-closure stability check.
    """
    check_domain(n, k, t)
    if not multiset_bound_proven(n, k, t):
        raise PreconditionError(
            f"verify_theorem needs n >= 2k - t; got n={n}, k={k}, t={t}"
        )
    result = max_t_intersecting(
        n,
        k,
        t,
        budget_vertices=budget_vertices,
        budget_nodes=budget_nodes,
    )
    bound = multiset_bound(n, k, t)
    compressed = down_compress(result.witness, t)
    return VerifyReport(
        n=n,
        k=k,
        t=t,
        max_size=result.max_size,
        bound=bound,
        sharp=result.max_size == bound,
        witness=result.witness,
        compressed_stable=is_stable(compressed),
        method=result.method,
        nodes_explored=result.nodes_explored,
    )
