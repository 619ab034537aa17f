"""Kernel tests: the adjacency against its definition, and the branch and
bound's contracts, pinned node counts and orbit pruning."""

import ast
import gc
import random
from functools import reduce
from itertools import permutations
from operator import or_
from pathlib import Path

import pytest

from multiekr import (
    BudgetError,
    DimensionError,
    ParameterError,
    SetFamily,
    build_optimal_multiset_family,
    lift_to_sets,
    multiset_vectors,
)
from multiekr import kernels
from multiekr.bounds import multiset_bound


class TestBackendContracts:
    def test_budget_error(self):
        vecs = list(multiset_vectors(3, 2))
        with pytest.raises(BudgetError):
            kernels.max_t_clique(vecs, 2, 1, node_budget=2)

    def test_empty_instance(self):
        # the empty list is one root node, and lower_bound seeds it as any other
        assert kernels.max_t_clique([], 2, 1) == (0, [], 1)
        assert kernels.max_t_clique([], 2, 1, lower_bound=3) == (3, [], 1)
        # the root of the empty graph has no candidates; it asks for their
        # partition and returns the seeded incumbent, as without orbits
        assert kernels.branch_and_bound([], 5, 0, 3, lambda path, cand: []) == (3, [], 1)

    def test_stop_at_still_exact(self):
        vecs = list(multiset_vectors(3, 2))
        full = kernels.max_t_clique(vecs, 2, 1)
        stopped = kernels.max_t_clique(vecs, 2, 1, stop_at=full[0])
        assert stopped[0] == full[0]

    def test_search_leaves_no_garbage(self):
        # the graph must be freed on return, not when the collector next runs
        vecs = list(multiset_vectors(7, 5))
        gc.collect()
        gc.disable()
        try:
            kernels.max_t_clique(vecs, 5, 3)
            kernels.max_t_clique(vecs, 5, 3, lower_bound=31)
            with pytest.raises(BudgetError):
                kernels.max_t_clique(vecs, 5, 3, node_budget=3)
            assert gc.collect() == 0
        finally:
            gc.enable()


def _shared(a, b):
    """|A cap B| from the definition: the sum of coordinatewise minima."""
    return sum(map(min, a, b))


def _orbit_sets(key, cand, nv):
    """The partition of ``cand`` by the key, each part OR-ed one vertex bit
    at a time (vertex w at bit nv - 1 - w), in ascending order."""
    sets: dict = {}
    for w in range(nv):
        if cand >> (nv - 1 - w) & 1:
            sets[key(w)] = sets.get(key(w), 0) | 1 << (nv - 1 - w)
    return sorted(sets.values())


def _part_of(parts, w, nv):
    """The part that holds vertex w."""
    return next(p for p in parts if p >> (nv - 1 - w) & 1)


def _profile_key(vecs, path):
    """w's sorted values on each class of columns with one profile along
    ``path``, the all-zero class included, which stands in for the shape:
    the orbit of w under the column permutations that fix the path."""
    classes: dict = {}
    for c in range(len(vecs[0])):
        classes.setdefault(tuple(vecs[v][c] for v in path), []).append(c)
    return lambda w: tuple(tuple(sorted(vecs[w][c] for c in cols)) for cols in classes.values())


def _neighbours(sizes, i, t):
    """Closed row of vertex i: i and every j it t-intersects, j at bit nv - 1 - j."""
    nv = len(sizes)
    return sum(1 << (nv - 1 - j) for j, size in enumerate(sizes) if size >= t or j == i)


class TestAdjacency:
    def test_matches_pairwise_definition(self):
        # every canonical list, 1-multisets included, takes the trie walk;
        # each near miss breaks one check that recognises it, and entries
        # above a byte cannot be parsed as bytes: those are read pair by pair
        cases = [(list(multiset_vectors(n, k, cap)), k, range(1, k + 1), True)
                 for n in range(1, 8) for k in range(1, 6) for cap in (None, 1, 2)]
        vecs = list(multiset_vectors(5, 4))
        # vecs[1] = (0, 0, 0, 1, 3) resized to 3 and to 5, still between its neighbours
        resized = [vecs[:1] + [other] + vecs[2:] for other in ((0, 0, 0, 1, 2), (0, 0, 0, 1, 4))]
        repeated = vecs[:6] + vecs[5:6] + vecs[7:]
        for near_miss in (vecs[:-1], *resized, repeated):
            cases.append((near_miss, 4, range(1, 5), False))
        cases.append((list(multiset_vectors(2, 300)), 300, (1, 256, 299), False))
        for vecs, k, ts, walks in cases:
            levels = kernels._canonical_levels(vecs, k)
            if vecs:
                assert (levels is not None) == walks, (vecs[:3], k)
            sizes = [[_shared(a, b) for b in vecs] for a in vecs]
            for t in ts:
                expected = [_neighbours(row, i, t) for i, row in enumerate(sizes)]
                assert kernels.adjacency_bitsets(vecs, k, t, levels) == expected, (vecs[:3], k, t)

    def test_any_vertex_order(self):
        # out of canonical order, or with mixed sizes, a list has no levels
        # and its rows come pair by pair, for t past both ends of [1, k] too
        rng = random.Random(4)
        mixed = [v for size in range(5) for v in multiset_vectors(4, size)]
        cases = [(list(multiset_vectors(6, 4)), 4), (list(multiset_vectors(5, 4, 2)), 4),
                 (TestOrbitPruning.UNCLOSED, 3), (mixed, 4)]
        for vecs, k in cases:
            for _ in range(3):
                vecs = rng.sample(vecs, len(vecs))
                assert kernels._canonical_levels(vecs, k) is None
                sizes = [[_shared(a, b) for b in vecs] for a in vecs]
                for t in range(0, k + 2):
                    expected = [_neighbours(row, i, t) for i, row in enumerate(sizes)]
                    assert kernels.adjacency_bitsets(vecs, k, t, None) == expected, (vecs[:3], t)

    def test_ragged_list_raises(self):
        # a column that only some vectors have is no zero for the others:
        # padded, the last two share the third column's cell, so the answer
        # is 2, where reading only len(vectors[0]) columns gave 1
        ragged = [(1, 0), (0, 1, 1), (0, 0, 2)]
        walkable = [(0, 2), (1, 1, 0), (2, 0)]  # s = 2, ascending: reaches the levels
        for vecs in (ragged, walkable):
            with pytest.raises(DimensionError):
                kernels.adjacency_bitsets(vecs, 2, 1, None)
            with pytest.raises(DimensionError):
                kernels._column_levels(vecs, 2)
            for lower_bound in (0, 1):
                with pytest.raises(DimensionError):
                    kernels.max_t_clique(vecs, 2, 1, lower_bound=lower_bound)
        padded = [(1, 0, 0), (0, 1, 1), (0, 0, 2)]
        assert kernels.max_t_clique(padded, 2, 1)[0] == 2

    def test_levels_read_once(self, monkeypatch):
        # every search reads the canonical list's levels once, for the rows
        # and, in a refutation, the orbits; the wide 1-multiset lists of the
        # sharpness grid are canonical too, and read once
        reads = []
        column_levels = kernels._column_levels

        def counted(vectors, k):
            reads.append(len(vectors))
            return column_levels(vectors, k)

        monkeypatch.setattr(kernels, "_column_levels", counted)
        vecs = list(multiset_vectors(8, 5))
        bound = multiset_bound(8, 5, 3)
        assert kernels.max_t_clique(vecs, 5, 3, lower_bound=bound) == (bound, [], 27)
        assert reads == [len(vecs)]
        assert kernels.max_t_clique(vecs, 5, 3, stop_at=bound)[0] == bound
        assert reads == [len(vecs)] * 2
        reads.clear()
        wide = list(multiset_vectors(492, 1))
        assert kernels.max_t_clique(wide, 1, 1)[0] == 1
        assert reads == [len(wide)]

    def test_matches_pairwise_definition_at_9_6_3(self):
        # 3003 and 5005 vertices, (10,6,4) the largest frontier point: a
        # seeded sample of rows keeps the definition cheap
        for n, k, t in ((9, 6, 3), (10, 6, 4)):
            vecs = list(multiset_vectors(n, k))
            adj = kernels.adjacency_bitsets(vecs, k, t, kernels._canonical_levels(vecs, k))
            assert len(adj) == len(vecs)
            for i in random.Random(963).sample(range(len(vecs)), 60):
                sizes = [_shared(vecs[i], other) for other in vecs]
                assert adj[i] == _neighbours(sizes, i, t), (n, k, t, vecs[i])


class TestNodeCounts:
    """Pinned branching: a faster graph build must not change the search."""

    @pytest.mark.parametrize(
        "n,k,t,size,nodes",
        [
            (7, 5, 3, 31, 79), (8, 6, 4, 43, 218), (10, 5, 3, 55, 55),
            (9, 6, 4, 49, 206), (10, 6, 4, 55, 55),
        ],
    )
    def test_search_to_bound(self, n, k, t, size, nodes):
        vecs = list(multiset_vectors(n, k))
        got, witness, explored = kernels.max_t_clique(
            vecs, k, t, stop_at=multiset_bound(n, k, t)
        )
        assert (got, len(witness), explored) == (size, size, nodes)

    @pytest.mark.parametrize(
        "n,k,t,nodes", [(7, 5, 3, 518), (8, 5, 3, 2403), (8, 6, 4, 1994)]
    )
    def test_refutation_at_bound(self, n, k, t, nodes):
        # without orbit pruning, as for a list that is not canonical
        vecs = list(multiset_vectors(n, k))
        bound = multiset_bound(n, k, t)
        adj = kernels.adjacency_bitsets(vecs, k, t, kernels._canonical_levels(vecs, k))
        assert kernels.branch_and_bound(adj, kernels.DEFAULT_NODE_BUDGET, 0, bound) == (
            bound, [], nodes,
        )

    @pytest.mark.parametrize(
        "n,k,t,nodes",
        [(7, 5, 3, 10), (8, 5, 3, 27), (8, 6, 4, 22), (10, 5, 3, 22), (9, 6, 4, 34),
         (10, 6, 4, 55)],
    )
    def test_orbit_refutation_at_bound(self, n, k, t, nodes):
        vecs = list(multiset_vectors(n, k))
        bound = multiset_bound(n, k, t)
        assert kernels.max_t_clique(vecs, k, t, lower_bound=bound) == (bound, [], nodes)


class TestOrbitPruning:
    # seven of the ten 3-multisets of [3]: not closed under column permutations
    UNCLOSED = [(0, 0, 3), (0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]

    def test_unclosed_list_is_not_pruned(self):
        size, witness, _ = kernels.max_t_clique(self.UNCLOSED, 3, 2, lower_bound=2)
        assert size == len(witness) == 3
        assert kernels.all_pairs_at_least([self.UNCLOSED[i] for i in witness], 3, 2)

    def test_unguarded_shape_pruning_would_be_wrong(self):
        # why the guard matters: shape orbits on this list lose the answer
        adj = kernels.adjacency_bitsets(self.UNCLOSED, 3, 2, None)

        def shape_masks(path, cand):
            return _orbit_sets(lambda w: tuple(sorted(self.UNCLOSED[w])), cand, len(adj))

        assert kernels.branch_and_bound(adj, 1000, 0, 2, shape_masks)[0] == 2

    def test_closure_check(self):
        # only the canonical list, closed by construction, gets orbits: its
        # recognition is the guard, and rejects every list that is not it
        for n in range(1, 6):
            for k in range(1, 5):
                for cap in (None, 1, 2):
                    vecs = list(multiset_vectors(n, k, cap))
                    if vecs:
                        assert kernels._canonical_levels(vecs, k) is not None, (n, k, cap)
        assert kernels._canonical_levels(self.UNCLOSED, 3) is None
        vecs = list(multiset_vectors(4, 3))
        for i in range(len(vecs)):
            assert kernels._canonical_levels(vecs[:i] + vecs[i + 1:], 3) is None, vecs[i]
        assert kernels._canonical_levels(vecs + vecs[:1], 3) is None
        # the empty list is closed, and has no vertex to map
        assert kernels.column_orbits([], [])((), 0) == []
        # canonical, but an entry above a byte: no levels, so no pruning
        assert kernels._canonical_levels(list(multiset_vectors(2, 300)), 300) is None

    def test_off_canonical_order_is_not_pruned(self):
        # a seeded shuffle is still closed, but is not the canonical list:
        # its refutation takes the plain search, node for node
        vecs = random.Random(53).sample(list(multiset_vectors(5, 3)), 35)
        for t in (1, 2, 3):
            bound = multiset_bound(5, 3, t)
            adj = kernels.adjacency_bitsets(vecs, 3, t, None)
            plain = kernels.branch_and_bound(adj, kernels.DEFAULT_NODE_BUDGET, 0, bound)
            assert plain[:2] == (bound, [])
            assert kernels.max_t_clique(vecs, 3, t, lower_bound=bound) == plain, t

    def test_orbit_ids(self):
        vecs = list(multiset_vectors(4, 3))
        nv = len(vecs)
        bit = {w: 1 << (nv - 1 - i) for i, w in enumerate(vecs)}
        orbits = kernels.column_orbits(vecs, kernels._canonical_levels(vecs, 3))
        root = orbits((), (1 << nv) - 1)
        assert len(root) == 3  # shapes (3), (2,1), (1,1,1)
        assert all((_part_of(root, i, nv) == _part_of(root, j, nv)) == (sorted(a) == sorted(b))
                   for i, a in enumerate(vecs) for j, b in enumerate(vecs))
        v = vecs.index((2, 1, 0, 0))  # its stabiliser swaps the last two columns
        below = orbits((v,), (1 << nv) - 1)
        pair = bit[(0, 0, 1, 2)] | bit[(0, 0, 2, 1)]
        assert pair in below
        assert (_part_of(below, vecs.index((1, 2, 0, 0)), nv)
                != _part_of(below, vecs.index((2, 1, 0, 0)), nv))
        assert len(below) == 13  # (20 vectors + 6 fixed by the swap) / 2
        # fewer candidates: the orbits cut to them
        cand = pair | bit[(0, 1, 2, 0)]
        assert sorted(orbits((v,), cand)) == sorted([pair, bit[(0, 1, 2, 0)]])
        assert sorted(orbits((), cand)) == sorted(p & cand for p in root if p & cand)

    def test_orbit_masks_match_bit_loop(self):
        # the partition against one built by a loop over every vertex bit,
        # vertex v at bit nv - 1 - v: the empty set, {0}, {nv - 1}, everyone;
        # 1, 2, 70, 252 and 3003 vertices, at paths of length 0, 1 and 2
        rng = random.Random(61)
        for n, k in ((1, 1), (2, 1), (5, 4), (6, 5), (9, 6)):
            vecs = list(multiset_vectors(n, k))
            nv = len(vecs)
            orbit_masks = kernels.column_orbits(vecs, kernels._canonical_levels(vecs, k))
            sets = [0, 1 << (nv - 1), 1, (1 << nv) - 1] + [rng.getrandbits(nv) for _ in range(4)]
            for bits in sets:
                for depth in range(min(nv, 2) + 1):
                    path = tuple(rng.sample(range(nv), depth))
                    expected = _orbit_sets(_profile_key(vecs, path), bits, nv)
                    assert sorted(orbit_masks(path, bits)) == expected, (n, k, path, bits)

    def test_many_shape_classes(self):
        # 276 shapes {a, b}, with values up to 22: as many levels per column;
        # the list is closed, not canonical, so its levels are read here
        vecs = [(a, b) for a in range(23) for b in range(23)]
        nv = len(vecs)
        orbit_masks = kernels.column_orbits(vecs, kernels._column_levels(vecs, 255))
        assert len(orbit_masks((), (1 << nv) - 1)) == 276
        for path in ((), (vecs.index((3, 3)),), (vecs.index((3, 4)),)):
            for cand in ((1 << nv) - 1, random.Random(len(path)).getrandbits(nv)):
                expected = _orbit_sets(_profile_key(vecs, path), cand, nv)
                assert sorted(orbit_masks(path, cand)) == expected, path

    @staticmethod
    def _brute_force_mismatches(column_orbits, cases, seed, shuffle=False):
        """Where ``column_orbits``' parts differ from the brute-force orbits.

        At the root with every vertex, and along paths from each vertex v of
        length 1, 2 and 3 (seeded) with every vertex and with seeded random
        candidate sets: the parts must partition the candidates, and two
        candidates must share a part exactly when a column permutation that
        fixes the path maps one to the other. ``shuffle`` puts each list in
        a seeded order first, so it is closed but not ascending; either way
        ``column_orbits`` is given the list's levels as they are read.
        """
        rng = random.Random(seed)
        mismatches = []
        for n, k, cap in cases:
            vecs = list(multiset_vectors(n, k, cap))
            if shuffle:
                rng.shuffle(vecs)
            nv = len(vecs)
            everyone = (1 << nv) - 1
            orbit_masks = column_orbits(vecs, kernels._column_levels(vecs, 255))
            perms = list(permutations(range(n)))
            calls = [((), everyone)]
            for v in range(nv):
                others = [w for w in range(nv) if w != v]
                for depth, tries in ((1, 3), (2, 1), (3, 1)):
                    path = (v, *rng.sample(others, depth - 1))
                    calls.append((path, everyone))
                    calls += [(path, rng.getrandbits(nv)) for _ in range(tries)]
            for path, cand in calls:
                fixing = [p for p in perms
                          if all(tuple(vecs[f][c] for c in p) == vecs[f] for f in path)]
                parts = orbit_masks(path, cand)
                # nonzero, and disjoint exactly when their sum is their union
                assert 0 not in parts, (n, k, cap, path)
                assert sum(parts) == reduce(or_, parts, 0) == cand, (n, k, cap, path)
                chosen = {vecs[w] for w in range(nv) if cand >> (nv - 1 - w) & 1}
                for part in parts:
                    same = [u for u in range(nv) if part >> (nv - 1 - u) & 1]
                    for w in same:
                        orbit = {tuple(vecs[w][c] for c in p) for p in fixing}
                        if {vecs[u] for u in same} != orbit & chosen:
                            mismatches.append((n, k, cap, path, vecs[w]))
        return mismatches

    CASES = [(4, 3, None), (5, 3, None), (4, 4, 2)]

    def test_orbit_ids_match_brute_force(self):
        assert self._brute_force_mismatches(kernels.column_orbits, self.CASES, 27) == []

    def test_orbit_ids_match_brute_force_off_canonical_order(self):
        # the shape classes come from the levels, not from the list's order
        assert self._brute_force_mismatches(
            kernels.column_orbits, [(5, 3, None), (4, 4, 2)], 5, shuffle=True) == []

    def test_brute_force_catches_dropped_singleton_classes(self):
        # the unsound key: classes of one column left out, so along the path
        # the values on its lone columns are no longer kept apart
        def without_singletons(vecs, levels):
            def orbit_masks(path, cand):
                classes: dict = {}
                for c, profile in enumerate(zip(*(vecs[v] for v in path))):
                    if any(profile):
                        classes.setdefault(profile, []).append(c)

                def key(w):
                    return (tuple(sorted(vecs[w])),
                            *(tuple(sorted(vecs[w][c] for c in cols))
                              for cols in classes.values() if len(cols) > 1))

                return _orbit_sets(key, cand, len(vecs))

            return orbit_masks

        assert self._brute_force_mismatches(without_singletons, self.CASES, 27)

    def test_orbit_refutations(self):
        # every enumeration of at most 130 vertices, refuted at max - 1 and
        # at max with orbit pruning; max comes from the plain search, which
        # needs at most 3,571 nodes on every other list and gives up on two
        # dense set systems (20M and 1.7M nodes); the pruned searches' node
        # counts are pinned by their sum
        budget = kernels.DEFAULT_NODE_BUDGET
        refuted, nodes, too_hard = 0, 0, []
        for n in range(1, 10):
            for k in range(1, 7):
                for cap in (None, 1, 2):
                    vecs = list(multiset_vectors(n, k, cap))
                    if not vecs or len(vecs) > 130:
                        continue
                    levels = kernels._canonical_levels(vecs, k)
                    orbits = kernels.column_orbits(vecs, levels)
                    for t in range(1, k + 1):
                        adj = kernels.adjacency_bitsets(vecs, k, t, levels)
                        try:
                            best = kernels.branch_and_bound(adj, 20_000, 0, 0)[0]
                        except BudgetError:
                            too_hard.append((n, k, cap, t))
                            continue
                        for lb in (best - 1, best):
                            if lb <= 0:
                                continue
                            size, witness, used = kernels.branch_and_bound(adj, budget, 0, lb, orbits)
                            assert size == max(best, lb), (n, k, cap, t, lb)
                            assert len(witness) in (0, size)
                            top = len(adj) - 1
                            assert all(adj[a] >> (top - b) & 1 for a in witness for b in witness)
                            refuted += 1
                            nodes += used
        assert too_hard == [(9, 4, 1, 1), (9, 5, 1, 2)]
        assert (refuted, nodes) == (538, 5610)

    def test_orbit_calls(self):
        # each node whose path has fewer than two vertices asks for its own
        # candidates' orbits: the root with every vertex, then each root
        # branch on v with v's depth-1 candidates, in order
        vecs = list(multiset_vectors(8, 6))
        levels = kernels._canonical_levels(vecs, 6)
        adj = kernels.adjacency_bitsets(vecs, 6, 4, levels)
        bound = multiset_bound(8, 6, 4)
        orbits = kernels.column_orbits(vecs, levels)
        calls = []

        def recorded(path, cand):
            calls.append((path, cand))
            return orbits(path, cand)

        assert kernels.branch_and_bound(adj, kernels.DEFAULT_NODE_BUDGET, 0, bound, recorded) == (
            bound, [], 22,
        )
        top = len(adj) - 1
        assert calls[0] == ((), (1 << len(adj)) - 1)
        assert len(calls) == 8
        assert all(len(path) < 2 for path, _ in calls)
        assert len({path for path, _ in calls}) == len(calls)  # one call per root branch
        for (v,), cand in calls[1:]:
            assert cand and not cand & ~adj[v] and not cand >> (top - v) & 1, v

    def test_frontier_refutation(self):
        # the (9,6,3) upper bound: no 3-intersecting family of 190 members
        vecs = list(multiset_vectors(9, 6))
        assert kernels.max_t_clique(vecs, 6, 3, lower_bound=189) == (189, [], 13043)


class TestStaircaseHeight:
    """A multiplicity above k would spill into the next column's cells, and
    a negative one has no cells to hold."""

    def test_clique_search_rejects(self):
        # the two share nothing; unchecked, they came back 1-intersecting.
        # With a -1 read as 0, (2, -1) and (1, 0) came back adjacent; the
        # last list is ascending with sum 1, so it reaches the level read
        for vecs in ([(3, 0, 0), (0, 3, 0)], [(3, 0), (0, 3)], [(2, -1), (1, 0)],
                     [(-1, 2), (0, 1)]):
            for lower_bound in (0, 1):
                with pytest.raises(ParameterError):
                    kernels.max_t_clique(vecs, 2, 1, lower_bound=lower_bound)

    def test_pair_checks_reject(self):
        for a, b in (((3, 0), (0, 3)), ((2, -1), (1, 0))):
            with pytest.raises(ParameterError):
                kernels.all_pairs_at_least([a, b], 2, 1)
            with pytest.raises(ParameterError):
                kernels.compatible_with_all(a, [b], 2, 1)
            with pytest.raises(ParameterError):
                kernels.all_pairs_at_least_in_region([a, b], 2, (1, 1), 1)

    def test_region_sets_the_height(self):
        # the region may be taller than k; the masks are as tall as it
        assert kernels.all_pairs_at_least_in_region([(2, 0), (2, 0)], 2, (3, 0), 2)


def _least_meet(vecs, region=None, start=0):
    """min over pairs i <= j, j >= start, of sum_c min(a_c, b_c, region_c):
    from the definition, the largest t at which the pair predicates hold
    when start is 0, and the pairs of the members from start on otherwise."""
    if region is not None:
        vecs = [tuple(map(min, v, region)) for v in vecs]
    return min(_shared(vecs[i], vecs[j]) for j in range(start, len(vecs)) for i in range(j + 1))


def _near_miss(vecs, k, t):
    """One vector more, at height k: it meets every member in at least t
    cells except the member of least support, which it meets in t - 1."""
    low = min(vecs, key=lambda v: (sum(map(bool, v)), v))
    extra, short = [0 if a else k for a in low], t - 1
    for c, a in enumerate(low):
        extra[c] = min(a, short)
        short -= extra[c]
    return vecs + [tuple(extra)]


@pytest.fixture(params=["chosen", "pairs", "sliced"])
def pair_path(request, monkeypatch):
    """Run the pair predicates on the check their cost picks, or force one;
    the bit-sliced check serves t = 1 only, so at t >= 2 the pairs run."""
    forced = {"pairs": 10**9, "sliced": 0}.get(request.param)
    if forced is not None:
        monkeypatch.setattr(kernels, "SLICED_CELL_COST", forced)
    return request.param


class TestPairPredicates:
    """Both checks against the sum-of-minima definition, at the sizes where
    the bit-sliced check runs: certified optimal families of 165 and 210
    members, their lifts, and a t = 2 family with multiplicities, each at
    every t from 0 to k + 1."""

    FAMILIES = ((20, 3, 1), (9, 4, 1), (9, 5, 2))

    @pytest.fixture(scope="class")
    def cases(self):
        out = []
        for n, k, t in self.FAMILIES:
            fam = build_optimal_multiset_family(n, k, t)
            vecs = fam.mult_vectors()
            lifted = lift_to_sets(fam, t)
            ground = range(1, lifted.n_ground + 1)
            sets = [tuple(int(x in m) for x in ground) for m in lifted.members]
            # zeros and columns taller than k; None is every column at full height
            for members, region in ((vecs, None), (vecs, (k + 1, 0, 1) * n), (sets, None)):
                region = region and region[:len(members[0])]
                least = _least_meet(members, region)
                missed = _near_miss(members, k if members is vecs else 1, t)
                extra = _least_meet(missed, region, start=len(members))
                out += [(members, k, region, least), (missed, k, region, min(least, extra))]
            # each family's own t, and its near miss falls one cell short of it
            assert [case[3] for case in out[-6:-4] + out[-2:]] == [t, t - 1] * 2
        return out

    def test_match_the_definition(self, cases, pair_path):
        for vecs, k, region, least in cases:
            for t in range(0, k + 2):
                if region is None:
                    got = kernels.all_pairs_at_least(vecs, k, t)
                else:
                    got = kernels.all_pairs_at_least_in_region(vecs, k, region, t)
                assert got == (t <= least), (len(vecs), k, region, t, pair_path)

    def test_set_families(self, pair_path):
        for n, k, t in self.FAMILIES:
            lifted = lift_to_sets(build_optimal_multiset_family(n, k, t), t)
            for s in range(k + 2):
                assert lifted.is_t_intersecting(s) == (s <= t), (n, k, t, s)
            # a k-subset disjoint from one member's support meets it in t - 1 = 0
            if t == 1:
                low = min(lifted.members, key=len)
                extra = tuple(x for x in range(1, lifted.n_ground + 1) if x not in low)[:k]
                missed = SetFamily(lifted.n_ground, lifted.members + (extra,))
                least = min(len(set(a) & set(b)) for a in missed for b in missed)
                assert missed.is_t_intersecting(1) == (least >= 1)

    def test_one_column_reaches_t(self, pair_path):
        # the pairs meet only in column 0, three cells deep: a column that
        # reaches t alone counts all of its cells
        vecs = [(3, 0, 0)] + [(3, 1, 0)] * 20 + [(4, 0, 1)] * 20
        assert kernels.all_pairs_at_least(vecs, 4, 3)
        assert not kernels.all_pairs_at_least(vecs, 4, 4)
        assert kernels.all_pairs_at_least_in_region(vecs, 4, (3, 0, 0), 3)
        assert not kernels.all_pairs_at_least_in_region(vecs, 4, (2, 1, 1), 3)

    def test_a_zero_column_of_the_region_holds_nothing(self, pair_path):
        # the first member meets the others only in column 1
        vecs = [(1, 1, 0)] + [(0, 1, 1)] * 20
        assert kernels.all_pairs_at_least_in_region(vecs, 2, (1, 1, 0), 1)
        assert not kernels.all_pairs_at_least_in_region(vecs, 2, (1, 0, 1), 1)

    def test_a_lone_member_is_its_own_pair(self, pair_path):
        # |F cap F| = |F|: for one member the diagonal alone decides
        for t in range(0, 5):
            assert kernels.all_pairs_at_least([(1, 2, 0)], 3, t) == (t <= 3)
            assert kernels.all_pairs_at_least_in_region([(1, 2, 0)], 3, (1, 1, 1), t) == (t <= 2)

    def test_ragged_input_raises(self, pair_path):
        # zero-padded, these read True, False and True
        with pytest.raises(DimensionError):
            kernels.all_pairs_at_least([(1, 1), (1, 1, 0)], 2, 2)
        with pytest.raises(DimensionError):
            kernels.all_pairs_at_least_in_region([(1, 1), (1, 1)], 2, (1,), 2)
        with pytest.raises(DimensionError):
            kernels.compatible_with_all((1, 1), [(1, 1, 0)], 2, 2)
        # a miss against a shorter vector, a miss after a longer one, and
        # ragged members raise too
        with pytest.raises(DimensionError):
            kernels.compatible_with_all((0, 0, 2), [(1, 1)], 2, 1)
        with pytest.raises(DimensionError):
            kernels.compatible_with_all((1, 1), [(1, 1, 0), (0, 0)], 2, 1)
        with pytest.raises(DimensionError):
            kernels.all_pairs_at_least([(1, 1)] * 40 + [(1, 1, 0)], 2, 1)
        with pytest.raises(DimensionError):
            kernels.all_pairs_at_least_in_region([(1, 1)] * 40, 2, (1, 1, 1), 1)


class TestDispatch:
    def test_backend_reported(self):
        assert kernels.backend_name() == "python"

    def test_perfbench_seam(self):
        # perfbench's tracer wraps these names by rebinding the function
        # objects, so the seam module must hold the kernels' own function
        from multiekr import _kernels_py

        assert _kernels_py.adjacency_bitsets is kernels.adjacency_bitsets
        for name in ("max_t_clique", "all_pairs_at_least", "all_pairs_at_least_in_region",
                     "compatible_with_all"):
            assert callable(getattr(kernels, name)), name
        importers = []
        for path in Path(kernels.__file__).parent.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom):
                    names = [node.module or "", *(alias.name for alias in node.names)]
                elif isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                else:
                    continue
                if any(name.split(".")[-1] == "_kernels_py" for name in names):
                    importers.append(path.name)
        assert importers == []
