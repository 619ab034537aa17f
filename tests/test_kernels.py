"""Kernel tests: the adjacency against its definition, and the two branch
and bounds (pure Python and the C extension) against each other."""

import random

import pytest

from multiekr import BudgetError, enumerate_multisets
from multiekr import _kernels_py as pure
from multiekr import kernels
from multiekr.bounds import multiset_bound

BACKENDS = ["multiekr._kernels_py", "multiekr._clique_c"]


@pytest.fixture
def backend(request, monkeypatch):
    """Run kernels.max_t_clique on one backend's branch and bound."""
    if request.param == "multiekr._kernels_py":
        search = pure.branch_and_bound
    else:
        search = request.getfixturevalue("clique_c").branch_and_bound
    monkeypatch.setattr(kernels, "branch_and_bound", search)
    return search


def _instances(seed, count):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(1, 6)
        k = rng.randint(1, 5)
        t = rng.randint(1, k)
        vecs = [m.mult for m in enumerate_multisets(n, k)]
        if len(vecs) > 130:
            continue
        out.append((n, k, t, vecs, rng.random()))
    return out


@pytest.mark.parametrize("backend", BACKENDS, indirect=True)
class TestBackendContracts:
    def test_budget_error(self, backend):
        vecs = [m.mult for m in enumerate_multisets(3, 2)]
        with pytest.raises(BudgetError):
            kernels.max_t_clique(vecs, 2, 1, node_budget=2)

    def test_empty_instance(self, backend):
        assert kernels.max_t_clique([], 2, 1) == (0, [], 0)
        assert backend([], 5, 0, 3) == (3, [], 1)

    def test_stop_at_still_exact(self, backend):
        vecs = [m.mult for m in enumerate_multisets(3, 2)]
        full = kernels.max_t_clique(vecs, 2, 1)
        stopped = kernels.max_t_clique(vecs, 2, 1, stop_at=full[0])
        assert stopped[0] == full[0]


class TestBackendAgreement:
    def test_clique_results_identical(self, clique_c):
        budget = kernels.DEFAULT_NODE_BUDGET
        for n, k, t, vecs, _ in _instances(1234, 50):
            adj = pure.adjacency_bitsets(vecs, k, t)
            full = pure.branch_and_bound(adj, budget, 0, 0)
            for stop_at in (0, full[0]):
                assert clique_c.branch_and_bound(adj, budget, stop_at, 0) == (
                    pure.branch_and_bound(adj, budget, stop_at, 0)
                ), (n, k, t, stop_at)

    def test_lower_bound_semantics_identical(self, clique_c):
        budget = kernels.DEFAULT_NODE_BUDGET
        vecs = [m.mult for m in enumerate_multisets(4, 3)]
        adj = pure.adjacency_bitsets(vecs, 3, 1)
        for lb in (0, 2, 50):
            assert pure.branch_and_bound(adj, budget, 0, lb) == (
                clique_c.branch_and_bound(adj, budget, 0, lb)
            )


def _shared(a, b):
    """|A cap B| from the definition: the sum of coordinatewise minima."""
    return sum(map(min, a, b))


def _neighbours(sizes, i, t):
    """Bit set of the j != i whose intersection with vertex i is >= t."""
    return sum(1 << j for j, size in enumerate(sizes) if size >= t and j != i)


class TestAdjacency:
    def test_matches_pairwise_definition(self):
        for n in range(1, 8):
            for k in range(1, 6):
                for cap in (None, 1, 2):
                    vecs = [m.mult for m in enumerate_multisets(n, k, cap)]
                    sizes = [[_shared(a, b) for b in vecs] for a in vecs]
                    for t in range(1, k + 1):
                        expected = [_neighbours(row, i, t) for i, row in enumerate(sizes)]
                        assert pure.adjacency_bitsets(vecs, k, t) == expected, (
                            n, k, cap, t,
                        )

    def test_matches_pairwise_definition_at_9_6_3(self):
        # 3003 vertices: a seeded sample of rows keeps the definition cheap
        vecs = [m.mult for m in enumerate_multisets(9, 6)]
        adj = pure.adjacency_bitsets(vecs, 6, 3)
        assert len(adj) == 3003
        for i in random.Random(963).sample(range(len(vecs)), 60):
            sizes = [_shared(vecs[i], other) for other in vecs]
            assert adj[i] == _neighbours(sizes, i, 3), vecs[i]


@pytest.mark.parametrize("backend", BACKENDS, indirect=True)
class TestNodeCounts:
    """Pinned branching: a faster graph build must not change the search."""

    @pytest.mark.parametrize(
        "n,k,t,size,nodes", [(7, 5, 3, 31, 79), (8, 6, 4, 43, 218), (10, 5, 3, 55, 55)]
    )
    def test_search_to_bound(self, backend, n, k, t, size, nodes):
        vecs = [m.mult for m in enumerate_multisets(n, k)]
        got, witness, explored = kernels.max_t_clique(
            vecs, k, t, stop_at=multiset_bound(n, k, t)
        )
        assert (got, len(witness), explored) == (size, size, nodes)

    @pytest.mark.parametrize(
        "n,k,t,nodes", [(7, 5, 3, 518), (8, 5, 3, 2403), (8, 6, 4, 1994)]
    )
    def test_refutation_at_bound(self, backend, n, k, t, nodes):
        vecs = [m.mult for m in enumerate_multisets(n, k)]
        bound = multiset_bound(n, k, t)
        assert kernels.max_t_clique(vecs, k, t, lower_bound=bound) == (bound, [], nodes)


class TestDispatch:
    def test_intersection_size(self):
        assert kernels.intersection_size((3, 1, 2, 0, 0), (2, 2, 0, 1, 1)) == 3
        assert kernels.intersection_size((0, 0), (0, 0)) == 0

    def test_backend_reported(self):
        assert kernels.backend_name() in ("compiled", "python")

    def test_dispatch_matches_selected_module(self):
        vecs = [m.mult for m in enumerate_multisets(3, 2)]
        assert kernels.max_t_clique(vecs, 2, 1)[0] == 3
