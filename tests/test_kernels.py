"""Backend agreement: the compiled kernels must match the pure ones exactly."""

import random

import pytest

from multiekr import BudgetError, enumerate_multisets
from multiekr import _kernels_py as pure
from multiekr import kernels
from multiekr.bounds import multiset_bound

try:
    from multiekr import _kernels_c as compiled
except ImportError:
    compiled = None

BACKENDS = [pure] if compiled is None else [pure, compiled]


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


@pytest.mark.parametrize("backend", BACKENDS, ids=lambda b: b.__name__)
class TestBackendContracts:
    def test_intersection_size(self, backend):
        assert backend.intersection_size((3, 1, 2, 0, 0), (2, 2, 0, 1, 1)) == 3
        assert backend.intersection_size((0, 0), (0, 0)) == 0

    def test_budget_error(self, backend):
        vecs = [m.mult for m in enumerate_multisets(3, 2)]
        with pytest.raises(BudgetError):
            backend.max_t_clique(vecs, 2, 1, node_budget=2)

    def test_empty_instance(self, backend):
        assert backend.max_t_clique([], 2, 1) == (0, [], 0)

    def test_stop_at_still_exact(self, backend):
        vecs = [m.mult for m in enumerate_multisets(3, 2)]
        full = backend.max_t_clique(vecs, 2, 1)
        stopped = backend.max_t_clique(vecs, 2, 1, stop_at=full[0])
        assert stopped[0] == full[0]


@pytest.mark.skipif(compiled is None, reason="compiled kernels not built")
class TestBackendAgreement:
    def test_clique_results_identical(self):
        for n, k, t, vecs, _ in _instances(1234, 50):
            a = pure.max_t_clique(vecs, k, t)
            b = compiled.max_t_clique(vecs, k, t)
            assert a == b, (n, k, t)

    def test_pair_predicates_identical(self):
        rng = random.Random(77)
        for n, k, t, vecs, _ in _instances(567, 50):
            sub = [v for v in vecs if rng.random() < 0.5]
            assert pure.all_pairs_at_least(sub, k, t) == compiled.all_pairs_at_least(
                sub, k, t
            )
            region = tuple(rng.randint(0, k) for _ in range(n))
            assert pure.all_pairs_at_least_in_region(
                sub, k, region, t
            ) == compiled.all_pairs_at_least_in_region(sub, k, region, t)
            if sub:
                cand = sub[rng.randrange(len(sub))]
                assert pure.compatible_with_all(
                    cand, sub, k, t
                ) == compiled.compatible_with_all(cand, sub, k, t)

    def test_lower_bound_semantics_identical(self):
        vecs = [m.mult for m in enumerate_multisets(4, 3)]
        for lb in (0, 2, 50):
            assert pure.max_t_clique(vecs, 3, 1, lower_bound=lb) == (
                compiled.max_t_clique(vecs, 3, 1, lower_bound=lb)
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


@pytest.mark.parametrize("backend", BACKENDS, ids=lambda b: b.__name__)
class TestNodeCounts:
    """Pinned branching: a faster graph build must not change the search."""

    @pytest.mark.parametrize(
        "n,k,t,size,nodes", [(7, 5, 3, 31, 79), (8, 6, 4, 43, 218), (10, 5, 3, 55, 55)]
    )
    def test_search_to_bound(self, backend, n, k, t, size, nodes):
        vecs = [m.mult for m in enumerate_multisets(n, k)]
        got, witness, explored = backend.max_t_clique(
            vecs, k, t, stop_at=multiset_bound(n, k, t)
        )
        assert (got, len(witness), explored) == (size, size, nodes)

    @pytest.mark.parametrize(
        "n,k,t,nodes", [(7, 5, 3, 518), (8, 5, 3, 2403), (8, 6, 4, 1994)]
    )
    def test_refutation_at_bound(self, backend, n, k, t, nodes):
        vecs = [m.mult for m in enumerate_multisets(n, k)]
        bound = multiset_bound(n, k, t)
        assert backend.max_t_clique(vecs, k, t, lower_bound=bound) == (bound, [], nodes)


class TestDispatch:
    def test_backend_reported(self):
        assert kernels.backend_name() in ("compiled", "python")

    def test_dispatch_matches_selected_module(self):
        vecs = [m.mult for m in enumerate_multisets(3, 2)]
        assert kernels.max_t_clique(vecs, 2, 1)[0] == 3

    def test_pure_env_override(self, tmp_path):
        import os
        import subprocess
        import sys

        import multiekr

        env = dict(os.environ)
        env["MULTIEKR_PURE"] = "1"
        pkg_root = os.path.dirname(os.path.dirname(multiekr.__file__))
        env["PYTHONPATH"] = pkg_root + os.pathsep + env.get("PYTHONPATH", "")
        code = "import multiekr; print(multiekr.backend_name())"
        out = subprocess.run(
            [sys.executable, "-c", code],
            env=env,
            capture_output=True,
            text=True,
            cwd=str(tmp_path),
        )
        assert out.stdout.strip() == "python"
