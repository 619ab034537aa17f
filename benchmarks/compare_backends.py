#!/usr/bin/env python3
"""Benchmark the compiled branch and bound against the pure-Python one.

Times the exact clique search (adjacency build plus branch and bound, as
``kernels.max_t_clique`` runs it) on identical inputs through both
backends and prints a speedup table. The adjacency build and the pair
checks have a single pure-Python implementation, so only the search has
two. The compiled search must agree with the pure one bit for bit (sizes,
witnesses, node counts); this script asserts that while it measures.

Usage: python benchmarks/compare_backends.py [--repeat N]
"""

import argparse
import time

from multiekr import _kernels_py as pure
from multiekr import enumerate_multisets

try:
    from multiekr import _clique_c as compiled
except ImportError:
    compiled = None


CLIQUE_CASES = [
    # (n, k, t, stop_at) — stop_at 0 disables the proven-bound early stop
    (7, 5, 3, 0),
    (6, 4, 2, 0),
    (8, 4, 1, 0),
    (12, 3, 1, 0),
]


def _time(fn, repeat):
    best = None
    value = None
    for _ in range(repeat):
        started = time.perf_counter()
        value = fn()
        elapsed = time.perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
    return best, value


def _row(label, pure_s, comp_s):
    if comp_s is None:
        print(f"{label:<44} {pure_s * 1e3:>10.2f} ms {'n/a':>12}")
    else:
        print(
            f"{label:<44} {pure_s * 1e3:>10.2f} ms {comp_s * 1e3:>9.2f} ms "
            f"{pure_s / comp_s:>7.1f}x"
        )


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()

    if compiled is None:
        print("the compiled search is not built; timing the pure backend only\n")
    print(f"{'case':<44} {'pure':>13} {'compiled':>12} {'speedup':>8}")

    for n, k, t, stop in CLIQUE_CASES:
        vecs = [m.mult for m in enumerate_multisets(n, k)]
        label = f"max clique n={n} k={k} t={t} ({len(vecs)} vertices)"

        def search(backend):
            adj = pure.adjacency_bitsets(vecs, k, t)
            return backend.branch_and_bound(adj, 10**8, stop, 0)

        p_time, p_val = _time(lambda: search(pure), args.repeat)
        c_time = None
        if compiled is not None:
            c_time, c_val = _time(lambda: search(compiled), args.repeat)
            assert p_val == c_val, f"backend mismatch on {label}"
        _row(label, p_time, c_time)


if __name__ == "__main__":
    main()
