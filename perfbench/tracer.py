"""In-memory span tracing of multiekr's public functions.

The tracer wraps each layer's functions at the names their callers look
up (a module attribute such as ``multiekr.search.enumerate_multisets``,
or a method on a class) for the length of one traced round, and restores
the originals afterwards. No program file is edited.

A span is ``[name, start, end, parent, busy]``. ``busy`` is the time the
span's own code was running: end - start for a call, the summed time
inside ``next()`` for a generator, whose consumer runs between yields.
A span's self time is its busy time minus the busy time of its children.
Spans are recorded only while the tracer is active, which the benchmark
switches on around program calls, so every root span lies inside the
measured wall time.
"""

from __future__ import annotations

import functools
from math import comb
from time import perf_counter

NAME, START, END, PARENT, BUSY = range(5)

PAIR_KERNELS = ("all_pairs_at_least", "all_pairs_at_least_in_region", "compatible_with_all")


class Tracer:
    """Spans and counters of one traced round."""

    def __init__(self):
        self.active = False
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # --- recording -----------------------------------------------------

    def _open(self, name: str, push: bool) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, 0.0])
        if push:
            self._stack.append(index)
        return index

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def _call_wrapper(self, name, fn, on_result=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span = tracer.spans[tracer._open(name, push=True)]
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                span[BUSY] = span[END] - span[START]
                tracer._stack.pop()
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return traced

    def _generator_wrapper(self, name, fn, counter):
        tracer = self

        def drain(index, gen):
            span = tracer.spans[index]
            yielded = 0
            try:
                while True:
                    tracer._stack.append(index)
                    started = perf_counter()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        span[BUSY] += perf_counter() - started
                        tracer._stack.pop()
                    yielded += 1
                    yield item
            finally:
                span[END] = perf_counter()
                tracer.count(counter, yielded)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            return drain(tracer._open(name, push=False), fn(*args, **kwargs))

        return traced

    # --- installing ----------------------------------------------------

    def _rebind(self, modules, original, wrapper) -> None:
        """Point every module attribute bound to ``original`` at ``wrapper``."""
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def _rebind_method(self, cls, attr, wrapper) -> None:
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def install(self, program) -> None:
        """Wrap the public functions of every traced layer."""
        mods = program.modules
        core, kernels, search = program.core, program.kernels, program.search
        compression, corpus = program.compression, program.corpus

        def calls(layer, fn, on_result=None):
            name = f"{layer}.{fn.__name__}"
            self._rebind(mods, fn, self._call_wrapper(name, fn, on_result))

        def method(layer, cls, attr, on_result=None):
            fn = cls.__dict__[attr]
            name = f"{layer}.{cls.__name__}.{attr}"
            self._rebind_method(cls, attr, self._call_wrapper(name, fn, on_result))

        def nodes(counter):
            return lambda args, kwargs, result: self.count(counter, result[2])

        def psi_done(args, kwargs, result):
            self.count("compression.psi_calls")
            if result != args[0]:
                self.count("compression.psi_changed")

        def family_done(args, kwargs, result):
            n, k = args[0], args[1]
            self.count("corpus.candidates", comb(n + k - 1, k))
            self.count("corpus.chosen", len(result))

        enumerate_multisets = core.enumerate_multisets
        self._rebind(
            mods,
            enumerate_multisets,
            self._generator_wrapper(
                "core.enumerate_multisets", enumerate_multisets, "core.multisets_yielded"
            ),
        )
        method("core", core.Family, "__init__")
        calls("core", core.is_t_intersecting)
        calls("core", core.is_t_kernel)

        calls("kernels", kernels.max_t_clique, nodes("kernels.nodes"))
        for name in PAIR_KERNELS:
            calls("kernels", getattr(kernels, name))
        # only the pure-Python max_t_clique calls this; the compiled one
        # builds its adjacency internally
        calls("kernels", program.kernels_py.adjacency_bitsets)

        calls("search", search.max_t_intersecting)
        calls("search", search._oracle_max_clique, nodes("search.oracle_nodes"))
        calls("search", search.build_optimal_multiset_family)
        calls("search", search.lift_to_sets)
        method("search", search.SetFamily, "is_t_intersecting")

        calls("compression", compression.down_compress)
        calls("compression", compression.psi, psi_done)
        calls("compression", compression.is_stable)

        calls("corpus", corpus.random_maximal_family, family_done)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # --- deriving layer metrics ----------------------------------------

    def layer_metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer times and counts of the round, plus coverage of wall_s."""
        busy: dict[str, float] = {}
        calls: dict[str, int] = {}
        child_busy = [0.0] * len(self.spans)
        roots = 0.0
        for span in self.spans:
            name = span[NAME]
            busy[name] = busy.get(name, 0.0) + span[BUSY]
            calls[name] = calls.get(name, 0) + 1
            if span[PARENT] < 0:
                roots += span[BUSY]
            else:
                child_busy[span[PARENT]] += span[BUSY]
        search_self = sum(
            span[BUSY] - child_busy[idx]
            for idx, span in enumerate(self.spans)
            if span[NAME] == "search.max_t_intersecting"
        )

        def b(*names):
            return sum(busy.get(name, 0.0) for name in names)

        def c(*names):
            return sum(calls.get(name, 0) for name in names)

        pairs = [f"kernels.{name}" for name in PAIR_KERNELS]
        certify = ("core.is_t_intersecting", "core.is_t_kernel")
        counts = self.counts
        clique_s = b("kernels.max_t_clique")
        psi_calls = counts.get("compression.psi_calls", 0)
        candidates = counts.get("corpus.candidates", 0)
        return {
            "core.enumerate_s": b("core.enumerate_multisets"),
            "core.enumerate_calls": c("core.enumerate_multisets"),
            "core.multisets_yielded": counts.get("core.multisets_yielded", 0),
            "core.family_s": b("core.Family.__init__"),
            "core.certify_s": b(*certify),
            "core.certify_calls": c(*certify),
            "kernels.clique_s": clique_s,
            "kernels.clique_calls": c("kernels.max_t_clique"),
            "kernels.nodes": counts.get("kernels.nodes", 0),
            "kernels.nodes_per_s": (
                counts.get("kernels.nodes", 0) / clique_s if clique_s > 0 else 0.0
            ),
            "kernels.adjacency_s": b("kernels.adjacency_bitsets"),
            "kernels.pairs_s": b(*pairs),
            "kernels.pairs_calls": c(*pairs),
            "search.self_s": search_self,
            "search.build_optimal_s": b("search.build_optimal_multiset_family"),
            "search.oracle_s": b("search._oracle_max_clique"),
            "search.oracle_nodes": counts.get("search.oracle_nodes", 0),
            "search.lift_s": b("search.lift_to_sets", "search.SetFamily.is_t_intersecting"),
            "compression.down_compress_s": b("compression.down_compress"),
            "compression.psi_s": b("compression.psi"),
            "compression.psi_calls": psi_calls,
            "compression.psi_changed": counts.get("compression.psi_changed", 0),
            "compression.psi_useful_ratio": (
                counts.get("compression.psi_changed", 0) / psi_calls if psi_calls else 0.0
            ),
            "compression.is_stable_s": b("compression.is_stable"),
            "corpus.family_s": b("corpus.random_maximal_family"),
            "corpus.candidates": candidates,
            "corpus.accept_ratio": (
                counts.get("corpus.chosen", 0) / candidates if candidates else 0.0
            ),
            "trace.wall_s": wall_s,
            "trace.glue_s": wall_s - roots,
            "trace.coverage": roots / wall_s if wall_s > 0 else 0.0,
            "trace.spans": len(self.spans),
        }

    def dump(self) -> dict:
        """Spans relative to the first one, and the counters, for a JSON file."""
        origin = self.spans[0][START] if self.spans else 0.0
        return {
            "fields": ["name", "start", "end", "parent", "busy"],
            "spans": [
                [s[NAME], s[START] - origin, s[END] - origin, s[PARENT], s[BUSY]]
                for s in self.spans
            ],
            "counts": dict(sorted(self.counts.items())),
        }
