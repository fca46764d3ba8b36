"""Per-layer tracing of the folkman package from outside.

``Tracer.install`` wraps the public functions that bound each layer: the
kernel backend through a proxy on ``folkman._kernels.impl``, and the other
layers by patching every module-level binding of a wrapped function (such
as ``search.from_graph6``) and the class attributes of ``Graph`` and
``GraphSet``.  Each wrapper aggregates, per name, the call count, the total
time and the self time (total minus the time of wrapped callees).  Spans
are kept only for a few coarse boundaries, since a workload may make tens
of millions of kernel calls.

Layers, named after the package modules:
  kernels         folkman._kernels.impl (_kernels_py or _kernels_cy)
  graphs          graph construction, relabeling and the graph6 codec
  glue            cliques, generate and the extension enumeration in search
  orchestration   canon dedup and persistence (the pool and the pipeline
                  show up as coarse spans)
"""

from __future__ import annotations

import importlib
import sys
import time
import types

# kernel name -> tally of results (None: count calls only)
KERNELS = {
    "canonical_perm": None,
    "has_clique_within": bool,
    "has_clique_at_least": bool,
    "is_plus_k": bool,
    "max_clique_size_within": None,
    "free_partition": None,
}

# metric prefix, module, attribute, tally name, tally of results
FUNCTIONS = [
    ("graphs.Graph.__init__", "folkman.graphs", "Graph.__init__", None, None),
    ("graphs.Graph.relabel", "folkman.graphs", "Graph.relabel", None, None),
    ("graphs.from_graph6", "folkman.graphs", "from_graph6", None, None),
    ("graphs.adj_to_graph6", "folkman.graphs", "adj_to_graph6", None, None),
    ("cliques.maximal_kt_free_subsets", "folkman.cliques", "maximal_kt_free_subsets", "subsets", len),
    ("search.valid_multisets", "folkman.search", "valid_multisets", "multisets", len),
    ("search.attach_vertices", "folkman.search", "attach_vertices", None, None),
    ("generate.bounded_classes", "folkman.generate", "bounded_classes", "classes", len),
    ("canon.GraphSet.insert", "folkman.canon", "GraphSet.insert", "new_frac", bool),
    ("canon.GraphSet.insert_canonical", "folkman.canon", "GraphSet.insert_canonical", "new_frac", bool),
    ("canon.GraphSet.save", "folkman.canon", "GraphSet.save", None, None),
    ("canon.GraphSet.load_trusted", "folkman.canon", "GraphSet.load_trusted", None, None),
    ("canon.file_digest", "folkman.canon", "file_digest", None, None),
    ("canon.write_manifest", "folkman.canon", "write_manifest", None, None),
]

# Coarse boundaries: these keep spans and the kernel counts made inside.
COARSE = [
    ("search.plus_clique_descent", "folkman.search", "plus_clique_descent"),
    ("search.generate_family", "folkman.search", "generate_family"),
    ("search.generate_family_cone_split", "folkman.search", "generate_family_cone_split"),
    ("generate.maximal_family_exhaustive", "folkman.generate", "maximal_family_exhaustive"),
    ("pipeline.run_pipeline", "folkman.pipeline", "run_pipeline"),
]

DESCENT = "search.plus_clique_descent"


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s, tally]
        self.scoped: dict[str, dict[str, list]] = {}  # coarse -> kernel -> [calls, tally]
        self.roots: dict[str, int] = {}  # coarse -> input graphs seen
        self.spans: list[dict] = []
        self._stack = [[0.0]]  # time spent in wrapped callees, per open call
        self._open_spans: list[int] = []
        self._restore: list = []

    # -- wrapping ----------------------------------------------------------------

    def _wrap(self, name, fn, tally=None):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            inner = [0.0]
            stack.append(inner)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stack[-1][0] += elapsed
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - inner[0]
            if tally is not None:
                stat[3] += tally(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_coarse(self, name, fn):
        timed = self._wrap(name, fn)
        kernel_stats = [(k, self.stats["kernels." + k]) for k in KERNELS]
        scoped = self.scoped.setdefault(name, {k: [0, 0] for k in KERNELS})
        spans = self.spans
        open_spans = self._open_spans
        roots = self.roots

        def coarse(*args, **kwargs):
            before = [(s[0], s[3]) for _, s in kernel_stats]
            span = {
                "name": name,
                "parent": open_spans[-1] if open_spans else None,
                "start": time.perf_counter(),
            }
            spans.append(span)
            open_spans.append(len(spans) - 1)
            try:
                return timed(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                open_spans.pop()
                for (k, s), (calls, tally) in zip(kernel_stats, before):
                    scoped[k][0] += s[0] - calls
                    scoped[k][1] += s[3] - tally
                if name == DESCENT:
                    seeds = args[0] if args else kwargs["maximals"]
                    roots[name] = roots.get(name, 0) + len(seeds)

        coarse.__wrapped__ = fn
        return coarse

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _rebind(self, original, wrapped):
        """Point every folkman module-level name bound to ``original`` at
        ``wrapped``."""
        for modname, mod in list(sys.modules.items()):
            if not (modname == "folkman" or modname.startswith("folkman.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapped)

    def _patch(self, metric, modname, attr, wrap):
        mod = importlib.import_module(modname)
        if "." in attr:
            cls_name, meth = attr.split(".")
            owner = getattr(mod, cls_name)
            raw = owner.__dict__[meth]
            if isinstance(raw, classmethod):
                self._set(owner, meth, classmethod(wrap(metric, raw.__func__)))
            else:
                self._set(owner, meth, wrap(metric, raw))
        else:
            original = getattr(mod, attr)
            self._rebind(original, wrap(metric, original))

    def install(self) -> None:
        """Wrap every traced function.  Callers that reach folkman through
        module attributes at call time (as the workloads do) see the
        wrappers; names bound before this call outside folkman do not."""
        import folkman.pipeline  # noqa: F401  (loads every module that binds a traced name)
        from folkman import _kernels

        real = _kernels.impl
        proxy = types.SimpleNamespace(
            **{k: v for k, v in vars(real).items() if not k.startswith("__")}
        )
        for name, tally in KERNELS.items():
            setattr(proxy, name, self._wrap("kernels." + name, getattr(real, name), tally))
        self._set(_kernels, "impl", proxy)
        for metric, modname, attr, _, tally in FUNCTIONS:
            self._patch(metric, modname, attr, lambda m, f, t=tally: self._wrap(m, f, t))
        for metric, modname, attr in COARSE:
            self._patch(metric, modname, attr, self._wrap_coarse)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- results -----------------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer metrics as {name: (value, unit)}."""
        out = {}
        tallies = {metric: label for metric, _, _, label, _ in FUNCTIONS}
        for name, (calls, _, self_s, tally) in self.stats.items():
            out[name + ".calls"] = (calls, "count")
            out[name + ".self_s"] = (self_s, "s")
            label = tallies.get(name)
            if label == "new_frac":
                out[name + ".new_frac"] = (tally / calls if calls else 0.0, "ratio")
            elif label is not None:
                out[name + "." + label] = (tally, "count")
        out.update(self.descent_counts())
        return out

    def descent_counts(self) -> dict:
        """Exact descent counts, from the kernel calls made inside
        plus_clique_descent: one is_plus_k test per lattice node, one
        has_clique_within independence test per removable edge of a
        plus-clique node, and one canonical_perm per root and per child
        that passes every prune.  Needs an in-process (workers = 1) run."""
        k = self.scoped[DESCENT]
        roots = self.roots.get(DESCENT, 0)
        nodes, plus_nodes = k["is_plus_k"]
        tried, grew = k["has_clique_within"]
        kept = k["canonical_perm"][0] - roots
        return {
            "search.descent.nodes": (nodes, "count"),
            "search.descent.children_tried": (tried, "count"),
            "search.descent.children_kept": (kept, "count"),
            "search.descent.new_frac": ((nodes - roots) / kept if kept else 0.0, "ratio"),
            "search.descent.pruned.plus_clique": (nodes - plus_nodes, "count"),
            "search.descent.pruned.independence": (grew, "count"),
            "search.descent.pruned.arrowing": (tried - grew - kept, "count"),
        }


def wrapper_cost_ns(calls: int = 200_000, repeats: int = 5) -> float:
    """Per-call cost of an empty traced wrapper, in nanoseconds (best of
    ``repeats``, less the cost of the bare call)."""

    def noop():
        return None

    traced = Tracer()._wrap("noop", noop)
    clock = time.perf_counter

    def loop(fn):
        best = float("inf")
        for _ in range(repeats):
            start = clock()
            for _ in range(calls):
                fn()
            best = min(best, clock() - start)
        return best

    return (loop(traced) - loop(noop)) / calls * 1e9
