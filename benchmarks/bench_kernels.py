"""Benchmark: compiled kernels against the pure-Python fallback.

Times the four hot kernels on seeded random graphs, ``canonical_perm`` in
the two regimes the generation runs it in, the graph6 codec (canonical
line, decode, encode), the generation glue
``maximal_kt_free_subsets`` on seeded edge-maximal K_q-free hosts, then a
small end-to-end generation chain under each backend.

Usage:
    python benchmarks/bench_kernels.py [--trials 200] [--sizes 10,13,16]
"""

import argparse
import random
import time

import folkman._kernels as K
from folkman import _kernels_py
from folkman._kernels import available_backends
from folkman.canon import canonical_line
from folkman.cliques import maximal_kt_free_subsets
from folkman.graphs import Graph, from_graph6, to_graph6

CODEC_N = 13
# (n, edge probability): random 8-vertex graphs as in the exhaustive
# small-order generation, near-complete 12-vertex graphs as in the
# plus-clique descents of the q = 9 chain
CANON_REGIMES = ((8, 0.5), (12, 0.87))
GLUE_Q = 8
GLUE_SIZES = (12, 16, 20)


def random_adj(rng, n, p=0.5):
    adj = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return tuple(adj)


def time_call(fn, args_list):
    start = time.perf_counter()
    for args in args_list:
        fn(*args)
    return time.perf_counter() - start


def bench_kernels(backends, sizes, trials):
    rng = random.Random(1234)
    print(f"{'kernel':<22}{'n':>4}" + "".join(f"{name:>14}" for name in backends) + f"{'speedup':>10}")
    cases = {
        "max_clique_size": lambda adj: (adj,),
        "canonical_perm": lambda adj: (adj,),
        "is_plus_k(q=6)": lambda adj: (adj, 6),
        "free_partition(2,3)": lambda adj: (adj, (1, 2)),
    }
    fn_names = {
        "max_clique_size": "max_clique_size",
        "canonical_perm": "canonical_perm",
        "is_plus_k(q=6)": "is_plus_k",
        "free_partition(2,3)": "free_partition",
    }
    for label, make_args in cases.items():
        for n in sizes:
            graphs = [random_adj(rng, n) for _ in range(trials)]
            args_list = [make_args(adj) for adj in graphs]
            times = {}
            for name, mod in backends.items():
                fn = getattr(mod, fn_names[label])
                times[name] = time_call(fn, args_list)
            row = f"{label:<22}{n:>4}"
            for name in backends:
                row += f"{times[name] * 1e6 / trials:>12.1f}us"
            if len(times) == 2:
                a, b = times.values()
                row += f"{a / b:>9.1f}x"
            print(row)


def bench_canon(backends, trials):
    rng = random.Random(1234)
    print()
    print("canonical_perm: random graphs at n = 8 and near-complete graphs "
          "at n = 12, us/graph")
    print(f"{'canon':<22}{'n':>4}" + "".join(f"{name:>14}" for name in backends))
    for n, p in CANON_REGIMES:
        args_list = [(random_adj(rng, n, p),) for _ in range(trials)]
        row = f"{f'canonical_perm(p={p})':<22}{n:>4}"
        for mod in backends.values():
            row += f"{time_call(mod.canonical_perm, args_list) * 1e6 / trials:>12.1f}us"
        print(row)


def bench_codec(backends, trials):
    rng = random.Random(1234)
    graphs = [Graph(CODEC_N, random_adj(rng, CODEC_N)) for _ in range(trials)]
    lines = [to_graph6(g) for g in graphs]
    cases = {
        "canonical_line": (canonical_line, [(g.adj,) for g in graphs]),
        "from_graph6": (from_graph6, [(line,) for line in lines]),
        "to_graph6": (to_graph6, [(g,) for g in graphs]),
    }
    print()
    print(f"codec: graph6 lines of random graphs at n = {CODEC_N}, us/graph")
    print(f"{'codec':<22}{'n':>4}" + "".join(f"{name:>14}" for name in backends))
    for label, (fn, args_list) in cases.items():
        row = f"{label:<22}{CODEC_N:>4}"
        for mod in backends.values():
            K.impl = mod
            row += f"{time_call(fn, args_list) * 1e6 / trials:>12.1f}us"
        print(row)


def edge_maximal_kq_free(rng, n, q):
    """Random edge-maximal K_q-free graph: edges in random order, each kept
    unless its endpoints share a (q-2)-clique."""
    adj = [0] * n
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    for u, v in pairs:
        if not _kernels_py.has_clique_within(adj, adj[u] & adj[v], q - 2):
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    return Graph(n, adj)


def bench_glue(backends, trials):
    rng = random.Random(1234)
    print()
    print(f"glue: maximal K_{GLUE_Q - 1}-free subsets of edge-maximal "
          f"K_{GLUE_Q}-free hosts, us/host")
    print(f"{'glue':<22}{'n':>4}" + "".join(f"{name:>14}" for name in backends))
    label = f"max_kt_free(t={GLUE_Q - 1})"
    for n in GLUE_SIZES:
        hosts = [edge_maximal_kq_free(rng, n, GLUE_Q) for _ in range(trials)]
        args_list = [(h, GLUE_Q - 1) for h in hosts]
        row = f"{label:<22}{n:>4}"
        for mod in backends.values():
            K.impl = mod
            elapsed = time_call(maximal_kt_free_subsets, args_list)
            row += f"{elapsed * 1e6 / trials:>12.1f}us"
        print(row)


def bench_chain(backends):
    from folkman.arrowing import ArrowVector
    from folkman.search import FamilySpec, complete_base, generate_family

    print()
    print("end-to-end: three-step q = 8 chain to H(6; 8; 12)")
    for name, mod in backends.items():
        K.impl = mod
        start = time.perf_counter()
        base = complete_base((3,), 8, 6, 3)
        r4 = generate_family(FamilySpec(ArrowVector((4,)), 8, 8, 2, 3), base)
        r5 = generate_family(FamilySpec(ArrowVector((5,)), 8, 10, 2, 3), r4.output)
        r6 = generate_family(FamilySpec(ArrowVector((6,)), 8, 12, 2, 3), r5.output)
        elapsed = time.perf_counter() - start
        assert (len(r5.output), len(r6.output)) == (3, 12)
        print(f"  {name:<10} {elapsed:8.2f}s")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=200)
    parser.add_argument("--sizes", default="10,13,16")
    args = parser.parse_args()
    sizes = [int(s) for s in args.sizes.split(",")]

    backends = {"python": _kernels_py}
    avail = available_backends()
    if "compiled" in avail:
        backends["compiled"] = avail["compiled"]
    else:
        print("note: compiled backend unavailable; timing the fallback only")

    bench_kernels(backends, sizes, args.trials)
    bench_canon(backends, args.trials)
    bench_codec(backends, args.trials)
    bench_glue(backends, args.trials)
    bench_chain(backends)


if __name__ == "__main__":
    main()
