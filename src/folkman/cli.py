"""Command-line surface.

Exit codes: 0 for success (and true answers), 1 for property-false answers,
2 for usage or input errors.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import bounds
from .arrowing import ArrowVector, arrows, find_free_partition
from .canon import GraphSet, canonical_form, parse_kv
from .cliques import clique_number, independence_number, is_plus_kt
from .graphs import Graph, GraphError, bits_of, from_graph6, graph6_lines
from .pipeline import format_rows, run_pipeline, split_family
from .search import (
    FamilySpec, family_defect, generate_family, generate_family_cone_split, load_family,
    worker_pool,
)


def _graph_arg(text: str) -> Graph:
    if os.path.exists(text):
        for line in graph6_lines(text):
            return from_graph6(line)
        raise GraphError(f"no graph6 line in {text}")
    return from_graph6(text)


def _family_file(path, family=None) -> GraphSet:
    """``search.load_family`` on ``path``; its errors name the file."""
    try:
        return load_family(path, family)
    except GraphError as exc:
        raise GraphError(f"{path}: {exc}") from None


def _vector_arg(text: str) -> ArrowVector:
    return ArrowVector.parse(text)


def _workers_arg(text: str) -> int:
    try:
        workers = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if workers < 1:
        raise argparse.ArgumentTypeError(f"needs at least 1 worker, got {workers}")
    return workers


def cmd_arrows(args) -> int:
    g = _graph_arg(args.graph)
    ok = arrows(g, _vector_arg(args.vector))
    print("true" if ok else "false")
    if not ok and args.witness:
        classes = find_free_partition(g, _vector_arg(args.vector))
        for i, mask in enumerate(classes):
            print(f"class {i + 1}: {{{', '.join(map(str, bits_of(mask)))}}}")
    return 0 if ok else 1


def cmd_omega(args) -> int:
    print(clique_number(_graph_arg(args.graph)))
    return 0


def cmd_alpha(args) -> int:
    print(independence_number(_graph_arg(args.graph)))
    return 0


def cmd_plus_k(args) -> int:
    ok = is_plus_kt(_graph_arg(args.graph), args.t)
    print("true" if ok else "false")
    return 0 if ok else 1


def cmd_canon(args) -> int:
    graphs = _family_file(args.file)
    if args.output is None:
        for line in graphs.lines():
            print(line)
    else:
        graphs.save(args.output)
    return 0


def cmd_extend(args) -> int:
    avec, (q, n, r, t) = split_family(args.spec, "avec; q; n; r; t")
    spec = FamilySpec(avec, q, n, r, t)
    if args.algorithm == 2 and not args.input2:
        print("--algorithm 2 needs --input2", file=sys.stderr)
        return 2
    dec = spec.decremented().entries
    # forked before the inputs are loaded, so the workers stay small
    with worker_pool(args.workers):
        seeds = _family_file(args.input, (dec, q, n - r, t))
        if args.algorithm == 1:
            result = generate_family(spec, seeds, workers=args.workers)
        else:
            cone_seeds = _family_file(args.input2, (dec, q - 1, n - 1, t))
            result = generate_family_cone_split(spec, seeds, cone_seeds, workers=args.workers)
    result.output.save(args.output)
    print(f"maximal graphs: {len(result.output)}")
    print(f"plus-clique graphs descended from the input: {len(result.plus_clique)}")
    return 0


def cmd_pipeline(args) -> int:
    reports, rows = run_pipeline(
        args.config, args.dir, workers=args.workers, fresh=args.fresh
    )
    print(format_rows(rows), end="")
    print(f"reports written under {args.dir}")
    return 0


def cmd_verify_witness(args) -> int:
    g = _graph_arg(args.graph)
    vec = _vector_arg(args.vector)
    defect = family_defect(g.adj, vec.canonical().entries, args.q, g.n)  # t = n: no cap
    if defect:
        print(f"false: graph {defect}")
        return 1
    print(f"true: {g.n}-vertex K_{args.q}-free graph arrowing ({vec})")
    return 0


# -- bound subcommands ---------------------------------------------------------


def cmd_bound_exists(args) -> int:
    ok = bounds.exists_folkman(_vector_arg(args.vector), args.q)
    print("true" if ok else "false")
    return 0 if ok else 1


def cmd_bound_value_at_m(args) -> int:
    vec = _vector_arg(args.vector)
    value, extremal = bounds.folkman_value_at_m(vec)
    print(f"value = {value}")
    print(f"extremal = {canonical_form(extremal)}")
    return 0


def cmd_bound_vectors(args) -> int:
    for entries in bounds.vectors_with_m_p(args.m, args.p):
        print(",".join(map(str, entries)))
    return 0


def cmd_bound_alpha_cap(args) -> int:
    cap = bounds.independence_cap(_vector_arg(args.vector), args.n)
    print("none" if cap is None else cap)
    return 0


def cmd_bound_composite(args) -> int:
    alphas = {}
    for item in args.alpha or []:
        key, _, value = item.partition("=")
        try:
            alphas[int(key)] = int(value)
        except ValueError:
            raise GraphError(f"--alpha needs integers I=V, got {item!r}") from None
    print(bounds.composite_lower_bound(_vector_arg(args.vector), alphas))
    return 0


def cmd_bound_project(args) -> int:
    print(bounds.chain_projection(args.r0, args.base, args.r))
    return 0


def cmd_bound_certify(args) -> int:
    reports = _load_kv_reports(args.reports)
    verdict = bounds.verify_emptiness_certificate(
        _vector_arg(args.vector), args.q, args.n, reports
    )
    print(verdict)
    return 0 if verdict.ok else 1


def _load_kv_reports(path):
    out = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            blocks = fh.read().split("\n\n")
    except UnicodeDecodeError as exc:
        raise GraphError(f"cannot read reports {path}: {exc}") from None
    for block in blocks:
        fields = parse_kv(block)
        if "avec" not in fields or "maximal" not in fields:
            continue
        avec = ArrowVector.parse(fields["avec"]).canonical().entries
        try:
            out.append(
                dict(
                    avec=avec,
                    q=int(fields["q"]),
                    n=int(fields["n"]),
                    r=int(fields.get("r", 2)),
                    t=int(fields["t"]),
                    count=int(fields["maximal"]),
                )
            )
        except (KeyError, ValueError):
            raise GraphError(
                f"{path}: report for ({', '.join(map(str, avec))}) needs "
                "integers q, n, t and maximal (and r, if given)"
            ) from None
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="folkman",
        description="Vertex arrowing checks, maximal K_q-free family "
        "generation, and vertex Folkman number bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("arrows", help="does the graph arrow the target vector?")
    p.add_argument("graph", help="graph6 line or file")
    p.add_argument("vector", help="clique targets, e.g. '2 2 7'")
    p.add_argument("--witness", action="store_true", help="print a free partition")
    p.set_defaults(fn=cmd_arrows)

    p = sub.add_parser("omega", help="clique number")
    p.add_argument("graph")
    p.set_defaults(fn=cmd_omega)

    p = sub.add_parser("alpha", help="independence number")
    p.add_argument("graph")
    p.set_defaults(fn=cmd_alpha)

    p = sub.add_parser("plus-k", help="does every missing edge close a new K_t?")
    p.add_argument("graph")
    p.add_argument("t", type=int)
    p.set_defaults(fn=cmd_plus_k)

    p = sub.add_parser("canon", help="canonicalize a graph6 file (sorted, deduplicated)")
    p.add_argument("file")
    p.add_argument("--output")
    p.set_defaults(fn=cmd_canon)

    p = sub.add_parser("extend", help="run one generation step")
    p.add_argument("--spec", required=True, help="'avec; q; n; r; t'")
    p.add_argument("--input", required=True, help="graph6 file of the input family")
    p.add_argument("--input2", help="graph6 file of the q-1 family (algorithm 2)")
    p.add_argument("--algorithm", type=int, choices=(1, 2), default=1)
    p.add_argument("--output", required=True)
    p.add_argument(
        "--workers",
        type=_workers_arg,
        default=1,
        help="processes that do the work, this one included (default 1)",
    )
    p.set_defaults(fn=cmd_extend)

    p = sub.add_parser("pipeline", help="run a chain config")
    p.add_argument("config")
    p.add_argument("--dir", required=True, help="run/checkpoint directory")
    p.add_argument(
        "--workers",
        type=_workers_arg,
        default=None,
        help="processes that do the work, this one included (default: the config's)",
    )
    p.add_argument("--fresh", action="store_true", help="ignore existing artifacts")
    p.set_defaults(fn=cmd_pipeline)

    p = sub.add_parser(
        "verify-witness", help="membership in the K_q-free arrowing family"
    )
    p.add_argument("graph")
    p.add_argument("vector")
    p.add_argument("q", type=int)
    p.set_defaults(fn=cmd_verify_witness)

    b = sub.add_parser("bound", help="bound calculus")
    bsub = b.add_subparsers(dest="bound_command", required=True)

    p = bsub.add_parser("exists", help="does the K_q-free arrowing family exist?")
    p.add_argument("vector")
    p.add_argument("q", type=int)
    p.set_defaults(fn=cmd_bound_exists)

    p = bsub.add_parser("value-at-m", help="exact value and extremal graph at q = m")
    p.add_argument("vector")
    p.set_defaults(fn=cmd_bound_value_at_m)

    p = bsub.add_parser("vectors", help="canonical vectors with given m and p")
    p.add_argument("m", type=int)
    p.add_argument("p", type=int)
    p.set_defaults(fn=cmd_bound_vectors)

    p = bsub.add_parser("alpha-cap", help="independence cap for q = m - 1 members")
    p.add_argument("vector")
    p.add_argument("n", type=int)
    p.set_defaults(fn=cmd_bound_alpha_cap)

    p = bsub.add_parser("composite", help="composite lower bound at q = p + 1")
    p.add_argument("vector")
    p.add_argument(
        "--alpha",
        action="append",
        metavar="I=V",
        help="independence contribution override, e.g. 6=3 (repeatable)",
    )
    p.set_defaults(fn=cmd_bound_composite)

    p = bsub.add_parser("project", help="two-entry chain projection")
    p.add_argument("--r0", type=int, required=True)
    p.add_argument("--base", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.set_defaults(fn=cmd_bound_project)

    p = bsub.add_parser("certify", help="check an emptiness certificate")
    p.add_argument("vector")
    p.add_argument("q", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--reports", required=True, help="report.kv from a pipeline run")
    p.set_defaults(fn=cmd_bound_certify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (GraphError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
