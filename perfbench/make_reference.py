"""Regenerate the benchmark's input files and reference.json.

    python3 perfbench/make_reference.py

Runs with the compiled backend (built as for the benchmark) and one
worker.  It computes the H(6; 8; 12) inputs through the q = 8 chain, the
descent, exhaustive and one-worker pipeline references, and the
H(7; 8; 14) extension of every one of the 3104 hosts, so that the
extension reference of any seed's host sample is the union of recorded
per-host outputs.  Counts that tests/test_acceptance.py pins are checked
against the pinned values before anything is written.  Takes about two
minutes on a 2-core x86-64 machine.
"""

from __future__ import annotations

import json
import shutil
import sys

import bench_build
import workloads as W

# Counts pinned by tests/test_acceptance.py.
PINNED = {
    # criterion 1: H(6; 8; 12), independence <= 3: (maximal, plus-clique)
    "h6_8_12": (12, 3104),
    # criterion 3: H(3; 5; 8), independence <= 4, maximal
    "h3_5_8": 7,
    # criterion 2: (maximal, maximal cone-free, plus-clique, plus-clique cone-free)
    "q9_rows": {
        "H(4; 9; 7)": [1, 0, 1, 0],
        "H(5; 9; 9)": [1, 0, 4, 0],
        "H(6; 9; 11)": [3, 0, 45, 0],
        "H(4; 9; 8)": [1, 0, 1, 0],
        "H(5; 9; 10)": [1, 0, 8, 0],
        "H(6; 9; 12)": [3, 0, 85, 1],
    },
}

DEFAULT_SEED = 0


def write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="ascii")


def main() -> int:
    info = bench_build.ensure_built()
    bench_build.use_compiled_build()
    sys.path.insert(0, str(bench_build.SRC))
    import folkman
    from folkman.arrowing import ArrowVector
    from folkman.canon import GraphSet
    from folkman.search import FamilySpec, complete_base, generate_family, plus_clique_descent

    if folkman.backend_name() != "compiled":
        raise SystemExit("compiled backend did not load")
    W.DATA.mkdir(exist_ok=True)

    fam = complete_base((3,), 8, 6, 3)
    for a, n in ((4, 8), (5, 10), (6, 12)):
        fam = generate_family(FamilySpec(ArrowVector.of(a), 8, n, 2, 3), fam).output
    plusk = plus_clique_descent(fam, ArrowVector.of(6), 8, 3)
    if (len(fam), len(plusk)) != PINNED["h6_8_12"]:
        raise SystemExit(f"H(6; 8; 12) gave {len(fam)}/{len(plusk)}, pinned {PINNED['h6_8_12']}")
    write_lines(W.MAXIMAL_FILE, fam.lines())
    write_lines(W.HOSTS_FILE, plusk.lines())

    rows = []
    for line in plusk.lines():
        one = GraphSet()
        one.insert_canonical(line, folkman.from_graph6(line))
        out = generate_family(FamilySpec(ArrowVector.of(7), 8, 14, 2, 3), GraphSet(), descended=one)
        rows.append(" ".join([line] + out.output.lines()))
    write_lines(W.EXTENSION_TABLE, rows)

    exhaustive = W.WORKLOADS["exhaustive"].run(None, 1).lines
    if len(exhaustive) != PINNED["h3_5_8"]:
        raise SystemExit(f"H(3; 5; 8) gave {len(exhaustive)}, pinned {PINNED['h3_5_8']}")

    pipe = W.WORKLOADS["pipeline"]
    work = pipe.setup(DEFAULT_SEED)
    try:
        outcome = pipe.run(work, 1)
        for family, counts in PINNED["q9_rows"].items():
            if outcome.extra["rows"][family] != counts:
                raise SystemExit(f"{family} gave {outcome.extra['rows'][family]}, pinned {counts}")
        artifacts = outcome.artifacts
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ext = W.WORKLOADS["extension"]
    hosts = ext.setup(DEFAULT_SEED)
    table = W.load_extension_table()
    sample = set()
    for line, _ in hosts:
        sample.update(table[line])

    ref = {
        "recorded_with": {"backend": folkman.backend_name(), **info},
        "descent": {
            "classes": len(plusk),
            "sha256": W.lines_digest(plusk.lines()),
            "pinned_by": "tests/test_acceptance.py criterion 1, H(6; 8; 12) plus-clique",
        },
        "extension": {
            "hosts": len(plusk),
            "sample": W.EXTENSION_HOSTS,
            "default_seed": DEFAULT_SEED,
            "default_classes": len(sample),
            "default_sha256": W.lines_digest(sample),
            "per_host_outputs": str(W.EXTENSION_TABLE.relative_to(W.HERE)),
        },
        "exhaustive": {
            "classes": len(exhaustive),
            "sha256": W.lines_digest(exhaustive),
            "pinned_by": "tests/test_acceptance.py criterion 3, H(3; 5; 8) maximal",
        },
        "pipeline": {
            "workers": 1,
            "pinned_rows": PINNED["q9_rows"],
            "pinned_by": "tests/test_acceptance.py criterion 2",
            "artifacts": artifacts,
        },
    }
    W.REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print(f"wrote {W.REFERENCE.relative_to(bench_build.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
