"""The four benchmark workloads and their output checks.

Each workload pins one kernel backend and one worker count.  ``setup``
loads the inputs (made from the seed), ``run`` is the timed operation and
``check`` compares the output with the recorded reference.  Workloads call
folkman through module attributes at call time, so the tracer's patches
apply to them.  See WORKLOADS.md for why each one exists.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import random
import shutil
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
DATA = HERE / "data"
WORK = HERE / "_work"
REFERENCE = HERE / "reference.json"

MAXIMAL_FILE = DATA / "maximal_h6_8_12_t3.g6"
HOSTS_FILE = DATA / "plusk_h6_8_12_t3.g6"
EXTENSION_TABLE = DATA / "extension_h7_8_14_t3.txt"
PIPELINE_CONFIG = DATA / "chain_q9_small.cfg"

EXTENSION_HOSTS = 600


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def read_lines(path: Path) -> list[str]:
    return [line for line in path.read_text(encoding="ascii").split("\n") if line]


def lines_digest(lines) -> str:
    """sha256 of sorted canonical lines, one per line."""
    return hashlib.sha256("".join(line + "\n" for line in sorted(lines)).encode()).hexdigest()


class Outcome:
    """Output of one timed operation: canonical lines, or the directory of
    a pipeline run.  Digests are taken after the timed region."""

    def __init__(self, lines=None, out_dir=None, **extra):
        self.lines = lines
        self.out_dir = out_dir
        self.extra = extra

    @functools.cached_property
    def artifacts(self) -> dict:
        return artifact_digests(self.out_dir)

    def digest(self) -> str:
        if self.lines is not None:
            return lines_digest(self.lines)
        return hashlib.sha256(json.dumps(self.artifacts, sort_keys=True).encode()).hexdigest()

    def size(self) -> int:
        return len(self.lines if self.lines is not None else self.artifacts)


class Workload:
    name: str
    backend: str  # the kernel backend_name() the workload must run on
    workers = 1

    def setup(self, seed):
        return None

    def cleanup(self, inputs):
        pass


class Descent(Workload):
    """plus_clique_descent over the edge-maximal graphs of H(6; 8; 12),
    independence <= 3.  The seed relabels and reorders the input graphs."""

    name = "descent"
    backend = "compiled"

    def setup(self, seed):
        from folkman import graphs

        rng = random.Random(seed)
        out = []
        for line in read_lines(MAXIMAL_FILE):
            g = graphs.from_graph6(line)
            perm = list(range(g.n))
            rng.shuffle(perm)
            out.append(g.relabel(perm))
        rng.shuffle(out)
        return out

    def run(self, maximals, workers):
        from folkman import arrowing, search

        found = search.plus_clique_descent(maximals, arrowing.ArrowVector.of(6), 8, 3, workers=workers)
        return Outcome(found.lines())

    def check(self, maximals, outcome, ref):
        want = ref["descent"]
        return _check_lines(outcome.lines, want["classes"], want["sha256"])


class Extension(Workload):
    """One generate_family call per sampled H(6; 8; 12) plus-clique host,
    extending it to H(7; 8; 14) with r = 2 and independence <= 3; the
    per-host outputs are merged.  The seed picks the host sample."""

    name = "extension"
    backend = "compiled"

    def setup(self, seed):
        from folkman import graphs

        lines = read_lines(HOSTS_FILE)
        pick = sorted(random.Random(seed).sample(range(len(lines)), EXTENSION_HOSTS))
        return [(lines[i], graphs.from_graph6(lines[i])) for i in pick]

    def run(self, hosts, workers):
        from folkman import arrowing, canon, search

        spec = search.FamilySpec(arrowing.ArrowVector.of(7), 8, 14, 2, 3)
        merged = canon.GraphSet()
        host_ms = []
        clock = time.perf_counter
        for line, g in hosts:
            start = clock()
            one = canon.GraphSet()
            one.insert_canonical(line, g)
            res = search.generate_family(spec, canon.GraphSet(), workers=workers, descended=one)
            host_ms.append((clock() - start) * 1e3)
            merged.update(res.output)
        return Outcome(merged.lines(), host_ms=host_ms)

    def check(self, hosts, outcome, ref):
        table = load_extension_table()
        want = set()
        for line, _ in hosts:
            want.update(table[line])
        return _check_lines(outcome.lines, len(want), lines_digest(want))


class Exhaustive(Workload):
    """maximal_family_exhaustive((3,), 5, 8, 4): the edge-maximal members of
    H(3; 5; 8), independence <= 4, through bounded_classes.  Its input
    has no free parameter, so the seed is unused."""

    name = "exhaustive"
    backend = "python"

    def run(self, _, workers):
        from folkman import generate

        return Outcome(generate.maximal_family_exhaustive((3,), 5, 8, 4).lines())

    def check(self, _, outcome, ref):
        want = ref["exhaustive"]
        return _check_lines(outcome.lines, want["classes"], want["sha256"])


class Pipeline(Workload):
    """run_pipeline on chain_q9_small.cfg into a fresh directory.  Its input
    has no free parameter, so the seed is unused."""

    name = "pipeline"
    backend = "python"
    workers = 2

    def setup(self, seed):
        work = WORK / f"pipeline-{os.getpid()}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        config = work / PIPELINE_CONFIG.name
        shutil.copyfile(PIPELINE_CONFIG, config)
        return work

    def run(self, work, workers):
        from folkman import pipeline

        _, rows = pipeline.run_pipeline(work / PIPELINE_CONFIG.name, work / "out", workers=workers)
        counts = {
            row.family.display(): [row.maximal, row.maximal_cone_free, row.plusk, row.plusk_cone_free]
            for row in rows
        }
        return Outcome(out_dir=work / "out", rows=counts)

    def check(self, work, outcome, ref):
        want = ref["pipeline"]
        errors = []
        for family, counts in want["pinned_rows"].items():
            got = outcome.extra["rows"].get(family)
            if got != counts:
                errors.append(f"row {family}: got {got}, want {counts}")
        artifacts = outcome.artifacts
        if artifacts != want["artifacts"]:
            diff = sorted(set(artifacts.items()) ^ set(want["artifacts"].items()))
            errors.append(f"artifacts differ from the one-worker reference: {diff[:4]}")
        return errors

    def cleanup(self, work):
        shutil.rmtree(work, ignore_errors=True)


def artifact_digests(out_dir: Path) -> dict:
    """sha256 of every artifact of a pipeline run.  Run times are the only
    fields allowed to differ between runs, so ``seconds`` lines and the
    seconds column of report.txt are dropped before hashing."""
    out = {}
    for path in sorted(out_dir.iterdir()):
        data = path.read_bytes()
        if path.suffix != ".g6":
            kept = []
            for line in data.decode("utf-8").split("\n"):
                if line.startswith("seconds ="):
                    continue
                if path.name == "report.txt" and line.startswith("H("):
                    line = line.rsplit(None, 1)[0]
                kept.append(line)
            data = "\n".join(kept).encode("utf-8")
        out[path.name] = hashlib.sha256(data).hexdigest()
    return out


def load_extension_table() -> dict:
    """Recorded per-host extension outputs: host line -> output lines."""
    table = {}
    for row in read_lines(EXTENSION_TABLE):
        host, *outs = row.split(" ")
        table[host] = outs
    return table


def _check_lines(lines, classes, digest):
    errors = []
    if len(lines) != classes:
        errors.append(f"{len(lines)} classes, want {classes}")
    got = lines_digest(lines)
    if got != digest:
        errors.append(f"output sha256 {got}, want {digest}")
    return errors


WORKLOADS = {w.name: w for w in (Descent(), Extension(), Exhaustive(), Pipeline())}
