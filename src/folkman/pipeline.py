"""Declarative multi-step pipelines over the generation engine.

A pipeline config is an INI document listing base families and generation
steps; each item's output is persisted under the run directory as a sorted
canonical graph6 file plus a human-readable ``.meta`` manifest, which makes
runs resumable at item granularity and byte-comparable across worker
counts.  Both files are written through a temporary file and renamed into
place.  One rule decides reuse for every artifact (base, step output and
descended plus-clique set): unless the run is fresh, an artifact is reused
when both files exist, every manifest field other than ``seconds`` and
``produced_by`` equals what this run would write (the input digests, and
a file base's ``source_digest`` of its file, included) and the graph6 file
holds exactly ``count`` lines; otherwise it is rebuilt.  A file base whose
path is the artifact an earlier item wrote here only refers to it, fresh
run or not: it takes its counts from that item's manifest when the
manifest names the same family and the file holds ``count`` lines, stops
the run otherwise, and never writes either file.
A base whose path holds a step's output never writes it either: an empty
base refers to an empty output of its family the same way, and any other
case stops the run.

Row summaries mirror the enumeration-table layout: one row per family with
its edge-maximal count, the plus-clique count of the family, and both
restricted to cone-vertex-free graphs.  Reporting convention: a
complete-graph base stands for itself in its row's plus-clique cell (the
literal descended artifact, which at order q-1 also contains the complete
graph minus one edge, is persisted and is what later steps extend).

Config format::

    [pipeline]
    name = example
    workers = 1

    [base:k6]
    # family = avec; q; n; t
    family = 3; 8; 6; 3
    # kind = complete | exhaustive | extremal | file | empty
    kind = complete
    # path = seeds.g6, for kind = file

    [step:s1]
    family = 4; 8; 8; 3
    r = 2
    # algorithm = 2 adds input2 = <name of the q-1 family>
    algorithm = 1
    input = k6

    # counts the plus-clique set of s1's family
    [descend:d1]
    input = s1
"""

from __future__ import annotations

import configparser
import time
from dataclasses import dataclass, field
from pathlib import Path

from .arrowing import ArrowVector
from .bounds import folkman_value_at_m
from .canon import (
    GraphSet,
    atomic_write,
    cone_count,
    file_digest,
    format_kv,
    graph_set_of,
    parse_kv,
    read_manifest,
    write_manifest,
)
from .generate import maximal_family_exhaustive
from .graphs import GraphError
from .search import (
    Family,
    FamilySpec,
    complete_base,
    generate_family,
    generate_family_cone_split,
    load_family,
    plus_clique_descent,
    worker_pool,
)

EXHAUSTIVE_BASE_LIMIT = 10


class ConfigError(GraphError):
    pass


def split_family(text: str, layout: str) -> tuple[tuple[int, ...], list[int]]:
    """The canonical vector entries and the integers of family text laid out
    as ``layout``, e.g. ``'avec; q; n; t'``."""
    parts = [p.strip() for p in text.split(";")]
    if len(parts) != layout.count(";") + 1:
        raise ConfigError(f"family needs {layout!r}, got {text!r}")
    try:
        avec = ArrowVector.parse(parts[0]).canonical().entries
        numbers = [int(p) for p in parts[1:]]
    except (GraphError, ValueError):
        raise ConfigError(f"family needs integers {layout!r}, got {text!r}") from None
    if not avec:
        raise ConfigError(f"empty target vector in {text!r}")
    return avec, numbers


def parse_family(text: str) -> Family:
    avec, (q, n, t) = split_family(text, "avec; q; n; t")
    return Family(avec, q, n, t)


@dataclass
class BaseItem:
    name: str
    family: Family
    kind: str
    path: str | None = None


@dataclass
class StepItem:
    name: str
    family: Family
    r: int
    algorithm: int
    input: str
    input2: str | None = None

    def spec(self) -> FamilySpec:
        fam = self.family
        return FamilySpec(fam.avec, fam.q, fam.n, self.r, fam.t)


@dataclass
class DescendItem:
    name: str
    input: str


@dataclass
class PipelineConfig:
    name: str
    workers: int
    items: list
    config_dir: str = "."
    families: dict = field(default_factory=dict)


@dataclass
class StepReport:
    name: str
    kind: str
    family: Family
    r: int | None = None
    algorithm: int | None = None
    count: int | None = None
    cone_free_count: int | None = None
    plusk_cone_free_count: int | None = None
    plusk_literal_count: int | None = None
    seconds: float = 0.0
    resumed: bool = False
    input_digests: dict = field(default_factory=dict)


# the keys each section kind may hold: nothing would read any other
_KEYS = {
    "pipeline": {"name", "workers"},
    "base": {"family", "kind", "path"},
    "step": {"family", "r", "algorithm", "input", "input2"},
    "descend": {"input"},
}


def parse_config(path) -> PipelineConfig:
    cp = configparser.ConfigParser()
    try:
        with open(path, encoding="utf-8") as fh:
            cp.read_file(fh)
        if cp.defaults():
            raise ConfigError(
                f"config {path}: a [DEFAULT] section would put its keys in every section"
            )
        # every value is interpolated here, so a malformed one fails here
        sections = {section: dict(cp[section]) for section in cp.sections()}
    except (OSError, configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    name = "pipeline"
    workers = 1
    items = []
    for section, body in sections.items():
        kind, _, item_name = section.partition(":")
        for key in body:
            # (a section of unknown kind is rejected below)
            if key not in _KEYS.get(kind, body):
                raise ConfigError(f"section [{section}] has unknown key {key!r}")
        try:
            if section == "pipeline":
                name = body.get("name", name)
                workers = int(body.get("workers", workers))
            elif not item_name:
                raise ConfigError(f"section [{section}] needs a name after ':'")
            elif kind == "base":
                items.append(
                    BaseItem(
                        name=item_name,
                        family=parse_family(body["family"]),
                        kind=body.get("kind", "complete"),
                        path=body.get("path"),
                    )
                )
            elif kind == "step":
                items.append(
                    StepItem(
                        name=item_name,
                        family=parse_family(body["family"]),
                        r=int(body["r"]),
                        algorithm=int(body.get("algorithm", 1)),
                        input=body["input"],
                        input2=body.get("input2"),
                    )
                )
            elif kind == "descend":
                items.append(DescendItem(name=item_name, input=body["input"]))
            else:
                raise ConfigError(f"unknown section kind [{section}]")
        except KeyError as exc:
            raise ConfigError(f"section [{section}] needs {exc.args[0]}") from None
        except ValueError as exc:
            raise ConfigError(f"section [{section}]: {exc}") from None
    cfg = PipelineConfig(
        name=name, workers=workers, items=items, config_dir=str(Path(path).parent)
    )
    validate_config(cfg)
    return cfg


def validate_config(cfg: PipelineConfig) -> None:
    """Reject inconsistent chains before any computation starts; fill ``cfg.families``."""
    problems = []
    families = cfg.families = {}
    for item in cfg.items:
        if item.name in families:
            problems.append(f"duplicate item name {item.name!r}")
        if isinstance(item, BaseItem):
            fam = item.family
            if item.kind not in ("complete", "exhaustive", "extremal", "file", "empty"):
                problems.append(f"{item.name}: unknown base kind {item.kind!r}")
            if item.kind == "complete":
                try:
                    complete_base(*fam)
                except GraphError as exc:
                    problems.append(f"{item.name}: {exc}")
            if item.kind == "exhaustive" and fam.n > EXHAUSTIVE_BASE_LIMIT:
                problems.append(
                    f"{item.name}: exhaustive base capped at "
                    f"{EXHAUSTIVE_BASE_LIMIT} vertices, got n={fam.n}"
                )
            if item.kind == "extremal":
                vec = ArrowVector(fam.avec)
                if fam.q != vec.m or fam.n != vec.m + vec.p:
                    problems.append(
                        f"{item.name}: extremal base needs q = m and n = m + p"
                    )
            if item.kind == "file" and not item.path:
                problems.append(f"{item.name}: file base needs a path")
            families[item.name] = fam
        elif isinstance(item, StepItem):
            fam = item.family
            if item.algorithm not in (1, 2):
                problems.append(f"{item.name}: algorithm must be 1 or 2")
            try:
                spec = item.spec()
            except GraphError as exc:
                problems.append(f"{item.name}: {exc}")
                families[item.name] = fam
                continue
            inputs = [("input", item.input, spec.input_family())]
            if item.algorithm == 2 and item.input2 is not None:
                inputs.append(("input2", item.input2, spec.cone_family()))
            for role, name, want in inputs:
                got, want = families.get(name), want.normalized()
                if got is None:
                    problems.append(f"{item.name}: {role} {name!r} not defined earlier")
                elif got.normalized() != want:
                    problems.append(
                        f"{item.name}: {role} family {got.display()} (t={got.t}) does "
                        f"not chain to {fam.display()} with r={item.r}; expected "
                        f"{want.display()} (t={want.t})"
                    )
            if item.algorithm == 1 and item.input2 is not None:
                problems.append(f"{item.name}: input2 is only used by algorithm 2")
            if item.algorithm == 2 and item.input2 is None:
                problems.append(f"{item.name}: algorithm 2 needs input2")
            families[item.name] = fam
        elif isinstance(item, DescendItem):
            if item.input not in families:
                problems.append(f"{item.name}: input {item.input!r} not defined earlier")
            else:
                families[item.name] = families[item.input]
    if problems:
        raise ConfigError("invalid pipeline config:\n  " + "\n  ".join(problems))


# -- artifacts ----------------------------------------------------------------


# manifest fields a reuse does not compare with this run's values
_UNCOMPARED = ("count", "cone_free_count", "seconds", "produced_by")


def _reusable(meta: dict, fields: dict, path: Path) -> bool:
    """The reuse rule: the manifest has this run's fields, in order, with
    equal values apart from the counts, ``seconds`` and ``produced_by``,
    and the graph6 file holds exactly ``count`` strictly increasing
    lines."""
    if list(meta) != list(fields):
        return False
    if any(meta[k] != str(v) for k, v in fields.items() if k not in _UNCOMPARED):
        return False
    return _holds_count(meta, path)


def _holds_count(meta: dict, path: Path) -> bool:
    """The manifest's counts are numbers and the graph6 file holds exactly
    ``count`` lines, each ended by a newline, none blank, in strictly
    increasing order, as ``GraphSet.save`` writes every artifact: sorted,
    without repeats."""
    if not (meta.get("count", "").isdigit() and meta.get("cone_free_count", "").isdigit()):
        return False
    lines = 0
    last = b"\n"
    with open(path, "rb") as fh:
        for line in fh:
            if not line.endswith(b"\n") or line <= last:
                return False
            last = line
            lines += 1
    return lines == int(meta["count"])


class Runner:
    def __init__(self, cfg: PipelineConfig, out_dir, workers=None, fresh=False):
        self.cfg = cfg
        self.dir = Path(out_dir)
        self.workers = workers if workers is not None else cfg.workers
        self.fresh = fresh
        self.reports: list[StepReport] = []
        # (literal, cone-free) counts of plusk_path(fam, fam.avec) by fam.key()
        self._plusk: dict[str, tuple[int, int]] = {}

    # paths
    def maximal_path(self, fam: Family) -> Path:
        return self.dir / f"maximal_{fam.key()}.g6"

    def plusk_path(self, fam: Family, vector) -> Path:
        suffix = ""
        if tuple(vector) != fam.avec:
            suffix = f"_v{'-'.join(map(str, vector))}"
        return self.dir / f"plusk_{fam.key()}{suffix}.g6"

    def run(self) -> tuple[list[StepReport], list[FamilyRow]]:
        handlers = {
            BaseItem: self._run_base, StepItem: self._run_step, DescendItem: self._run_descend
        }
        # one pool for the whole run, forked before anything is loaded or written
        with worker_pool(self.workers):
            self.dir.mkdir(parents=True, exist_ok=True)
            for item in self.cfg.items:
                started = time.perf_counter()
                report = handlers[type(item)](item)
                report.seconds = time.perf_counter() - started
                self.reports.append(report)
        rows = assemble_rows(self.cfg, self.reports, self._plusk)
        self._write_reports(rows)
        return self.reports, rows

    def _artifact(self, path: Path, fields: dict, build):
        """Reuse the artifact at ``path`` or build, save and describe it.
        ``fields`` is the manifest this run would write, in order, with
        ``count``, ``cone_free_count`` and any ``seconds`` left as None to be
        filled in from the build.  Returns the count, the cone-free count and
        whether it was reused."""
        meta_path = path.with_suffix(".meta")
        if not self.fresh and path.exists() and meta_path.exists():
            meta = read_manifest(meta_path)
            if _reusable(meta, fields, path):
                return int(meta["count"]), int(meta["cone_free_count"]), True
        started = time.perf_counter()
        lines = build().save(path)
        fields["count"] = len(lines)
        fields["cone_free_count"] = sum(not cone_count(line) for line in lines)
        if "seconds" in fields:
            fields["seconds"] = f"{time.perf_counter() - started:.3f}"
        write_manifest(meta_path, fields)
        return fields["count"], fields["cone_free_count"], False

    # -- item handlers ---------------------------------------------------------

    def _run_base(self, item: BaseItem) -> StepReport:
        report = StepReport(item.name, "base", item.family)
        path = self.maximal_path(item.family)
        meta_path = path.with_suffix(".meta")
        # A base on the artifact an earlier item wrote here only refers to
        # it, so that item stays the one writer of both files: a file base
        # to the file it names, an empty base to an empty output of a step
        # of its family.  Any other base on a step's output stops the run.
        held = path.exists() and meta_path.exists()
        meta = read_manifest(meta_path) if held else {}
        src = self._base_file(item) if item.kind == "file" else None
        refers = held and src is not None and src.exists() and src.samefile(path)
        if refers or meta.get("kind") == "step":
            sound = meta.get("family") == str(item.family) and _holds_count(meta, path)
            producer = meta.get("produced_by", "its producer")
            if refers and not sound:
                raise ConfigError(
                    f"base {item.name}: {src} is not what the manifest of {producer} describes"
                )
            if not refers and not (sound and item.kind == "empty" and int(meta["count"]) == 0):
                raise ConfigError(
                    f"base {item.name}: {path} holds the output of step {producer}, "
                    "which this base may not replace"
                )
            report.count = int(meta["count"])
            report.cone_free_count = int(meta["cone_free_count"])
            report.resumed = True
            return report
        fields = dict(
            family=item.family, kind=f"base:{item.kind}",
            produced_by=item.name, count=None, cone_free_count=None, seconds=None,
        )
        if src is not None:
            # a changed source file rebuilds the base and what reads it
            if not src.exists():
                raise ConfigError(f"base {item.name}: file {item.path} not found")
            fields["source_digest"] = file_digest(src)
        report.count, report.cone_free_count, report.resumed = self._artifact(
            path, fields, lambda: self._build_base(item, src)
        )
        return report

    def _base_file(self, item: BaseItem) -> Path:
        """A file base's path, resolved against the run directory, then the
        config directory, then as given."""
        path = Path(item.path)
        if not path.is_absolute():
            for root in (self.dir, Path(self.cfg.config_dir)):
                if (root / item.path).exists():
                    return root / item.path
        return path

    def _build_base(self, item: BaseItem, src: Path | None) -> GraphSet:
        """The base's members; ``src`` is a file base's resolved path."""
        fam = item.family
        if item.kind == "complete":
            return complete_base(*fam)
        if item.kind == "empty":
            return GraphSet()
        if item.kind == "exhaustive":
            return maximal_family_exhaustive(*fam)
        if item.kind == "extremal":
            return graph_set_of([folkman_value_at_m(fam.avec)[1]])
        try:
            return load_family(src, fam)
        except GraphError as exc:
            raise ConfigError(f"base {item.name}: {exc}") from None

    def _ensure_plusk(self, fam: Family, report: StepReport, vector, source_digest) -> bool:
        """Build or reuse the descended plus-clique artifact of a family under
        ``vector`` and record its counts on the report, and under the family
        for its row when ``vector`` is the family's own.  A consuming step
        passes its literal decremented vector, which may be weaker than the
        family's own when the chain leans on single-entry normalization.
        Returns whether the artifact was reused."""
        src, path = self.maximal_path(fam), self.plusk_path(fam, vector)
        fields = dict(
            family=fam, kind="plus-clique", vector=",".join(map(str, vector)),
            count=None, cone_free_count=None, source_digest=source_digest,
        )

        def descend() -> GraphSet:
            seeds = GraphSet.load_trusted(src)
            return plus_clique_descent(seeds, vector, fam.q, fam.t, workers=self.workers)

        report.plusk_literal_count, report.plusk_cone_free_count, resumed = self._artifact(
            path, fields, descend
        )
        if tuple(vector) == fam.avec:
            self._plusk[fam.key()] = report.plusk_literal_count, report.plusk_cone_free_count
        return resumed

    def _run_step(self, item: StepItem) -> StepReport:
        families = self.cfg.families
        fam, in_fam = item.family, families[item.input]
        inputs = [item.input] + ([item.input2] if item.input2 else [])
        digests = {name: file_digest(self.maximal_path(families[name])) for name in inputs}
        report = StepReport(
            item.name, "step", fam, r=item.r, algorithm=item.algorithm, input_digests=digests
        )
        spec = item.spec()
        vector = spec.decremented().entries
        self._ensure_plusk(in_fam, report, vector, digests[item.input])

        def build() -> GraphSet:
            seeds = GraphSet.load_trusted(self.maximal_path(in_fam))
            descended = GraphSet.load_trusted(self.plusk_path(in_fam, vector))
            if item.algorithm == 1:
                return generate_family(
                    spec, seeds, workers=self.workers, descended=descended
                ).output
            cone_seeds = GraphSet.load_trusted(self.maximal_path(families[item.input2]))
            return generate_family_cone_split(
                spec, seeds, cone_seeds, workers=self.workers, descended=descended
            ).output

        fields = dict(
            family=fam, kind="step", produced_by=item.name,
            algorithm=item.algorithm, r=item.r, count=None, cone_free_count=None,
            inputs=",".join(f"{k}:{v}" for k, v in sorted(digests.items())), seconds=None,
        )
        report.count, report.cone_free_count, report.resumed = self._artifact(
            self.maximal_path(fam), fields, build
        )
        return report

    def _run_descend(self, item: DescendItem) -> StepReport:
        fam = self.cfg.families[item.input]
        report = StepReport(item.name, "descend", fam)
        digest = file_digest(self.maximal_path(fam))
        report.resumed = self._ensure_plusk(fam, report, fam.avec, digest)
        return report

    # -- reporting ---------------------------------------------------------------

    def _write_reports(self, rows):
        with atomic_write(self.dir / "report.txt", "utf-8") as fh:
            fh.write(format_rows(rows))
        with atomic_write(self.dir / "report.kv", "utf-8") as fh:
            for rep in self.reports:
                fam = rep.family
                fields = dict(
                    item=rep.name, kind=rep.kind, avec=",".join(map(str, fam.avec)),
                    q=fam.q, n=fam.n, t=fam.t, r=rep.r, algorithm=rep.algorithm,
                    maximal=rep.count, maximal_cone_free=rep.cone_free_count,
                    plus_clique=rep.plusk_literal_count,
                    plus_clique_cone_free=rep.plusk_cone_free_count,
                    seconds=f"{rep.seconds:.3f}", resumed=rep.resumed,
                )
                for key, value in sorted(rep.input_digests.items()):
                    fields[f"input_digest:{key}"] = value
                fh.write(format_kv(fields) + "\n")


def read_step_slices(path) -> list[tuple]:
    """The ``(avec, q, n, r, t, count)`` of each step block of a
    ``report.kv``: a search's count of the H(avec; q; n) members with
    independence number in [r, t].  Bases and descents count no slice of
    their own.  Every block with ``avec`` and ``maximal`` is checked first,
    so a malformed report is an error whatever its blocks' kinds."""
    try:
        with open(path, encoding="utf-8") as fh:
            blocks = fh.read().split("\n\n")
    except UnicodeDecodeError as exc:
        raise GraphError(f"cannot read reports {path}: {exc}") from None
    slices = []
    for block in blocks:
        fields = parse_kv(block)
        if "avec" not in fields or "maximal" not in fields:
            continue
        avec = ArrowVector.parse(fields["avec"]).canonical().entries
        step = fields.get("kind") == "step"
        try:
            q, n, t, count = (int(fields[key]) for key in ("q", "n", "t", "maximal"))
            r = int(fields["r"]) if step or "r" in fields else None
        except (KeyError, ValueError):
            raise GraphError(
                f"{path}: report for ({', '.join(map(str, avec))}) needs "
                "integers q, n, t and maximal (and r, in a step or if given)"
            ) from None
        if step:
            slices.append((avec, q, n, r, t, count))
    return slices


@dataclass
class FamilyRow:
    family: Family
    alpha: str
    maximal: int | None = None
    maximal_cone_free: int | None = None
    plusk: int | None = None
    plusk_cone_free: int | None = None
    seconds: float = 0.0


def assemble_rows(cfg: PipelineConfig, reports, plusk: dict) -> list[FamilyRow]:
    """Merge per-item reports into one table row per family, appendix style:
    a family's maximal counts come from the item that produced it and its
    plus-clique counts, ``plusk[key]``, from its descended artifact under
    its own vector."""
    complete_bases = {
        item.family.key()
        for item in cfg.items
        if isinstance(item, BaseItem) and item.kind == "complete"
    }
    step_r = {item.family.key(): item.r for item in cfg.items if isinstance(item, StepItem)}
    rows: dict[str, FamilyRow] = {}
    for rep in reports:
        key = rep.family.key()
        if key not in rows:
            r = step_r.get(key)
            # r = 2 outputs are the whole <= t family; deeper windows are slices
            alpha = f"= {rep.family.t}" if r == rep.family.t and r > 2 else f"<= {rep.family.t}"
            rows[key] = FamilyRow(family=rep.family, alpha=alpha)
        row = rows[key]
        row.seconds += rep.seconds
        if rep.count is not None:
            row.maximal = rep.count
            row.maximal_cone_free = rep.cone_free_count
    for key, row in rows.items():
        if key in plusk:
            # a complete base stands for itself in its plus-clique cell
            row.plusk, row.plusk_cone_free = (1, 0) if key in complete_bases else plusk[key]
    return list(rows.values())


def format_rows(rows) -> str:
    header = (
        f"{'set':<28}{'alpha':<8}{'maximal':>9}{'no cone':>9}"
        f"{'plus-K':>12}{'no cone':>9}{'seconds':>10}"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row.family.display():<28}{row.alpha:<8}"
            f"{_cell(row.maximal):>9}{_cell(row.maximal_cone_free):>9}"
            f"{_cell(row.plusk):>12}{_cell(row.plusk_cone_free):>9}"
            f"{row.seconds:>10.2f}"
        )
    return "\n".join(lines) + "\n"


def _cell(value) -> str:
    return "-" if value is None else str(value)


def run_pipeline(config_path, out_dir, workers=None, fresh=False):
    cfg = parse_config(config_path)
    return Runner(cfg, out_dir, workers=workers, fresh=fresh).run()
