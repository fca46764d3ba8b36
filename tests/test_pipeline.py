import os
import textwrap
from pathlib import Path

import pytest

from folkman import pipeline, search
from folkman.canon import canonical_line, file_digest, format_kv
from folkman.cli import main
from folkman.graphs import Graph, GraphError, from_graph6, to_graph6
from folkman.pipeline import (
    ConfigError,
    Family,
    parse_config,
    parse_family,
    run_pipeline,
)
from tests.conftest import from_edges, remove_edge

TINY_CONFIG = """
[pipeline]
name = tiny-q4
workers = 1

[base:k3]
family = 2; 4; 3; 3
kind = complete

[step:s5]
family = 3; 4; 5; 3
r = 2
algorithm = 1
input = k3

[step:s7]
family = 3; 4; 7; 3
r = 2
algorithm = 1
input = s5

[descend:d7]
input = s7
"""


def write_config(tmp_path, text, name="chain.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_parse_family():
    fam = parse_family("2,2,7; 9; 17; 3")
    assert fam == Family((2, 2, 7), 9, 17, 3)
    assert fam.key() == "a2-2-7_q9_n17_t3"
    assert fam.display() == "H(2, 2, 7; 9; 17)"
    with pytest.raises(ConfigError):
        parse_family("2,2,7; 9; 17")


def test_parse_and_validate_tiny(tmp_path):
    cfg = parse_config(write_config(tmp_path, TINY_CONFIG))
    assert cfg.name == "tiny-q4"
    assert len(cfg.items) == 4


def test_docstring_config_example_parses(tmp_path):
    example = textwrap.dedent(pipeline.__doc__.split("Config format::")[1])
    cfg = parse_config(write_config(tmp_path, example))
    assert [item.name for item in cfg.items] == ["k6", "s1", "d1"]
    assert cfg.items[0].family == Family((3,), 8, 6, 3)


def test_validation_rejects_broken_chain(tmp_path):
    bad = TINY_CONFIG.replace("family = 3; 4; 5; 3", "family = 3; 4; 6; 3")
    with pytest.raises(ConfigError) as err:
        parse_config(write_config(tmp_path, bad))
    assert "does not chain" in str(err.value)


def test_validation_rejects_unknown_input(tmp_path):
    bad = TINY_CONFIG.replace("input = k3", "input = nope")
    with pytest.raises(ConfigError) as err:
        parse_config(write_config(tmp_path, bad))
    assert "not defined earlier" in str(err.value)


def test_validation_rejects_bad_base(tmp_path):
    bad = TINY_CONFIG.replace("family = 2; 4; 3; 3", "family = 2; 4; 5; 3")
    with pytest.raises(ConfigError):
        parse_config(write_config(tmp_path, bad))


def test_validation_rejects_missing_input2(tmp_path):
    bad = TINY_CONFIG.replace("algorithm = 1\ninput = k3", "algorithm = 2\ninput = k3")
    with pytest.raises(ConfigError) as err:
        parse_config(write_config(tmp_path, bad))
    assert "input2" in str(err.value)


def test_validation_rejects_stray_input2(tmp_path):
    bad = TINY_CONFIG.replace(
        "algorithm = 1\ninput = s5", "algorithm = 1\ninput = s5\ninput2 = k3"
    )
    with pytest.raises(ConfigError) as err:
        parse_config(write_config(tmp_path, bad))
    assert "only used by algorithm 2" in str(err.value)


def test_config_rejects_keys_no_section_reads(tmp_path, capsys):
    # misspelled keys once fell back to defaults: a complete base, 1 worker
    for old, new, section, key in [
        ("kind = complete", "knd = exhaustive", "base:k3", "knd"),
        ("workers = 1", "worker = 4", "pipeline", "worker"),
        ("algorithm = 1\ninput = k3", "algorithm = 1\ninput = k3\npath = x.g6", "step:s5", "path"),
        ("input = s7\n", "input = s7\nr = 2\n", "descend:d7", "r"),
    ]:
        cfg_path = write_config(tmp_path, TINY_CONFIG.replace(old, new, 1))
        with pytest.raises(ConfigError) as err:
            parse_config(cfg_path)
        assert f"section [{section}] has unknown key {key!r}" in str(err.value)
        assert main(["pipeline", str(cfg_path), "--dir", str(tmp_path / "run")]) == 2
        assert f"unknown key {key!r}" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_malformed_configs_are_input_errors(tmp_path, capsys):
    # each once crashed the CLI with a traceback and exit 1, read as "false"
    cases = [
        ("duplicate section", TINY_CONFIG + "\n[base:k3]\nfamily = 2; 4; 3; 3\n"),
        ("duplicate key", TINY_CONFIG.replace("kind = complete", "kind = complete\nkind = file")),
        ("no section header", "name = headless\n" + TINY_CONFIG),
        ("line without =", TINY_CONFIG.replace("r = 2", "r 2", 1)),
        ("bare %", TINY_CONFIG.replace("name = tiny-q4", "name = 100%")),
        ("non-UTF-8 byte", "# caf\xe9\n" + TINY_CONFIG),
    ]
    cfg_path = tmp_path / "bad.cfg"
    for what, text in cases:
        cfg_path.write_bytes(text.encode("latin-1"))
        with pytest.raises(ConfigError) as err:
            parse_config(cfg_path)
        assert str(err.value).startswith(f"cannot read config {cfg_path}: "), what
        assert main(["pipeline", str(cfg_path), "--dir", str(tmp_path / "run")]) == 2, what
        assert capsys.readouterr().err.startswith("error: cannot read config"), what
    assert not (tmp_path / "run").exists()


def test_empty_pipeline(tmp_path):
    cfg_path = write_config(tmp_path, "[pipeline]\nname = nothing\n")
    reports, rows = run_pipeline(cfg_path, tmp_path / "run")
    assert reports == [] and rows == []


def test_tiny_pipeline_counts(tmp_path):
    cfg_path = write_config(tmp_path, TINY_CONFIG)
    reports, rows = run_pipeline(cfg_path, tmp_path / "run")
    by_fam = {row.family.display(): row for row in rows}
    assert by_fam["H(3; 4; 5)"].maximal == 2
    assert by_fam["H(3; 4; 7)"].maximal == 5
    assert by_fam["H(3; 4; 7)"].plusk is not None
    assert (tmp_path / "run" / "report.txt").exists()
    assert (tmp_path / "run" / "report.kv").exists()
    # artifacts are sorted canonical graph6 files
    fam_file = tmp_path / "run" / "maximal_a3_q4_n5_t3.g6"
    lines = fam_file.read_text().splitlines()
    assert lines == sorted(lines)
    assert all(from_graph6(line).n == 5 for line in lines)


def _artifact_bytes(run_dir):
    """The bytes of every artifact of a run, less the run times."""
    return {
        path.name: b"".join(
            line
            for line in path.read_bytes().splitlines(keepends=True)
            if not line.startswith(b"seconds =")
        )
        for path in sorted(run_dir.iterdir())
        if path.suffix in (".g6", ".meta")
    }


def test_one_pool_per_run_and_identical_artifacts_for_any_worker_count(
    tmp_path, monkeypatch
):
    made = []

    class CountedPool(search._Pool):
        def __init__(self, workers):
            made.append(workers)
            super().__init__(workers)

    monkeypatch.setattr(search, "_Pool", CountedPool)
    cfg_path = write_config(tmp_path, TINY_CONFIG)
    artifacts = {}
    # the caller is one of the workers, so a pool forks one process fewer
    for workers, pools in ((1, [0]), (2, [1]), (3, [2])):
        made.clear()
        run_dir = tmp_path / f"run{workers}"
        run_pipeline(cfg_path, run_dir, workers=workers)
        # every descent and extension of the run shares one pool
        assert made == pools, workers
        artifacts[workers] = _artifact_bytes(run_dir)
    assert len(artifacts[1]) == 12
    assert artifacts[1] == artifacts[2] == artifacts[3]
    # a count below 1, given or from the config, forks nothing and writes
    # nothing: worker_pool rejects it before the run makes its directory
    made.clear()
    zero = write_config(tmp_path, TINY_CONFIG.replace("workers = 1", "workers = 0"), "zero.cfg")
    for path, workers in ((cfg_path, 0), (cfg_path, -1), (zero, None)):
        with pytest.raises(GraphError, match="at least 1 worker"):
            run_pipeline(path, tmp_path / "run0", workers=workers)
    assert made == []
    assert not (tmp_path / "run0").exists()


def test_resume_reuses_artifacts(tmp_path):
    cfg_path = write_config(tmp_path, TINY_CONFIG)
    run_dir = tmp_path / "run"
    first, _ = run_pipeline(cfg_path, run_dir)
    assert not any(r.resumed for r in first)
    second, rows = run_pipeline(cfg_path, run_dir)
    assert all(r.resumed for r in second if r.kind == "step")
    by_fam = {row.family.display(): row for row in rows}
    assert by_fam["H(3; 4; 7)"].maximal == 5


def test_resume_after_partial_run(tmp_path):
    cfg_path = write_config(tmp_path, TINY_CONFIG)
    run_dir = tmp_path / "run"
    run_pipeline(cfg_path, run_dir)
    # drop the last outputs; the rerun redoes only what is missing
    (run_dir / "maximal_a3_q4_n7_t3.g6").unlink()
    (run_dir / "maximal_a3_q4_n7_t3.meta").unlink()
    reports, rows = run_pipeline(cfg_path, run_dir)
    by_name = {r.name: r for r in reports}
    assert by_name["s5"].resumed
    assert not by_name["s7"].resumed
    assert {row.family.display(): row.maximal for row in rows}["H(3; 4; 7)"] == 5


def test_truncated_artifact_is_rebuilt(tmp_path):
    cfg_path = write_config(tmp_path, TINY_CONFIG)
    run_dir = tmp_path / "run"
    first, _ = run_pipeline(cfg_path, run_dir)
    # a .g6 one line short of its intact manifest's count is not reused
    out = run_dir / "maximal_a3_q4_n7_t3.g6"
    full = out.read_text()
    out.write_text("".join(full.splitlines(keepends=True)[:-1]))
    reports, rows = run_pipeline(cfg_path, run_dir)
    by_name = {r.name: r for r in reports}
    assert by_name["s5"].resumed
    assert not by_name["s7"].resumed
    before = {r.name: r for r in first}["s7"]
    assert (by_name["s7"].count, by_name["s7"].cone_free_count) == (
        before.count,
        before.cone_free_count,
    )
    assert before.count == 5
    assert out.read_text() == full
    assert {row.family.display(): row.maximal for row in rows}["H(3; 4; 7)"] == 5


def test_step_resumes_when_its_descent_is_rebuilt(tmp_path):
    cfg_path = write_config(tmp_path, TINY_CONFIG)
    run_dir = tmp_path / "run"
    first, _ = run_pipeline(cfg_path, run_dir)
    plusk = run_dir / "plusk_a2_q4_n3_t3.g6"
    descended = plusk.read_text()
    plusk.unlink()
    reports, _ = run_pipeline(cfg_path, run_dir)
    by_name = {r.name: r for r in reports}
    # the descent is redone, the step's own artifact is still reused
    assert plusk.read_text() == descended
    assert by_name["s5"].resumed and by_name["s7"].resumed
    before = {r.name: r for r in first}["s5"]
    assert by_name["s5"].plusk_literal_count == before.plusk_literal_count
    assert by_name["s5"].count == before.count


def test_weaker_decremented_vector_gets_its_own_artifact(tmp_path):
    # K_3 is the complete base of H(3; 4; 3) by normalization, but the step
    # descends it under its literal decremented vector (2)
    cfg = """
[base:k3]
family = 3; 4; 3; 3
kind = complete

[step:s5]
family = 3; 4; 5; 3
r = 2
algorithm = 1
input = k3
"""
    cfg_path = write_config(tmp_path, cfg)
    run_dir = tmp_path / "run"
    first, rows = run_pipeline(cfg_path, run_dir)
    assert (run_dir / "plusk_a3_q4_n3_t3_v2.g6").exists()
    assert not (run_dir / "plusk_a3_q4_n3_t3.g6").exists()
    built = os.stat(run_dir / "plusk_a3_q4_n3_t3_v2.meta").st_mtime_ns
    by_fam = {row.family.display(): row for row in rows}
    base = by_fam["H(3; 4; 3)"]
    assert (base.plusk, base.plusk_cone_free) == (None, None)
    base_line = (run_dir / "report.txt").read_text().splitlines()[2]
    assert base_line.startswith("H(3; 4; 3)") and base_line.split()[-3:-1] == ["-", "-"]
    assert by_fam["H(3; 4; 5)"].maximal == 2
    second, rows = run_pipeline(cfg_path, run_dir)
    assert all(r.resumed for r in second)
    assert os.stat(run_dir / "plusk_a3_q4_n3_t3_v2.meta").st_mtime_ns == built
    assert second[1].plusk_literal_count == first[1].plusk_literal_count
    assert {row.family.display(): row.plusk for row in rows}["H(3; 4; 3)"] is None


def test_renamed_base_resumes(tmp_path):
    run_dir = tmp_path / "run"
    run_pipeline(write_config(tmp_path, TINY_CONFIG), run_dir)
    renamed = TINY_CONFIG.replace("[base:k3]", "[base:k3x]").replace(
        "input = k3\n", "input = k3x\n"
    )
    reports, _ = run_pipeline(write_config(tmp_path, renamed, "renamed.cfg"), run_dir)
    base = reports[0]
    # produced_by names the item but is not part of the reuse rule
    assert base.name == "k3x" and base.resumed and base.count == 1


def test_fresh_ignores_artifacts(tmp_path):
    cfg_path = write_config(tmp_path, TINY_CONFIG)
    run_dir = tmp_path / "run"
    run_pipeline(cfg_path, run_dir)
    reports, _ = run_pipeline(cfg_path, run_dir, fresh=True)
    assert not any(r.resumed for r in reports)


def test_changed_input_invalidates_resume(tmp_path):
    cfg_path = write_config(tmp_path, TINY_CONFIG)
    run_dir = tmp_path / "run"
    run_pipeline(cfg_path, run_dir)
    # swap the base family for a different graph; downstream must recompute
    base_file = run_dir / "maximal_a2_q4_n3_t3.g6"
    base_file.write_text(to_graph6(from_edges(3, [(0, 1), (1, 2)])) + "\n")
    reports, _ = run_pipeline(cfg_path, run_dir)
    by_name = {r.name: r for r in reports}
    assert not by_name["s5"].resumed


def test_file_base_roundtrip(tmp_path):
    seeds = tmp_path / "seeds.g6"
    seeds.write_text(to_graph6(Graph.complete(3)) + "\n")
    cfg = TINY_CONFIG.replace(
        "kind = complete", f"kind = file\npath = {seeds}"
    )
    cfg_path = write_config(tmp_path, cfg)
    _, rows = run_pipeline(cfg_path, tmp_path / "run")
    assert {row.family.display(): row.maximal for row in rows}["H(3; 4; 7)"] == 5


def test_file_base_on_an_earlier_artifact_keeps_it(tmp_path):
    # config B reads step s5's output of config A from the shared run
    # directory; running A, B, A must leave A's artifacts resumable
    config_a = TINY_CONFIG.split("[step:s7]")[0]
    config_b = """
[base:q4-s5]
family = 3; 4; 5; 3
kind = file
path = maximal_a3_q4_n5_t3.g6

[step:s7]
family = 3; 4; 7; 3
r = 2
algorithm = 1
input = q4-s5
"""
    path_a = write_config(tmp_path, config_a, "a.cfg")
    path_b = write_config(tmp_path, config_b, "b.cfg")
    run_dir = tmp_path / "run"
    first, _ = run_pipeline(path_a, run_dir)
    meta = run_dir / "maximal_a3_q4_n5_t3.meta"
    written = meta.read_bytes()
    reports_b, _ = run_pipeline(path_b, run_dir)
    assert meta.read_bytes() == written
    base = {r.name: r for r in reports_b}["q4-s5"]
    s5 = {r.name: r for r in first}["s5"]
    assert base.resumed
    assert (base.count, base.cone_free_count) == (s5.count, s5.cone_free_count) == (2, 0)
    reports_a, _ = run_pipeline(path_a, run_dir)
    assert all(r.resumed for r in reports_a)
    blocks = (run_dir / "report.kv").read_text().split("\n\n")
    assert "item = s5\n" in blocks[1] and "resumed = True\n" in blocks[1]
    # a fresh run of B still only refers to s5's files, so A still resumes
    s5_files = [run_dir / "maximal_a3_q4_n5_t3.g6", meta]
    s5_bytes = [path.read_bytes() for path in s5_files]
    run_pipeline(path_b, run_dir, fresh=True)
    assert [path.read_bytes() for path in s5_files] == s5_bytes
    reports_a, _ = run_pipeline(path_a, run_dir)
    assert all(r.resumed for r in reports_a)
    # s5's .g6 loses a line: B stops, naming s5, and writes no file
    s5_files[0].write_text(s5_bytes[0].decode().splitlines()[0] + "\n")
    damaged = {path: path.read_bytes() for path in sorted(run_dir.iterdir())}
    assert main(["pipeline", str(path_b), "--dir", str(run_dir)]) == 2
    with pytest.raises(ConfigError) as err:
        run_pipeline(path_b, run_dir, fresh=True)
    assert str(err.value).endswith(" is not what the manifest of s5 describes")
    assert {path: path.read_bytes() for path in sorted(run_dir.iterdir())} == damaged


def test_artifact_with_a_repeated_line_is_not_trusted(tmp_path):
    # s5's two classes DF{, D]{ become D]{ twice: the count still matches
    # its manifest, but no saved artifact repeats or misorders a line, so
    # config B's file base stops on it and writes no file, and config A
    # rebuilds s5
    config_a = TINY_CONFIG.split("[step:s7]")[0]
    config_b = """
[base:q4-s5]
family = 3; 4; 5; 3
kind = file
path = maximal_a3_q4_n5_t3.g6

[step:s7]
family = 3; 4; 7; 3
r = 2
algorithm = 1
input = q4-s5
"""
    path_a = write_config(tmp_path, config_a, "a.cfg")
    path_b = write_config(tmp_path, config_b, "b.cfg")
    run_dir = tmp_path / "run"
    run_pipeline(path_a, run_dir)
    s5 = run_dir / "maximal_a3_q4_n5_t3.g6"
    built = s5.read_text()
    assert built.split() == ["DF{", "D]{"]
    s5.write_text("D]{\nD]{\n")
    damaged = {path: path.read_bytes() for path in sorted(run_dir.iterdir())}
    assert main(["pipeline", str(path_b), "--dir", str(run_dir)]) == 2
    assert {path: path.read_bytes() for path in sorted(run_dir.iterdir())} == damaged
    reports_a, _ = run_pipeline(path_a, run_dir)
    by_name = {r.name: r for r in reports_a}
    assert by_name["k3"].resumed and not by_name["s5"].resumed
    assert s5.read_text() == built
    reports_b, rows = run_pipeline(path_b, run_dir)
    assert {r.name: r for r in reports_b}["q4-s5"].resumed
    assert {row.family.display(): row.maximal for row in rows}["H(3; 4; 7)"] == 5


def test_base_on_a_step_output_keeps_it(tmp_path):
    # a base of step s5's family, run into s5's directory, shares s5's path:
    # it stops the run and writes no file, so the chain still resumes s5
    path_a = write_config(tmp_path, TINY_CONFIG.split("[step:s7]")[0], "a.cfg")
    run_dir = tmp_path / "run"
    run_pipeline(path_a, run_dir)
    s5_files = [run_dir / "maximal_a3_q4_n5_t3.g6", run_dir / "maximal_a3_q4_n5_t3.meta"]
    s5_bytes = [path.read_bytes() for path in s5_files]
    for kind in ("empty", "exhaustive"):
        base = write_config(tmp_path, f"[base:e]\nfamily = 3; 4; 5; 3\nkind = {kind}\n", "e.cfg")
        assert main(["pipeline", str(base), "--dir", str(run_dir)]) == 2
        with pytest.raises(ConfigError) as err:
            run_pipeline(base, run_dir, fresh=True)
        assert str(err.value) == (
            f"base e: {s5_files[0]} holds the output of step s5, "
            "which this base may not replace"
        )
        assert [path.read_bytes() for path in s5_files] == s5_bytes
    reports_a, _ = run_pipeline(path_a, run_dir)
    assert {r.name: r for r in reports_a}["s5"].resumed
    # an empty base refers to an empty step output of its family
    chain = """
[base:nothing]
family = 3; 4; 5; 3
kind = empty

[step:s7]
family = 3; 4; 7; 3
r = 2
algorithm = 1
input = nothing
"""
    path_c = write_config(tmp_path, chain, "c.cfg")
    run_dir = tmp_path / "empty"
    run_pipeline(path_c, run_dir)
    s7_files = [run_dir / "maximal_a3_q4_n7_t3.g6", run_dir / "maximal_a3_q4_n7_t3.meta"]
    s7_bytes = [path.read_bytes() for path in s7_files]
    base = write_config(tmp_path, "[base:e]\nfamily = 3; 4; 7; 3\nkind = empty\n", "e.cfg")
    (report,), _ = run_pipeline(base, run_dir, fresh=True)
    assert report.resumed and (report.count, report.cone_free_count) == (0, 0)
    assert [path.read_bytes() for path in s7_files] == s7_bytes
    reports_c, _ = run_pipeline(path_c, run_dir)
    assert all(r.resumed for r in reports_c)


def test_file_base_rebuilds_when_its_artifact_is_gone(tmp_path):
    # the run directory's .g6 is gone but its manifest is not: the rerun
    # rebuilds it from the source file beside the config
    (tmp_path / "k4.g6").write_text(to_graph6(Graph.complete(4)) + "\n")
    cfg = """
[base:k4]
family = 4; 5; 4; 3
kind = file
path = k4.g6
"""
    cfg_path = write_config(tmp_path, cfg)
    run_dir = tmp_path / "run"
    run_pipeline(cfg_path, run_dir)
    out = run_dir / "maximal_a4_q5_n4_t3.g6"
    built = out.read_text()
    out.unlink()
    (report,), _ = run_pipeline(cfg_path, run_dir)
    assert not report.resumed and report.count == 1
    assert out.read_text() == built


def test_unreadable_manifest_is_rebuilt(tmp_path):
    # a manifest holding a byte that is not UTF-8 is stale, on a built base
    # and on a file base: the rerun rebuilds what a fresh run writes
    (tmp_path / "k4.g6").write_text(to_graph6(Graph.complete(4)) + "\n")
    for i, base in enumerate(("kind = complete", "kind = file\npath = k4.g6")):
        cfg_path = write_config(tmp_path, f"[base:k4]\nfamily = 4; 5; 4; 3\n{base}\n")
        fresh, rerun = tmp_path / f"fresh{i}", tmp_path / f"rerun{i}"
        for run_dir in (fresh, rerun):
            assert main(["pipeline", str(cfg_path), "--dir", str(run_dir)]) == 0
        with open(rerun / "maximal_a4_q5_n4_t3.meta", "ab") as fh:
            fh.write(b"\xff")
        assert main(["pipeline", str(cfg_path), "--dir", str(rerun)]) == 0
        assert _artifact_bytes(rerun) == _artifact_bytes(fresh)


def test_file_base_rejects_non_members(tmp_path):
    # members of H(2; 4; 3) with independence <= 3 are K_4-free, arrow (2),
    # have 3 vertices and, being edge-maximal, gain a K_4 from every added
    # edge
    cases = [
        (Graph.empty(3), "does not arrow (2)"),
        (Graph.complete(4), "has a K_4"),
        (remove_edge(Graph.complete(4), 0, 1), "has 4 vertices, family has 3"),
        (from_edges(3, [(0, 1), (1, 2)]), "is not edge-maximal"),
    ]
    for i, (g, reason) in enumerate(cases):
        seeds = tmp_path / f"seeds{i}.g6"
        seeds.write_text(to_graph6(g) + "\n")
        cfg = TINY_CONFIG.replace("kind = complete", f"kind = file\npath = {seeds}")
        cfg_path = write_config(tmp_path, cfg)
        with pytest.raises(ConfigError) as err:
            run_pipeline(cfg_path, tmp_path / f"run{i}")
        line = canonical_line(g.adj)
        assert str(err.value) == f"base k3: file member {line}: {reason}"


def test_file_base_rebuilds_when_its_source_changes(tmp_path, capsys):
    # a file base's manifest records its source's digest: a changed file
    # rebuilds the base and the step that reads it, as a fresh run would
    source = tmp_path / "k3.g6"
    source.write_text(to_graph6(Graph.complete(3)) + "\n")
    cfg = TINY_CONFIG.split("[step:s7]")[0].replace("kind = complete", "kind = file\npath = k3.g6")
    cfg_path = write_config(tmp_path, cfg)
    run_dir = tmp_path / "run"
    first, _ = run_pipeline(cfg_path, run_dir)
    assert [(r.name, r.count, r.resumed) for r in first] == [("k3", 1, False), ("s5", 2, False)]
    meta = (run_dir / "maximal_a2_q4_n3_t3.meta").read_text()
    assert meta.endswith(f"source_digest = {file_digest(source)}\n")
    again, _ = run_pipeline(cfg_path, run_dir)
    assert all(r.resumed for r in again)
    source.write_text("")
    changed, _ = run_pipeline(cfg_path, run_dir)
    assert [(r.name, r.count, r.resumed) for r in changed] == [("k3", 0, False), ("s5", 0, False)]
    run_pipeline(cfg_path, tmp_path / "fresh")
    assert _artifact_bytes(run_dir) == _artifact_bytes(tmp_path / "fresh")
    # a missing source stops the run, resumable artifacts or not
    source.unlink()
    assert main(["pipeline", str(cfg_path), "--dir", str(run_dir)]) == 2
    assert capsys.readouterr().err == "error: base k3: file k3.g6 not found\n"


def test_manifest_with_a_count_that_is_no_number_is_rebuilt(tmp_path):
    cfg_path = write_config(tmp_path, TINY_CONFIG)
    run_dir = tmp_path / "run"
    run_pipeline(cfg_path, run_dir)
    meta = run_dir / "maximal_a3_q4_n5_t3.meta"
    text = meta.read_text()
    assert "count = 2\n" in text
    meta.write_text(text.replace("count = 2\n", "count = x\n"))
    reports, _ = run_pipeline(cfg_path, run_dir)
    assert [r.name for r in reports if not r.resumed] == ["s5"]
    assert {r.name: r for r in reports}["s5"].count == 2
    run_pipeline(cfg_path, tmp_path / "fresh")
    assert _artifact_bytes(run_dir) == _artifact_bytes(tmp_path / "fresh")


def test_empty_base_flows_through(tmp_path):
    cfg = """
[base:nothing]
family = 3; 4; 5; 3
kind = empty

[step:s7]
family = 3; 4; 7; 3
r = 2
algorithm = 1
input = nothing
"""
    cfg_path = write_config(tmp_path, cfg)
    _, rows = run_pipeline(cfg_path, tmp_path / "run")
    assert rows[-1].maximal == 0


def test_all_shipped_configs_validate():
    configs = Path(__file__).resolve().parents[1] / "configs"
    names = sorted(p.name for p in configs.glob("*.cfg"))
    assert len(names) >= 8
    for name in names:
        parse_config(configs / name)


def test_reach_config_is_a_prefix_of_the_full_q8_chain():
    # its artifacts resume under chain_q8_full.cfg only if every item is
    # that config's item of the same name; the config itself is not run
    configs = Path(__file__).resolve().parents[1] / "configs"
    reach = parse_config(configs / "chain_q8_reach.cfg")
    full = {item.name: item for item in parse_config(configs / "chain_q8_full.cfg").items}
    names = [item.name for item in reach.items]
    assert names == ["k6-a3", "a3-4", "a3-5", "a3-6", "a3-7", "a3-27"]
    for item in reach.items:
        assert item == full[item.name], item.name
    assert reach.workers == 2


def test_extremal_base(tmp_path):
    cfg = """
[base:ext]
family = 2,3; 4; 7; 2
kind = extremal
"""
    cfg_path = write_config(tmp_path, cfg)
    reports, rows = run_pipeline(cfg_path, tmp_path / "run")
    assert rows[0].maximal == 1


# -- CLI ------------------------------------------------------------------------


def test_cli_arrows(capsys):
    assert main(["arrows", to_graph6(Graph.cycle(5)), "2 2"]) == 0
    assert capsys.readouterr().out.strip() == "true"
    assert main(["arrows", to_graph6(Graph.cycle(4)), "2,2", "--witness"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("false")
    assert "class 1:" in out and "class 2:" in out


def test_cli_omega_alpha(capsys):
    assert main(["omega", to_graph6(Graph.complete(4))]) == 0
    assert capsys.readouterr().out.strip() == "4"
    assert main(["alpha", to_graph6(Graph.cycle(5))]) == 0
    assert capsys.readouterr().out.strip() == "2"


def test_cli_plus_k():
    assert main(["plus-k", to_graph6(Graph.cycle(5)), "3"]) == 0
    assert main(["plus-k", to_graph6(Graph.cycle(6)), "3"]) == 1


def test_cli_verify_witness():
    assert main(["verify-witness", to_graph6(Graph.cycle(5)), "2 2", "3"]) == 0
    assert main(["verify-witness", to_graph6(Graph.complete(4)), "2 2", "3"]) == 1


def test_cli_canon(tmp_path, capsys):
    src = tmp_path / "in.g6"
    c5 = Graph.cycle(5)
    src.write_text(
        to_graph6(c5) + "\n" + to_graph6(c5.relabel((2, 0, 3, 1, 4))) + "\n"
    )
    assert main(["canon", str(src)]) == 0
    listing = capsys.readouterr().out
    assert len(listing.strip().splitlines()) == 1
    dst = tmp_path / "out.g6"
    assert main(["canon", str(src), "--output", str(dst)]) == 0
    assert capsys.readouterr().out == ""
    assert dst.read_bytes() == listing.encode("ascii")


def test_cli_extend(tmp_path, capsys):
    seeds = tmp_path / "base.g6"
    seeds.write_text(to_graph6(Graph.complete(3)) + "\n")
    out_file = tmp_path / "out.g6"
    rc = main(
        [
            "extend",
            "--spec",
            "3; 4; 5; 2; 3",
            "--input",
            str(seeds),
            "--output",
            str(out_file),
        ]
    )
    assert rc == 0
    assert len(search.load_family(out_file)) == 2


def test_cli_extend_checks_both_inputs(tmp_path, capsys):
    # (3; 4; 5) with r = 2: --input is H(2; 4; 3), --input2 H(2; 3; 4)
    def family_file(name, *lines):
        path = tmp_path / name
        path.write_text("".join(line + "\n" for line in lines))
        return str(path)

    k3 = family_file("k3.g6", "Bw")
    out = str(tmp_path / "out.g6")
    extend = ["extend", "--spec", "3; 4; 5; 2; 3", "--output", out]
    assert main(extend + ["--input", k3]) == 0
    want = Path(out).read_text()
    assert want.split() == ["DF{", "D]{"]
    # K_3 and C_4 are the maximal triangle-free graphs on four vertices
    good2 = family_file("good2.g6", "C]", "CF")
    algorithm2 = extend + ["--input", k3, "--algorithm", "2", "--input2", good2]
    for workers in ("1", "2"):
        Path(out).unlink()
        assert main(algorithm2 + ["--workers", workers]) == 0
        assert Path(out).read_text() == want, workers
    capsys.readouterr()
    Path(out).unlink()
    # K_3 plus an isolated vertex once gave DJ{, which holds a K_4; the path
    # on three vertices is not edge-maximal and once gave one graph of two
    k3_plus = family_file("k3_plus.g6", "CF", "CJ")
    path3 = family_file("path3.g6", "BW")
    for inputs, path, member, defect in [
        (["--input", k3, "--algorithm", "2", "--input2", k3_plus], k3_plus, "CJ", "has a K_3"),
        (["--input", path3], path3, "BW", "is not edge-maximal"),
    ]:
        assert main(extend + inputs) == 2
        line = canonical_line(from_graph6(member).adj)
        assert capsys.readouterr().err == f"error: {path}: file member {line}: {defect}\n"
    assert not Path(out).exists()
    # an --input2 that algorithm 1 would not read is a usage error
    missing = str(tmp_path / "missing.g6")
    assert main(extend + ["--input", k3, "--input2", missing]) == 2
    assert capsys.readouterr().err == "error: --input2 is only used by --algorithm 2\n"
    assert not Path(out).exists()


def test_graph6_files_with_non_ascii_bytes_are_input_errors(tmp_path, capsys):
    bad = tmp_path / "bad.g6"
    bad.write_bytes(b"Bw\nB\xff\n")
    first = tmp_path / "first.g6"
    first.write_bytes(b"B\xa0\n")
    message = "byte 255 outside graph6 range (byte offset 1)"
    out = str(tmp_path / "out.g6")
    for argv in (
        ["canon", str(bad)],
        ["extend", "--spec", "3; 4; 5; 2; 3", "--input", str(bad), "--output", out],
    ):
        assert main(argv) == 2, argv[0]
        assert capsys.readouterr().err == f"error: {bad}: {message}\n", argv[0]
    for argv in (["omega", str(first)], ["alpha", str(first)], ["arrows", str(first), "2"]):
        assert main(argv) == 2, argv[0]
        want = "error: byte 160 outside graph6 range (byte offset 1)\n"
        assert capsys.readouterr().err == want, argv[0]
    cfg = TINY_CONFIG.replace("kind = complete", f"kind = file\npath = {bad}")
    with pytest.raises(ConfigError) as err:
        run_pipeline(write_config(tmp_path, cfg), tmp_path / "run")
    assert str(err.value) == f"base k3: {message}"
    assert not Path(out).exists()


def test_cli_bound_commands(capsys):
    assert main(["bound", "exists", "2,2,7", "8"]) == 0
    assert main(["bound", "exists", "7,7", "7"]) == 1
    assert main(["bound", "value-at-m", "2,2"]) == 0
    assert "value = 5" in capsys.readouterr().out
    assert main(["bound", "vectors", "9", "7"]) == 0
    assert capsys.readouterr().out.split() == ["2,2,7", "3,7"]
    assert main(["bound", "alpha-cap", "2,2,2,7", "20"]) == 0
    assert capsys.readouterr().out.strip() == "3"
    assert main(["bound", "composite", "7,7", "--alpha", "6=3"]) == 0
    assert capsys.readouterr().out.strip() == "29"
    assert main(["bound", "project", "--r0", "2", "--base", "20", "--r", "6"]) == 0
    assert capsys.readouterr().out.strip() == "24"


def test_cli_pipeline_and_certify(tmp_path, capsys):
    cfg = """
[base:k3]
family = 2; 4; 3; 3
kind = complete

[step:s5]
family = 3; 4; 5; 3
r = 2
algorithm = 1
input = k3
"""
    cfg_path = write_config(tmp_path, cfg)
    run_dir = tmp_path / "run"
    assert main(["pipeline", str(cfg_path), "--dir", str(run_dir)]) == 0
    capsys.readouterr()
    # the family is nonempty, so no lower-bound certificate can be issued
    rc = main(
        [
            "bound",
            "certify",
            "3",
            "4",
            "5",
            "--reports",
            str(run_dir / "report.kv"),
        ]
    )
    assert rc == 1
    capsys.readouterr()
    # a base reports the family it was given, not a search: an empty base on
    # the whole (2,2,2,7; 9; 20) family certifies nothing
    certify = ["bound", "certify", "2,2,2,7", "9", "20", "--reports"]
    empty = write_config(tmp_path, "[base:e]\nfamily = 2,2,2,7; 9; 20; 4\nkind = empty\n")
    assert main(["pipeline", str(empty), "--dir", str(tmp_path / "empty")]) == 0
    capsys.readouterr()
    assert main(certify + [str(tmp_path / "empty" / "report.kv")]) == 1
    gap = "withheld: independence numbers [2, 3] not covered by any empty report\n"
    assert capsys.readouterr().out == gap
    # step blocks are the slices, so a nonempty base block is no obstacle
    family = dict(avec="2,2,2,7", q=9, n=20)
    blocks = [
        dict(item="given", kind="base", **family, t=4, maximal=1),
        dict(item="a3", kind="step", **family, r=3, t=3, maximal=0),
        dict(item="a2", kind="step", **family, r=2, t=2, maximal=0),
    ]
    reports = tmp_path / "hand.kv"
    reports.write_text("\n".join(format_kv(fields) for fields in blocks))
    assert pipeline.read_step_slices(reports) == [
        ((2, 2, 2, 7), 9, 20, 3, 3, 0), ((2, 2, 2, 7), 9, 20, 2, 2, 0)
    ]
    assert main(certify + [str(reports)]) == 0
    assert capsys.readouterr().out.startswith("verified: ")


def test_cli_errors(tmp_path, capsys):
    assert main(["omega", "not-a-graph6-\x01"]) == 2
    assert main(["arrows", "totally/missing/file.g6", "2 2"]) == 2
    capsys.readouterr()
    # other OS errors are input errors too, and never "false"
    assert main(["arrows", str(tmp_path), "2 2"]) == 2
    assert main(["canon", str(tmp_path)]) == 2
    not_a_dir = tmp_path / "plain.txt"
    not_a_dir.write_text("")
    tiny = write_config(tmp_path, TINY_CONFIG, "tiny.cfg")
    assert main(["pipeline", str(tiny), "--dir", str(not_a_dir / "run")]) == 2
    assert capsys.readouterr().err.count("error: ") == 3
    # malformed numbers are input errors, not "false"
    assert main(["arrows", "Dhc", "x"]) == 2
    seeds = tmp_path / "base.g6"
    seeds.write_text(to_graph6(Graph.complete(3)) + "\n")
    extend = ["extend", "--spec", "5; x; 10; 2; 3", "--input", str(seeds)]
    assert main(extend + ["--output", str(tmp_path / "out.g6")]) == 2
    # a worker count below 1 is an input error, not an in-process run
    extend = ["extend", "--spec", "3; 4; 5; 2; 3", "--input", str(seeds)]
    extend += ["--output", str(tmp_path / "out.g6")]
    cfg_path = write_config(tmp_path, TINY_CONFIG)
    pipeline = ["pipeline", str(cfg_path), "--dir", str(tmp_path / "run")]
    for argv in (extend, pipeline):
        for workers in ("0", "-1"):
            assert main(argv + ["--workers", workers]) == 2, (argv[0], workers)
    assert capsys.readouterr().err.count("at least 1 worker") == 4
    assert not (tmp_path / "out.g6").exists()
    for old, new in [
        ("family = 3; 4; 5; 3", "family = 3; x; 5; 3"),
        ("r = 2", "r = two"),
        ("workers = 1", "workers = x"),
        ("workers = 1", "workers = 0"),
        ("workers = 1", "workers = -2"),
    ]:
        cfg_path = write_config(tmp_path, TINY_CONFIG.replace(old, new, 1))
        assert main(["pipeline", str(cfg_path), "--dir", str(tmp_path / "run")]) == 2
    assert not (tmp_path / "run").exists()
    assert main(["bound", "composite", "7,7", "--alpha", "6=x"]) == 2
    capsys.readouterr()
    # a value that is no integer, or a byte that is not UTF-8
    for field in ("q", "n", "r", "t", "maximal"):
        for bad in (b"x", b"\xff"):
            reports = tmp_path / f"bad_{field}.kv"
            block = {"avec": b"3", "q": b"4", "n": b"5", "r": b"2", "t": b"3", "maximal": b"2"}
            block[field] = bad
            text = b"".join(k.encode() + b" = " + v + b"\n" for k, v in block.items())
            reports.write_bytes(text)
            certify = ["bound", "certify", "3", "4", "5", "--reports", str(reports)]
            assert main(certify) == 2, (field, bad)
            assert capsys.readouterr().err.startswith("error: "), (field, bad)


def _edited(old, new, text=TINY_CONFIG):
    assert old in text, old
    return text.replace(old, new, 1)


@pytest.mark.parametrize(
    "text, message",
    [
        pytest.param(
            _edited("family = 2; 4; 3; 3", "family = 1; 4; 3; 3"),
            "empty target vector in '1; 4; 3; 3'",
            id="vector-empty-after-canonicalization",
        ),
        pytest.param(
            _edited("[base:k3]", "[base]"), "section [base] needs a name after ':'", id="no-name"
        ),
        pytest.param(
            _edited("[descend:d7]", "[stage:d7]"), "unknown section kind [stage:d7]", id="kind"
        ),
        pytest.param(_edited("r = 2\n", ""), "section [step:s5] needs r", id="missing-key"),
        pytest.param(
            "[DEFAULT]\nworkers = 1\n" + TINY_CONFIG,
            "a [DEFAULT] section would put its keys in every section",
            id="default-section",
        ),
        pytest.param(
            # once turned the base with no kind line from complete into exhaustive
            "[DEFAULT]\nkind = exhaustive\n\n[base:k3]\nfamily = 2; 4; 3; 3\n",
            "a [DEFAULT] section would put its keys in every section",
            id="default-kind",
        ),
        pytest.param(
            _edited("[descend:d7]\ninput = s7", "[descend:s7]\ninput = s5"),
            "duplicate item name 's7'",
            id="duplicate-name",
        ),
        pytest.param(
            _edited("kind = complete", "kind = magic"),
            "k3: unknown base kind 'magic'",
            id="base-kind",
        ),
        pytest.param(
            "[base:b]\nfamily = 3; 5; 11; 4\nkind = exhaustive\n",
            "b: exhaustive base capped at 10 vertices, got n=11",
            id="exhaustive-limit",
        ),
        pytest.param(
            "[base:b]\nfamily = 2,2; 3; 6; 3\nkind = extremal\n",
            "b: extremal base needs q = m and n = m + p",
            id="extremal-order",
        ),
        pytest.param(
            _edited("kind = complete", "kind = file"), "k3: file base needs a path", id="no-path"
        ),
        pytest.param(
            _edited("algorithm = 1\ninput = k3", "algorithm = 3\ninput = k3"),
            "s5: algorithm must be 1 or 2",
            id="algorithm",
        ),
        pytest.param(
            _edited("r = 2", "r = 1"), "s5: need 2 <= r <= t, got r=1, t=3", id="step-r"
        ),
        pytest.param(
            _edited("family = 3; 4; 5; 3", "family = 3; 4; 70; 3"),
            "s5: order 70 outside 1..64",
            id="step-order",
        ),
        pytest.param(
            _edited("algorithm = 1\ninput = k3", "algorithm = 2\ninput = k3\ninput2 = nope"),
            "s5: input2 'nope' not defined earlier",
            id="input2-undefined",
        ),
        pytest.param(
            _edited("algorithm = 1\ninput = k3", "algorithm = 2\ninput = k3\ninput2 = k3"),
            "s5: input2 family H(2; 4; 3) (t=3) does not chain to H(3; 4; 5) with r=2; "
            "expected H(2; 3; 4) (t=3)",
            id="input2-mismatch",
        ),
        pytest.param(
            _edited("[descend:d7]\ninput = s7", "[descend:d7]\ninput = nope"),
            "d7: input 'nope' not defined earlier",
            id="descend-undefined",
        ),
    ],
)
def test_config_input_errors(tmp_path, capsys, text, message):
    cfg_path = write_config(tmp_path, text)
    with pytest.raises(ConfigError) as err:
        parse_config(cfg_path)
    assert message in str(err.value)
    assert main(["pipeline", str(cfg_path), "--dir", str(tmp_path / "run")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        pytest.param(
            ["extend", "--spec", "3; 4; 5; 2; 3", "--input", "{k3}", "--algorithm", "2",
             "--output", "{out}"],
            "--algorithm 2 needs --input2",
            id="extend-without-input2",
        ),
        pytest.param(["omega", "{blank}"], "no graph6 line in {blank}", id="graph-file-no-line"),
        pytest.param(
            ["pipeline", "{missing_base}", "--dir", "{run}"],
            "base k3: file missing.g6 not found",
            id="file-base-missing",
        ),
    ],
)
def test_cli_input_errors(tmp_path, capsys, argv, message):
    paths = {
        "k3": tmp_path / "k3.g6",
        "blank": tmp_path / "blank.g6",
        "missing_base": tmp_path / "missing.cfg",
        "out": tmp_path / "out.g6",
        "run": tmp_path / "run",
    }
    paths["k3"].write_text(to_graph6(Graph.complete(3)) + "\n")
    paths["blank"].write_text("\n# no graph here\n")
    paths["missing_base"].write_text(
        _edited("kind = complete", "kind = file\npath = missing.g6")
    )
    assert main([arg.format(**paths) for arg in argv]) == 2
    assert capsys.readouterr().err == f"error: {message.format(**paths)}\n"
    assert not paths["out"].exists()
