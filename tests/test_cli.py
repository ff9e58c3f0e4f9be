import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

CLI = [sys.executable, "-m", "otisham.cli"]
SRC = str(Path(__file__).resolve().parent.parent / "src")


def run(*args, check=True):
    # the package may not be installed: the child finds it in this checkout
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        CLI + list(args), capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=path),
    )
    if check and proc.returncode != 0:
        raise AssertionError(f"{args}: rc={proc.returncode}\n{proc.stderr}")
    return proc


def test_gen_bowtie_edge_list():
    out = run("gen", "bowtie", "--m", "3", "--n", "4").stdout
    lines = out.strip().splitlines()
    assert lines[0] == "V 6"
    assert len(lines) == 1 + 7  # m + n edges


def test_gen_usage_errors():
    assert run("gen", "butterfly", check=False).returncode == 4
    assert run("gen", "bowtie", "--m", "2", "--n", "4", check=False).returncode == 4
    assert run("nonsense", check=False).returncode == 4


def test_otis_pipeline(tmp_path):
    base = tmp_path / "base.el"
    base.write_text(run("gen", "cycle", "--k", "3").stdout)
    out = run("otis", "--in", str(base)).stdout
    assert out.splitlines()[0] == "V 9"


def test_decide_json_verdict(tmp_path):
    el = tmp_path / "c5.el"
    el.write_text(run("gen", "cycle", "--k", "5").stdout)
    proc = run("decide", "--in", str(el), "--json")
    payload = json.loads(proc.stdout)
    assert payload["verdict"] == "hamiltonian"
    assert payload["witness"] == ["1", "2", "3", "4", "5"]


def test_decide_budget_inconclusive_exit_code(tmp_path):
    el = tmp_path / "k6.el"
    el.write_text(run("gen", "complete", "--k", "6").stdout)
    proc = run("decide", "--in", str(el), "--budget-nodes", "1", "--json", check=False)
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["verdict"] == "inconclusive"


def test_decide_with_seed_file(tmp_path):
    el = tmp_path / "c4.el"
    el.write_text(run("gen", "cycle", "--k", "4").stdout)
    seed = tmp_path / "seed.json"
    seed.write_text(json.dumps({"deleted": [["1", "2"]]}))
    proc = run("decide", "--in", str(el), "--seed", str(seed), "--json")
    assert json.loads(proc.stdout)["verdict"] == "non-hamiltonian"


def test_refute_count_certificate(tmp_path):
    base = tmp_path / "b44.el"
    base.write_text(run("gen", "bowtie", "--m", "4", "--n", "4").stdout)
    g = tmp_path / "o44.el"
    g.write_text(run("otis", "--in", str(base)).stdout)
    payload = json.loads(run("refute-count", "--in", str(g), "--json").stdout)
    assert payload["edge_budget"] == 28
    assert payload["total_bound"] == 29
    inconclusive = tmp_path / "c6.el"
    inconclusive.write_text(run("gen", "cycle", "--k", "6").stdout)
    proc = run("refute-count", "--in", str(inconclusive), "--json", check=False)
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["inconclusive"] is True


def test_ham_build_and_verify_and_ist(tmp_path):
    payload = json.loads(run("ham-build", "--m", "3", "--n", "5", "--json").stdout)
    assert payload["verified"] is True
    assert len(payload["cycle"]) == 49

    base = tmp_path / "b35.el"
    base.write_text(run("gen", "bowtie", "--m", "3", "--n", "5").stdout)
    graph_file = tmp_path / "o35.el"
    graph_file.write_text(run("otis", "--in", str(base)).stdout)
    cert = tmp_path / "cycle.json"
    cert.write_text(
        json.dumps(
            {"graph_hash": payload["graph_hash"], "order": payload["cycle"], "verified": True}
        )
    )
    verify = json.loads(run("verify", "--in", str(graph_file), "--cycle", str(cert), "--json").stdout)
    assert verify["hash_match"] and verify["valid_cycle"]

    ist = json.loads(
        run("ist", "--cycle", str(cert), "--root", "3:3", "--in", str(graph_file), "--json").stdout
    )
    assert ist["independent"] is True and ist["edge_disjoint"] is True


def test_verify_detects_mismatch(tmp_path):
    el = tmp_path / "c4.el"
    el.write_text(run("gen", "cycle", "--k", "4").stdout)
    cert = tmp_path / "bad.json"
    cert.write_text(json.dumps({"graph_hash": "bogus", "order": ["1", "3", "2", "4"], "verified": True}))
    proc = run("verify", "--in", str(el), "--cycle", str(cert), "--json", check=False)
    assert proc.returncode == 3
    payload = json.loads(proc.stdout)
    assert not payload["hash_match"]
    assert payload["reason"].startswith("non-adjacent-step")


def test_ham_build_even_even_reports_unsupported():
    payload = json.loads(run("ham-build", "--m", "4", "--n", "6", "--json").stdout)
    assert payload["failure"] == "unsupported-class"


def test_emit_key_edges_has_provenance():
    payload = json.loads(
        run("ham-build", "--m", "7", "--n", "7", "--emit-key-edges", "--json").stdout
    )
    assert payload["class"] == "odd-odd-equal"
    assert all(entry["tag"] for entry in payload["key_edges"])


def test_export_dot(tmp_path):
    base = tmp_path / "b.el"
    base.write_text(run("gen", "bowtie", "--m", "3", "--n", "3").stdout)
    g = tmp_path / "o.el"
    g.write_text(run("otis", "--in", str(base)).stdout)
    dot = run("export", "--in", str(g)).stdout
    assert dot.startswith("graph")
    assert "subgraph" in dot


def test_export_dot_clusters_split_labels_at_the_middle_colon(tmp_path):
    # WBF(3) labels are 'level:bits', so OTIS(WBF(3)) labels hold three ':'
    base = tmp_path / "wbf3.el"
    base.write_text(run("gen", "butterfly", "--dim", "3").stdout)
    net = tmp_path / "otis.el"
    net.write_text(run("otis", "--in", str(base)).stdout)
    clusters: dict[str, list[str]] = {}
    for line in run("export", "--in", str(net)).stdout.splitlines():
        if line.startswith('  subgraph "cluster_'):
            members = clusters.setdefault(line.split('"')[1].removeprefix("cluster_"), [])
        elif line.startswith('    "'):
            members.append(line.split('"')[1])
    assert len(clusters) == 24
    for gname, members in clusters.items():
        assert len(members) == 24 and all(v.startswith(gname + ":") for v in members)
    assert "subgraph" not in run("gen", "butterfly", "--dim", "3", "--dot").stdout
    # N^2 labels g:u, but the processors are not the clusters
    square = tmp_path / "square.el"
    square.write_text("V 4\na:x a:y\nb:x b:y\n")
    assert "subgraph" not in run("export", "--in", str(square)).stdout


def test_export_dot_escapes_quotes_and_backslashes(tmp_path):
    el = tmp_path / "q.el"
    el.write_text('V 3\na"b c\nc d\\\n')
    dot = run("export", "--in", str(el)).stdout
    assert '  "a\\"b" -- "c";' in dot.splitlines()
    assert '  "c" -- "d\\\\";' in dot.splitlines()


def test_reproduce_matches_published_counts():
    payload = json.loads(run("reproduce", "--json").stdout)
    assert payload["ok"] is True
    assert payload["vertices"] == 49 and payload["edges"] == 77
    assert payload["total_bound"] == 29


def test_reproduce_rejects_tampered_generator():
    from otisham.cli import reproduce_report
    from otisham.topology import gen_bowtie, otis
    from otisham.graph import Graph

    tampered = otis(gen_bowtie(4, 4))
    broken = Graph.from_edges(
        [e for e in tampered.edges()][:-1], vertices=tampered.vertices()
    )
    report, mismatches = reproduce_report(graph_44=broken)
    assert mismatches  # the command would exit 3


def test_sweep_small(tmp_path):
    payload = json.loads(run("sweep", "--max-base", "7", "--json").stdout)
    assert payload["failed"] == 0
    classes = {(e["m"], e["n"]): e for e in payload["entries"]}
    assert classes[(4, 4)]["status"] == "unsupported"
    assert classes[(3, 3)]["status"] == "ok"
    proc = run("sweep", "--max-base", "4", check=False)
    assert proc.returncode == 4


def test_json_output_is_byte_identical():
    a = run("ham-build", "--m", "5", "--n", "4", "--json").stdout
    b = run("ham-build", "--m", "5", "--n", "4", "--json").stdout
    assert a == b
    a = run("reproduce", "--json").stdout
    b = run("reproduce", "--json").stdout
    assert a == b


def test_emit_key_edges_even_even_reports_unsupported():
    build = run("ham-build", "--m", "4", "--n", "4", "--json")
    emit = run("ham-build", "--m", "4", "--n", "4", "--emit-key-edges", "--json")
    assert emit.stdout == build.stdout
    assert json.loads(emit.stdout)["failure"] == "unsupported-class"


@pytest.mark.parametrize("m,n", [(3, 3), (5, 7)])
def test_emit_key_edges_small_figure_seeds_no_table_edges(m, n):
    # ham-build builds both through the decider, with nothing seeded
    assert run("ham-build", "--m", str(m), "--n", str(n), "--json").returncode == 0
    emit = run("ham-build", "--m", str(m), "--n", str(n), "--emit-key-edges", "--json")
    payload = json.loads(emit.stdout)
    assert payload["class"] == "small-figure" and payload["key_edges"] == []


C4_SEED_CERT = {"graph_hash": "x", "order": ["1", "2", "3", "4"], "verified": True}

# (argv with {graph}/{file} placeholders, text of {file}, environment overrides)
BAD_INPUTS = {
    "cycle length below 3": (["ham-build", "--m", "2", "--n", "5"], None, {}),
    "zero node budget": (["decide", "--in", "{graph}", "--budget-nodes", "0"], None, {}),
    "zero time budget": (["decide", "--in", "{graph}", "--budget-secs", "0"], None, {}),
    "negative build budget": (["ham-build", "--m", "3", "--n", "5", "--budget-nodes", "-1"], None, {}),
    "seed with an unknown label": (["decide", "--in", "{graph}", "--seed", "{file}"], '{"forced": [["1", "9"]]}', {}),
    "seed with a non-edge": (["decide", "--in", "{graph}", "--seed", "{file}"], '{"deleted": [["1", "3"]]}', {}),
    "seed that is a list": (["decide", "--in", "{graph}", "--seed", "{file}"], '[["1", "2"]]', {}),
    "seed that is not JSON": (["decide", "--in", "{graph}", "--seed", "{file}"], '{"forced": [', {}),
    "seed with an unknown key": (["decide", "--in", "{graph}", "--seed", "{file}"], '{"force": []}', {}),
    "ist certificate not JSON": (["ist", "--cycle", "{file}", "--root", "1"], "not json", {}),
    "verify certificate not JSON": (["verify", "--in", "{graph}", "--cycle", "{file}"], "not json", {}),
    "certificate order is a string": (
        ["ist", "--cycle", "{file}", "--root", "a"], json.dumps(C4_SEED_CERT | {"order": "abc"}), {}),
    "certificate of one vertex": (
        ["ist", "--cycle", "{file}", "--root", "a"], json.dumps(C4_SEED_CERT | {"order": ["a"]}), {}),
    "threads not a number": (["sweep", "--max-base", "5"], None, {"OTISHAM_THREADS": "abc"}),
    "threads zero": (["sweep", "--max-base", "5"], None, {"OTISHAM_THREADS": "0"}),
    "graph path is a directory": (["decide", "--in", "{dir}"], None, {}),
    "OTIS base of one vertex": (["otis", "--in", "{file}"], "V 1\na\n", {}),
    "OTIS base of no vertex": (["otis", "--in", "{file}"], "V 0\n", {}),
    "vertex count line with a trailing token": (["decide", "--in", "{file}"], "V 2 x\n1 2\n", {}),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_fails_closed(case, tmp_path, monkeypatch):
    argv, text, env = BAD_INPUTS[case]
    graph = tmp_path / "c4.el"
    graph.write_text("V 4\n1 2\n2 3\n3 4\n4 1\n")
    file = tmp_path / "input.json"
    if text is not None:
        file.write_text(text)
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    argv = [a.format(graph=graph, file=file, dir=tmp_path) for a in argv]
    proc = run(*argv, "--json", check=False)
    assert proc.returncode == 4, proc.stderr
    assert proc.stdout == ""
    errors = [ln for ln in proc.stderr.splitlines() if ln.startswith("error:")]
    assert len(errors) == 1 and "Traceback" not in proc.stderr, proc.stderr


def test_sweep_workers_clamped_to_cpu_count(monkeypatch):
    from otisham import cli

    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    monkeypatch.delenv("OTISHAM_THREADS", raising=False)
    assert cli.sweep_workers() == 1
    monkeypatch.setenv("OTISHAM_THREADS", "2")
    assert cli.sweep_workers() == 2
    monkeypatch.setenv("OTISHAM_THREADS", "4096")
    assert cli.sweep_workers() == 2
