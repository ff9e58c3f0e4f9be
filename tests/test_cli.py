import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from otisham import cli
from otisham import constructive
from otisham import io as otisham_io
from otisham.graph import Graph
from otisham.io import to_dot
from otisham.topology import gen_bowtie, otis, otis_bowtie_hash

from conftest import CONTRADICTING_TABLES, FAULTY_TABLES, TABLE_CLASS_PAIRS, peak_bytes, use_completion, use_table

CLI = [sys.executable, "-m", "otisham"]
SRC = str(Path(__file__).resolve().parent.parent / "src")


def child_env() -> dict:
    # the package may not be installed: the child finds it in this checkout
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def run(*args, check=True):
    proc = subprocess.run(CLI + list(args), capture_output=True, text=True, timeout=300, env=child_env())
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


def test_budget_changes_no_build_or_sweep_byte(capsys):
    # every pair is walked, the small figures too, so no build searches
    for argv in (["ham-build", "--m", "3", "--n", "3", "--json"], ["sweep", "--max-base", "7", "--json"]):
        assert call_main(capsys, argv + ["--budget-nodes", "1"]) == call_main(capsys, argv), argv


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


def test_ham_build_out_writes_a_certificate(tmp_path):
    cert = tmp_path / "c.json"
    built = run("ham-build", "--m", "7", "--n", "7", "--out", str(cert), "--json").stdout
    assert built == run("ham-build", "--m", "7", "--n", "7", "--json").stdout
    payload = json.loads(built)
    assert json.loads(cert.read_text()) == {
        "graph_hash": payload["graph_hash"], "order": payload["cycle"], "verified": True}
    base = tmp_path / "b77.el"
    base.write_text(run("gen", "bowtie", "--m", "7", "--n", "7").stdout)
    net = tmp_path / "o77.el"
    net.write_text(run("otis", "--in", str(base)).stdout)
    verify = json.loads(run("verify", "--in", str(net), "--cycle", str(cert), "--json").stdout)
    assert verify["hash_match"] and verify["valid_cycle"]
    ist = json.loads(run("ist", "--cycle", str(cert), "--root", "7:7", "--in", str(net), "--json").stdout)
    assert ist["independent"] is True


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


def test_reproduce_rejects_tampered_generator(monkeypatch):
    from otisham.graph import Graph

    otis = cli.otis

    def tampered(base):
        """The OTIS network of ``base`` less its last edge."""
        net = otis(base)
        return Graph.from_edges(net.edges()[:-1], vertices=net.vertices())

    monkeypatch.setattr(cli, "otis", tampered)
    report, mismatches = cli.reproduce_report()
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


def call_main(capsys, argv):
    """(exit code, stdout, stderr) of one ``cli.main`` call in this process."""
    try:
        rc = cli.main(argv)
    except SystemExit as exc:  # argparse's usage errors and --version
        rc = exc.code
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_repeated_main_calls_match_separate_processes(tmp_path, capsys, monkeypatch):
    # the seeded, budget-cut decide comes first: a seed, budget or command
    # left behind in the reused parser would change a later call's output
    monkeypatch.setenv("COLUMNS", "80")  # the same usage wrapping on both sides
    (tmp_path / "k6.el").write_text(run("gen", "complete", "--k", "6").stdout)
    (tmp_path / "seed.json").write_text(json.dumps({"deleted": [["1", "2"]], "forced": [["3", "5"]]}))
    graph, seed = str(tmp_path / "k6.el"), str(tmp_path / "seed.json")
    calls = [
        (["decide", "--in", graph, "--seed", seed, "--budget-nodes", "1", "--json"], 2),
        (["ham-build", "--m", "3", "--n", "3", "--budget-nodes", "0"], 4),
        (["--version"], 0),
        (["decide", "--in", graph, "--json"], 0),
        (["ham-build", "--m", "7", "--n", "7", "--json"], 0),
    ]
    for argv, want in calls:
        rc, out, err = call_main(capsys, argv)
        proc = run(*argv, check=False)
        assert (rc, out, err) == (proc.returncode, proc.stdout, proc.stderr), argv
        assert rc == want, argv


def test_main_builds_no_parser_after_the_first_call(capsys, monkeypatch):
    argv = ["ham-build", "--m", "3", "--n", "3", "--json"]
    assert call_main(capsys, argv)[0] == 0
    built = []
    init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    assert call_main(capsys, argv)[0] == 0
    assert built == []


def test_ham_build_peak_memory_per_vertex(capsys):
    # OTIS(BF(81,80)) has 25,600 vertices.  A whole build peaked at about
    # 890 B per vertex while the trail logged a 7-tuple per chain merge, the
    # search stack a tuple per branch, each vertex index a fresh int per use
    # and the cycle check a set and a list of labels; about 540 B while the
    # seeded search built the graph.  The table walk builds none: about
    # 160 B, the labels, the walk's index list and the printed JSON.
    argv = ["ham-build", "--m", "81", "--n", "80", "--json"]
    rc, peak = peak_bytes(lambda: cli.main(argv))
    assert rc == 0 and json.loads(capsys.readouterr().out)["verified"] is True
    assert peak / 25_600 < 240, peak / 25_600


def test_commands_run_without_docstrings():
    # python -OO strips the module docstring that --help shows
    argv = ["ham-build", "--m", "3", "--n", "3", "--json"]
    proc = subprocess.run(
        [sys.executable, "-OO", "-m", "otisham", *argv], capture_output=True, text=True,
        timeout=300, env=child_env(),
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, run(*argv).stdout, "")


def test_import_loads_neither_dataclasses_nor_inspect():
    # each record class would cost a generated, exec'd method set at import,
    # which every one-shot command pays
    def loaded(statement: str) -> set[str]:
        code = f"{statement}; import sys; print(*sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=60, env=child_env(), check=True)
        return set(proc.stdout.split())

    added = loaded("import otisham.cli") - loaded("pass")
    assert "otisham.cli" in added
    assert not {"dataclasses", "inspect"} & added


def test_budget_defaults_are_the_search_budget_defaults():
    parse = cli.build_parser().parse_args
    for argv in (["decide", "--in", "x"], ["ham-build", "--m", "3", "--n", "5"], ["sweep", "--max-base", "5"]):
        args = parse(argv)
        assert (args.budget_nodes, args.budget_secs) == (10_000_000, 600.0), argv
        assert (type(args.budget_nodes), type(args.budget_secs)) == (int, float), argv


def test_emit_key_edges_even_even_reports_unsupported():
    build = run("ham-build", "--m", "4", "--n", "4", "--json")
    emit = run("ham-build", "--m", "4", "--n", "4", "--emit-key-edges", "--json")
    assert emit.stdout == build.stdout
    assert json.loads(emit.stdout)["failure"] == "unsupported-class"


@pytest.mark.parametrize("m,n", [(3, 3), (5, 7)])
def test_emit_key_edges_small_figure_seeds_no_table_edges(m, n):
    # ham-build walks both from their completion rows alone
    assert run("ham-build", "--m", str(m), "--n", str(n), "--json").returncode == 0
    emit = run("ham-build", "--m", str(m), "--n", str(n), "--emit-key-edges", "--json")
    payload = json.loads(emit.stdout)
    assert payload["class"] == "small-figure" and payload["key_edges"] == []


C4_SEED_CERT = {"graph_hash": "x", "order": ["1", "2", "3", "4"], "verified": True}

# (argv with {graph}/{file} placeholders, text of {file})
BAD_INPUTS = {
    "cycle length below 3": (["ham-build", "--m", "2", "--n", "5"], None),
    "zero node budget": (["decide", "--in", "{graph}", "--budget-nodes", "0"], None),
    "zero time budget": (["decide", "--in", "{graph}", "--budget-secs", "0"], None),
    "negative build budget": (["ham-build", "--m", "3", "--n", "5", "--budget-nodes", "-1"], None),
    "seed with an unknown label": (["decide", "--in", "{graph}", "--seed", "{file}"], '{"forced": [["1", "9"]]}'),
    "seed with a non-edge": (["decide", "--in", "{graph}", "--seed", "{file}"], '{"deleted": [["1", "3"]]}'),
    "seed that is a list": (["decide", "--in", "{graph}", "--seed", "{file}"], '[["1", "2"]]'),
    "seed that is not JSON": (["decide", "--in", "{graph}", "--seed", "{file}"], '{"forced": ['),
    "seed with an unknown key": (["decide", "--in", "{graph}", "--seed", "{file}"], '{"force": []}'),
    "ist certificate not JSON": (["ist", "--cycle", "{file}", "--root", "1"], "not json"),
    "verify certificate not JSON": (["verify", "--in", "{graph}", "--cycle", "{file}"], "not json"),
    "certificate order is a string": (
        ["ist", "--cycle", "{file}", "--root", "a"], json.dumps(C4_SEED_CERT | {"order": "abc"})),
    "certificate of one vertex": (
        ["ist", "--cycle", "{file}", "--root", "a"], json.dumps(C4_SEED_CERT | {"order": ["a"]})),
    "certificate that repeats a vertex": (
        ["ist", "--cycle", "{file}", "--root", "a"], json.dumps(C4_SEED_CERT | {"order": list("abcade")})),
    "key edges to a file": (["ham-build", "--m", "7", "--n", "7", "--emit-key-edges", "--out", "{file}"], None),
    "key edges as DOT": (["ham-build", "--m", "7", "--n", "7", "--emit-key-edges", "--dot"], None),
    "graph path is a directory": (["decide", "--in", "{dir}"], None),
    "OTIS base of one vertex": (["otis", "--in", "{file}"], "V 1\na\n"),
    "OTIS base of no vertex": (["otis", "--in", "{file}"], "V 0\n"),
    "vertex count line with a trailing token": (["decide", "--in", "{file}"], "V 2 x\n1 2\n"),
    "bowtie without --n": (["gen", "bowtie", "--m", "3"], None),
    "butterfly without --dim": (["gen", "butterfly"], None),
    "cycle without --k": (["gen", "cycle"], None),
    "path of no vertex": (["gen", "path", "--k", "0"], None),
    "complete graph of two vertices": (["gen", "complete", "--k", "2"], None),
    "butterfly of dimension 2": (["gen", "butterfly", "--dim", "2"], None),
    "cycle given --m": (["gen", "cycle", "--k", "5", "--m", "3"], None),
    "sweep below the smallest base": (["sweep", "--max-base", "4"], None),
}


@pytest.mark.parametrize("argv,pair", [
    (["ham-build", "--m", "2", "--n", "5"], "(2, 5)"),  # as given
    (["gen", "bowtie", "--m", "2", "--n", "5"], "(2, 5)"),  # as given
], ids=["ham-build", "gen bowtie"])
def test_cycle_length_error_names_the_pair(argv, pair):
    proc = run(*argv, check=False)
    assert (proc.returncode, proc.stdout) == (4, "")
    assert proc.stderr == f"error: cycle lengths must be >= 3, got {pair}\n"


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_fails_closed(case, tmp_path):
    argv, text = BAD_INPUTS[case]
    graph = tmp_path / "c4.el"
    graph.write_text("V 4\n1 2\n2 3\n3 4\n4 1\n")
    file = tmp_path / "input.json"
    if text is not None:
        file.write_text(text)
    argv = [a.format(graph=graph, file=file, dir=tmp_path) for a in argv]
    proc = run(*argv, "--json", check=False)
    assert proc.returncode == 4, proc.stderr
    assert proc.stdout == ""
    errors = [ln for ln in proc.stderr.splitlines() if ln.startswith("error:")]
    assert len(errors) == 1 and "Traceback" not in proc.stderr, proc.stderr


@pytest.mark.parametrize("argv,message", [
    (["gen", "bowtie", "--m", "3"], "gen bowtie requires --m and --n"),
    (["gen", "butterfly"], "gen butterfly requires --dim"),
    (["gen", "cycle", "--k", "5", "--m", "3"], "gen cycle takes no --m"),
    (["gen", "bowtie", "--m", "3", "--n", "4", "--dim", "3", "--k", "5"], "gen bowtie takes no --dim or --k"),
    (["gen", "path", "--k", "0"], "path needs k >= 1, got 0"),
    (["sweep", "--max-base", "4"], "--max-base must be >= 5"),
    (["ham-build", "--m", "7", "--n", "7", "--emit-key-edges", "--dot"],
     "--emit-key-edges takes neither --dot nor --out"),
])
def test_bad_input_message(argv, message, capsys):
    assert call_main(capsys, argv) == (4, "", f"error: {message}\n")


def test_ham_build_out_hashes_the_graph_once(tmp_path, capsys, monkeypatch):
    calls = []

    def counting_hash(m, n):
        calls.append((m, n))
        return otis_bowtie_hash(m, n)

    def refuse(graph):
        raise AssertionError("ham-build hashed a Graph")

    # ham-build hashes OTIS(BF(m,n)) from (m, n), once, and builds no graph to hash
    monkeypatch.setattr(cli, "otis_bowtie_hash", counting_hash)
    monkeypatch.setattr(cli, "graph_hash", refuse)
    # the certificate writer takes the digest and a cycle the build verified;
    # it can neither hash a graph nor check the cycle again
    assert not hasattr(otisham_io, "graph_hash")
    assert not hasattr(otisham_io, "is_hamiltonian_cycle")
    cert = tmp_path / "c.json"
    rc, out, err = call_main(capsys, ["ham-build", "--m", "7", "--n", "7", "--out", str(cert), "--json"])
    assert (rc, err, calls) == (0, "", [(7, 7)])
    payload = json.loads(out)
    want = {"graph_hash": payload["graph_hash"], "order": payload["cycle"], "verified": True}
    assert cert.read_text() == json.dumps(want, separators=(",", ":"), sort_keys=True) + "\n"


def test_only_main_reports_a_usage_error():
    # a handler raises GraphError for bad input; main alone turns it into the
    # one error line and exit 4, and argparse's errors go through _Parser.error
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    users = [
        fn.name
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Name) and node.id == "EXIT_USAGE"
        or isinstance(node, ast.Return) and isinstance(node.value, ast.Constant) and node.value.value == 4
    ]
    assert sorted(users) == ["error", "main"]


@pytest.mark.parametrize("case", sorted(CONTRADICTING_TABLES))
def test_contradicting_table_exits_3(case, capsys, monkeypatch):
    m, n, rows, message = CONTRADICTING_TABLES[case]
    use_table(monkeypatch, m, n, rows)
    rc, out, err = call_main(capsys, ["ham-build", "--m", str(m), "--n", str(n), "--json"])
    assert (rc, out, err) == (3, "", f"error: {message}\n")


@pytest.mark.parametrize("m,n", TABLE_CLASS_PAIRS + [(3, 3), (5, 7)])
def test_table_build_builds_no_graph_and_runs_no_search(m, n, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a table build reached the graph or the engine")

    for owner in (cli, constructive):
        for name in ("otis", "decide", "propagate", "is_hamiltonian_cycle", "EdgeAssignment"):
            if hasattr(owner, name):
                monkeypatch.setattr(owner, name, refuse)
    monkeypatch.setattr(cli, "graph_hash", refuse)
    monkeypatch.setattr(Graph, "__init__", refuse)
    rc, out, err = call_main(capsys, ["ham-build", "--m", str(m), "--n", str(n), "--json"])
    assert (rc, err) == (0, "")
    assert len(json.loads(out)["cycle"]) == (m + n - 1) ** 2


@pytest.mark.parametrize("change", ["dropped row", "added row"])
def test_completion_fault_is_one_error_line(change, capsys, monkeypatch):
    # (7,8) completes its key rows with cluster 5's (1,2) and cluster 4's cut
    # edges, and 1:1-1:2 starts its cycle; the sweep builds the odd-even
    # pairs with c = 5 first, whose completion tables are empty
    complete = constructive._COMPLETIONS[constructive.classify(7, 8)]
    edit = {
        "dropped row": lambda r: r.out.pop(0) if r.out else None,
        "added row": lambda r: r.add(1, 1, 2, "probe"),
    }[change]
    use_completion(monkeypatch, 7, 8, lambda r: (complete(r), edit(r)))
    for argv in (["ham-build", "--m", "7", "--n", "8", "--json"], ["sweep", "--max-base", "15"]):
        rc, out, err = call_main(capsys, argv)
        assert (rc, out) == (3, "")
        assert err.startswith("error: odd-even-general tables: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("command", ["ham-build", "emit-key-edges", "sweep"])
@pytest.mark.parametrize("case", sorted(FAULTY_TABLES))
def test_table_fault_is_one_error_line(case, command, capsys, monkeypatch):
    m, n, rows, message = FAULTY_TABLES[case]
    use_table(monkeypatch, m, n, rows)
    argv = {
        "ham-build": ["ham-build", "--m", str(m), "--n", str(n)],
        "emit-key-edges": ["ham-build", "--m", str(m), "--n", str(n), "--emit-key-edges"],
        # the faulty pair is the last one the sweep builds
        "sweep": ["sweep", "--max-base", str(m + n - 1)],
    }[command]
    rc, out, err = call_main(capsys, argv + ["--json"])
    assert (rc, out, err) == (3, "", f"error: {message}\n")


def test_only_main_catches_a_table_fault():
    # no command handler catches anything: main alone turns a table fault
    # (KeyEdgeError, a ValueError) into exit 3 and one error line
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    functions = [fn for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)]
    assert [fn.name for fn in functions if fn.name.startswith("cmd_")]
    assert not [
        fn.name for fn in functions
        if fn.name.startswith("cmd_") and any(isinstance(node, ast.Try) for node in ast.walk(fn))
    ]
    catchers = [
        fn.name
        for fn in functions
        for handler in ast.walk(fn)
        if isinstance(handler, ast.ExceptHandler)
        and (handler.type is None or any(
            isinstance(node, ast.Name) and node.id in ("KeyEdgeError", "ValueError", "Exception")
            for node in ast.walk(handler.type)))
    ]
    assert catchers == ["main"]


@pytest.mark.parametrize("m,n", [(7, 7), (7, 9), (7, 8), (3, 14), (3, 15), (5, 7)])
def test_ham_build_dot_runs_no_search(m, n, tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("ham-build --dot searched")

    for owner in (cli, constructive):
        monkeypatch.setattr(owner, "build_ham_cycle", refuse)
        monkeypatch.setattr(owner, "decide", refuse)
    dot = to_dot(otis(gen_bowtie(m, n)))
    argv = ["ham-build", "--m", str(m), "--n", str(n), "--dot"]
    assert call_main(capsys, argv) == (0, dot, "")
    # --json does not apply to a drawing, and --dot takes no search budget
    assert call_main(capsys, argv + ["--json", "--budget-nodes", "1"]) == (0, dot, "")
    out = tmp_path / "g.dot"
    assert call_main(capsys, argv + ["--out", str(out)]) == (0, "", "")
    assert out.read_text() == dot


def test_ist_names_the_first_violation(tmp_path, capsys):
    base, net, cert = tmp_path / "b.el", tmp_path / "o.el", tmp_path / "c.json"
    assert call_main(capsys, ["gen", "bowtie", "--m", "7", "--n", "7", "--out", str(base)])[0] == 0
    assert call_main(capsys, ["otis", "--in", str(base), "--out", str(net)])[0] == 0
    assert call_main(capsys, ["ham-build", "--m", "7", "--n", "7", "--out", str(cert)])[0] == 0
    payload = json.loads(cert.read_text())
    order = payload["order"]
    order[1], order[2] = order[2], order[1]
    cert.write_text(json.dumps(payload))
    argv = ["ist", "--cycle", str(cert), "--root", order[0], "--in", str(net), "--json"]
    rc, out, err = call_main(capsys, argv)
    assert rc == 3
    assert json.loads(out)["independent"] is False
    # tree 1 walks against the cycle: order[2] now hangs from order[3]
    assert err == f"error: tree edge {order[2]}-{order[3]} not in graph\n"
