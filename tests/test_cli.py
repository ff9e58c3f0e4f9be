import argparse
import ast
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from otisham import cli
from otisham import constructive
from otisham import io as otisham_io
from otisham.graph import Graph
from otisham.io import to_dot, write_edge_list
from otisham.topology import gen_bowtie, otis, otis_bowtie_hash

from conftest import CONTRADICTING_TABLES, FAULTY_TABLES, TABLE_CLASS_PAIRS, peak_bytes, use_completion, use_table
from graph_reference import has_edge

CLI = [sys.executable, "-m", "otisham"]
ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")


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


@pytest.mark.parametrize("argv", [["gen", "cycle", "--k", "5"], ["sweep", "--max-base", "21", "--json"]],
                         ids=["small", "large"])
def test_a_closed_stdout_exits_141_with_no_message(argv):
    # the read end closes before the child writes.  With stdout buffered, a
    # small output fails at main's flush and one past the 8 KiB buffer
    # (11.6 kB here) inside the command; 141 is what a shell reports for a
    # SIGPIPE death
    env = child_env()
    env.pop("PYTHONUNBUFFERED", None)
    with subprocess.Popen(CLI + argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        proc.stdout.close()
        err = proc.stderr.read()
    assert (proc.returncode, err) == (141, b"")


def test_readme_command_lines_run_as_written(tmp_path):
    # one session in one directory: each line exits 0, or the code its
    # comment names, and prints what its comment names; a pipe goes
    # through the shell
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    lines = text.split("## Command line\n", 1)[1].split("```\n", 2)[1].splitlines()
    assert len(lines) > 10 and all(line.startswith("otisham ") for line in lines)
    python = f"{shlex.quote(sys.executable)} -m otisham "
    for line in lines:
        if "|" in line:
            argv, shell = line.replace("otisham ", python), True
        else:
            argv, shell = CLI + shlex.split(line, comments=True)[1:], False
        proc = subprocess.run(argv, shell=shell, cwd=tmp_path, capture_output=True, text=True,
                              timeout=300, env=child_env())
        code, printed = re.search(r"# exits (\d+)", line), re.search(r"# prints (\S+)", line)
        assert proc.returncode == (int(code[1]) if code else 0), (line, proc.stderr)
        assert not printed or proc.stdout == printed[1] + "\n", (line, proc.stdout)


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


def test_decide_with_a_seed_that_forces_and_deletes_one_edge(tmp_path):
    # the verdict says whether a Hamiltonian cycle extends the seed, and
    # none extends one that forces and deletes the same edge, even on a
    # triangle, which is Hamiltonian without it
    el = tmp_path / "c3.el"
    el.write_text(run("gen", "cycle", "--k", "3").stdout)
    seed = tmp_path / "seed.json"
    seed.write_text(json.dumps({"forced": [["1", "2"]], "deleted": [["1", "2"]]}))
    seeded = json.loads(run("decide", "--in", str(el), "--seed", str(seed), "--json").stdout)
    assert (seeded["verdict"], seeded["nodes"]) == ("non-hamiltonian", 1)
    assert json.loads(run("decide", "--in", str(el), "--json").stdout)["verdict"] == "hamiltonian"


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
        return Graph.from_edges(net.edges()[:-1], vertices=net.labels)

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
        (["decide", "--in", graph, "--budget-nodes", "0"], 4),
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
    args = cli.build_parser().parse_args(["decide", "--in", "x"])
    assert (args.budget_nodes, args.budget_secs) == (10_000_000, 600.0)
    assert (type(args.budget_nodes), type(args.budget_secs)) == (int, float)


def subcommand_options() -> dict[str, tuple[str, ...]]:
    """Each subcommand's arguments as the parser holds them, and each ``gen``
    family's under ``gen <family>``: option strings, or the name of a
    positional, leaving out ``-h``/``--help``."""
    def sub_parsers(parser, prefix):
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        return {prefix + name: p for name, p in sub.choices.items()}

    parsers = sub_parsers(cli.build_parser(), "")
    parsers |= sub_parsers(parsers["gen"], "gen ")
    return {
        name: tuple(opt for a in p._actions if not isinstance(a, argparse._HelpAction)
                    for opt in a.option_strings or [a.dest])
        for name, p in parsers.items()
    }


def test_each_subcommand_takes_exactly_its_options():
    # an option added or dropped later shows up here
    assert subcommand_options() == {
        "gen": ("family",),
        "gen bowtie": ("--m", "--n", "--out", "--dot"),
        "gen butterfly": ("--dim", "--out", "--dot"),
        "gen cycle": ("--k", "--out", "--dot"),
        "gen path": ("--k", "--out", "--dot"),
        "gen complete": ("--k", "--out", "--dot"),
        "otis": ("--in", "--out", "--dot"),
        "decide": ("--json", "--in", "--budget-nodes", "--budget-secs", "--seed"),
        "refute-count": ("--json", "--in"),
        "ham-build": ("--json", "--m", "--n", "--emit-key-edges", "--out"),
        "ist": ("--json", "--cycle", "--root", "--in"),
        "verify": ("--json", "--in", "--cycle"),
        "export": ("--in", "--out"),
        "reproduce": ("--json",),
        "sweep": ("--json", "--max-base"),
    }


@pytest.mark.parametrize("command,extra", [
    ("ham-build --m 7 --n 7", "--budget-nodes 5"),
    ("ham-build --m 7 --n 7", "--budget-secs 5"),
    ("sweep --max-base 7", "--budget-nodes 5"),
    ("sweep --max-base 7", "--budget-secs 5"),
    ("gen cycle --k 5", "--json"),
    ("otis --in base.el", "--json"),
    ("export --in net.el", "--json"),
])
def test_an_option_the_command_does_not_take_is_a_usage_error(command, extra, capsys):
    # only decide searches, so only decide takes a budget; gen, otis and
    # export print no payload, so they take no --json
    rc, out, err = call_main(capsys, f"{command} {extra}".split())
    assert (rc, out) == (4, "")
    assert err.endswith(f"error: unrecognized arguments: {extra}\n"), err


@pytest.mark.parametrize("command", ["", *sorted(subcommand_options())])
def test_help_prints_its_usage_on_stdout_alone(command, capsys):
    rc, out, err = call_main(capsys, [*command.split(), "--help"])
    assert (rc, err) == (0, "")
    assert out.startswith(" ".join(["usage: otisham", *command.split(), "[-h]"])), out


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

DEEP_JSON = "[" * 100_000
LONG_INTEGER_JSON = '{"verified": ' + "7" * 5000 + "}"
PATH_2400 = "V 2400\n" + "".join(f"{v} {v + 1}\n" for v in range(1, 2400))  # 8,636,400 OTIS edges

# (argv with {graph}/{file} placeholders, text of {file})
BAD_INPUTS = {
    "cycle length below 3": (["ham-build", "--m", "2", "--n", "5"], None),
    "zero node budget": (["decide", "--in", "{graph}", "--budget-nodes", "0"], None),
    "zero time budget": (["decide", "--in", "{graph}", "--budget-secs", "0"], None),
    "negative build budget": (["ham-build", "--m", "3", "--n", "5", "--budget-nodes", "-1"], None),  # no such option
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
    "key edges as DOT": (["ham-build", "--m", "7", "--n", "7", "--emit-key-edges", "--dot"], None),  # no such option
    "graph path is a directory": (["decide", "--in", "{dir}"], None),
    "gen output path is a directory": (["gen", "cycle", "--k", "5", "--out", "{dir}"], None),
    "certificate path is a directory": (["ham-build", "--m", "7", "--n", "7", "--out", "{dir}"], None),
    "output path in a missing directory": (["gen", "cycle", "--k", "5", "--out", "{dir}/missing/g.el"], None),
    "even-even certificate to a file": (["ham-build", "--m", "4", "--n", "4", "--out", "{file}"], None),
    "even-even DOT to a file": (["ham-build", "--m", "4", "--n", "4", "--dot", "--out", "{file}"], None),  # no such option
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
    # json.loads raises RecursionError and ValueError past these
    "ist certificate nested too deeply": (["ist", "--cycle", "{file}", "--root", "1"], DEEP_JSON),
    "verify certificate nested too deeply": (["verify", "--in", "{graph}", "--cycle", "{file}"], DEEP_JSON),
    "seed nested too deeply": (["decide", "--in", "{graph}", "--seed", "{file}"], DEEP_JSON),
    "ist certificate with a long integer": (["ist", "--cycle", "{file}", "--root", "1"], LONG_INTEGER_JSON),
    "seed with a long integer": (["decide", "--in", "{graph}", "--seed", "{file}"], LONG_INTEGER_JSON),
    "OTIS over the size limit": (["otis", "--in", "{file}"], PATH_2400),
}

# the one error line of each BAD_INPUTS case named here
BAD_INPUT_MESSAGES = {
    "ist certificate nested too deeply": "cycle certificate is nested too deeply",
    "verify certificate nested too deeply": "cycle certificate is nested too deeply",
    "seed nested too deeply": "seed is nested too deeply",
    "ist certificate with a long integer": "cycle certificate holds a number too long to read",
    "seed with a long integer": "seed holds a number too long to read",
    "OTIS over the size limit": "OTIS of a 2400-vertex base is over the size limit of 8388608 edges",
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
    if "--json" in subcommand_options()[argv[0]]:
        argv.append("--json")
    proc = run(*argv, check=False)
    assert proc.returncode == 4, proc.stderr
    assert proc.stdout == ""
    errors = [ln for ln in proc.stderr.splitlines() if ln.startswith("error:")]
    assert len(errors) == 1 and "Traceback" not in proc.stderr, proc.stderr
    if case in BAD_INPUT_MESSAGES:
        assert proc.stderr == f"error: {BAD_INPUT_MESSAGES[case]}\n"


# the messages that argparse itself gives, after the usage of the parser that raised them
ARGPARSE_ERRORS = ("the following arguments are required: ", "unrecognized arguments: ")


def is_error_line(err: str, message: str) -> bool:
    """Whether ``err`` is the one ``error: message`` line, after argparse's
    usage when the message is argparse's own."""
    if message.startswith(ARGPARSE_ERRORS):
        return err.startswith("usage: otisham ") and err.endswith(f"\nerror: {message}\n")
    return err == f"error: {message}\n"


@pytest.mark.parametrize("argv,message", [
    # each gen family's sub-parser takes exactly its own options
    (["gen", "bowtie", "--m", "3"], "the following arguments are required: --n"),
    (["gen", "butterfly"], "the following arguments are required: --dim"),
    (["gen", "cycle", "--k", "5", "--m", "3"], "unrecognized arguments: --m 3"),
    (["gen", "bowtie", "--m", "3", "--n", "4", "--dim", "3", "--k", "5"], "unrecognized arguments: --dim 3 --k 5"),
    (["gen", "path", "--k", "0"], "path needs k >= 1, got 0"),
    (["sweep", "--max-base", "4"], "--max-base must be >= 5"),
    (["ham-build", "--m", "7", "--n", "7", "--emit-key-edges", "--dot"], "unrecognized arguments: --dot"),
    # sizes over the limit are refused before anything is allocated
    (["gen", "cycle", "--k", "99999999999999999999"],
     "cycle of 99999999999999999999 vertices is over the size limit of 8388608 edges"),
    (["gen", "butterfly", "--dim", "64"], "butterfly of dimension 64 is over the size limit of 8388608 edges"),
    (["ham-build", "--m", "99999999999999999999", "--n", "4"],
     "OTIS(BF(99999999999999999999, 4)) is over the size limit of 8388608 edges"),
    (["sweep", "--max-base", "99999999999999999999"],
     "OTIS(BF(3, 99999999999999999997)) is over the size limit of 8388608 edges"),
    # checked before the even-even pair's own --out error
    (["ham-build", "--m", "4", "--n", "4", "--emit-key-edges", "--out", os.devnull],
     "--emit-key-edges takes no --out"),
])
def test_bad_input_message(argv, message, capsys):
    rc, out, err = call_main(capsys, argv)
    assert (rc, out) == (4, "")
    assert is_error_line(err, message), err


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
    # ham-build only builds, so the parser refuses --dot; OTIS(BF(m,n)) is
    # drawn by otis --dot over gen bowtie's file, whose link order keeps the
    # vertex numbering, and neither command builds or searches
    def refuse(*args, **kwargs):
        raise AssertionError("a drawing searched")

    for owner in (cli, constructive):
        monkeypatch.setattr(owner, "build_ham_cycle", refuse)
        monkeypatch.setattr(owner, "decide", refuse)
    rc, out, err = call_main(capsys, ["ham-build", "--m", str(m), "--n", str(n), "--dot"])
    assert (rc, out) == (4, "") and is_error_line(err, "unrecognized arguments: --dot"), err
    base = tmp_path / "b.el"
    assert call_main(capsys, ["gen", "bowtie", "--m", str(m), "--n", str(n), "--out", str(base)]) == (0, "", "")
    assert call_main(capsys, ["otis", "--in", str(base), "--dot"]) == (0, to_dot(otis(gen_bowtie(m, n))), "")


@pytest.mark.parametrize("dot,message", [
    ([], "--out needs a built cycle, and the even-even pair (4, 4) has no table"),
    (["--dot"], "unrecognized arguments: --dot"),
], ids=["certificate", "DOT"])
def test_ham_build_even_even_out_writes_nothing(dot, message, tmp_path, capsys):
    out = tmp_path / "f"
    rc, printed, err = call_main(capsys, ["ham-build", "--m", "4", "--n", "4", *dot, "--out", str(out)])
    assert (rc, printed) == (4, "") and is_error_line(err, message), err
    assert not out.exists()


# commands whose --out output rewrites one file in turn: shorter, longer and
# same-sized output, and a DOT drawing over an edge list
REWRITES = {
    "shorter": (["gen", "cycle", "--k", "50"], ["gen", "cycle", "--k", "5"]),
    "longer": (["gen", "cycle", "--k", "5"], ["gen", "cycle", "--k", "50"]),
    "same size": (["gen", "cycle", "--k", "5"], ["gen", "path", "--k", "6"]),
    "DOT over an edge list": (["gen", "cycle", "--k", "50"], ["gen", "bowtie", "--m", "3", "--n", "4", "--dot"]),
}


@pytest.mark.parametrize("case", sorted(REWRITES))
def test_out_rewrites_a_file_in_place(case, tmp_path, capsys):
    out = tmp_path / "g.out"

    def rewrite(argv) -> int:
        rc, printed, err = call_main(capsys, argv)
        assert (rc, err) == (0, "")
        assert call_main(capsys, argv + ["--out", str(out)]) == (0, "", "")
        assert out.read_bytes() == printed.encode("utf-8")  # that command's stdout, with no old tail
        return len(printed)

    first, then = REWRITES[case]
    old_size = rewrite(first)
    out.chmod(0o640)
    before = out.stat()
    new_size = rewrite(then)
    # the file is rewritten, not replaced: same inode, same mode
    after = out.stat()
    assert (after.st_ino, after.st_mode) == (before.st_ino, before.st_mode)
    assert case != "same size" or new_size == old_size


def test_out_rewrites_a_certificate_in_place(tmp_path, capsys):
    cert = tmp_path / "c.json"
    for m, n in [(7, 9), (7, 7)]:  # the second certificate is the shorter one
        rc, out, err = call_main(capsys, ["ham-build", "--m", str(m), "--n", str(n), "--out", str(cert), "--json"])
        assert (rc, err) == (0, "")
        payload = json.loads(out)
        want = {"graph_hash": payload["graph_hash"], "order": payload["cycle"], "verified": True}
        assert cert.read_text() == json.dumps(want, separators=(",", ":"), sort_keys=True) + "\n"


def test_out_opens_without_truncating(tmp_path, capsys, monkeypatch):
    # O_TRUNC would free the old file's blocks on every rewrite
    out = tmp_path / "g.el"
    flags = []
    real_open = os.open

    def recording_open(path, flag, *args, **kwargs):
        if str(path) == str(out):
            flags.append(flag)
        return real_open(path, flag, *args, **kwargs)

    monkeypatch.setattr(os, "open", recording_open)
    for k in ("50", "5"):
        assert call_main(capsys, ["gen", "cycle", "--k", k, "--out", str(out)]) == (0, "", "")
    assert len(flags) == 2 and not any(f & os.O_TRUNC for f in flags)


def test_out_to_a_device_is_not_cut(capsys):
    # /dev/null is no regular file, so the writer does not truncate it
    assert call_main(capsys, ["gen", "cycle", "--k", "5", "--out", os.devnull]) == (0, "", "")


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


def _ist_certificate(tmp_path, capsys, m, n):
    """The OTIS(BF(m,n)) edge list, its built certificate and the
    certificate's parsed payload."""
    base, net, cert = tmp_path / "b.el", tmp_path / "o.el", tmp_path / "c.json"
    assert call_main(capsys, ["gen", "bowtie", "--m", str(m), "--n", str(n), "--out", str(base)])[0] == 0
    assert call_main(capsys, ["otis", "--in", str(base), "--out", str(net)])[0] == 0
    assert call_main(capsys, ["ham-build", "--m", str(m), "--n", str(n), "--out", str(cert)])[0] == 0
    return net, cert, json.loads(cert.read_text())


def test_ist_names_a_vertex_left_off_the_cycle(tmp_path, capsys):
    net, cert, payload = _ist_certificate(tmp_path, capsys, 3, 5)
    order = payload["order"]
    # a vertex whose cycle neighbours are adjacent: without it the walk
    # keeps every tree edge in the graph, and the graph keeps its hash
    graph = otis(gen_bowtie(3, 5))
    k = next(k for k in range(1, len(order) - 1) if has_edge(graph, order[k - 1], order[k + 1]))
    dropped = order.pop(k)
    cert.write_text(json.dumps(payload))
    rc, out, err = call_main(capsys, ["ist", "--cycle", str(cert), "--root", order[0], "--in", str(net), "--json"])
    assert (rc, json.loads(out)["independent"]) == (3, False)
    assert err == f"error: no root path for {dropped}\n"


def test_ist_names_a_tree_edge_to_a_foreign_label(tmp_path, capsys):
    net, cert, payload = _ist_certificate(tmp_path, capsys, 7, 7)
    order = payload["order"]
    order[2] = "zz"
    cert.write_text(json.dumps(payload))
    rc, out, err = call_main(capsys, ["ist", "--cycle", str(cert), "--root", order[0], "--in", str(net), "--json"])
    assert (rc, json.loads(out)["independent"]) == (3, False)
    # tree 1 walks against the cycle: its first edge is order[1] to order[2]
    assert err == f"error: tree edge {order[1]}-zz not in graph\n"


@pytest.mark.parametrize("command", [
    ["decide", "--in", "{file}"],
    ["decide", "--in", "{graph}", "--seed", "{file}"],
    ["ist", "--cycle", "{file}", "--root", "1"],
], ids=["decide --in", "decide --seed", "ist --cycle"])
def test_input_that_is_not_utf8_is_a_usage_error(command, tmp_path, capsys):
    graph, file = tmp_path / "c4.el", tmp_path / "input"
    graph.write_text("V 4\n1 2\n2 3\n3 4\n4 1\n")
    file.write_bytes(b"V 4\n1 2\n\xff\xfe\n")
    argv = [a.format(graph=graph, file=file) for a in command]
    assert call_main(capsys, argv) == (4, "", f"error: {file} is not UTF-8 text\n")


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["human", "json"])
def test_ist_certificate_of_another_graph_is_a_mismatch(json_flag, tmp_path, capsys):
    net, cert, payload = _ist_certificate(tmp_path, capsys, 3, 5)
    argv = ["ist", "--cycle", str(cert), "--root", payload["order"][0], *json_flag]
    assert call_main(capsys, argv + ["--in", str(net)])[0] == 0
    other = tmp_path / "other.el"
    other.write_text(write_edge_list(otis(gen_bowtie(3, 4))))
    message = "error: certificate does not match the supplied graph\n"
    assert call_main(capsys, argv + ["--in", str(other)]) == (3, "", message)


EVEN_EVEN_PAIRS = [(4, 4), (4, 6), (6, 8)]


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["human", "json"])
@pytest.mark.parametrize("m,n", EVEN_EVEN_PAIRS)
def test_every_ham_build_mode_gives_an_even_even_pair_one_report(m, n, json_flag, capsys):
    def report(*mode):
        rc, out, err = call_main(capsys, ["ham-build", "--m", str(m), "--n", str(n), *mode, *json_flag])
        assert (rc, err) == (0, "")
        return [line for line in out.splitlines() if not line.startswith("wall_ms: ")]

    build = report()
    assert report("--emit-key-edges") == build
    if json_flag:
        assert json.loads(build[0])["failure"] == "unsupported-class"
    else:
        assert build[:4] == [f"m: {m}", f"n: {n}", "class: even-even", "failure: unsupported-class"]


def test_sweep_gives_an_even_even_pair_the_ham_build_detail(capsys):
    rc, out, _ = call_main(capsys, ["sweep", "--max-base", "13", "--json"])
    assert rc == 0
    entries = {(e["m"], e["n"]): e for e in json.loads(out)["entries"]}
    for m, n in EVEN_EVEN_PAIRS:
        detail = json.loads(call_main(capsys, ["ham-build", "--m", str(m), "--n", str(n), "--json"])[1])["detail"]
        assert (entries[m, n]["status"], entries[m, n]["detail"]) == ("unsupported", detail)
