"""Golden outputs: sha256 digests of whole CLI outputs and of contradiction
witnesses, pinned so that refactors keep every byte the same.

Each case runs one ``otisham`` command in-process and digests its exit code
and standard output; witness cases digest the full ``repr`` of every
contradiction a probe reaches.  The digests live in
``data/golden_digests.json``.  Regenerate them, only for an intended change
of output, with::

    PYTHONPATH=src python tests/test_golden.py --write
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from otisham.cli import main, sweep_pairs
from otisham.constructive import key_edges
from otisham.engine import Contradiction, EdgeAssignment, decide, propagate
from otisham.topology import gen_bowtie, gen_butterfly, gen_complete, gen_cycle, otis

DIGESTS = Path(__file__).parent / "data" / "golden_digests.json"

BUILD_PAIRS = [(m, n) for m in range(3, 16) for n in range(m, 17)] + [(21, 21), (31, 30), (4, 4)]
GEN_ARGS = {
    "BF(3,3)": ["bowtie", "--m", "3", "--n", "3"],
    "BF(3,4)": ["bowtie", "--m", "3", "--n", "4"],
    "BF(4,4)": ["bowtie", "--m", "4", "--n", "4"],
    "BF(4,6)": ["bowtie", "--m", "4", "--n", "6"],
    "BF(4,10)": ["bowtie", "--m", "4", "--n", "10"],
    "BF(6,8)": ["bowtie", "--m", "6", "--n", "8"],
    "BF(7,4)": ["bowtie", "--m", "7", "--n", "4"],
    "WBF(3)": ["butterfly", "--dim", "3"],
    "C_7": ["cycle", "--k", "7"],
    "C_12": ["cycle", "--k", "12"],
    "K_5": ["complete", "--k", "5"],
    "K_8": ["complete", "--k", "8"],
    "P_4": ["path", "--k", "4"],
}
IST_PAIRS = [(7, 7), (3, 8), (5, 4), (5, 7)]
# one of each table class, drawn by otis --dot over gen bowtie's file
DOT_PAIRS = [(7, 7), (7, 9), (7, 8), (3, 14), (3, 15), (5, 7)]
CERTIFICATE_PAIRS = [(7, 7), (31, 30)]  # ham-build --out
WITNESS_BASES = {
    "BF(3,3)": lambda: gen_bowtie(3, 3),
    "BF(3,4)": lambda: gen_bowtie(3, 4),
    "BF(4,4)": lambda: gen_bowtie(4, 4),
    "BF(4,6)": lambda: gen_bowtie(4, 6),
    "C_5": lambda: gen_cycle(5),
    "K_4": lambda: gen_complete(4),
    "WBF(3)": lambda: gen_butterfly(3),
}
TABLE_MAX_BASE = 45  # key-edge rows of every supported pair with m + n - 1 up to this
WITNESS_EDGE_CAP = 120  # probe every k-th edge so each graph gets at most this many


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_cli(*argv) -> str:
    """Exit code and standard output of one in-process command, less the
    ``wall_ms:`` line that ends a human-readable report: a timing is not
    output that a refactor keeps byte for byte."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main([str(a) for a in argv])
        except SystemExit as exc:
            code = exc.code
    kept = [ln for ln in out.getvalue().splitlines(keepends=True) if not ln.startswith("wall_ms: ")]
    return f"{code}\n{''.join(kept)}"


def _gen_files(workdir: Path) -> dict[str, tuple[Path, Path]]:
    """name -> (base edge list, OTIS edge list), both written by the CLI."""
    files = {}
    for name, args in GEN_ARGS.items():
        base, net = workdir / f"{len(files)}.base", workdir / f"{len(files)}.el"
        assert run_cli("gen", *args, "--out", base).startswith("0\n")
        assert run_cli("otis", "--in", base, "--out", net).startswith("0\n")
        files[name] = (base, net)
    return files


def ham_build_outputs(workdir: Path) -> dict[str, str]:
    out = {f"({m},{n})": run_cli("ham-build", "--m", m, "--n", n, "--json") for m, n in BUILD_PAIRS}
    out["(4,4) human"] = run_cli("ham-build", "--m", 4, "--n", 4)
    return out


def key_edge_outputs(workdir: Path) -> dict[str, str]:
    # even-even pairs are left out: their --emit-key-edges output is not pinned
    out = {
        f"({m},{n})": run_cli("ham-build", "--m", m, "--n", n, "--emit-key-edges", "--json")
        for m, n in BUILD_PAIRS
        if m % 2 or n % 2
    }
    # the table rows themselves, (cluster, a, b, tag) in order, far past the
    # CLI cases above
    out[f"key_edges m+n-1 <= {TABLE_MAX_BASE}"] = "\n".join(
        f"({m},{n}) {[(ke.cluster, ke.a, ke.b, ke.tag) for ke in key_edges(m, n)]}"
        for m, n in sweep_pairs(TABLE_MAX_BASE)
        if m % 2 or n % 2
    )
    return out


def graph_file_outputs(workdir: Path) -> dict[str, str]:
    out = {}
    for name, (base, net) in _gen_files(workdir).items():
        args = GEN_ARGS[name]
        out[f"gen {name}"] = run_cli("gen", *args)
        out[f"gen {name} --dot"] = run_cli("gen", *args, "--dot")
        out[f"otis {name}"] = run_cli("otis", "--in", base)
        out[f"otis {name} --dot"] = run_cli("otis", "--in", base, "--dot")
        out[f"export OTIS({name})"] = run_cli("export", "--in", net)
    for m, n in DOT_PAIRS:
        base = workdir / f"bf{m}_{n}.base"
        assert run_cli("gen", "bowtie", "--m", m, "--n", n, "--out", base).startswith("0\n")
        out[f"otis BF({m},{n}) --dot"] = run_cli("otis", "--in", base, "--dot")
    return out


def decide_outputs(workdir: Path) -> dict[str, str]:
    out = {}
    files = _gen_files(workdir)
    for name, (base, net) in files.items():
        out[f"decide OTIS({name})"] = run_cli("decide", "--in", net, "--json")
        out[f"decide {name}"] = run_cli("decide", "--in", base, "--json")
        out[f"refute-count OTIS({name})"] = run_cli("refute-count", "--in", net, "--json")
        out[f"decide OTIS({name}) 7 nodes"] = run_cli("decide", "--in", net, "--budget-nodes", "7", "--json")
    seed = workdir / "seed.json"
    seed.write_text(json.dumps({"forced": [["4:3", "4:4"]], "deleted": [["4:1", "4:4"]]}))
    out["decide OTIS(BF(4,6)) seeded"] = run_cli(
        "decide", "--in", files["BF(4,6)"][1], "--seed", seed, "--json"
    )
    return out


def certificate_outputs(workdir: Path) -> dict[str, str]:
    out = {}
    for m, n in IST_PAIRS:
        base, net = workdir / f"bf{m}_{n}.base", workdir / f"bf{m}_{n}.el"
        run_cli("gen", "bowtie", "--m", m, "--n", n, "--out", base)
        run_cli("otis", "--in", base, "--out", net)
        built = json.loads(run_cli("ham-build", "--m", m, "--n", n, "--json").split("\n", 1)[1])
        cert = workdir / f"bf{m}_{n}.json"
        cert.write_text(json.dumps({k: built[k] for k in ("graph_hash", "verified")} | {"order": built["cycle"]}))
        i = m + n - 1
        for root in ("1:1", f"{min(m, n)}:{i}", f"{i}:{i}"):
            out[f"ist ({m},{n}) {root}"] = run_cli("ist", "--cycle", cert, "--root", root, "--in", net, "--json")
            out[f"ist ({m},{n}) {root} no graph"] = run_cli("ist", "--cycle", cert, "--root", root, "--json")
        out[f"verify ({m},{n})"] = run_cli("verify", "--in", net, "--cycle", cert, "--json")
        out[f"verify ({m},{n}) base"] = run_cli("verify", "--in", base, "--cycle", cert, "--json")
    for m, n in CERTIFICATE_PAIRS:
        cert = workdir / f"built{m}_{n}.json"
        run_cli("ham-build", "--m", m, "--n", n, "--out", cert)
        out[f"ham-build ({m},{n}) --out certificate"] = cert.read_text()
    return out


def survey_outputs(workdir: Path) -> dict[str, str]:
    return {
        "reproduce": run_cli("reproduce", "--json"),
        "sweep --max-base 13": run_cli("sweep", "--max-base", "13", "--json"),
    }


def _state_text(res) -> str:
    if isinstance(res, Contradiction):
        return repr(res)
    return bytes(res.state).hex()


def witness_outputs(workdir: Path) -> dict[str, str]:
    """Every contradiction (or fixpoint) reached by forcing or deleting one
    edge of an OTIS network after a whole-graph pass, plus the decider's
    counts and cycle on the network."""
    out = {}
    for name, make in WITNESS_BASES.items():
        graph = otis(make())
        lines = [_state_text(propagate(EdgeAssignment.for_graph(graph)))]
        edges = graph.edges()
        for u, v in edges[:: max(1, len(edges) // WITNESS_EDGE_CAP)]:
            for action in ("seed_force", "seed_delete"):
                asg = EdgeAssignment.for_graph(graph)
                asg.run()
                getattr(asg, action)(u, v)
                res = asg.conflict if asg.conflict is not None else propagate(asg)
                lines.append(f"{action} {u} {v}: {_state_text(res)} steps={asg.steps}")
        verdict = decide(graph)
        lines.append(repr(verdict))
        out[f"OTIS({name})"] = "\n".join(lines)
    return out


FAMILIES = {
    "ham-build": ham_build_outputs,
    "key-edges": key_edge_outputs,
    "graph-files": graph_file_outputs,
    "decide": decide_outputs,
    "certificates": certificate_outputs,
    "survey": survey_outputs,
    "witnesses": witness_outputs,
}


@pytest.fixture(scope="module")
def pinned() -> dict[str, dict[str, str]]:
    return json.loads(DIGESTS.read_text())


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_outputs_match_pinned_digests(family, pinned, tmp_path):
    current = {case: _digest(text) for case, text in FAMILIES[family](tmp_path).items()}
    expected = pinned[family]
    assert sorted(current) == sorted(expected)
    changed = sorted(case for case in current if current[case] != expected[case])
    assert changed == [], f"{family}: output changed for {changed}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        digests = {}
        for family, fn in sorted(FAMILIES.items()):
            workdir = Path(tmp) / family
            workdir.mkdir()
            digests[family] = {case: _digest(text) for case, text in fn(workdir).items()}
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {sum(map(len, digests.values()))} digests to {DIGESTS}")
