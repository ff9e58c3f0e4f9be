"""The three workloads: their inputs, their commands and the checks that
judge each command's output.

``make_inputs`` runs in a set-up child process and writes the input files
through the program's own commands; ``commands`` runs in the measuring
process and pairs every command line with a check built in ``checks``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks

WORKLOADS = ("build", "ist", "decide")

# ham-build pairs, normalised as the program stores them: the odd cycle on
# the left when parities differ, m <= n otherwise.  Between them they use
# all five key-edge tables and the two decider-fallback pairs.
FALLBACK_PAIRS = [(3, 3), (5, 7)]  # small-figure class: the decider, no table
BUILD_PAIRS = FALLBACK_PAIRS + [
    (7, 7), (11, 11), (21, 21),                # odd-odd-equal
    (7, 8), (13, 12), (15, 16), (31, 30),      # odd-even-general
    (7, 9),                                    # odd-odd-general
    (3, 14),                                   # odd-even-3
    (3, 15),                                   # odd-odd-3n
]
IST_PAIRS = [(7, 7), (9, 9), (11, 11), (17, 17)]
# decide inputs: name -> (gen arguments, base from its definition, Hamiltonian?)
DECIDE_BASES = {
    "OTIS(BF(4,4))": (["bowtie", "--m", "4", "--n", "4"], checks.bowtie_base(4, 4), False),
    "OTIS(BF(4,6))": (["bowtie", "--m", "4", "--n", "6"], checks.bowtie_base(4, 6), False),
    "OTIS(C_7)": (["cycle", "--k", "7"], checks.cycle_base(7), True),
    "OTIS(C_12)": (["cycle", "--k", "12"], checks.cycle_base(12), True),
    "OTIS(K_5)": (["complete", "--k", "5"], checks.complete_base(5), True),
    "OTIS(K_8)": (["complete", "--k", "8"], checks.complete_base(8), True),
    "OTIS(BF(4,10))": (["bowtie", "--m", "4", "--n", "10"], checks.bowtie_base(4, 10), True),
    "OTIS(BF(6,8))": (["bowtie", "--m", "6", "--n", "8"], checks.bowtie_base(6, 8), True),
    "OTIS(WBF(3))": (["butterfly", "--dim", "3"], checks.butterfly_base(3), True),
}
LARGEST = {"build": "BF(31,30)", "ist": "BF(17,17)", "decide": "OTIS(BF(6,8))"}
SMALL_MAX_VERTICES = 500
IST_SAMPLE = 64  # vertices whose root paths are checked on the largest ist input


@dataclass(frozen=True)
class Command:
    """One whole CLI command of a pass and what judges its output."""

    label: str
    instance: str
    argv: tuple[str, ...]
    vertices: int
    kind: str
    check: Callable[[dict], str | None]
    largest: bool

    @property
    def small(self) -> bool:
        return self.vertices <= SMALL_MAX_VERTICES and not self.largest


def _bf(m: int, n: int) -> str:
    return f"BF({m},{n})"


def _roots(m: int, n: int) -> list[str]:
    """The sweep's three roots: the first vertex, c:c and the last vertex."""
    i = m + n - 1
    return ["1:1", f"{m}:{m}", f"{i}:{i}"]


def make_inputs(workload: str, workdir: Path, run: Callable[[list[str]], str]) -> None:
    """Write the workload's input files with the program's own commands;
    ``run`` executes one command and returns its standard output."""
    workdir.mkdir(parents=True, exist_ok=True)
    if workload == "ist":
        for m, n in IST_PAIRS:
            stem = workdir / f"bf{m}_{n}"
            run(["gen", "bowtie", "--m", str(m), "--n", str(n), "--out", f"{stem}.base"])
            run(["otis", "--in", f"{stem}.base", "--out", f"{stem}.el"])
            out = json.loads(run(["ham-build", "--m", str(m), "--n", str(n), "--json"]))
            cert = {"graph_hash": out["graph_hash"], "order": out["cycle"], "verified": out["verified"]}
            Path(f"{stem}.cycle.json").write_text(json.dumps(cert), encoding="utf-8")
    elif workload == "decide":
        for k, (gen_args, _, _) in enumerate(DECIDE_BASES.values()):
            stem = workdir / f"g{k}"
            run(["gen", *gen_args, "--out", f"{stem}.base"])
            run(["otis", "--in", f"{stem}.base", "--out", f"{stem}.el"])


def commands(workload: str, workdir: Path, rng: random.Random) -> list[Command]:
    """The workload's pass, in a fixed order, with checks bound to hosts
    derived here from the definitions."""
    out: list[Command] = []

    def add(label, instance, argv, host, kind, check):
        largest = instance == LARGEST[workload]
        out.append(Command(label, instance, tuple(argv), len(host.vertices), kind, check, largest))

    if workload == "build":
        for m, n in BUILD_PAIRS:
            host = checks.otis_host(checks.bowtie_base(m, n))
            check = lambda o, h=host, m=m, n=n: checks.check_build(o, h, m, n)
            argv = ("ham-build", "--m", str(m), "--n", str(n))
            add(_bf(m, n), _bf(m, n), argv, host, "ham-build", check)
    elif workload == "ist":
        for m, n in IST_PAIRS:
            stem = workdir / f"bf{m}_{n}"
            host = _input_host(Path(f"{stem}.el"), checks.bowtie_base(m, n))
            verts = sorted(host.vertices)
            for root in _roots(m, n):
                sample = rng.sample(verts, IST_SAMPLE) if _bf(m, n) == LARGEST["ist"] else verts
                check = lambda o, h=host, r=root, s=sample: checks.check_ist(o, h, r, s)
                argv = ("ist", "--cycle", f"{stem}.cycle.json", "--root", root, "--in", f"{stem}.el")
                add(f"{_bf(m, n)} root {root}", _bf(m, n), argv, host, "ist", check)
    else:
        for k, (name, (_, base, hamiltonian)) in enumerate(DECIDE_BASES.items()):
            path = workdir / f"g{k}.el"
            host = _input_host(path, base)
            check = lambda o, h=host, ham=hamiltonian: checks.check_decide(o, h, ham)
            add(name, name, ("decide", "--in", str(path)), host, "decide", check)
            if name == "OTIS(BF(4,4))":
                check = lambda o, h=host: checks.check_refute_count(o, h)
                add(f"refute-count {name}", name, ("refute-count", "--in", str(path)), host, "refute-count", check)
    return out


def _input_host(path: Path, base) -> checks.Host:
    """The graph in an input file, which must be the OTIS of ``base``."""
    host = checks.parse_edge_list(path.read_text(encoding="utf-8"))
    if host.adj != checks.otis_host(base).adj:
        raise SystemExit(f"error: {path.name} is not the OTIS network its definition gives")
    return host
