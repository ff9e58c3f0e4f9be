"""Hamiltonicity toolkit for swapped (OTIS) interconnection networks."""

from .graph import (
    Graph,
    GraphError,
    HamCycle,
    graph_hash,
    is_hamiltonian_cycle,
)
from .topology import (
    BowtieParams,
    gen_bowtie,
    gen_butterfly,
    gen_complete,
    gen_cycle,
    gen_path,
    otis,
)
from .engine import (
    Contradiction,
    CountingCertificate,
    EdgeAssignment,
    HamVerdict,
    SearchBudget,
    counting_refutation,
    decide,
    propagate,
)
from .constructive import (
    BuildResult,
    FailureReport,
    KeyEdge,
    ParamClass,
    build_ham_cycle,
    classify,
    key_edges,
)
from .trees import TreePair, build_ists, independence_report

__version__ = "0.1.0"
