"""Text interchange: edge-list files, DOT export, cycle certificates."""

from __future__ import annotations

import json
import math

from .graph import Graph, GraphError


def write_edge_list(graph: Graph) -> str:
    """``V <count>`` header, then one ``u v`` line per edge.

    Isolated vertices are emitted first, as bare-label lines, so every
    graph's text round-trips byte for byte.  Read back, the vertices are
    numbered in order of first appearance in the text, so only a graph
    that numbered them in that order, as one that numbers each vertex
    when it first links it does, keeps its numbering.
    """
    lines = [f"V {graph.n_vertices}"]
    lines += [v for v, inc in zip(graph.labels, graph.incident) if not inc]
    for u, v in graph.edges():
        lines.append(f"{u} {v}")
    return "\n".join(lines) + "\n"


def read_edge_list(text: str) -> Graph:
    """The graph of a ``write_edge_list`` text.  Blank lines are skipped and
    only the header is stripped; a label not yet in ``index`` is numbered
    by ``add_vertex``."""
    lines = iter(text.splitlines())
    header = next((ln for ln in map(str.strip, lines) if ln), "")
    if not header.startswith("V "):
        raise GraphError("edge list must start with a 'V <count>' line")
    try:
        _, count_text = header.split()
        count = int(count_text)
    except ValueError:
        raise GraphError(f"bad vertex count line: {header!r}") from None
    g = Graph()
    index, add_vertex, link = g.index.get, g.add_vertex, g.link
    for ln in lines:  # the lines after the header
        parts = ln.split()
        if len(parts) == 2:
            u, v = parts
            a, b = index(u), index(v)
            link(add_vertex(u) if a is None else a, add_vertex(v) if b is None else b)
        elif len(parts) == 1:
            add_vertex(parts[0])
        elif parts:
            raise GraphError(f"bad edge line: {ln.strip()!r}")
    if g.n_vertices != count:
        raise GraphError(f"declared {count} vertices, found {g.n_vertices}")
    return g


def _dot_id(text: str) -> str:
    """``text`` as a DOT quoted string, with backslashes and quotes escaped
    so that no label can end the string early."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _otis_clusters(labels: list[str]) -> dict[str, list[str]] | None:
    """Labels grouped by cluster g when they are exactly the ``g:u`` labels
    over one set of N base labels, N^2 of them, each split at its middle
    ':' (a base label may hold ':' itself); None for any other graph."""
    size = math.isqrt(len(labels))
    if size * size != len(labels):
        return None
    groups: dict[str, list[str]] = {}
    processors = set()
    for v in labels:
        parts = v.split(":")
        if len(parts) % 2:
            return None
        half = len(parts) // 2
        groups.setdefault(":".join(parts[:half]), []).append(v)
        processors.add(":".join(parts[half:]))
    if len(groups) != size or processors != set(groups):
        return None
    return groups


def to_dot(graph: Graph) -> str:
    """DOT text; the vertices of an OTIS network are grouped into DOT
    subgraphs, one per cluster."""
    out = ['graph "g" {']
    groups = _otis_clusters(graph.labels)
    if groups is not None:
        for gname, members in groups.items():
            out.append(f"  subgraph {_dot_id('cluster_' + gname)} {{")
            out.append(f"    label={_dot_id(gname)};")
            for v in members:
                out.append(f"    {_dot_id(v)};")
            out.append("  }")
    else:
        for v in graph.labels:
            out.append(f"  {_dot_id(v)};")
    for u, v in graph.edges():
        out.append(f"  {_dot_id(u)} -- {_dot_id(v)};")
    out.append("}")
    return "\n".join(out) + "\n"


def write_cycle_certificate(cycle, digest: str) -> str:
    """The certificate of a cycle that ``build_ham_cycle`` has verified, on
    the graph whose ``graph_hash`` is ``digest``."""
    payload = {"graph_hash": digest, "order": list(cycle), "verified": True}
    return json.dumps(payload, indent=None, separators=(",", ":"), sort_keys=True)


def _load_json(text: str, what: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphError(f"{what} is not valid JSON: {exc}") from None
    except RecursionError:
        raise GraphError(f"{what} is nested too deeply") from None
    except ValueError:  # an integer past CPython's digit limit
        raise GraphError(f"{what} holds a number too long to read") from None


def _is_labels(value, length: int | None = None) -> bool:
    return (
        isinstance(value, list)
        and (length is None or len(value) == length)
        and all(isinstance(v, str) for v in value)
    )


def read_cycle_certificate(text: str) -> dict:
    payload = _load_json(text, "cycle certificate")
    if not isinstance(payload, dict):
        raise GraphError("cycle certificate must be a JSON object")
    for field in ("graph_hash", "order", "verified"):
        if field not in payload:
            raise GraphError(f"cycle certificate missing {field!r}")
    if not isinstance(payload["graph_hash"], str):
        raise GraphError("cycle certificate 'graph_hash' must be a string")
    if not _is_labels(payload["order"]):
        raise GraphError("cycle certificate 'order' must be a list of vertex labels")
    if not isinstance(payload["verified"], bool):
        raise GraphError("cycle certificate 'verified' must be true or false")
    return payload


def read_seed(text: str) -> tuple[list[list[str]], list[list[str]]]:
    """(forced, deleted) label pairs of a seed file
    ``{"forced": [[u, v], ...], "deleted": [[u, v], ...]}``; either key may
    be left out."""
    payload = _load_json(text, "seed")
    if not isinstance(payload, dict) or not set(payload) <= {"forced", "deleted"}:
        raise GraphError('seed must be a JSON object with keys "forced" and "deleted" only')
    forced, deleted = payload.get("forced", []), payload.get("deleted", [])
    for pairs in (forced, deleted):
        if not isinstance(pairs, list) or not all(_is_labels(p, 2) for p in pairs):
            raise GraphError("seed pairs must be lists of [u, v] vertex labels")
    return forced, deleted
