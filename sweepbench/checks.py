"""Output checks for one sweep unit, run outside the timed window.

Every check compares the program's output with an independent answer:
the original edge list, the registry's declared Table 2 behaviour, or
networkx on the collected edge list. A digest of the sparsified edge set
is recorded for information only; it is never compared, because seeded
sparsifiers are expected to change output when their seeding changes.
"""
from __future__ import annotations

import hashlib
import math

import networkx as nx
import numpy as np
import pandas as pd

from repro.sparsifiers.base import target_edges


def edge_problems(orig: pd.DataFrame, spec, rho: float | None,
                  out: pd.DataFrame, out_directed: bool) -> list[str]:
    """Non-empty, subset, orientation, duplicate, prune-rate and weight checks."""
    problems = []
    if out.empty:  # Definition 1 keeps at least one edge at any rho < 1
        problems.append("no edges kept")
    if not out_directed and (out["src"] >= out["dst"]).any():
        problems.append("undirected output not in src<dst orientation")
    if out.duplicated(["src", "dst"]).any():
        problems.append("duplicate (src, dst) pairs")
    joined = out.merge(orig, on=["src", "dst"], how="left", suffixes=("", "_orig"))
    if joined["weight_orig"].isna().any():
        problems.append("edges not in the original graph")
    elif not spec.changes_weights and not np.array_equal(
        joined["weight"].to_numpy(), joined["weight_orig"].to_numpy()
    ):
        problems.append(f"{spec.abbrev} changed weights but declares it does not")
    if spec.prune_rate_control == "fine" and rho is not None:
        want = target_edges(len(orig), rho)
        if abs(len(out) - want) > prune_rate_slack(spec.abbrev, want):
            problems.append(f"kept {len(out)} edges, fine prune-rate target {want}")
    return problems


# Fine-control sparsifiers that sample with replacement and so meet the
# target only in expectation; every other fine one keeps exactly k edges.
SAMPLED_FINE = ("ERw", "ERu")


def prune_rate_slack(abbrev: str, want: int) -> float:
    """Allowed |kept - target| for a fine prune-rate sparsifier.

    The number of distinct edges in a with-replacement sample is a sum of
    negatively correlated indicators whose means add up to the target, so
    its standard deviation is at most sqrt(target); allow four of them.
    """
    return 4.0 * math.sqrt(want) if abbrev in SAMPLED_FINE else 0.0


def prune_rate_error(m: int, rho: float, kept: int) -> float:
    """|kept - target| / target for one unit."""
    want = target_edges(m, rho)
    return abs(kept - want) / want


def value_problems(values: dict, ratios: tuple[str, ...]) -> list[str]:
    """Metric values must be finite; ratios and precisions lie in [0, 1]."""
    problems = []
    for k, v in values.items():
        if not math.isfinite(v):
            problems.append(f"{k} is {v}")
        elif k in ratios and not 0.0 <= v <= 1.0:
            problems.append(f"{k}={v} outside [0, 1]")
    return problems


def digest(edges: pd.DataFrame) -> str:
    """Short hash of the sorted (src, dst) pairs, recorded as information."""
    pairs = edges[["src", "dst"]].sort_values(["src", "dst"]).to_numpy(np.int64)
    return hashlib.sha256(pairs.tobytes()).hexdigest()[:16]


def nx_graph(n: int, edges: pd.DataFrame, directed: bool):
    G = nx.DiGraph() if directed else nx.Graph()
    G.add_nodes_from(range(n))
    G.add_edges_from(zip(edges["src"].tolist(), edges["dst"].tolist()))
    return G


def component_problems(G: nx.Graph, labels: pd.DataFrame) -> list[str]:
    """Hash-min labels must equal networkx components, labelled by min id."""
    got = dict(zip(labels["v"].tolist(), labels["comp"].tolist()))
    want = {}
    for comp in nx.connected_components(G.to_undirected(as_view=True)):
        low = min(comp)
        want.update((v, low) for v in comp)
    if got == want:
        return []
    n_got, n_want = len(set(got.values())), len(set(want.values()))
    return [f"components: {n_got} labels, networkx finds {n_want}"]


def bfs_problems(G, sources: list[int], dist: pd.DataFrame, hops: int) -> list[str]:
    """Multi-source distances must equal networkx BFS to ``hops`` exactly."""
    got = {(int(s), int(v)): float(d) for s, v, d in dist[["s", "v", "dist"]].itertuples(index=False)}
    want = {
        (s, v): float(d)
        for s in sources
        for v, d in nx.single_source_shortest_path_length(G, s, cutoff=hops).items()
    }
    if got == want:
        return []
    wrong = sum(1 for k in want if got.get(k) != want[k]) + len(set(got) - set(want))
    return [f"bfs: {wrong} of {len(want)} (source, vertex) distances differ from networkx"]


def pagerank_problems(G, scores: pd.DataFrame, *, damping: float, iters: int) -> list[str]:
    """PageRank equals networkx's Google matrix power-iterated ``iters`` times.

    Same start vector (uniform) and round count as the program, so the
    two agree to rounding; 1e-6 is the tolerance tests/ use for PageRank.
    """
    n = G.number_of_nodes()
    M = nx.google_matrix(G, alpha=damping, nodelist=range(n))
    x = np.full(n, 1.0 / n)
    for _ in range(iters):
        x = x @ M
    ours = scores.sort_values("v")["score"].to_numpy()
    err = float(np.abs(ours - np.asarray(x).ravel()).max())
    return [] if err < 1e-6 else [f"pagerank differs from networkx by {err:.3g}"]
