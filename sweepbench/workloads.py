"""The benchmark's workloads and their metric closures.

Each workload puts most of its Spark work on a different layer, so a
change to one layer moves one workload's ``sweep_s`` and predicts no
change on the other:

* ``sparsify-sweep`` — the ``sparsifiers`` layer; the metric is only the
  output check.
* ``metric-sweep`` — the Spark-iterative loops of ``metrics``: the
  fixed-count power loops of ``centrality`` (PageRank, Katz, eigenvector)
  and the diameter-bound loops of ``connectivity`` (hash-min components)
  and ``paths`` (multi-source BFS, capped at 4 hops), on a spanning forest.

Sizes are set so that one benchmark run, JVM start included, stays well
inside its time budget: at lite scale a Spark job costs 50-100 ms whatever
the graph size, so the sizes below count Spark rounds, not edges.

A workload object holds one run's state (references, sampled sources);
it is created per run and seeded by the workload seed, which also seeds
the dataset and the sparsifiers.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.core.graph import Graph
from repro.metrics import centrality, connectivity, paths

from checks import (
    bfs_problems, component_problems, nx_graph, pagerank_problems,
)


class Workload:
    name = ""
    dataset = ""
    scale = 1.0
    sparsifiers: tuple[str, ...] = ()
    rhos: tuple[float, ...] = ()
    ratios: tuple[str, ...] = ()  # metric keys that must lie in [0, 1]

    def __init__(self, seed: int):
        self.seed = seed

    def references(self, g: Graph, tracer) -> None:
        """Original-graph reference metrics, computed during set-up."""

    def evaluate(self, g: Graph, h: Graph, tracer, unit: int) -> tuple[dict, dict]:
        """Metric values for one sparsified graph, plus raw outputs to check."""
        return {}, {}

    def check(self, h: Graph, edges: pd.DataFrame, values: dict,
              outputs: dict) -> list[str]:
        """Workload-specific output checks on one unit (untimed)."""
        return []

    def check_references(self, g: Graph, edges: pd.DataFrame) -> list[str]:
        """Checks on the set-up references (untimed)."""
        return []


class SparsifySweep(Workload):
    """Fig 14's graph: RD's expansion loop, K-Neighbor's per-vertex ranking,
    the driver-side SF and ER kernels and RN; the metric is only the check."""

    name = "sparsify-sweep"
    dataset = "proteins_lite"
    scale = 0.5  # at 0.25 (rho 0.97) RD took 27-100 jobs depending on the seed
    sparsifiers = ("RN", "KN", "RD", "SF", "ERu")
    rhos = (0.99,)


class MetricSweep(Workload):
    """Figs 1, 4, 6, 7 and 11's metrics on the spanning forest of astroph_lite,
    whose diameter (4-6) sets the component round count."""

    name = "metric-sweep"
    dataset = "astroph_lite"
    scale = 0.1
    sparsifiers = ("SF",)
    rhos = ()  # SF has no prune-rate control
    iters = {"pagerank": 2, "katz": 2, "eigenvector": 2}
    damping = 0.85
    n_sources = 4
    # BFS hop cap. A BFS runs exactly this many frontier rounds whenever some
    # source's eccentricity in the forest is 3 or more, as on all 20 seeds
    # tried; uncapped, 4 of them took one round more or one fewer than the rest.
    bfs_hops = 4
    ratios = ("pagerank_p", "katz_p", "eigenvector_p", "unreachable", "isolated",
              "newly_unreachable")

    def _score(self, fn: str, g: Graph):
        if fn == "pagerank":
            return centrality.pagerank(g, damping=self.damping, iters=self.iters[fn])
        if fn == "katz":
            return centrality.katz_centrality(g, iters=self.iters[fn])
        return centrality.eigenvector_centrality(g, iters=self.iters[fn])

    def _distances(self, g: Graph) -> pd.DataFrame:
        return paths.multi_source_distances(
            g, self.sources, max_iter=self.bfs_hops).toPandas()

    def references(self, g, tracer):
        self.k = max(5, min(100, g.n // 4))  # figures' top-k clamp
        self.sources = paths.sample_sources(g, self.n_sources, seed=self.seed)
        self.refs = {}
        for fn in self.iters:
            with tracer.span(f"metrics.ref.{fn}"):
                self.refs[fn] = self._score(fn, g)
        with tracer.span("metrics.ref.bfs"):
            self.d0 = self._distances(g)

    def evaluate(self, g, h, tracer, unit):
        values = {}
        for fn in self.iters:
            with tracer.span(f"metrics.{fn}", unit=unit):
                values[f"{fn}_p"] = centrality.top_k_precision(
                    self.refs[fn], self._score(fn, h), k=self.k
                )
        with tracer.span("metrics.components", unit=unit):
            labels = connectivity.connected_components(h).toPandas()
        with tracer.span("metrics.isolated", unit=unit):
            values["isolated"] = connectivity.isolated_ratio(h)
        with tracer.span("metrics.bfs", unit=unit):
            dist = self._distances(h)
        values["unreachable"] = _unreachable(labels, h.n)
        values.update(_stretch(self.d0, dist))
        return values, {"labels": labels, "dist": dist}

    def check(self, h, edges, values, outputs):
        G = nx_graph(h.n, edges, h.directed)
        problems = component_problems(G, outputs["labels"])
        problems += bfs_problems(G, self.sources, outputs["dist"], self.bfs_hops)
        if values["spsp_stretch"] < 1.0:  # distances cannot shrink in a subgraph
            problems.append(f"spsp_stretch={values['spsp_stretch']} below 1")
        return problems

    def check_references(self, g, edges):
        G = nx_graph(g.n, edges, g.directed)
        return (
            pagerank_problems(G, self.refs["pagerank"].toPandas(),
                              damping=self.damping, iters=self.iters["pagerank"])
            + bfs_problems(G, self.sources, self.d0, self.bfs_hops)
        )


def _unreachable(labels: pd.DataFrame, n: int) -> float:
    """Pair-unreachable ratio from component labels (Fig 1's closed form)."""
    sizes = labels.groupby("comp").size().to_numpy(np.int64)
    return 1.0 - float((sizes * (sizes - 1) // 2).sum()) / (n * (n - 1) / 2.0)


def _stretch(d0: pd.DataFrame, d1: pd.DataFrame) -> dict[str, float]:
    """SPSP and eccentricity stretch over the sampled sources (Fig 4a/b)."""
    pairs = d0[d0["s"] != d0["v"]].merge(
        d1.rename(columns={"dist": "d1"}), on=["s", "v"], how="left"
    )
    reached = pairs["d1"].notna()
    e0 = d0.groupby("s")["dist"].max()
    e1 = d1.merge(d0[["s", "v"]], on=["s", "v"]).groupby("s")["dist"].max()
    ecc = pd.concat([e0.rename("e0"), e1.rename("e1")], axis=1, join="inner")
    ecc = ecc[ecc["e0"] > 0]
    return {
        "spsp_stretch": float((pairs["d1"] / pairs["dist"])[reached].mean()),
        "newly_unreachable": 1.0 - float(reached.mean()),
        "ecc_stretch": float((ecc["e1"] / ecc["e0"]).mean()),
    }


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (SparsifySweep, MetricSweep)
}
