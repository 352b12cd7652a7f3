"""Sweep benchmark: the sparsifier x rho x metric sweep, timed end to end.

    python3 sweepbench/run.py --workload metric-sweep --seed 1 --seconds 16 --trace 0

One run sets up cold (its own single-process SparkSession in a fresh JVM,
the dataset and the reference metrics), warms up for two passes, then
repeats the workload's sweep through ``core.experiment.run_sweep`` until
``--seconds`` have been measured. Every unit's output is checked outside the timed
window. With ``--trace 0`` the last stdout line carries the end-to-end
metrics (``sweep_s``, ``setup_s``); with ``--trace 1`` one extra traced
sweep gives the per-layer metrics, and the run writes its spans and one
JSONL record per unit under ``sweepbench/out/``.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracing import Tracer, busy_seconds, cpu_seconds, peak_rss_mb, steal_seconds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# The jobs' Spark settings (jobs/_common.get_spark), except three that keep
# the run steady on a small shared host: one task thread and 4 partitions
# (lite-scale data gains nothing from task parallelism, and more threads than
# free cores time the scheduler), and a codegen cache big enough that passes
# reuse generated classes: a metric-sweep pass compiled about 220 of them at
# the default 100 entries and about 22 at 10000.
SPARK_CONF = {
    "spark.master": "local[1]",
    "spark.app.name": "sweepbench",
    "spark.sql.shuffle.partitions": "4",
    "spark.default.parallelism": "4",
    "spark.sql.execution.arrow.pyspark.enabled": "true",
    "spark.sql.autoBroadcastJoinThreshold": "-1",
    "spark.ui.enabled": "false",
    "spark.ui.showConsoleProgress": "false",
    "spark.driver.host": "127.0.0.1",
    "spark.sql.codegen.cache.maxEntries": "10000",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def keep_writes_inside_checkout() -> None:
    """Point Spark's, the JVMs' and Python's scratch space under ``sweepbench/out``.

    ``JAVA_TOOL_OPTIONS`` also reaches the short-lived launcher JVM that
    ``spark-submit`` starts, which ``spark.driver.extraJavaOptions`` does not.
    """
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(tmp)
    os.environ["JAVA_TOOL_OPTIONS"] = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    os.environ.pop("PYSPARK_SUBMIT_ARGS", None)


def git_commit() -> str | None:
    try:
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return r.stdout.strip() if r.returncode == 0 else None


class Run:
    """One benchmark run: set-up, warm-up, measured sweeps, optional trace."""

    def __init__(self, wl, seed: int):
        self.wl, self.seed = wl, seed
        self.tracer = Tracer(False)
        self.spark = None
        self.units: list[dict] = []  # every unit attempted, all passes
        self.ref_problems: list[str] = []

    # ------------------------------------------------------------ set-up
    def setup(self) -> dict[str, float]:
        """Cold set-up, as every jobs/ run pays it: the SparkSession in a
        fresh JVM, ``datasets.load`` with its cache and count, and the
        original-graph reference metrics. ``setup_s`` is their sum."""
        from pyspark.sql import SparkSession
        from repro.graphs import datasets

        t0 = time.perf_counter()
        b = SparkSession.builder
        for k, v in SPARK_CONF.items():
            b = b.config(k, v)
        self.spark = b.getOrCreate()
        self.spark.sparkContext.setLogLevel("ERROR")
        self.tracer.attach(self.spark.sparkContext)
        t1 = time.perf_counter()
        with self.tracer.span("graphs.load"):
            self.g = datasets.load(self.spark, self.wl.dataset,
                                   scale=self.wl.scale, seed=self.seed).graph
            self.g.m  # load caches the edges; the count materializes them
        t2 = time.perf_counter()
        self.wl.references(self.g, self.tracer)
        t3 = time.perf_counter()
        self.jvm_pid = int(self.spark.sparkContext._jvm.ProcessHandle.current().pid())
        return {
            "setup_s": t3 - t0,
            "spark.session_s": t1 - t0,
            "graphs.load_s": t2 - t1,
            "metrics.ref_s": t3 - t2,
        }

    # ------------------------------------------------------------- units
    def planned_units(self) -> list[tuple[str, float | None]]:
        """Units in run_sweep's order (n_runs=1: one seed per unit)."""
        from repro.core.registry import SPARSIFIERS

        return [
            (ab, None if SPARSIFIERS[ab].prune_rate_control == "none" else rho)
            for ab in self.wl.sparsifiers
            for rho in ([None] if SPARSIFIERS[ab].prune_rate_control == "none"
                        else self.wl.rhos)
        ]

    def sweep(self, pass_no: int) -> dict:
        """One pass of the workload's sweep; returns its timings."""
        import checks
        from repro.core.experiment import run_sweep
        from repro.core.registry import SPARSIFIERS

        plan = self.planned_units()
        tr, g, wl = self.tracer, self.g, self.wl
        state = {"i": 0, "check_s": 0.0, "metric_s": 0.0, "mark": 0.0, "span": None}
        first_unit = len(self.units)

        def metric(orig, h):
            now = time.perf_counter()
            i = state["i"]
            state["i"] += 1
            ab, rho = plan[i]
            uid = first_unit + i
            spar = state["span"]
            if spar is not None:
                spar.unit = uid
            tr.end(spar)
            rec = {"workload": wl.name, "pass": pass_no, "unit": uid,
                   "sparsifier": ab, "rho": rho, "seed": self.seed,
                   "sparsify_s": now - state["mark"]}
            self.units.append(rec)
            values, outputs, t1 = {}, {}, time.perf_counter()
            try:
                values, outputs = wl.evaluate(orig, h, tr, uid)
                problems = []
            except Exception as e:  # a failing metric fails its unit, not the run
                problems = [f"{type(e).__name__}: {e}"]
                traceback.print_exc(file=sys.stderr)
            t2 = time.perf_counter()
            rec["metric_s"] = t2 - t1
            state["metric_s"] += t2 - t1
            with tr.span("check", unit=uid):
                edges = h.to_pandas_edges()
                problems += checks.edge_problems(
                    self.orig_edges, SPARSIFIERS[ab], rho, edges, h.directed)
                problems += checks.value_problems(values, wl.ratios)
                if outputs:
                    problems += wl.check(h, edges, values, outputs)
            rec.update(kept=len(edges), values=values, digest=checks.digest(edges),
                       check="ok" if not problems else "; ".join(problems))
            if SPARSIFIERS[ab].prune_rate_control == "fine":
                rec["prune_rate_err"] = checks.prune_rate_error(orig.m, rho, len(edges))
            state["check_s"] += time.perf_counter() - t2
            state["mark"] = time.perf_counter()
            state["span"] = tr.begin(f"sparsifiers.{plan[i + 1][0]}") if i + 1 < len(plan) else None
            return values

        cpu0, steal0, compiles0 = self.cpu_s(), steal_seconds(), self.codegen_compiles()
        busy0 = busy_seconds()
        t0 = time.perf_counter()
        state["mark"] = t0
        root = tr.begin("core.experiment.run_sweep")
        state["span"] = tr.begin(f"sparsifiers.{plan[0][0]}")
        error = None
        try:
            run_sweep(g, wl.sparsifiers, wl.rhos, metric, n_runs=1, base_seed=self.seed)
        except Exception as e:  # a failing sparsifier ends the pass; its units fail
            error = f"{type(e).__name__}: {e}"
            traceback.print_exc(file=sys.stderr)
        tr.end(state["span"])
        tr.end(root)
        wall = time.perf_counter() - t0
        for ab, rho in plan[state["i"]:]:
            self.units.append({"workload": wl.name, "pass": pass_no,
                               "unit": len(self.units), "sparsifier": ab, "rho": rho,
                               "seed": self.seed, "check": f"not run: {error}"})
        return {
            "sweep_s": wall - state["check_s"],
            "check_s": state["check_s"],
            "metric_s": state["metric_s"],
            "proc.cpu_s": self.cpu_s() - cpu0,
            "host.steal_s": steal_seconds() - steal0,
            # CPU time of every other process on the host: the load beside the run
            "host.other_cpu_s": busy_seconds() - busy0 - (self.cpu_s() - cpu0),
            "spark.codegen_compiles": self.codegen_compiles() - compiles0,
        }

    def cpu_s(self) -> float:
        return cpu_seconds(os.getpid()) + cpu_seconds(self.jvm_pid)

    def codegen_compiles(self) -> int:
        """Generated classes compiled so far; a codegen cache miss costs one."""
        jvm = self.spark.sparkContext._jvm
        return jvm.org.apache.spark.metrics.source.CodegenMetrics.METRIC_COMPILATION_TIME().getCount()

    def stop(self) -> None:
        """Stop Spark and wait for the JVM it launched to exit."""
        from pyspark import SparkContext

        if self.spark is not None:
            self.spark.stop()
        gw = SparkContext._gateway
        if gw is None:
            return
        gw.shutdown()
        proc = getattr(gw, "proc", None)
        if proc is not None:
            if proc.stdin:
                proc.stdin.close()
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()


def per_layer(run: Run, setup: dict, traced: dict, untraced: list[dict],
              warmup_s: float, trace_first_span: int, trace_first_unit: int) -> dict:
    """Per-layer metrics from the traced pass (and the traced set-up)."""
    tr = run.tracer
    since = trace_first_span
    out: dict[str, tuple[float, str]] = {
        "graphs.load_s": (setup["graphs.load_s"], "s"),
        "spark.session_s": (setup["spark.session_s"], "s"),
        "warmup_s": (warmup_s, "s"),
        "metrics.ref_s": (setup["metrics.ref_s"], "s"),
        "metrics.ref_jobs": (tr.total("metrics.ref")["jobs"], "count"),
    }
    spar = tr.total("sparsifiers", since=since)
    out["sparsifiers.sparsify_s"] = (spar["s"], "s")
    out["sparsifiers.jobs"] = (spar["jobs"], "count")
    out["sparsifiers.stages"] = (spar["stages"], "count")
    units = run.units[trace_first_unit:]
    errs = [u["prune_rate_err"] for u in units if "prune_rate_err" in u]
    out["sparsifiers.prune_rate_err"] = (max(errs, default=0.0), "ratio")
    for ab in ALL_SPARSIFIERS:
        t = tr.total(f"sparsifiers.{ab}", since=since)
        out[f"sparsifiers.{ab}.s"] = (t["s"], "s")
        out[f"sparsifiers.{ab}.jobs"] = (t["jobs"], "count")
    metric_total = 0.0
    for fn in METRIC_FNS:
        t = tr.total(f"metrics.{fn}", since=since)
        metric_total += t["s"]
        out[f"metrics.{fn}.s"] = (t["s"], "s")
        out[f"metrics.{fn}.jobs"] = (t["jobs"], "count")
        out[f"metrics.{fn}.calls"] = (t["calls"], "count")
        out[f"metrics.{fn}.ms_per_job"] = (1000 * t["s"] / t["jobs"] if t["jobs"] else 0.0, "ms")
    out["core.experiment.overhead_s"] = (traced["sweep_s"] - spar["s"] - metric_total, "s")
    everything, checks = tr.total("", since=since), tr.total("check", since=since)
    for k in ("jobs", "stages", "tasks", "failed_tasks"):
        out[f"spark.{k}"] = (everything[k] - checks[k], "count")
    ids = sorted(j for s in tr.spans[since:] for j in s.job_ids)
    out["spark.untracked_jobs"] = ((ids[-1] - ids[0] + 1 - len(ids)) if ids else 0, "count")
    out["spark.codegen_compiles"] = (traced["spark.codegen_compiles"], "count")
    out["proc.cpu_s"] = (traced["proc.cpu_s"], "s")
    out["host.steal_s"] = (traced["host.steal_s"], "s")
    out["mem.driver_peak_rss_mb"] = (peak_rss_mb(os.getpid()), "MB")
    out["mem.jvm_peak_rss_mb"] = (peak_rss_mb(run.jvm_pid), "MB")
    out["check_s"] = (traced["check_s"], "s")
    out["trace.overhead_s"] = (
        traced["sweep_s"] - statistics.median(p["sweep_s"] for p in untraced), "s")
    failed = sum(u["check"] != "ok" for u in run.units)
    out["fail_frac"] = (failed / max(1, len(run.units)), "ratio")
    return {k: {"value": float(v), "unit": u} for k, (v, u) in out.items()}


WARMUP_PASSES = 2
ALL_SPARSIFIERS = ("RN", "KN", "RD", "LD", "SF", "SP", "FF", "LS", "GS", "LSim",
                   "SCAN", "ERw", "ERu")
METRIC_FNS = ("pagerank", "katz", "eigenvector", "components", "isolated", "bfs")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    keep_writes_inside_checkout()
    wl = WORKLOADS[args.workload](args.seed)
    run = Run(wl, args.seed)
    try:
        run.tracer.enabled = bool(args.trace)  # the traced run also traces set-up
        setup = run.setup()
        run.tracer.enabled = False
        run.orig_edges = run.g.to_pandas_edges()
        run.ref_problems = wl.check_references(run.g, run.orig_edges)
        # Warm-up fills the JIT and codegen caches: after one pass the next ones
        # still got faster, after two they were flat.
        warmup_s = sum(run.sweep(0)["sweep_s"] for _ in range(WARMUP_PASSES))
        passes, t0 = [], time.perf_counter()
        while not passes or time.perf_counter() - t0 < args.seconds:
            passes.append(run.sweep(len(passes) + 1))
        measured_units = len(run.units)
        traced = None
        if args.trace:
            trace_first_span, trace_first_unit = len(run.tracer.spans), len(run.units)
            run.tracer.enabled = True
            traced = run.sweep(len(passes) + 1)
            run.tracer.enabled = False
            metrics = per_layer(run, setup, traced, passes, warmup_s,
                                trace_first_span, trace_first_unit)
        else:
            metrics = {
                "sweep_s": {"value": statistics.median(p["sweep_s"] for p in passes), "unit": "s"},
                "setup_s": {"value": setup["setup_s"], "unit": "s"},
            }
    finally:
        run.stop()

    failed = [u for u in run.units if u["check"] != "ok"]
    record = {
        "workload": wl.name, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "git_commit": git_commit(), "spark_conf": SPARK_CONF,
        "setup": setup, "warmup_s": warmup_s, "passes": passes, "traced": traced,
        "reference_check": run.ref_problems or "ok",
        "failed_units": [{k: u.get(k) for k in ("sparsifier", "rho", "pass", "check")}
                         for u in failed],
    }
    OUT.mkdir(exist_ok=True)
    with open(OUT / "runs.jsonl", "a") as f:
        f.write(json.dumps(record) + "\n")
    if args.trace:
        tag = f"{wl.name}-seed{args.seed}"
        with open(OUT / f"spans-{tag}.json", "w") as f:
            json.dump([s.record() for s in run.tracer.spans], f)
        with open(OUT / f"units-{tag}.jsonl", "w") as f:
            for u in run.units[measured_units:]:
                f.write(json.dumps(_unit_record(u, run.tracer)) + "\n")
    for u in failed:
        print(f"failed unit {u['sparsifier']}@{u['rho']}: {u['check']}", file=sys.stderr)
    for p in run.ref_problems:
        print(f"reference check failed: {p}", file=sys.stderr)
    result = {
        "correct": not failed and not run.ref_problems,
        "attempted": len(run.units),
        "failed": len(failed),
        "metrics": metrics,
    }
    print(json.dumps(record, default=str), file=sys.stderr)
    print(json.dumps(result))
    return 0


def _unit_record(u: dict, tracer) -> dict:
    """One ROADMAP-style run record: what ran, how long, how many Spark jobs."""
    spans = [s for s in tracer.spans if s.unit == u["unit"]]
    return {
        **{k: u.get(k) for k in ("workload", "sparsifier", "rho", "seed", "unit",
                                  "sparsify_s", "metric_s", "kept", "values",
                                  "digest", "check")},
        "jobs": sum(s.jobs for s in spans if s.name != "check"),
        "stages": sum(s.stages for s in spans if s.name != "check"),
        "tasks": sum(s.tasks for s in spans if s.name != "check"),
        "spans": {s.name: {"s": s.seconds, "jobs": s.jobs} for s in spans},
    }


if __name__ == "__main__":
    sys.exit(main())
