"""The repository benchmark: build and serve nucleus hierarchies end to end.

Run from the repository root::

    python3 perfbench/run.py --workload build-truss --seed 1 --seconds 30 --trace 0

Every workload sets up its seeded graphs, builds artifacts through the
default public entry points, serves queries over them, and checks every
output. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: with ``--trace 0``
the end-to-end metrics, with ``--trace 1`` the per-layer metrics of a
separate traced run (see ``README.md``). The exit code is 1 when any
output is wrong.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.core.api import decompose_to_artifact, nucleus_decomposition  # noqa: E402
from repro.core.queries import HierarchyQueryIndex  # noqa: E402
from repro.service.core import community_to_dict  # noqa: E402
from repro.store import load_artifact, write_artifact  # noqa: E402

import checks  # noqa: E402
from checks import Tally  # noqa: E402
from inputs import WORKLOADS, Job, seeded_graphs  # noqa: E402
from serving import (BATCH_SIZE, HttpLeg, InProcessLeg,  # noqa: E402
                     ServerProcess, Served, run_for)
from tracing import STAGES, Tracer, staged_build  # noqa: E402

OUT_DIR = ROOT / ".perfbench"

#: Jobs whose artifacts each workload serves. The build workloads serve
#: cheap artifacts of their own, so every workload reports every metric
#: while most of its time stays on the build layers.
SERVED = {
    "build-truss": ("youtube-r2s3-x4",),
    "build-high-order": ("orkut-r3s4-x4", "orkut-r2s5-x2"),
    "serve-queries": ("youtube-r2s3-x4", "skitter-r2s3-x4", "dblp-r2s4-x4"),
}

#: Shares of ``--seconds`` for the build passes and the three serving
#: legs. The HTTP leg stalls about 44 ms per request, so it needs seconds
#: to collect a hundred requests.
SHARES = {
    "build-truss": {"build": 0.6, "in_process": 0.08, "http": 0.18,
                    "batch": 0.14},
    "build-high-order": {"build": 0.6, "in_process": 0.08, "http": 0.18,
                         "batch": 0.14},
    "serve-queries": {"in_process": 0.5, "http": 0.2, "batch": 0.3},
}

#: Distinct queries in the pool each leg cycles through; 30 batches.
POOL_SIZE = 3000

#: Longest turn of a serving leg, in seconds (a build turn is one job).
SLICE_S = 0.25

#: Set-up repetitions, whose median is ``setup_s``. Set-up of the build
#: workloads only generates graphs (0.4-0.7 s); serve-queries also builds
#: its three artifacts (about 7 s).
SETUP_REPEATS = {"build-truss": 11, "build-high-order": 11,
                 "serve-queries": 3}

#: Tail percentile reported for each latency sample set, with at least
#: ten samples beyond it at the default run length. The in-process p99
#: moved by half between seeds -- a relabeling changes which vertex
#: anchors a community query -- so the tail is p95.
TAIL = {"query": 95, "http": 90}


def percentile(samples: List[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 when every sample failed its check."""
    ordered = sorted(samples)
    if not ordered:
        return 0.0
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie above the nearest-rank ``q``-th."""
    return n - math.ceil(q / 100 * n)


#: About what :func:`calibration_ms` takes on a 2.1 GHz Xeon vCPU that
#: no neighbour slows. Times scaled to it read as if measured on such a
#: CPU.
REFERENCE_CALIBRATION_MS = 0.4

_CALIBRATION_COLUMN = np.arange(5000, dtype=np.int64)


def calibration_ms() -> float:
    """A fixed answer-encoding loop, about 0.4 ms; median of five.

    It does what dominates a point query and much of a build's glue --
    turning an integer column into Python lists and dicts -- but calls
    nothing of the repository, so a change to the program cannot move
    it, while the host's slow phases slow it as they slow the program.
    The median, not the minimum, follows a CPU that is slowed part of
    the time, as the program's samples are.
    """
    times = []
    for _ in range(5):
        began = time.perf_counter()
        for _ in range(4):
            values = _CALIBRATION_COLUMN.tolist()
            [{"vertices": values[i:i + 50], "n": 50}
             for i in range(0, len(values), 50)]
        times.append(time.perf_counter() - began)
    return statistics.median(times) * 1e3


def pin_fastest_cpu(cpus) -> float:
    """Move to whichever of ``cpus`` runs the calibration loop fastest.

    On a shared host each CPU slows down by up to half for minutes at a
    time, independently of the other, while a neighbour keeps its
    sibling busy. Choosing before every turn keeps the work on the CPU
    that is fast now; it changes where the program runs, not what it
    does, and every sample taken afterwards counts. Returns the
    calibration time (ms) of the chosen CPU.
    """
    speeds = {}
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        speeds[cpu] = calibration_ms()
    fastest = min(speeds, key=speeds.get)
    os.sched_setaffinity(0, {fastest})
    return speeds[fastest]


def interleave(tasks: Dict[str, Tuple[float, Callable[[float, float], None]]],
               seconds: float, ready: Callable[[], bool]) -> Dict[str, float]:
    """Run ``{name: (share, step)}`` in turns for ``seconds``; time used.

    Each turn goes to the task furthest behind its share, and
    ``step(SLICE_S, scale)`` runs one turn, where ``scale`` converts the
    turn's times to the reference host speed. Interleaving spreads every
    task's repeats over the whole run: on a shared host, interference
    comes in bursts of seconds, and a task run in one block could sit
    inside one. Turns continue past ``seconds`` until ``ready()`` holds.
    """
    cpus = sorted(os.sched_getaffinity(0))
    used = {name: 0.0 for name in tasks}
    start = time.perf_counter()
    try:
        while time.perf_counter() - start < seconds or not ready():
            name = min(used, key=lambda n: used[n] / tasks[n][0])
            scale = REFERENCE_CALIBRATION_MS / pin_fastest_cpu(cpus)
            began = time.perf_counter()
            tasks[name][1](SLICE_S, scale)
            used[name] += time.perf_counter() - began
    finally:
        os.sched_setaffinity(0, cpus)
    return used


def timed(cpus, fn: Callable[[], Any]) -> Tuple[Any, float, float]:
    """``(fn(), seconds as measured, seconds at the reference speed)``."""
    scale = REFERENCE_CALIBRATION_MS / pin_fastest_cpu(cpus)
    began = time.perf_counter()
    out = fn()
    elapsed = time.perf_counter() - began
    return out, elapsed, elapsed * scale


# -- building ------------------------------------------------------------------

class Outputs:
    """Artifacts built in a run, checked once per distinct column payload."""

    def __init__(self, tally: Tally) -> None:
        self.tally = tally
        self.seen: Dict[Tuple[str, str], Dict[str, Any]] = {}

    def add(self, job: Job, path: Path, perm) -> None:
        key = (job.key, checks.column_fingerprint(str(path)))
        entry = self.seen.setdefault(key, {"path": path, "perm": perm,
                                           "count": 0})
        entry["count"] += 1

    def check(self) -> None:
        reference = checks.load_reference()
        for (job_key, _), entry in self.seen.items():
            got = checks.artifact_digests(str(entry["path"]), entry["perm"])
            problem = checks.mismatch(got, reference[job_key])
            if problem is not None:
                self.tally.fail(f"{job_key}: {problem}", entry["count"])


class Builder:
    """``decompose_to_artifact`` over the jobs in turn, one job a step."""

    def __init__(self, jobs, graphs, workdir: Path, outputs: Outputs,
                 tally: Tally) -> None:
        self.jobs = jobs
        self.graphs = graphs
        self.workdir = workdir
        self.outputs = outputs
        self.tally = tally
        self.times: Dict[str, List[float]] = {job.key: [] for job in jobs}
        self.scaled: Dict[str, List[float]] = {job.key: [] for job in jobs}
        self.steps = 0

    def step(self, _slice: float, scale: float) -> None:
        job = self.jobs[self.steps % len(self.jobs)]
        graph, perm = self.graphs[(job.dataset, job.scale)]
        path = self.workdir / f"{job.key}.{self.steps}.nda"
        self.steps += 1
        gc.collect()
        self.tally.attempted += 1
        began = time.perf_counter()
        try:
            decompose_to_artifact(graph, job.r, job.s, str(path))
        except Exception as exc:  # a failed job is counted, not fatal
            self.tally.fail(f"{job.key}: {type(exc).__name__}: {exc}")
            return
        self.times[job.key].append(time.perf_counter() - began)
        self.scaled[job.key].append(self.times[job.key][-1] * scale)
        self.outputs.add(job, path, perm)

    def one_pass_done(self) -> bool:
        return self.steps >= len(self.jobs)


def plain_build(job: Job, graph, path: Path) -> float:
    """Seconds of one ``decompose_to_artifact`` call, after a collection."""
    gc.collect()
    began = time.perf_counter()
    decompose_to_artifact(graph, job.r, job.s, str(path))
    return time.perf_counter() - began


def store_build(job: Job, graph, path: Path):
    """The ``repro store build`` sequence; returns the in-memory pair."""
    result = nucleus_decomposition(graph, job.r, job.s)
    index = HierarchyQueryIndex(result)
    write_artifact(result, str(path), query_index=index)
    return result, index


# -- untraced run ----------------------------------------------------------------

def untraced(workload: str, seed: int, seconds: float, workdir: Path,
             tally: Tally, info: Dict[str, Any]) -> Dict[str, Tuple[float, str]]:
    """End-to-end metrics, measured with tracing off.

    Every timed sample counts: ``build_s`` sums each job's median pass,
    latencies are the mean or percentiles of all timed queries (the
    in-process median sits between two clusters of query costs on
    serve-queries, see README.md, so the mean stands in for it), and
    ``batch_qps`` divides the queries of one pass through the pool by
    the sum of each distinct batch's median latency. Summing per item
    keeps a run that happened to time some jobs or batches more often
    than others from weighing them more. Every metric but the peak RSS
    and the HTTP latencies is taken at the reference host speed; the
    ``info`` line gives them as measured too.
    """
    jobs = WORKLOADS[workload]
    outputs = Outputs(tally)
    setup_times: Dict[str, List[float]] = {"measured": [], "scaled": []}
    build_times: Dict[str, List[float]] = {}
    build_scaled: Dict[str, List[float]] = {}
    references: Dict[str, Tuple] = {}
    paths: Dict[str, str] = {}
    serving_only = "build" not in SHARES[workload]
    cpus = sorted(os.sched_getaffinity(0))
    for rep in range(SETUP_REPEATS[workload]):
        gc.collect()
        graphs, measured, scaled = timed(
            cpus, lambda: seeded_graphs(jobs, seed))
        for job in jobs if serving_only else ():
            graph, perm = graphs[(job.dataset, job.scale)]
            path = workdir / f"{job.key}.setup{rep}.nda"
            tally.attempted += 1
            references[job.key], built, built_scaled = timed(
                cpus, lambda: store_build(job, graph, path))
            build_times.setdefault(job.key, []).append(built)
            build_scaled.setdefault(job.key, []).append(built_scaled)
            measured += built
            scaled += built_scaled
            outputs.add(job, path, perm)
            paths[job.key] = str(path)
        setup_times["measured"].append(measured)
        setup_times["scaled"].append(scaled)
    os.sched_setaffinity(0, cpus)
    if not serving_only:
        by_key = {job.key: job for job in jobs}
        for key in SERVED[workload]:
            job = by_key[key]
            graph, perm = graphs[(job.dataset, job.scale)]
            path = workdir / f"{key}.served.nda"
            tally.attempted += 1
            references[key] = store_build(job, graph, path)
            outputs.add(job, path, perm)
            paths[key] = str(path)

    served = Served({key: paths[key] for key in SERVED[workload]},
                    references, seed, POOL_SIZE)
    shares = SHARES[workload]
    in_process = InProcessLeg(served, tally)
    with ServerProcess(ROOT, served.paths, workdir / "serve.log") as server:
        http = HttpLeg(served, server, tally)
        tasks = {"in_process": (shares["in_process"], in_process.run),
                 "http": (shares["http"], http.run_single),
                 "batch": (shares["batch"], http.run_batch)}
        ready = lambda: True  # noqa: E731
        if not serving_only:
            builder = Builder(jobs, graphs, workdir, outputs, tally)
            tasks["build"] = (shares["build"], builder.step)
            ready = builder.one_pass_done
        used = interleave(tasks, seconds, ready)
        peak_main_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024
        http_us, batch_s, batch_scaled = http.finish(info)
    query_us, query_scaled = in_process.finish(info)
    if not serving_only:
        build_times, build_scaled = builder.times, builder.scaled
    outputs.check()
    if not server.peak_rss_mb:
        tally.fail("the server exited before its peak RSS was read", 0)

    q, h = TAIL["query"], TAIL["http"]
    info["seconds_used"] = {k: round(v, 2) for k, v in used.items()}
    info["builds_per_job"] = min(len(t) for t in build_times.values())
    info["samples"] = {"query": len(query_us), "http": len(http_us),
                       "batch": sum(map(len, batch_s.values()))}
    info["beyond_tail"] = {"query": beyond(len(query_us), q),
                           "http": beyond(len(http_us), h)}
    info["as_measured"] = {
        "setup_s": round(statistics.median(setup_times["measured"]), 4),
        "build_s": round(sum_of_medians(build_times), 4),
        "query_p50_us": round(percentile(query_us, 50), 1),
        "query_mean_us": round(mean(query_us), 1),
        f"query_p{q}_us": round(percentile(query_us, q), 1),
        "batch_qps": round(qps(batch_s), 1),
    }
    return {
        "setup_s": (statistics.median(setup_times["scaled"]), "s"),
        "build_s": (sum_of_medians(build_scaled), "s"),
        "peak_rss_mb": (server.peak_rss_mb if serving_only else peak_main_mb,
                        "MB"),
        "query_mean_us": (mean(query_scaled), "us"),
        f"query_p{q}_us": (percentile(query_scaled, q), "us"),
        "http_p50_us": (percentile(http_us, 50), "us"),
        f"http_p{h}_us": (percentile(http_us, h), "us"),
        "batch_qps": (qps(batch_scaled), "1/s"),
    }


def mean(samples: List[float]) -> float:
    """The mean; 0.0 when every sample failed its check."""
    return statistics.fmean(samples) if samples else 0.0


def sum_of_medians(times: Dict[str, List[float]]) -> float:
    """One pass over the jobs: the sum of each job's median time."""
    return sum(statistics.median(t) for t in times.values() if t)


def qps(batches: Dict[int, List[float]]) -> float:
    """Queries of one pass through the batches over its median time."""
    if not batches:
        return 0.0
    return BATCH_SIZE * len(batches) / sum(map(statistics.median,
                                               batches.values()))


# -- traced run ------------------------------------------------------------------

def traced(workload: str, seed: int, seconds: float, workdir: Path,
           tally: Tally, info: Dict[str, Any]) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics: staged builds, then direct store and service calls.

    Each job is built three times: untraced through
    ``decompose_to_artifact``, staged in spans (whose artifact must equal
    the untraced one), and untraced again. ``trace.unattributed_s``
    compares the staged build with the mean of the two untraced builds
    around it, so neither side pays the job's warm-up alone and a slow
    phase of the host weighs on both.
    """
    jobs = WORKLOADS[workload]
    graphs = seeded_graphs(jobs, seed)
    outputs = Outputs(tally)
    tracer = Tracer()
    untraced_s = 0.0
    counts: Dict[str, int] = {}
    references: Dict[str, Tuple] = {}
    paths: Dict[str, str] = {}
    for job in jobs:
        graph, perm = graphs[(job.dataset, job.scale)]
        plain = workdir / f"{job.key}.plain.nda"
        staged = workdir / f"{job.key}.staged.nda"
        tally.attempted += 1
        first = plain_build(job, graph, plain)
        gc.collect()
        out = staged_build(graph, job.r, job.s, str(staged), tracer, job.key)
        untraced_s += (first + plain_build(job, graph, plain)) / 2
        outputs.add(job, plain, perm)
        if (checks.column_fingerprint(str(staged))
                != checks.column_fingerprint(str(plain))):
            tally.fail(f"{job.key}: staged artifact differs from the "
                       f"untraced one")
        for name, value in out["counts"].items():
            counts[name] = counts.get(name, 0) + value
        references[job.key] = (out["result"], out["index"])
        paths[job.key] = str(plain)
    outputs.check()
    stage_sum = sum(tracer.seconds(stage) for stage in STAGES)
    metrics: Dict[str, Tuple[float, str]] = {
        "graphs.orient_s": (tracer.seconds("graphs.orient"), "s"),
        "cliques.incidence_s": (tracer.seconds("cliques.incidence"), "s"),
        "cliques.incidence_peak_mb": (tracer.peak_mb("cliques.incidence"),
                                      "MB"),
        "cliques.n_r": (counts["cliques.n_r"], "count"),
        "cliques.n_s": (counts["cliques.n_s"], "count"),
        "core.hierarchy_s": (tracer.seconds("core.hierarchy"), "s"),
        "core.hierarchy_peak_mb": (tracer.peak_mb("core.hierarchy"),
                                   "MB"),
        "core.rho": (counts["core.rho"], "count"),
        "core.link_calls": (counts["core.link_calls"], "count"),
        "core.unite_calls": (counts["core.unite_calls"], "count"),
        "core.unite_efficiency": (
            counts["core.effective_unites"]
            / max(counts["core.unite_calls"], 1), "ratio"),
        "core.work": (counts["core.work"], "count"),
        "core.span": (counts["core.span"], "count"),
        "core.tree_nodes": (counts["core.tree_nodes"], "count"),
        "queries.index_s": (tracer.seconds("queries.index"), "s"),
        "queries.index_peak_mb": (tracer.peak_mb("queries.index"), "MB"),
        "store.write_s": (tracer.seconds("store.write"), "s"),
        "store.artifact_bytes": (sum(checks.payload_bytes(p)
                                     for p in paths.values()), "bytes"),
        "trace.unattributed_s": (stage_sum - untraced_s, "s"),
    }
    served = Served({key: paths[key] for key in SERVED[workload]},
                    references, seed, POOL_SIZE)
    metrics.update(traced_queries(served, seconds, tracer, tally, info,
                                  workdir))
    tracer.dump(str(OUT_DIR / f"trace-{workload}-seed{seed}.json"),
                {"workload": workload, "seed": seed, "counts": counts,
                 "info": info})
    return metrics


def traced_queries(served: Served, seconds: float, tracer: Tracer,
                   tally: Tally, info: Dict[str, Any], workdir: Path):
    """Store reads, answer encoding, service dispatch, and HTTP transport."""
    opens = []
    with tracer.span("store.open"):
        for _ in range(20):
            for path in served.paths.values():
                began = time.perf_counter()
                load_artifact(path).close()
                opens.append((time.perf_counter() - began) * 1e3)
    artifacts = {name: load_artifact(path)
                 for name, path in served.paths.items()}
    by_op: Dict[str, List[float]] = {}
    encode: List[float] = []
    with tracer.span("store.answer"):
        for i in run_for(seconds * 0.2):
            j, op, params = served.item(i)
            artifact = artifacts[params["artifact"]]
            tally.attempted += 1
            began = time.perf_counter()
            answer = _direct(artifact, op, params)
            by_op.setdefault(op, []).append(
                (time.perf_counter() - began) * 1e6)
            began = time.perf_counter()
            payload = _encode(op, answer, params)
            json.dumps(payload)
            encode.append((time.perf_counter() - began) * 1e6)
            if (checks.digest(checks.normalize(payload))
                    != served.expected[j]):
                tally.fail(f"store {op} {params}: wrong answer")
    for artifact in artifacts.values():
        artifact.close()
    in_process = InProcessLeg(served, tally)
    with tracer.span("service.query"):
        in_process.run(seconds * 0.2)
    query_us, _ = in_process.finish(info)
    with ServerProcess(ROOT, served.paths, workdir / "serve.log") as server:
        http = HttpLeg(served, server, tally)
        with tracer.span("service.http"):
            http.run_single(seconds * 0.2)
        http_us, _, _ = http.finish(info)
    every = [t for samples in by_op.values() for t in samples]
    query_p50 = percentile(query_us, 50)
    return {
        "store.open_ms": (statistics.median(opens), "ms"),
        "store.membership_p50_us": (
            percentile(by_op["membership"], 50), "us"),
        "store.community_p50_us": (
            percentile(by_op["community"], 50), "us"),
        "store.strongest_p50_us": (
            percentile(by_op["strongest_community"], 50), "us"),
        "store.coreness_p50_us": (
            percentile(by_op["coreness"], 50), "us"),
        "store.answer_p99_us": (percentile(every, 99), "us"),
        "service.encode_p50_us": (percentile(encode, 50), "us"),
        "service.query_p50_us": (query_p50, "us"),
        "service.cache_hit_rate": (info["cache_hit_rate"], "ratio"),
        "service.http_p50_us": (percentile(http_us, 50) - query_p50, "us"),
    }


def _direct(artifact, op: str, params: Dict[str, Any]):
    if op == "membership":
        return artifact.membership(params["vertex"])
    if op == "community":
        return artifact.community(params["vertices"])
    if op == "strongest_community":
        return artifact.strongest_community(params["vertex"])
    return artifact.core_of(params["clique"])


def _encode(op: str, answer, params: Dict[str, Any]) -> Dict[str, Any]:
    """The service's JSON shape of a direct artifact answer."""
    if op == "membership":
        return {"found": bool(answer),
                "communities": [community_to_dict(c) for c in answer]}
    if op == "coreness":
        return {"clique": sorted(params["clique"]), "core": answer}
    if answer is None:
        return {"found": False, "community": None}
    return {"found": True, "community": community_to_dict(answer)}


# -- entry point -----------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT_DIR))
    tally, info = Tally(), {}
    began = time.perf_counter()
    try:
        run = traced if args.trace else untraced
        metrics = run(args.workload, args.seed, args.seconds, workdir,
                      tally, info)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    info["wall_s"] = round(time.perf_counter() - began, 2)

    print(f"# {args.workload} seed={args.seed} trace={args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:16.6g} {unit}")
    print(f"failed_frac {tally.failed / max(tally.attempted, 1):g} "
          f"({tally.failed}/{tally.attempted})")
    print("info " + json.dumps(info, sort_keys=True))
    for problem in tally.problems:
        print(f"FAILED: {problem}")
    correct = not tally.problems
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
