"""Figure 7: best hierarchy construction time per (r, s), r < s <= 7.

For every stand-in graph and every (r, s) with ``r < s <= 7``, runs the
default ``nucleus_decomposition(graph, r, s)`` -- CSR incidence,
vectorized peel, array ANH-TE tree -- and reports each configuration's
slowdown over the per-graph fastest, exactly like Figure 7's bars. Each
row records the incidence strategy and method the run reported.
Configurations whose estimated work exceeds the budget are reported as
OOM/timeout, mirroring the paper's omitted bars (its friendster and
large-(r,s) cases).

``--json`` additionally writes ``BENCH_fig7.json`` at the repo root: the
grid rows, a dict-vs-CSR peeling comparison (the flat-array layout +
vectorized kernel against the Python dict/list path, same coreness
asserted), an array-vs-loop enumeration-kernel comparison split into
``enumerate``/``build``/``peel``/``total`` stage rows (identical cliques,
incidence, and coreness asserted), and an array-vs-loop hierarchy
construction comparison (``hierarchy`` stage rows; element-identical
trees asserted) -- all in the uniform :func:`bench_common.bench_row`
schema.
"""

from __future__ import annotations

import argparse
from typing import Dict

import numpy as np

from repro import nucleus_decomposition
from repro.analysis.reporting import banner, format_table
from repro.cliques.enumeration import enumerate_cliques
from repro.cliques.incidence import build_incidence
from repro.cliques.list_kernel import clique_matrix
from repro.core.nucleus import peel_exact, prepare
from repro.graphs.orientation import arb_orient
from repro.parallel.counters import WorkSpanCounter

from bench_common import (SKIPPED, bench_graph, bench_row, emit_json,
                          guarded, kernel_graph, rs_grid, timed,
                          within_budget)

GRAPHS = ("amazon", "dblp", "youtube", "skitter", "livejournal", "orkut",
          "friendster")

#: (graph, r, s) configurations for the dict-vs-CSR peel comparison --
#: the Figure 7 graphs with clique-rich structure at stand-in scale.
PEEL_COMPARISON = (("amazon", 2, 3), ("dblp", 2, 3), ("dblp", 2, 4),
                   ("youtube", 2, 3), ("orkut", 3, 4))


def run_grid(graph_names=GRAPHS, max_s: int = 7):
    """``(graph, r, s, seconds, strategy, method)`` per configuration.

    ``strategy`` and ``method`` are what the run reported (``None`` for
    a budget-skipped configuration, which runs nothing).
    """
    rows = []
    for name in graph_names:
        graph = bench_graph(name)
        for r, s in rs_grid(max_s):
            run = guarded(graph, r, s,
                          lambda: nucleus_decomposition(graph, r, s))
            result = run.payload
            rows.append((name, r, s, run.seconds,
                         result.strategy if result else None,
                         result.method if result else None))
    return rows


def build_report(rows=None) -> str:
    if rows is None:
        rows = run_grid()
    by_graph: Dict[str, float] = {}
    for name, r, s, seconds, _, _ in rows:
        if seconds != SKIPPED:
            by_graph[name] = min(by_graph.get(name, float("inf")), seconds)
    out_rows = []
    for name, r, s, seconds, strategy, method in rows:
        if seconds == SKIPPED:
            out_rows.append((name, f"({r},{s})", "OOM/timeout", "", ""))
        else:
            fastest = by_graph[name]
            out_rows.append((name, f"({r},{s})", f"{seconds:.4f}s",
                             f"{seconds / fastest:.2f}x",
                             f"{method} ({strategy})"))
    table = format_table(
        ("graph", "(r,s)", "time", "slowdown vs graph-best", "method"),
        out_rows,
        title="Figure 7: hierarchy time per (r,s) configuration, r < s <= 7")
    fastest_lines = "\n".join(
        f"  {name}: fastest {seconds:.4f}s"
        for name, seconds in sorted(by_graph.items()))
    return banner("Figure 7") + "\n" + table + "\n" + fastest_lines


def run_peel_comparison(configs=PEEL_COMPARISON, repeats: int = 3):
    """Dict/list peeling vs CSR + vectorized kernel, same coreness.

    Returns uniform json rows: one per (config, strategy) with the best
    of ``repeats`` peel wall-clocks, metered work, and rho, plus the
    measured speedup on the CSR rows.
    """
    rows = []
    for name, r, s in configs:
        graph = bench_graph(name)
        if not within_budget(graph, r, s):
            rows.append(bench_row(name, r, s, None, stage="peel"))
            continue
        timings = {}
        results = {}
        for strategy in ("materialized", "csr"):
            prepared = prepare(graph, r, s, strategy=strategy)
            best = None
            for _ in range(repeats):
                counter = WorkSpanCounter()
                run = timed(lambda: peel_exact(prepared.incidence,
                                               counter=counter))
                if best is None or run.seconds < best.seconds:
                    best = run
            timings[strategy] = best
            results[strategy] = best.payload
        assert results["csr"].core == results["materialized"].core, \
            (name, r, s)
        assert results["csr"].rho == results["materialized"].rho
        dict_seconds = timings["materialized"].seconds
        for strategy in ("materialized", "csr"):
            result = results[strategy]
            rows.append(bench_row(
                name, r, s, timings[strategy].seconds,
                stage="peel", strategy=strategy,
                kernel="vectorized" if strategy == "csr" else "loop",
                backend="serial", workers=1,
                work=result.work_span.work, rho=result.rho,
                speedup=round(dict_seconds / timings[strategy].seconds, 2)))
    return rows


def run_stage_comparison(configs=PEEL_COMPARISON, repeats: int = 3):
    """Array vs loop enumeration kernel, stage by stage.

    For each configuration and each kernel the pipeline is split into the
    stages the paper's Figure 6/7 breakdowns use: ``enumerate`` (s-clique
    listing alone), ``build`` (the full CSR incidence construction,
    enumeration included), ``peel`` (exact peeling of the built
    incidence) and ``total`` (build + peel). Every stage is the best of
    ``repeats`` wall-clocks on a fresh orientation, so the array rows pay
    for their own CSR/flat-array conversions. The two kernels' clique
    matrices, incidence arrays, and coreness are asserted identical
    before any row is emitted -- a slow-but-wrong kernel cannot win.

    Returns uniform json rows, one per (config, kernel, stage); array
    rows carry ``speedup`` = loop seconds / array seconds.
    """
    rows = []
    for name, r, s in configs:
        graph = bench_graph(name)
        if not within_budget(graph, r, s):
            rows.append(bench_row(name, r, s, None, stage="enumerate"))
            continue
        stage_seconds = {}
        artifacts = {}
        for kernel in ("loop", "array"):
            if kernel == "loop":
                def enum_once():
                    orientation = arb_orient(graph)
                    return timed(lambda: list(enumerate_cliques(orientation,
                                                                s)))
            else:
                def enum_once():
                    orientation = arb_orient(graph)
                    return timed(lambda: clique_matrix(orientation, s))

            def build_once():
                orientation = arb_orient(graph)
                return timed(lambda: build_incidence(
                    graph, r, s, strategy="csr", kernel=kernel,
                    orientation=orientation))

            enum_run = min((enum_once() for _ in range(repeats)),
                           key=lambda run: run.seconds)
            build_run = min((build_once() for _ in range(repeats)),
                            key=lambda run: run.seconds)
            incidence = build_run.payload[2]
            peel_run = min((timed(lambda: peel_exact(incidence))
                            for _ in range(repeats)),
                           key=lambda run: run.seconds)
            stage_seconds[kernel] = {
                "enumerate": enum_run.seconds,
                "build": build_run.seconds,
                "peel": peel_run.seconds,
                "total": build_run.seconds + peel_run.seconds,
            }
            artifacts[kernel] = (enum_run.payload, incidence,
                                 peel_run.payload)
        # Differential verification: both kernels produced the same
        # cliques, the same incidence arrays, and the same decomposition.
        cliques, loop_inc, loop_peel = artifacts["loop"]
        matrix, array_inc, array_peel = artifacts["array"]
        assert matrix.shape[0] == len(cliques), (name, r, s)
        assert [tuple(row) for row in matrix.tolist()] == cliques
        assert np.array_equal(loop_inc.member_array, array_inc.member_array)
        assert np.array_equal(loop_inc.posting_indptr,
                              array_inc.posting_indptr)
        assert np.array_equal(loop_inc.posting_indices,
                              array_inc.posting_indices)
        assert np.array_equal(loop_inc.degree_array, array_inc.degree_array)
        assert array_peel.core == loop_peel.core, (name, r, s)
        assert array_peel.rho == loop_peel.rho
        for kernel in ("loop", "array"):
            for stage, seconds in stage_seconds[kernel].items():
                extra = {}
                if kernel == "array":
                    extra["speedup"] = round(
                        stage_seconds["loop"][stage] / seconds, 2)
                rows.append(bench_row(
                    name, r, s, seconds, stage=stage, kernel=kernel,
                    strategy="csr", backend="serial", workers=1, **extra))
    return rows


def run_hierarchy_comparison(configs=PEEL_COMPARISON, repeats: int = 3):
    """Array vs loop hierarchy (tree) construction, shared coreness.

    For each configuration the CSR incidence is prepared and peeled once;
    both tree kernels then rebuild the hierarchy from the same coreness,
    best of ``repeats`` wall-clocks each. The trees are asserted
    **element-identical** (same node ids, parents, levels,
    representatives -- the ``hierarchy_kernel`` contract, stricter than
    isomorphism) before any row is emitted. Rows use ``stage=
    "hierarchy"``; array rows carry ``speedup`` = loop / array seconds.
    """
    from repro.core.hierarchy_te import hierarchy_te_practical
    rows = []
    for name, r, s in configs:
        graph = bench_graph(name)
        if not within_budget(graph, r, s):
            rows.append(bench_row(name, r, s, None, stage="hierarchy"))
            continue
        prepared = prepare(graph, r, s, strategy="csr")
        coreness = peel_exact(prepared.incidence)
        timings = {}
        for kernel in ("loop", "array"):
            best = None
            for _ in range(repeats):
                run = timed(lambda: hierarchy_te_practical(
                    graph, r, s, prepared=prepared, coreness=coreness,
                    kernel=kernel))
                if best is None or run.seconds < best.seconds:
                    best = run
            timings[kernel] = best
        loop_tree = timings["loop"].payload.tree
        array_tree = timings["array"].payload.tree
        assert array_tree.parent == loop_tree.parent, (name, r, s)
        assert array_tree.level == loop_tree.level, (name, r, s)
        assert array_tree.rep == loop_tree.rep, (name, r, s)
        loop_seconds = timings["loop"].seconds
        for kernel in ("loop", "array"):
            extra = {}
            if kernel == "array":
                extra["speedup"] = round(
                    loop_seconds / timings[kernel].seconds, 2)
            rows.append(bench_row(
                name, r, s, timings[kernel].seconds, stage="hierarchy",
                kernel=kernel, strategy="csr", backend="serial", workers=1,
                **extra))
    return rows


def grid_json_rows(rows):
    """The Figure 7 grid in the uniform json row schema."""
    return [bench_row(name, r, s, seconds, stage="total",
                      strategy=strategy, backend="serial", workers=1,
                      method=method)
            for name, r, s, seconds, strategy, method in rows]


def test_fig7_report():
    rows = run_grid(graph_names=("amazon", "dblp"), max_s=5)
    print(build_report(rows))
    finished = [row for row in rows if row[3] != SKIPPED]
    assert finished, "budget guard skipped everything"
    assert {row[4:] for row in finished} == {("csr", "anh-te")}
    # Larger (r, s) generally cost more -- check the trend on dblp where
    # the clique counts grow with s (amazon's shrink, like the paper notes).
    dblp = {(r, s): t for name, r, s, t, _, _ in finished if name == "dblp"}
    if (2, 3) in dblp and (2, 4) in dblp:
        assert dblp[(2, 4)] > dblp[(2, 3)] * 0.3  # same order or larger


def test_benchmark_auto_method_kernel(benchmark):
    graph = kernel_graph("dblp")
    benchmark(lambda: nucleus_decomposition(graph, 2, 4))


def test_peel_comparison_rows():
    rows = run_peel_comparison(configs=(("dblp", 2, 3),), repeats=1)
    finished = [row for row in rows if not row["skipped"]]
    assert finished, "budget guard skipped the comparison"
    by_strategy = {row["strategy"]: row for row in finished}
    assert by_strategy["csr"]["work"] == by_strategy["materialized"]["work"]
    assert by_strategy["csr"]["rho"] == by_strategy["materialized"]["rho"]


def test_hierarchy_comparison_rows():
    rows = run_hierarchy_comparison(configs=(("dblp", 2, 3),), repeats=1)
    finished = [row for row in rows if not row["skipped"]]
    assert finished, "budget guard skipped the comparison"
    kernels = {row["kernel"] for row in finished}
    assert kernels == {"loop", "array"}
    assert all(row["stage"] == "hierarchy" for row in finished)
    assert all("speedup" in row for row in finished
               if row["kernel"] == "array")


def test_stage_comparison_rows():
    rows = run_stage_comparison(configs=(("dblp", 2, 3),), repeats=1)
    finished = [row for row in rows if not row["skipped"]]
    assert finished, "budget guard skipped the comparison"
    stages = {(row["kernel"], row["stage"]) for row in finished}
    for kernel in ("loop", "array"):
        for stage in ("enumerate", "build", "peel", "total"):
            assert (kernel, stage) in stages
    assert all("speedup" in row for row in finished
               if row["kernel"] == "array")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--json", action="store_true",
                        help="also write BENCH_fig7.json at the repo root")
    args = parser.parse_args(argv)
    rows = run_grid()
    print(build_report(rows))
    if args.json:
        comparison = run_peel_comparison()
        stages = run_stage_comparison()
        hierarchy = run_hierarchy_comparison()
        path = emit_json("fig7",
                         grid_json_rows(rows) + comparison + stages
                         + hierarchy)
        print(f"\nwrote {path}")
        finished = [row for row in comparison
                    if not row["skipped"] and row["strategy"] == "csr"]
        for row in finished:
            print(f"  peel {row['graph']} ({row['r']},{row['s']}): "
                  f"csr {row['seconds']:.4f}s, {row['speedup']}x vs dict")
        for row in stages + hierarchy:
            if row["skipped"] or row.get("kernel") != "array":
                continue
            print(f"  {row['stage']:<9} {row['graph']} "
                  f"({row['r']},{row['s']}): array {row['seconds']:.4f}s, "
                  f"{row['speedup']}x vs loop")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
