"""Spans and the staged default pipeline of the traced run.

The traced run times each layer from the benchmark's own files, around
the public calls into it. :func:`staged_build` repeats what
``decompose_to_artifact`` does, one stage at a time, with every argument
taken from the defaults of ``nucleus_decomposition`` (read with
``inspect.signature``) and the method that ``choose_method`` picks. The
traced run compares its artifact with the untraced one column by column,
so a staged split that has drifted from the default path fails loudly.
"""

from __future__ import annotations

import inspect
import json
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

from repro.cliques.incidence import build_incidence
from repro.core.api import choose_method, nucleus_decomposition
from repro.core.decomposition import NucleusDecomposition
from repro.core.framework import anh_el
from repro.core.hierarchy_te import hierarchy_te_practical
from repro.core.nucleus import NucleusInput, split_kernel
from repro.core.queries import HierarchyQueryIndex
from repro.graphs.orientation import arb_orient
from repro.parallel.backend import get_default_backend, make_backend
from repro.parallel.counters import WorkSpanCounter
from repro.store import write_artifact

#: Public hierarchy builders by the method name ``choose_method`` returns.
HIERARCHY_BUILDERS = {"anh-el": anh_el, "anh-te": hierarchy_te_practical}

#: The build stages, in pipeline order; every traced job records each.
STAGES = ("graphs.orient", "cliques.incidence", "core.hierarchy",
          "queries.index", "store.write")


def _status_kb(field: str) -> int:
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise RuntimeError(f"no {field} in /proc/self/status")


class Tracer:
    """In-memory spans: name, start, end, parent span, and job id.

    A span opened with ``memory=True`` also records how far the resident
    set rose above its starting level: it resets the kernel's peak-RSS
    mark (``/proc/self/clear_refs``) on entry and reads ``VmHWM`` on exit.
    Unlike ``tracemalloc`` this costs nothing while the stage runs, so
    the same pass gives times and memory. Memory spans must not nest.
    """

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, job: Optional[str] = None,
             memory: bool = False) -> Iterator[Dict[str, Any]]:
        record = {"id": len(self.spans), "name": name, "job": job,
                  "parent": self._stack[-1] if self._stack else None}
        self.spans.append(record)
        self._stack.append(record["id"])
        if memory:
            with open("/proc/self/clear_refs", "w", encoding="ascii") as ctl:
                ctl.write("5")
            base_kb = _status_kb("VmRSS")
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            if memory:
                record["peak_bytes"] = (_status_kb("VmHWM") - base_kb) * 1024
            self._stack.pop()

    def seconds(self, name: str) -> float:
        """Total duration of the spans called ``name``."""
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["name"] == name)

    def peak_mb(self, name: str) -> float:
        """Largest recorded memory peak of the spans called ``name``."""
        return max((s["peak_bytes"] for s in self.spans
                    if s["name"] == name and "peak_bytes" in s),
                   default=0) / 2 ** 20

    def dump(self, path: str, extra: Dict[str, Any]) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, **extra}, handle)


def default_arguments() -> Dict[str, Any]:
    """The keyword defaults of ``nucleus_decomposition``."""
    return {name: p.default for name, p in
            inspect.signature(nucleus_decomposition).parameters.items()
            if p.default is not inspect.Parameter.empty}


def staged_build(graph, r: int, s: int, path: str, tracer: Tracer,
                 job: str) -> Dict[str, Any]:
    """``decompose_to_artifact`` split into spans; returns result and counts."""
    defaults = default_arguments()
    method = defaults["method"]
    if method == "auto":
        method = choose_method(r, s)
    build_hierarchy = HIERARCHY_BUILDERS[method]
    enum_kernel = split_kernel(defaults["kernel"])[0]
    counter = WorkSpanCounter()
    backend = make_backend(defaults["backend"], workers=defaults["workers"])
    try:
        with tracer.span("job", job=job):
            with tracer.span("graphs.orient", job=job):
                orientation = arb_orient(graph, counter=counter)
            with tracer.span("cliques.incidence", job=job, memory=True):
                orientation, index, incidence = build_incidence(
                    graph, r, s, strategy=defaults["strategy"],
                    counter=counter, orientation=orientation,
                    backend=backend, kernel=enum_kernel)
            prepared = NucleusInput(graph=graph, r=r, s=s,
                                    orientation=orientation, index=index,
                                    incidence=incidence)
            before = counter.snapshot()
            with tracer.span("core.hierarchy", job=job, memory=True):
                run = build_hierarchy(graph, r, s, prepared=prepared,
                                      counter=counter, seed=defaults["seed"],
                                      backend=backend,
                                      kernel=defaults["kernel"])
            delta = counter.snapshot() - before
            result = NucleusDecomposition(
                graph=graph, r=r, s=s, method=method, index=index,
                coreness=run.coreness, tree=run.tree, stats=dict(run.stats))
            with tracer.span("queries.index", job=job, memory=True):
                query_index = HierarchyQueryIndex(result)
            with tracer.span("store.write", job=job):
                write_artifact(result, path, query_index=query_index)
    finally:
        if backend is not get_default_backend():
            backend.close()
    stats = result.stats
    counts = {
        "cliques.n_r": result.n_r,
        "cliques.n_s": result.n_s,
        "core.rho": result.rho,
        "core.link_calls": int(stats.get("link_calls", 0)),
        "core.unite_calls": int(stats.get("unite_calls", 0)),
        "core.effective_unites": int(stats.get("effective_unites", 0)),
        "core.work": delta.work,
        "core.span": delta.span,
        "core.tree_nodes": result.tree.n_nodes,
    }
    return {"result": result, "index": query_index, "counts": counts}
