"""Workloads and seeded inputs of the benchmark.

Every job runs the library defaults: no ``strategy``, ``kernel`` or
``method`` flag is passed anywhere. A workload seed relabels each registry
graph with a seeded vertex permutation (seed 0 is the identity), which
keeps each graph's structure and cost while changing every id-dependent
order, and it draws the query mix of the serving legs.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.graphs.datasets import load_dataset
from repro.graphs.graph import Graph


@dataclass(frozen=True)
class Job:
    """One (dataset, r, s, scale) decomposition of the registry."""

    dataset: str
    r: int
    s: int
    scale: float

    @property
    def key(self) -> str:
        return f"{self.dataset}-r{self.r}s{self.s}-x{self.scale:g}"


WORKLOADS: Dict[str, Tuple[Job, ...]] = {
    # skitter runs at half the scale of its neighbours in both build
    # workloads, so a pass stays near 5 s and every job is timed at least
    # twice in a run; serve-queries still builds skitter (2,3) at scale 4.
    "build-truss": (
        Job("youtube", 1, 2, 4), Job("dblp", 2, 3, 4),
        Job("youtube", 2, 3, 4), Job("skitter", 2, 3, 2),
        Job("livejournal", 2, 3, 4)),
    "build-high-order": (
        Job("youtube", 2, 4, 2), Job("youtube", 3, 5, 2),
        Job("skitter", 3, 4, 1), Job("orkut", 3, 4, 4),
        Job("orkut", 2, 5, 2)),
    "serve-queries": (
        Job("youtube", 2, 3, 4), Job("skitter", 2, 3, 4),
        Job("dblp", 2, 4, 4)),
}

#: The query mix of the serving legs: (operation, share).
QUERY_MIX = (("membership", 0.50), ("community", 0.20),
             ("strongest_community", 0.15), ("coreness", 0.15))


def permutation(n: int, seed: int) -> np.ndarray:
    """The seeded vertex relabeling; seed 0 is the identity."""
    if seed == 0:
        return np.arange(n, dtype=np.int64)
    return np.random.default_rng(seed).permutation(n).astype(np.int64)


def seeded_graphs(jobs: Sequence[Job],
                  seed: int) -> Dict[Tuple[str, float], Tuple[Graph, np.ndarray]]:
    """``{(dataset, scale): (relabeled graph, permutation)}`` for ``jobs``.

    Each distinct registry graph is generated once and relabeled with
    ``Graph.relabeled``; the identity relabeling of seed 0 is applied
    too, so set-up does the same work on every seed.
    """
    out: Dict[Tuple[str, float], Tuple[Graph, np.ndarray]] = {}
    for job in jobs:
        key = (job.dataset, job.scale)
        if key not in out:
            base = load_dataset(job.dataset, job.scale)
            perm = permutation(base.n, seed)
            out[key] = (base.relabeled(perm.tolist()), perm)
    return out


def query_pool(cliques_by_name: Dict[str, np.ndarray], size: int,
               seed: int) -> List[Tuple[str, dict]]:
    """A seeded list of ``(op, params)`` point queries over the artifacts.

    ``cliques_by_name`` maps each artifact name to its r-clique vertex
    rows. Every artifact gets an equal part of the pool, split exactly by
    :data:`QUERY_MIX`, in seeded order: query costs differ by artifact and
    operation by up to 50x, so a pool whose mix moved with the seed would
    move the median with it. Vertex queries draw,
    without replacement, a vertex that lies in some r-clique;
    ``community`` and ``coreness`` draw an r-clique the same way and query
    its vertices. Drawing without replacement keeps the tail of a pool
    close to the tail of the artifact's own query costs.
    ``top_k_densest`` is left out: it scans the whole tree and would
    dominate the tail.
    """
    rng = random.Random(seed)
    names = sorted(cliques_by_name)
    part = size // len(names)
    pairs = [(op, name) for name in names for op, share in QUERY_MIX
             for _ in range(round(share * part))]
    rng.shuffle(pairs)
    draws = {}
    for name in names:
        rows = cliques_by_name[name]
        vertices = np.unique(rows).tolist()
        order = list(range(len(rows)))
        rng.shuffle(vertices)
        rng.shuffle(order)
        draws[name] = (itertools.cycle(vertices), itertools.cycle(order))
    pool = []
    for op, name in pairs:
        vertex_draw, clique_draw = draws[name]
        if op in ("membership", "strongest_community"):
            params = {"vertex": next(vertex_draw)}
        else:
            clique = [int(v) for v in cliques_by_name[name][next(clique_draw)]]
            rng.shuffle(clique)
            params = {"vertices" if op == "community" else "clique": clique}
        params["artifact"] = name
        pool.append((op, params))
    return pool
