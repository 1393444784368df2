"""The user-facing decomposition result object.

:class:`NucleusDecomposition` bundles everything a downstream user needs
from one (r, s) nucleus decomposition run: the core number (or estimate)
of every r-clique, the hierarchy tree, the clique index that maps ids back
to vertex tuples, and the run's statistics (peeling rounds, link/unite
counts, metered work/span, timings).

Convenience queries operate in vertex-space so callers never have to touch
r-clique ids: ``core_of((u, v))``, ``nuclei_at(c)`` as vertex sets, the
densest nucleus, and simulated parallel running times.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..cliques.index import CliqueIndex
from ..errors import ParameterError
from ..graphs.graph import Graph
from ..parallel.counters import WorkSpanSnapshot
from ..parallel.runtime import (PAPER_MACHINE, MachineModel,
                                self_relative_speedup, simulated_time)
from .nucleus import CorenessResult
from .tree import HierarchyTree


@dataclass
class NucleusDecomposition:
    """The complete result of an (r, s) nucleus decomposition."""

    graph: Graph
    r: int
    s: int
    method: str
    index: CliqueIndex
    coreness: CorenessResult
    tree: Optional[HierarchyTree]
    stats: Dict[str, float] = field(default_factory=dict)
    seconds_total: float = 0.0
    seconds_prepare: float = 0.0
    approx_delta: Optional[float] = None
    #: The s-clique incidence strategy the run used (``None`` if unknown,
    #: e.g. for a result rebuilt from JSON).
    strategy: Optional[str] = None

    # -- basic accessors -------------------------------------------------

    @property
    def core(self) -> List[float]:
        """Core number (or estimate) per r-clique id."""
        return self.coreness.core

    @property
    def n_r(self) -> int:
        return self.coreness.n_r

    @property
    def n_s(self) -> int:
        return self.coreness.n_s

    @property
    def max_core(self) -> float:
        return self.coreness.k_max

    @property
    def rho(self) -> int:
        """Number of peeling rounds (the peeling complexity proxy)."""
        return self.coreness.rho

    @property
    def is_approximate(self) -> bool:
        return self.approx_delta is not None

    @property
    def work_span(self) -> WorkSpanSnapshot:
        return self.coreness.work_span

    def core_of(self, clique: Sequence[int]) -> float:
        """Core number of the r-clique with the given vertices."""
        if len(clique) != self.r:
            raise ParameterError(
                f"expected an r-clique of {self.r} vertices, got {len(clique)}")
        return self.core[self.index.id_of(clique)]

    def coreness_by_clique(self) -> Dict[Tuple[int, ...], float]:
        """Map canonical r-clique tuple -> core number."""
        return {self.index.clique_of(rid): self.core[rid]
                for rid in range(self.n_r)}

    # -- hierarchy queries --------------------------------------------------

    def _require_tree(self) -> HierarchyTree:
        if self.tree is None:
            raise ParameterError(
                "this decomposition was run coreness-only (no hierarchy); "
                "re-run with hierarchy=True")
        return self.tree

    def nuclei_at(self, c: float, as_vertices: bool = True) -> List[List[int]]:
        """All ``c``-(r, s) nuclei, as sorted vertex lists (or r-clique ids).

        Cutting the hierarchy -- the cheap operation Figure 10 (right)
        advertises.
        """
        tree = self._require_tree()
        groups = tree.nuclei_at(c)
        if not as_vertices:
            return groups
        out: List[List[int]] = []
        for leaf_ids in groups:
            vertices: Set[int] = set()
            for rid in leaf_ids:
                vertices.update(self.index.clique_of(rid))
            out.append(sorted(vertices))
        return out

    def nucleus_of(self, clique: Sequence[int], c: float,
                   as_vertices: bool = True) -> Optional[List[int]]:
        """The ``c``-nucleus containing the given r-clique, or ``None``."""
        tree = self._require_tree()
        leaf_ids = tree.nucleus_of(self.index.id_of(clique), c)
        if leaf_ids is None:
            return None
        if not as_vertices:
            return leaf_ids
        vertices: Set[int] = set()
        for rid in leaf_ids:
            vertices.update(self.index.clique_of(rid))
        return sorted(vertices)

    def hierarchy_levels(self) -> List[float]:
        """Distinct positive hierarchy levels, descending."""
        return self._require_tree().distinct_levels()

    def extract_subgraph(self, vertices: Sequence[int]):
        """Induced subgraph of a nucleus (for drill-down analysis).

        Returns ``(graph, old_to_new)``; the subgraph can itself be
        decomposed again, e.g. with different (r, s), to zoom into one
        community -- the exploration loop the hierarchy enables.
        """
        return self.graph.induced_subgraph(vertices)

    def densest_nucleus(self, min_vertices: int = 3):
        """The densest nucleus in the hierarchy (see analysis.density)."""
        from ..analysis.density import densest_nucleus
        return densest_nucleus(self.graph, self.index, self._require_tree(),
                               min_vertices=min_vertices)

    def density_profile(self, min_vertices: int = 2):
        """Size/density rows for every nucleus (Figure 10 left data)."""
        from ..analysis.density import density_profile
        return density_profile(self.graph, self.index, self._require_tree(),
                               min_vertices=min_vertices)

    # -- simulated parallel performance -----------------------------------

    def simulated_seconds(self, threads: int,
                          machine: MachineModel = PAPER_MACHINE) -> float:
        """Predicted wall-clock on ``threads`` threads (Brent model)."""
        return simulated_time(self.work_span, threads, self.seconds_total,
                              machine)

    def speedup(self, threads: int,
                machine: MachineModel = PAPER_MACHINE) -> float:
        """Predicted self-relative speedup on ``threads`` threads."""
        return self_relative_speedup(self.work_span, threads, machine)

    def summary(self) -> str:
        """One-paragraph human-readable summary."""
        kind = (f"approximate (delta={self.approx_delta})"
                if self.is_approximate else "exact")
        tree_part = ""
        if self.tree is not None:
            tree_part = (f", hierarchy: {self.tree.n_internal} nuclei over "
                         f"{len(self.tree.distinct_levels())} levels")
        return (f"({self.r},{self.s}) nucleus decomposition of "
                f"{self.graph.name or 'graph'} (n={self.graph.n}, "
                f"m={self.graph.m}) via {self.method} [{kind}]: "
                f"{self.n_r} {self.r}-cliques, {self.n_s} {self.s}-cliques, "
                f"max core {self.max_core:g}, {self.rho} peeling rounds"
                f"{tree_part}.")

    def __repr__(self) -> str:
        return (f"NucleusDecomposition(r={self.r}, s={self.s}, "
                f"method={self.method!r}, n_r={self.n_r}, "
                f"max_core={self.max_core:g})")
