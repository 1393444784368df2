"""Public façade: one call for any (r, s) nucleus decomposition.

``nucleus_decomposition(graph, r, s)`` runs the full pipeline -- orient,
enumerate, peel, build the hierarchy -- with the algorithm selected by
``method``. The default (``method="auto"``, ``strategy="csr"``,
``kernel="auto"``) is the one production pipeline: the flat-array CSR
incidence, then the vectorized peel (:mod:`repro.core.peel_csr`), then the
array ANH-TE tree (:mod:`repro.core.hierarchy_kernel`). The other methods
are explicit paper variants, kept for the figure reproductions and as
oracles:

=================  ====================================================
``"anh-te"``       two-phase: coreness then the Section 7.4 practical
                   hierarchy (what ``"auto"`` resolves to)
``"anh-el"``       interleaved peel + ``LINK-EFFICIENT`` (Algorithm 5)
``"anh-te-theory"``  the faithful Algorithm 1 construction
``"anh-bl"``       interleaved peel + ``LINK-BASIC`` (Algorithm 4)
``"nh"``           sequential Sariyüce-Pinar baseline
``"naive"``        per-level connectivity (the oracle / vanilla baseline)
=================  ====================================================

``approx=True`` swaps the exact peeling for ``APPROX-ARB-NUCLEUS``
(Algorithm 2) with parameter ``delta``, yielding
``(comb(s,r)+eps)``-approximate coreness estimates and an approximate
hierarchy (``ARB-APPROX-NUCLEUS-HIERARCHY``).
"""

from __future__ import annotations

import time
from typing import Optional

from ..errors import ParameterError
from ..graphs.graph import Graph
from ..parallel.backend import (ExecutionBackend, get_default_backend,
                                make_backend)
from ..parallel.counters import WorkSpanCounter
from .approx import (approx_anh_bl, approx_anh_el, approx_anh_te, peel_approx)
from .decomposition import NucleusDecomposition
from .framework import InterleavedResult, anh_bl, anh_el
from .hierarchy_te import hierarchy_te_practical, hierarchy_te_theoretical
from .nucleus import peel_exact, prepare, split_kernel

EXACT_METHODS = ("anh-el", "anh-te", "anh-te-theory", "anh-bl", "nh", "naive")


def choose_method(r: int, s: int) -> str:
    """The method ``method="auto"`` runs for ``(r, s)``: always ANH-TE.

    The paper's Section 8.1 rule (ANH-EL when ``s - r <= 2``, except for
    (1, 2)) weighs the costs of its C++ ``LINK`` against a second pass
    over the s-cliques. It does not carry over here: ANH-EL calls the
    Python ``LinkEfficient.link`` once per s-clique-adjacent pair, while
    ANH-TE runs the vectorized peel and then builds the tree with bulk
    union-find passes over flat arrays
    (:func:`~repro.core.hierarchy_kernel.build_tree_arrays`). On the
    same CSR incidence that measured 1.5-67x faster than ANH-EL on
    Figure 7 configurations with s-cliques, and level on those without.
    Both give the same hierarchy.
    """
    return "anh-te"


def nucleus_decomposition(graph: Graph, r: int, s: int,
                          method: str = "auto",
                          hierarchy: bool = True,
                          approx: bool = False,
                          delta: float = 0.5,
                          strategy: str = "csr",
                          counter: Optional[WorkSpanCounter] = None,
                          seed: int = 0,
                          backend=None,
                          workers: Optional[int] = None,
                          kernel: str = "auto") -> NucleusDecomposition:
    """Compute the (r, s) nucleus decomposition of ``graph``.

    Parameters
    ----------
    graph:
        The input graph.
    r, s:
        Nucleus parameters, ``1 <= r < s``. (1, 2) is k-core, (2, 3) is
        k-truss.
    method:
        Algorithm selector (see module docstring); ``"auto"`` runs
        ANH-TE (see :func:`choose_method`).
    hierarchy:
        When ``False``, only core numbers are computed (``ARB-NUCLEUS`` /
        ``APPROX-ARB-NUCLEUS``) and ``result.tree`` is ``None``.
    approx:
        Use the approximate peeling (Algorithm 2) with parameter ``delta``.
    strategy:
        s-clique incidence strategy: ``"csr"`` (the default: flat numpy
        CSR arrays, which the vectorized peeling and array tree kernels
        run on, with zero-copy process broadcast), ``"materialized"``
        (the same data in Python dicts and lists; the scalar oracle
        layout), or ``"reenum"`` (space ~ n_r, recompute on demand).
    counter:
        Optional work-span counter; a fresh one is used if omitted.
    seed:
        Seed for the randomized union-find priorities.
    backend:
        Execution backend (see :mod:`repro.parallel.backend`): ``None``
        (the default instrumented serial runtime), a name from
        ``BACKEND_NAMES`` (``"serial"`` / ``"process"``), or an
        :class:`~repro.parallel.backend.ExecutionBackend` instance. The
        clique listing, incidence construction, and peeling batch
        gathering dispatch through it; results are identical for every
        backend (differential-tested).
    workers:
        Worker-process count for the process backend; ``workers >= 2``
        with ``backend=None`` implies ``backend="process"``.
    kernel:
        Unified kernel selector
        (:data:`~repro.core.nucleus.KERNEL_CHOICES`), driving the clique
        enumeration, peeling, and hierarchy construction engines:
        ``"auto"`` (array paths everywhere they apply -- the tree stage
        goes array-native whenever the CSR incidence ran), ``"array"``
        (force the flat-array enumeration and hierarchy kernels; the
        latter requires ``strategy="csr"``), ``"vectorized"`` (force the
        array peeling kernel; requires ``strategy="csr"``), or
        ``"loop"`` (the scalar reference path for every stage). Results
        are identical for every kernel.
    """
    if method == "auto":
        method = choose_method(r, s)
    if method not in EXACT_METHODS:
        raise ParameterError(
            f"unknown method {method!r}; expected one of "
            f"{('auto',) + EXACT_METHODS}")
    if approx and delta <= 0:
        raise ParameterError(f"delta must be > 0, got {delta}")
    counter = counter if counter is not None else WorkSpanCounter()
    enum_kernel, peel_kernel, _ = split_kernel(kernel)
    owns_backend = not isinstance(backend, ExecutionBackend)
    exec_backend = make_backend(backend, workers=workers)

    try:
        t_start = time.perf_counter()
        prepared = prepare(graph, r, s, strategy=strategy, counter=counter,
                           backend=exec_backend, kernel=enum_kernel)
        t_prepared = time.perf_counter()

        if not hierarchy:
            if approx:
                coreness = peel_approx(prepared.incidence, delta,
                                       counter=counter)
            else:
                coreness = peel_exact(prepared.incidence, counter=counter,
                                      backend=exec_backend,
                                      kernel=peel_kernel)
            result = NucleusDecomposition(
                graph=graph, r=r, s=s, method="coreness-only",
                index=prepared.index, coreness=coreness, tree=None,
                stats=dict(coreness.stats),
                approx_delta=delta if approx else None)
        else:
            run = _run_hierarchy(graph, r, s, method, approx, delta, prepared,
                                 counter, seed, exec_backend, kernel)
            result = NucleusDecomposition(
                graph=graph, r=r, s=s, method=method,
                index=prepared.index, coreness=run.coreness, tree=run.tree,
                stats=dict(run.stats),
                approx_delta=delta if approx else None)
        result.strategy = prepared.incidence.strategy
        t_end = time.perf_counter()
    finally:
        if owns_backend and exec_backend is not get_default_backend():
            exec_backend.close()
    result.seconds_prepare = t_prepared - t_start
    result.seconds_total = t_end - t_start
    return result


def _run_hierarchy(graph: Graph, r: int, s: int, method: str, approx: bool,
                   delta: float, prepared, counter: WorkSpanCounter,
                   seed: int, backend=None,
                   kernel: str = "auto") -> InterleavedResult:
    if approx:
        if method == "anh-el":
            return approx_anh_el(graph, r, s, delta=delta, prepared=prepared,
                                 counter=counter, seed=seed)
        if method == "anh-bl":
            return approx_anh_bl(graph, r, s, delta=delta, prepared=prepared,
                                 counter=counter, seed=seed)
        if method == "anh-te":
            return approx_anh_te(graph, r, s, delta=delta, prepared=prepared,
                                 counter=counter, seed=seed)
        if method == "anh-te-theory":
            return approx_anh_te(graph, r, s, delta=delta, prepared=prepared,
                                 counter=counter, theoretical=True, seed=seed)
        raise ParameterError(
            f"method {method!r} has no approximate variant; use one of "
            f"anh-el / anh-bl / anh-te / anh-te-theory")
    if method == "anh-el":
        return anh_el(graph, r, s, prepared=prepared, counter=counter,
                      seed=seed, backend=backend, kernel=kernel)
    if method == "anh-bl":
        return anh_bl(graph, r, s, prepared=prepared, counter=counter,
                      seed=seed, backend=backend, kernel=kernel)
    if method == "anh-te":
        return hierarchy_te_practical(graph, r, s, prepared=prepared,
                                      counter=counter, seed=seed,
                                      backend=backend, kernel=kernel)
    if method == "anh-te-theory":
        return hierarchy_te_theoretical(graph, r, s, prepared=prepared,
                                        counter=counter)
    if method == "nh":
        from ..baselines.nh import nh as run_nh
        out = run_nh(graph, r, s, prepared=prepared)
        return InterleavedResult(out.coreness, out.tree, out.stats)
    # method == "naive"
    from ..baselines.naive_hierarchy import naive_hierarchy
    coreness = peel_exact(prepared.incidence, counter=counter,
                          backend=backend, kernel=split_kernel(kernel)[1])
    tree = naive_hierarchy(prepared.incidence, coreness.core, counter=counter)
    return InterleavedResult(coreness, tree, dict(coreness.stats))


def decompose_to_artifact(graph: Graph, r: int, s: int, path: str,
                          **kwargs) -> str:
    """Decompose ``graph`` and persist the result as a ``.nda`` artifact.

    The compute-once entry point of the serving workflow: equivalent to
    ``nucleus_decomposition`` followed by
    :func:`repro.store.write_artifact`, building the query index exactly
    once. Returns ``path``; load with :func:`repro.store.load_artifact`
    or serve with ``repro serve``. All ``nucleus_decomposition`` keyword
    arguments are accepted (``hierarchy=False`` is rejected -- the
    artifact stores the hierarchy).
    """
    from ..store import write_artifact
    from .queries import HierarchyQueryIndex
    if kwargs.get("hierarchy") is False:
        raise ParameterError(
            "artifacts store the full hierarchy; drop hierarchy=False")
    result = nucleus_decomposition(graph, r, s, **kwargs)
    return write_artifact(result, path,
                          query_index=HierarchyQueryIndex(result))


def k_core(graph: Graph, **kwargs) -> NucleusDecomposition:
    """The (1, 2) nucleus decomposition (classic k-core)."""
    return nucleus_decomposition(graph, 1, 2, **kwargs)


def k_truss(graph: Graph, **kwargs) -> NucleusDecomposition:
    """The (2, 3) nucleus decomposition (classic k-truss)."""
    return nucleus_decomposition(graph, 2, 3, **kwargs)
