"""Exact parallel nucleus decomposition -- ``ARB-NUCLEUS`` (Shi et al. [55]).

The peeling engine at the heart of both the coreness-only computation and
the interleaved hierarchy framework (Algorithm 3): repeatedly extract the
bucket of r-cliques with minimum current s-clique degree, assign them the
running maximum ``k_cur`` as their core number, and decrement the degrees
of r-cliques sharing a still-present s-clique.

Peeling semantics (DESIGN.md Section 5): an s-clique is *present* iff none
of its member r-cliques has been peeled. The batch of a round is processed
in deterministic id order, marking each r-clique dead as it is processed;
an s-clique is therefore decremented exactly once -- when its first member
dies -- and every s-clique-adjacent pair ``(R', R)`` is reported to the
``link`` callback exactly when the *later* clique ``R`` is peeled, at which
point both core numbers are final. That single guarantee is what makes the
interleaved hierarchy construction of Section 7 sound.

The parallel round structure is metered: each round costs ``O(log n)`` span
(bucket extraction + hash-table updates), so the final span charge is
``O(rho * log n)`` with ``rho`` the peeling complexity -- the bound of the
paper's Theorem 5.1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..ds.bucketing import BucketQueue
from ..errors import ParameterError
from ..parallel.backend import ExecutionBackend
from ..parallel.counters import (NullCounter, WorkSpanCounter,
                                 WorkSpanSnapshot, log2_ceil)
from ..graphs.graph import Graph
from ..cliques.incidence import build_incidence, validate_rs
from ..cliques.index import CliqueIndex

#: link callback signature: link(earlier_peeled_rid, later_peeled_rid)
LinkFn = Callable[[int, int], None]


@dataclass
class CorenessResult:
    """Output of a (possibly approximate) coreness computation.

    Attributes
    ----------
    core:
        Core number (or estimate) per r-clique id.
    rho:
        Number of peeling rounds (the paper's peeling complexity proxy).
    k_max:
        Maximum core value.
    n_r / n_s:
        Number of r-cliques and s-cliques.
    work_span:
        Metered work/span of the computation.
    stats:
        Free-form counters (bucket updates, link calls, ...).
    """

    core: List[float]
    rho: int
    k_max: float
    n_r: int
    n_s: int
    work_span: WorkSpanSnapshot
    stats: Dict[str, float] = field(default_factory=dict)


def _gather_chunk(incidence, rids: List[int]) -> List[List[Tuple[int, ...]]]:
    """Backend task: the s-clique member tuples of each r-clique in a chunk.

    The read-only half of a peeling round -- enumerating what each
    batch member touches -- extracted so it can run in worker processes
    against the broadcast incidence. The mutating half (liveness checks,
    decrements, link calls) stays in the parent, in batch order.
    """
    return [list(incidence.s_cliques_containing(rid)) for rid in rids]


#: Peeling kernel selectors accepted by :func:`peel_exact`.
KERNEL_NAMES = ("auto", "vectorized", "loop")

#: Unified kernel selectors accepted by the end-to-end entry points
#: (:func:`arb_nucleus`, ``core.api``, the CLI ``--kernel`` flag). The
#: flag drives three engines at once -- the enumeration kernel
#: (:mod:`repro.cliques.list_kernel`), the peeling kernel
#: (:mod:`repro.core.peel_csr`), and the hierarchy construction kernel
#: (:mod:`repro.core.hierarchy_kernel`); :func:`split_kernel` maps one
#: user choice to the (enumeration, peeling, tree) triple.
KERNEL_CHOICES = ("auto", "array", "vectorized", "loop")


def split_kernel(kernel: str) -> Tuple[str, str, str]:
    """Split a unified choice into ``(enum_kernel, peel_kernel, tree_kernel)``.

    ``"auto"`` lets every stage pick its array path (the tree stage goes
    array-native whenever the CSR incidence ran); ``"loop"`` forces the
    scalar oracle everywhere. The stage-specific names pin their stages
    and leave the rest on ``"auto"``: ``"array"`` forces the flat-array
    engines (enumeration + hierarchy construction; the latter requires a
    CSR incidence), ``"vectorized"`` forces the array peeling kernel
    (which requires a CSR incidence, as before). Every combination
    produces identical cliques, coreness, hierarchies, and meters.
    """
    if kernel not in KERNEL_CHOICES:
        raise ParameterError(
            f"unknown kernel {kernel!r}; expected one of {KERNEL_CHOICES}")
    if kernel == "array":
        return "array", "auto", "array"
    if kernel == "vectorized":
        return "auto", "vectorized", "auto"
    return kernel, kernel, kernel


def peel_exact(incidence, counter: Optional[WorkSpanCounter] = None,
               link: Optional[LinkFn] = None,
               core_out: Optional[List[float]] = None,
               bucketing: str = "julienne",
               backend: Optional[ExecutionBackend] = None,
               chunk_size: Optional[int] = None,
               kernel: str = "auto") -> CorenessResult:
    """Run the exact peeling process over a prebuilt incidence.

    ``link(R', R)`` is invoked for every s-clique-adjacent pair at the
    moment the later clique ``R`` is peeled (``core[R'] <= core[R]``
    guaranteed); pass ``None`` for a coreness-only run.

    ``core_out``, when given, is filled in place (length ``n_r``) so a LINK
    implementation holding the same list observes final core numbers as
    they are assigned -- the interleaving of Algorithm 3.

    ``bucketing`` selects the priority structure: ``"julienne"`` (the
    default array-of-buckets structure [16]) or ``"heap"`` (the
    space-restricted addressable heap of the paper's Section 6 footnote;
    space ``3 * n_r`` regardless of degree range).

    ``backend`` (see :mod:`repro.parallel.backend`) parallelizes the
    read-only half of each round -- gathering the s-cliques containing
    every batch member -- across worker processes; the mutating updates
    are then applied in the parent in the same deterministic id order as
    the serial path, so the results are identical for every backend.

    ``kernel`` selects the peeling engine: ``"auto"`` (the default) uses
    the vectorized array kernel (:mod:`repro.core.peel_csr`) whenever the
    incidence is a :class:`~repro.cliques.csr.CSRIncidence` and julienne
    bucketing is in effect, and the scalar loop otherwise;
    ``"vectorized"`` requires the array path; ``"loop"`` forces the
    scalar engine even on a CSR incidence. All combinations produce
    identical coreness, ``rho``, meters, and hierarchy partitions.
    """
    counter = counter if counter is not None else NullCounter()
    if kernel not in KERNEL_NAMES:
        raise ParameterError(
            f"unknown kernel {kernel!r}; expected one of {KERNEL_NAMES}")
    is_csr = getattr(incidence, "strategy", None) == "csr" and \
        hasattr(incidence, "member_array")
    if kernel == "vectorized" and not is_csr:
        raise ParameterError(
            "kernel='vectorized' requires a CSR incidence "
            "(build_incidence(strategy='csr'))")
    if kernel == "vectorized" and bucketing != "julienne":
        raise ParameterError(
            "kernel='vectorized' requires julienne bucketing")
    if is_csr and bucketing == "julienne" and kernel != "loop":
        from .peel_csr import peel_exact_csr
        return peel_exact_csr(incidence, counter=counter, link=link,
                              core_out=core_out)
    n_r = incidence.n_r
    degrees = incidence.initial_degrees()
    if bucketing == "julienne":
        queue = BucketQueue(degrees)
    elif bucketing == "heap":
        from ..ds.heap_bucketing import HeapBucketQueue
        queue = HeapBucketQueue(degrees)
    else:
        raise ParameterError(
            f"unknown bucketing {bucketing!r}; "
            f"expected 'julienne' or 'heap'")
    if core_out is None:
        core: List[float] = [0.0] * n_r
    else:
        if len(core_out) != n_r:
            raise ParameterError(
                f"core_out has length {len(core_out)}, expected {n_r}")
        core = core_out
        for i in range(n_r):
            core[i] = 0.0
    alive = [True] * n_r
    k_cur = 0
    link_calls = 0
    n_log = log2_ceil(max(n_r, 1))
    use_pool = backend is not None and backend.is_parallel()
    gather_token = backend.broadcast(incidence) if use_pool else None
    while not queue.empty:
        value, batch = queue.next_bucket()
        k_cur = max(k_cur, value)
        round_work = len(batch)
        for rid in batch:
            core[rid] = float(k_cur)
        if use_pool and len(batch) > 1:
            gathered = backend.map_chunks(_gather_chunk, batch,
                                          token=gather_token,
                                          chunk_size=chunk_size)
            memberships = [m for chunk in gathered for m in chunk]
        else:
            memberships = None
        for position, rid in enumerate(batch):
            membership = (memberships[position] if memberships is not None
                          else incidence.s_cliques_containing(rid))
            for members in membership:
                round_work += len(members)
                others = [x for x in members if x != rid]
                if all(alive[o] for o in others):
                    # The s-clique is still present: it dies with rid, and
                    # every other live member loses one s-clique.
                    for other in others:
                        if queue.alive(other):
                            queue.decrement(other)
                else:
                    # The s-clique died earlier; the dead members are the
                    # already-peeled neighbors to connect in the hierarchy.
                    if link is not None:
                        for other in others:
                            if not alive[other]:
                                link(other, rid)
                                link_calls += 1
            alive[rid] = False
        # One peeling round: the work above, O(log n) span for the bucket
        # extraction and parallel hash-table updates.
        counter.add_parallel(round_work, 1 + n_log)
    return CorenessResult(
        core=core,
        rho=queue.rounds,
        k_max=max(core, default=0.0),
        n_r=n_r,
        n_s=incidence.n_s,
        work_span=counter.snapshot(),
        stats={
            "bucket_updates": float(queue.updates),
            "link_calls": float(link_calls),
        },
    )


@dataclass
class NucleusInput:
    """A graph prepared for (r, s) decomposition: orientation + incidence."""

    graph: Graph
    r: int
    s: int
    orientation: object
    index: CliqueIndex
    incidence: object

    @property
    def n_r(self) -> int:
        return self.incidence.n_r

    @property
    def n_s(self) -> int:
        return self.incidence.n_s


def prepare(graph: Graph, r: int, s: int, strategy: str = "csr",
            counter: Optional[WorkSpanCounter] = None,
            backend: Optional[ExecutionBackend] = None,
            chunk_size: Optional[int] = None,
            kernel: str = "auto") -> NucleusInput:
    """Orient, index r-cliques, and build the s-clique incidence.

    The shared preamble (Algorithm 2/3, lines 3-5): ``ARB-ORIENT`` followed
    by ``REC-LIST-CLIQUES``-based counting. A parallel ``backend``
    dispatches the clique listing and incidence construction through
    worker processes (results are backend-independent). ``kernel`` is the
    *enumeration* kernel name passed to
    :func:`~repro.cliques.incidence.build_incidence` (callers holding a
    unified choice should pass ``split_kernel(kernel)[0]``).
    """
    validate_rs(r, s)
    orientation, index, incidence = build_incidence(
        graph, r, s, strategy=strategy, counter=counter, backend=backend,
        chunk_size=chunk_size, kernel=kernel)
    return NucleusInput(graph=graph, r=r, s=s, orientation=orientation,
                        index=index, incidence=incidence)


def arb_nucleus(graph: Graph, r: int, s: int,
                strategy: str = "csr",
                counter: Optional[WorkSpanCounter] = None,
                prepared: Optional[NucleusInput] = None,
                bucketing: str = "julienne",
                backend: Optional[ExecutionBackend] = None,
                chunk_size: Optional[int] = None,
                kernel: str = "auto") -> CorenessResult:
    """Exact (r, s)-clique core numbers of every r-clique (``ARB-NUCLEUS``).

    Returns a :class:`CorenessResult`; r-clique ids follow the
    :class:`~repro.cliques.index.CliqueIndex` order (pass ``prepared`` to
    reuse an existing preparation and its index). ``bucketing`` selects
    the priority structure (see :func:`peel_exact`); ``kernel`` is the
    unified choice (:data:`KERNEL_CHOICES`) split across the enumeration
    and peeling stages.
    """
    counter = counter if counter is not None else WorkSpanCounter()
    enum_kernel, peel_kernel, _ = split_kernel(kernel)
    if prepared is None:
        prepared = prepare(graph, r, s, strategy=strategy, counter=counter,
                           backend=backend, chunk_size=chunk_size,
                           kernel=enum_kernel)
    return peel_exact(prepared.incidence, counter=counter, link=None,
                      bucketing=bucketing, backend=backend,
                      chunk_size=chunk_size, kernel=peel_kernel)
