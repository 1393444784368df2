"""Differential tests: ``ProcessBackend`` is indistinguishable from serial.

The execution backend only parallelizes read-only *gathering* (clique
listing, s-clique degrees, bucket membership scans); every mutation is
applied serially in the parent in the same deterministic order. These
tests pin that contract end to end: byte-identical coreness arrays,
identical partition chains (hierarchy isomorphism witness), identical
work/span meters, across the seeded corpus and all ``(r, s)`` pairs with
``s <= 5`` -- regardless of worker count, chunk size, or degradation.
"""

from __future__ import annotations

import io
from array import array

import pytest

from conftest import RS_PAIRS, random_graphs
from repro.cli import main as cli_main
from repro.cliques.enumeration import enumerate_cliques, enumerate_cliques_via
from repro.cliques.incidence import build_incidence
from repro.core.api import EXACT_METHODS, nucleus_decomposition
from repro.graphs.orientation import arb_orient
from repro.parallel.backend import ProcessBackend, SerialBackend
from repro.parallel.counters import WorkSpanCounter

#: Hierarchy methods that accept a backend (the theoretical TE variant and
#: the nh baseline are deliberately serial-only).
BACKEND_METHODS = tuple(m for m in EXACT_METHODS
                        if m not in ("anh-te-theory", "nh"))


def coreness_bytes(result) -> bytes:
    """The coreness array as raw bytes -- equality here is byte-identity."""
    return array("d", result.core).tobytes()


def chain_of(result):
    """Canonical partition chain: level -> sorted list of sorted groups.

    Two hierarchy trees with equal chains induce the same nested nucleus
    partitions at every level, i.e. they are isomorphic as laminar
    families.
    """
    return {level: sorted(sorted(group) for group in groups)
            for level, groups in result.tree.partition_chain().items()}


def fingerprint(result):
    snap = result.work_span
    return (result.n_r, result.n_s, result.rho, result.max_core,
            coreness_bytes(result), snap.work, snap.span,
            chain_of(result) if result.tree is not None else None)


@pytest.fixture(scope="module")
def pool():
    """One shared 2-worker pool for the whole module.

    Passed into the API as an instance so ``nucleus_decomposition`` does
    not close it between calls (``owns_backend`` is False).
    """
    with ProcessBackend(workers=2) as backend:
        yield backend


@pytest.fixture(scope="module")
def corpus(paper_like_graph, planted, social_graph):
    """(graph, restrict_to_cheap_rs) pairs: the seeded generator corpus."""
    graphs = [(paper_like_graph, False), (planted, False)]
    graphs += [(g, False) for g in random_graphs(count=2, n=24)]
    # the 120-vertex social graph is clique-rich; keep it to one (r, s)
    graphs += [(social_graph, True)]
    return graphs


class TestFullDecompositionEquivalence:
    """The headline differential property, over the corpus x RS_PAIRS."""

    @pytest.mark.parametrize("r,s", RS_PAIRS)
    def test_corpus_all_rs(self, corpus, pool, r, s):
        assert s <= 5
        for graph, cheap_only in corpus:
            if cheap_only and (r, s) != (2, 3):
                continue
            serial = nucleus_decomposition(graph, r, s)
            parallel = nucleus_decomposition(graph, r, s, backend=pool)
            assert coreness_bytes(parallel) == coreness_bytes(serial), \
                (graph.name, r, s)
            assert chain_of(parallel) == chain_of(serial), (graph.name, r, s)
            assert fingerprint(parallel) == fingerprint(serial), \
                (graph.name, r, s)

    @pytest.mark.parametrize("method", BACKEND_METHODS)
    def test_every_hierarchy_method(self, paper_like_graph, pool, method):
        serial = nucleus_decomposition(paper_like_graph, 2, 3, method=method)
        parallel = nucleus_decomposition(paper_like_graph, 2, 3,
                                         method=method, backend=pool)
        assert fingerprint(parallel) == fingerprint(serial)

    def test_reenum_strategy(self, planted, pool):
        serial = nucleus_decomposition(planted, 2, 3, strategy="reenum")
        parallel = nucleus_decomposition(planted, 2, 3, strategy="reenum",
                                         backend=pool)
        assert fingerprint(parallel) == fingerprint(serial)

    def test_csr_strategy(self, planted, pool):
        serial = nucleus_decomposition(planted, 2, 3, strategy="csr")
        parallel = nucleus_decomposition(planted, 2, 3, strategy="csr",
                                         backend=pool)
        assert fingerprint(parallel) == fingerprint(serial)
        assert fingerprint(serial) == \
            fingerprint(nucleus_decomposition(planted, 2, 3))

    def test_csr_loop_kernel_broadcasts_incidence(self, planted, pool):
        """kernel='loop' on a CSR incidence drives the generic peel path,
        which broadcasts the incidence to the pool -- the end-to-end
        exercise of the shared-memory shipping."""
        serial = nucleus_decomposition(planted, 2, 3, strategy="csr",
                                       kernel="loop")
        parallel = nucleus_decomposition(planted, 2, 3, strategy="csr",
                                         kernel="loop", backend=pool)
        assert fingerprint(parallel) == fingerprint(serial)

    def test_coreness_only(self, planted, pool):
        serial = nucleus_decomposition(planted, 2, 4, hierarchy=False)
        parallel = nucleus_decomposition(planted, 2, 4, hierarchy=False,
                                         backend=pool)
        assert coreness_bytes(parallel) == coreness_bytes(serial)
        assert parallel.tree is None and serial.tree is None

    def test_api_owned_backend_by_name(self, planted):
        serial = nucleus_decomposition(planted, 2, 3)
        parallel = nucleus_decomposition(planted, 2, 3, backend="process",
                                         workers=2)
        assert fingerprint(parallel) == fingerprint(serial)


class TestDeterminism:
    """Worker count and chunk size must never change a single byte."""

    def test_workers_and_chunk_sizes(self, planted):
        reference = fingerprint(nucleus_decomposition(planted, 2, 3))
        for workers in (2, 3):
            for chunk_size in (1, 7, 64):
                with ProcessBackend(workers=workers,
                                    chunk_size=chunk_size) as backend:
                    run = nucleus_decomposition(planted, 2, 3,
                                                backend=backend)
                assert fingerprint(run) == reference, (workers, chunk_size)

    def test_repeated_runs_on_one_pool(self, paper_like_graph, pool):
        runs = [fingerprint(nucleus_decomposition(paper_like_graph, 1, 3,
                                                  backend=pool))
                for _ in range(3)]
        assert runs[0] == runs[1] == runs[2]

    def test_degraded_pool_equivalence(self, planted):
        backend = ProcessBackend(workers=2, start_method="no-such-method")
        assert not backend.is_parallel()
        serial = nucleus_decomposition(planted, 2, 3)
        degraded = nucleus_decomposition(planted, 2, 3, backend=backend)
        assert fingerprint(degraded) == fingerprint(serial)


class TestSharedMemoryBroadcast:
    """Zero-copy CSR broadcast: on, off, and degraded all give one answer."""

    @staticmethod
    def _run(graph, backend):
        from repro.core.nucleus import peel_exact, prepare
        prep = prepare(graph, 2, 3, strategy="csr", backend=backend)
        # the loop kernel is what broadcasts the incidence to the pool
        result = peel_exact(prep.incidence, kernel="loop", backend=backend)
        return (coreness_bytes(result), result.rho, result.stats)

    def test_shm_on_off_identical(self, planted):
        serial = self._run(planted, None)
        with ProcessBackend(workers=2) as shm_on:
            with_shm = self._run(planted, shm_on)
            assert shm_on.shm_fallback_reason is None
            # 4 arrays for the CSR orientation (broadcast once for the
            # r-clique indexing and s-clique listing -- deduplicated by
            # object identity) + 4 for the CSR incidence the loop-kernel
            # peel broadcasts.
            assert shm_on.shm_segments() == 8
        assert shm_on.shm_segments() == 0  # released on close
        with ProcessBackend(workers=2, use_shared_memory=False) as shm_off:
            without_shm = self._run(planted, shm_off)
            assert shm_off.shm_segments() == 0
            assert shm_off.shm_fallback_reason == "disabled by configuration"
        assert with_shm == without_shm == serial

    def test_attach_failure_falls_back_to_pickle(self, planted,
                                                 monkeypatch):
        """A worker that cannot map segments forces a transparent retry
        with pickled contexts (fork inherits the patched attach)."""
        import repro.parallel.backend as backend_module

        def broken(descriptor):
            raise OSError("simulated /dev/shm failure")

        monkeypatch.setattr(backend_module, "_attach_shm", broken)
        serial = self._run(planted, None)
        with ProcessBackend(workers=2) as backend:
            degraded = self._run(planted, backend)
            assert backend.shm_fallback_reason is not None
            assert "attach" in backend.shm_fallback_reason
        assert degraded == serial

    def test_non_shareable_contexts_untouched(self, planted):
        """The loop kernel over the dict incidence broadcasts
        (orientation, index) tuples, which lack the protocol: plain
        pickling, zero segments -- and still the same fingerprint as the
        default (array) kernel."""
        with ProcessBackend(workers=2) as backend:
            run = nucleus_decomposition(planted, 2, 3, backend=backend,
                                        strategy="materialized",
                                        kernel="loop")
            assert backend.shm_segments() == 0
        assert fingerprint(run) == \
            fingerprint(nucleus_decomposition(planted, 2, 3))

    def test_shm_reconstruction_roundtrip(self, planted):
        """__shm_export__/__shm_import__ rebuild an equivalent view."""
        from repro.cliques.csr import CSRIncidence
        from repro.cliques.incidence import build_incidence
        _, _, csr = build_incidence(planted, 2, 3, strategy="csr")
        meta, arrays = csr.__shm_export__()
        clone = CSRIncidence.__shm_import__(meta, arrays)
        assert clone.n_r == csr.n_r and clone.n_s == csr.n_s
        assert clone.initial_degrees() == csr.initial_degrees()
        for rid in range(csr.n_r):
            assert list(clone.s_cliques_containing(rid)) == \
                list(csr.s_cliques_containing(rid))


class TestStageEquivalence:
    """Each parallelized stage on its own, meters included."""

    @pytest.mark.parametrize("k", (1, 2, 3, 4))
    def test_clique_enumeration(self, pool, k):
        for graph in random_graphs(count=2, n=24):
            orientation = arb_orient(graph)
            serial_counter = WorkSpanCounter()
            expected = list(enumerate_cliques(orientation, k, serial_counter))
            pool_counter = WorkSpanCounter()
            got = enumerate_cliques_via(pool, orientation, k, pool_counter)
            assert got == expected
            assert (pool_counter.work, pool_counter.span) == \
                (serial_counter.work, serial_counter.span)

    @pytest.mark.parametrize("strategy", ("materialized", "reenum"))
    def test_incidence_construction(self, pool, strategy):
        graph = random_graphs(count=1, n=26)[0]
        for r, s in ((1, 2), (2, 3), (2, 4), (3, 4)):
            serial_counter = WorkSpanCounter()
            _, s_index, s_inc = build_incidence(graph, r, s,
                                                strategy=strategy,
                                                counter=serial_counter)
            pool_counter = WorkSpanCounter()
            _, p_index, p_inc = build_incidence(graph, r, s,
                                                strategy=strategy,
                                                counter=pool_counter,
                                                backend=pool)
            assert p_inc.n_r == s_inc.n_r and p_inc.n_s == s_inc.n_s
            assert p_inc.initial_degrees() == s_inc.initial_degrees(), (r, s)
            for rid in range(s_inc.n_r):
                assert p_index.clique_of(rid) == s_index.clique_of(rid)
                assert sorted(p_inc.s_cliques_containing(rid)) == \
                    sorted(s_inc.s_cliques_containing(rid)), (r, s, rid)
            assert (pool_counter.work, pool_counter.span) == \
                (serial_counter.work, serial_counter.span), (r, s)


class TestCliEquivalence:
    """`--backend process` is invisible in the CLI output."""

    @staticmethod
    def _run(argv):
        out = io.StringIO()
        code = cli_main(argv, out=out)
        lines = [line for line in out.getvalue().splitlines()
                 if not line.startswith("time:")]
        return code, lines

    def test_decompose_output_identical(self):
        base = ["decompose", "--dataset", "amazon", "--scale", "0.1",
                "--r", "2", "--s", "3"]
        serial_code, serial_lines = self._run(base + ["--backend", "serial"])
        process_code, process_lines = self._run(
            base + ["--backend", "process", "--workers", "2"])
        assert serial_code == process_code == 0
        assert process_lines == serial_lines
