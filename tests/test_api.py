"""Unit tests for the public façade (repro.core.api)."""

import pytest

from conftest import oracle_chain
from repro import nucleus_decomposition
from repro.core.api import EXACT_METHODS, choose_method, k_core, k_truss
from repro.errors import ParameterError
from repro.graphs.generators import powerlaw_cluster
from repro.graphs.graph import Graph


@pytest.fixture(scope="module")
def graph():
    return powerlaw_cluster(100, 4, 0.8, seed=13)


class TestChooseMethod:
    """``auto`` runs ANH-TE (the all-array route) for every (r, s)."""

    def test_kcore_prefers_te(self):
        assert choose_method(1, 2) == "anh-te"

    def test_small_gap_prefers_te(self):
        assert choose_method(2, 3) == "anh-te"
        assert choose_method(2, 4) == "anh-te"
        assert choose_method(3, 4) == "anh-te"

    def test_large_gap_prefers_te(self):
        assert choose_method(1, 4) == "anh-te"
        assert choose_method(2, 5) == "anh-te"


class TestMethods:
    @pytest.mark.parametrize("method", EXACT_METHODS)
    def test_all_methods_agree(self, graph, method):
        prep, res, oracle = oracle_chain(graph, 2, 3)
        out = nucleus_decomposition(graph, 2, 3, method=method)
        assert out.core == res.core
        assert out.tree.partition_chain() == oracle
        assert out.method == method

    def test_auto_resolves(self, graph):
        out = nucleus_decomposition(graph, 2, 3, method="auto")
        assert out.method == "anh-te"

    def test_unknown_method(self, graph):
        with pytest.raises(ParameterError):
            nucleus_decomposition(graph, 2, 3, method="quantum")

    def test_invalid_rs(self, graph):
        with pytest.raises(ParameterError):
            nucleus_decomposition(graph, 3, 3)

    def test_coreness_only(self, graph):
        out = nucleus_decomposition(graph, 2, 3, hierarchy=False)
        assert out.tree is None
        with pytest.raises(ParameterError):
            out.nuclei_at(1)

    def test_reenum_strategy(self, graph):
        a = nucleus_decomposition(graph, 2, 3, strategy="materialized")
        b = nucleus_decomposition(graph, 2, 3, strategy="reenum")
        assert a.core == b.core


class TestApprox:
    def test_approx_decomposition(self, graph):
        exact = nucleus_decomposition(graph, 2, 3)
        approx = nucleus_decomposition(graph, 2, 3, approx=True, delta=0.5)
        assert approx.is_approximate
        assert approx.approx_delta == 0.5
        assert all(a >= e for a, e in zip(approx.core, exact.core))

    def test_approx_methods(self, graph):
        for method in ("anh-el", "anh-bl", "anh-te", "anh-te-theory"):
            out = nucleus_decomposition(graph, 2, 3, method=method,
                                        approx=True, delta=1.0)
            assert out.tree is not None

    def test_approx_without_variant_rejected(self, graph):
        with pytest.raises(ParameterError):
            nucleus_decomposition(graph, 2, 3, method="nh", approx=True)

    def test_invalid_delta(self, graph):
        with pytest.raises(ParameterError):
            nucleus_decomposition(graph, 2, 3, approx=True, delta=0)

    def test_approx_coreness_only(self, graph):
        out = nucleus_decomposition(graph, 2, 3, hierarchy=False,
                                    approx=True, delta=0.5)
        assert out.tree is None and out.is_approximate


class TestShortcuts:
    def test_k_core_is_12(self, graph):
        out = k_core(graph)
        assert (out.r, out.s) == (1, 2)
        from repro.baselines.kcore import core_numbers
        classic = core_numbers(graph)
        for rid in range(out.n_r):
            (v,) = out.index.clique_of(rid)
            assert out.core[rid] == classic[v]

    def test_k_truss_is_23(self, graph):
        out = k_truss(graph)
        assert (out.r, out.s) == (2, 3)

    def test_timings_recorded(self, graph):
        out = nucleus_decomposition(graph, 2, 3)
        assert out.seconds_total > 0
        assert 0 <= out.seconds_prepare <= out.seconds_total
