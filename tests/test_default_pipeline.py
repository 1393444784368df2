"""The default entry points take the all-array pipeline and match the oracle.

With no flags, ``nucleus_decomposition``, ``repro decompose`` and
``repro store build`` run the CSR incidence, the vectorized peel and the
array ANH-TE tree. These tests pin that route and its output: core
numbers and ``HierarchyTree.canonical_form`` equal the per-level
connectivity oracle (``method="naive"`` on the dict incidence with the
scalar kernels) over the golden datasets and the Figure 7 grid, and the
CLI's default tree equals the one the paper's ANH-EL builds.
"""

from __future__ import annotations

import io
import json

import pytest

from repro import nucleus_decomposition
from repro.cli import main
from repro.cliques.csr import CSRIncidence
from repro.core.nucleus import prepare
from repro.core.tree import HierarchyTree
from repro.export import decomposition_from_json
from repro.graphs.datasets import load_dataset
from repro.graphs.generators import planted_nuclei
from repro.graphs.io import write_edge_list
from repro.store import load_artifact

#: The golden datasets of tests/test_golden.py, then two larger stand-ins
#: whose hierarchies have a few dozen nuclei.
GOLDEN = (("amazon", 0.05), ("dblp", 0.05), ("dblp", 0.5), ("youtube", 0.5))

#: The Figure 7 (r, s) grid, capped at s <= 5.
FIG7_GRID = [(r, s) for s in range(2, 6) for r in range(1, s)]


@pytest.fixture(scope="module", params=GOLDEN,
                ids=[f"{name}-x{scale:g}" for name, scale in GOLDEN])
def golden_graph(request):
    name, scale = request.param
    return load_dataset(name, scale=scale)


@pytest.mark.parametrize("r,s", FIG7_GRID, ids=[f"r{r}s{s}"
                                               for r, s in FIG7_GRID])
def test_default_matches_oracle(golden_graph, r, s):
    default = nucleus_decomposition(golden_graph, r, s)
    oracle = nucleus_decomposition(golden_graph, r, s, method="naive",
                                   strategy="materialized", kernel="loop")
    assert default.method == "anh-te"
    assert default.core == oracle.core
    assert default.tree.canonical_form() == oracle.tree.canonical_form()


def test_default_route_is_all_array(monkeypatch):
    """No flags: CSR incidence, then the vectorized peel, then the array tree."""
    import repro.core.hierarchy_te as hierarchy_te
    import repro.core.peel_csr as peel_csr
    calls = []

    def spy(name, fn):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(peel_csr, "peel_exact_csr",
                        spy("peel", peel_csr.peel_exact_csr))
    monkeypatch.setattr(hierarchy_te, "build_tree_arrays",
                        spy("tree", hierarchy_te.build_tree_arrays))
    graph = planted_nuclei([6, 5, 4], bridge=True)
    assert isinstance(prepare(graph, 2, 3).incidence, CSRIncidence)
    result = nucleus_decomposition(graph, 2, 3)
    assert (result.strategy, result.method) == ("csr", "anh-te")
    assert calls == ["peel", "tree"]


# -- CLI: the default route and the paper's ANH-EL give the same tree -------

PAPER_FLAGS = ["--strategy", "materialized", "--method", "anh-el"]


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    assert code == 0
    return out.getvalue()


@pytest.fixture(scope="module")
def graph_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("default-cli") / "graph.txt"
    write_edge_list(load_dataset("dblp", scale=0.05), str(path))
    return str(path)


def _without_method_and_time(text: str):
    return [line.replace("via anh-el", "via METHOD")
                .replace("via anh-te", "via METHOD")
            for line in text.splitlines() if not line.startswith("time:")]


@pytest.mark.parametrize("r,s", [(1, 2), (2, 3), (2, 4)])
def test_cli_decompose_default(graph_file, r, s):
    rs = ["--r", str(r), "--s", str(s)]
    default = run(["decompose", graph_file] + rs)
    paper = run(["decompose", graph_file] + rs + PAPER_FLAGS)
    assert "via anh-te" in default
    assert _without_method_and_time(default) == \
        _without_method_and_time(paper)
    # ``export`` shares the decompose path and prints the whole tree
    graph = load_dataset("dblp", scale=0.05)
    trees = [decomposition_from_json(
        io.StringIO(run(["export", graph_file, "--format", "json"]
                        + rs + flags)), graph).tree.canonical_form()
        for flags in ([], PAPER_FLAGS)]
    assert trees[0] == trees[1]


def _artifact_tree(path: str):
    with load_artifact(path) as artifact:
        tree = HierarchyTree(artifact.n_leaves, artifact.parent.tolist(),
                             artifact.level.tolist(), artifact.rep.tolist())
        return artifact.meta["method"], artifact.core.tolist(), \
            json.dumps(tree.canonical_form(), sort_keys=True)


@pytest.mark.parametrize("r,s", [(1, 2), (2, 3), (3, 4)])
def test_cli_store_build_default(graph_file, tmp_path, r, s):
    rs = ["--r", str(r), "--s", str(s)]
    default_path = str(tmp_path / "default.nda")
    paper_path = str(tmp_path / "paper.nda")
    run(["store", "build", graph_file, "-o", default_path] + rs)
    run(["store", "build", graph_file, "-o", paper_path] + rs + PAPER_FLAGS)
    method, core, tree = _artifact_tree(default_path)
    assert method == "anh-te"
    assert (core, tree) == _artifact_tree(paper_path)[1:]
