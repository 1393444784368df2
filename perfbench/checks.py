"""Output checks: build results against the oracle, answers against the index.

Build jobs are checked on what a user reads back: the core number of
every r-clique, keyed by its vertex tuple, and the hierarchy's
``HierarchyTree.canonical_form``. Both are mapped back to seed-0 vertex
ids, so one oracle reference per job (``reference.json``, written by
``make_reference.py`` from ``method="naive"``) serves every seed. Internal
node ids, artifact bytes and the format version are never compared.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.core.tree import HierarchyTree
from repro.service.core import community_to_dict
from repro.store import load_artifact
from repro.store.format import read_header

REFERENCE_PATH = Path(__file__).with_name("reference.json")


class Tally:
    """Attempted and failed jobs and queries, with the first problems."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def fail(self, message: str, n: int = 1) -> None:
        """Record a problem; ``n`` is how many jobs or queries it spoils.

        Any problem makes the run incorrect, even one with ``n == 0``
        (counters that disagree spoil no single query).
        """
        self.failed += n
        if len(self.problems) < 20:
            self.problems.append(message)


def load_reference() -> Dict[str, Dict[str, Any]]:
    with open(REFERENCE_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def output_digests(cliques: np.ndarray, core: Sequence[float],
                   parent: Sequence[int], level: Sequence[float],
                   perm: np.ndarray) -> Dict[str, Any]:
    """Seed-0 digests of a decomposition's coreness and canonical tree.

    ``cliques`` holds the r-clique vertex rows in leaf-id order and
    ``perm`` the seed's relabeling (old id -> new id). Leaves are renamed
    to the ids the same r-cliques have in the unrelabeled graph before
    the canonical form is taken.
    """
    cliques = np.asarray(cliques, dtype=np.int64)
    n_r = cliques.shape[0]
    inverse = np.argsort(perm)
    old_rows = np.sort(inverse[cliques], axis=1) if n_r else cliques
    order = np.lexsort(old_rows.T[::-1]) if n_r else np.arange(0)
    old_id = np.empty(n_r, dtype=np.int64)
    old_id[order] = np.arange(n_r)
    core0 = np.empty(n_r, dtype=np.float64)
    core0[old_id] = np.asarray(core, dtype=np.float64)
    parent0 = np.asarray(parent, dtype=np.int64).copy()
    level0 = np.asarray(level, dtype=np.float64).copy()
    parent0[old_id] = np.asarray(parent, dtype=np.int64)[:n_r]
    level0[old_id] = np.asarray(level, dtype=np.float64)[:n_r]
    # Representatives do not enter the canonical form; any leaf will do.
    rep0 = np.zeros(len(parent0), dtype=np.int64)
    tree = HierarchyTree(n_r, parent0.tolist(), level0.tolist(),
                         rep0.tolist())
    canon = json.dumps(tree.canonical_form(), sort_keys=True)
    core_hash = hashlib.sha256(old_rows[order].tobytes())
    core_hash.update(core0.tobytes())
    return {"n_r": int(n_r),
            "tree_nodes": int(len(parent0)),
            "core_sha256": core_hash.hexdigest(),
            "tree_sha256": hashlib.sha256(canon.encode()).hexdigest()}


def artifact_digests(path: str, perm: np.ndarray) -> Dict[str, Any]:
    """:func:`output_digests` of a ``.nda`` artifact on disk."""
    with load_artifact(path) as artifact:
        return output_digests(artifact.cliques, artifact.core,
                              artifact.parent, artifact.level, perm)


def column_fingerprint(path: str) -> str:
    """Hash of an artifact's column payload (the metadata is excluded).

    Repeated passes of a deterministic build produce the same
    fingerprint, so the oracle comparison runs once per distinct output.
    """
    payload_start, _ = read_header(path)
    with open(path, "rb") as handle:
        handle.seek(payload_start)
        return hashlib.sha1(handle.read()).hexdigest()


def payload_bytes(path: str) -> int:
    """Column bytes of an artifact; its JSON header also holds timings."""
    with load_artifact(path) as artifact:
        return sum(int(c["nbytes"]) for c in artifact.meta["columns"])


def mismatch(got: Dict[str, Any], want: Dict[str, Any]) -> Optional[str]:
    """A description of the first differing reference field, or None."""
    for key in ("n_r", "tree_nodes", "core_sha256", "tree_sha256"):
        if got.get(key) != want.get(key):
            return f"{key}: got {got.get(key)!r}, want {want.get(key)!r}"
    return None


# -- query answers -------------------------------------------------------------

def strip_nodes(value: Any) -> Any:
    """Drop internal node ids; the JSON round trip turns tuples into lists."""
    if isinstance(value, dict):
        return {k: strip_nodes(v) for k, v in value.items() if k != "node"}
    if isinstance(value, (list, tuple)):
        return [strip_nodes(v) for v in value]
    return value


def expected_answer(index, result, op: str, params: Dict[str, Any]) -> Any:
    """The service-shaped answer computed from the in-memory query index.

    ``index`` is a :class:`~repro.core.queries.HierarchyQueryIndex` over
    ``result``, the decomposition the artifact was built from; each
    query method runs with the index's own defaults.
    """
    if op == "membership":
        chain = index.membership(params["vertex"])
        payload = {"found": bool(chain),
                   "communities": [community_to_dict(c) for c in chain]}
    elif op in ("community", "strongest_community"):
        found = (index.community(params["vertices"]) if op == "community"
                 else index.strongest_community(params["vertex"]))
        payload = ({"found": False, "community": None} if found is None
                   else {"found": True, "community": community_to_dict(found)})
    elif op == "coreness":
        clique = params["clique"]
        payload = {"clique": sorted(clique),
                   "core": float(result.core_of(clique))}
    else:
        raise ValueError(f"no reference for operation {op!r}")
    return normalize(payload)


def normalize(payload: Any) -> Any:
    """The comparable form of an answer: JSON round trip, node ids dropped."""
    return strip_nodes(json.loads(json.dumps(payload)))


def digest(payload: Any) -> str:
    """A short stand-in for a JSON-ready answer in equality checks."""
    return hashlib.sha1(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()
