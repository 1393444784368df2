"""Regenerate ``reference.json``: oracle outputs for every benchmark job.

Each job is decomposed once, on the unrelabeled (seed 0) graph, by the
repository's independent oracle -- ``method="naive"`` (one connectivity
pass per level) with the scalar ``kernel="loop"`` engines -- and checked
with ``verify_decomposition``. Only digests of the coreness and of the
canonical tree are stored; ``checks.py`` maps every seed's output back to
seed-0 ids before comparing. Run from the repository root::

    python3 perfbench/make_reference.py

Every job of every workload is recomputed, so no stale entry survives.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro import nucleus_decomposition  # noqa: E402
from repro.core.validation import verify_decomposition  # noqa: E402
from repro.graphs.datasets import load_dataset  # noqa: E402

from checks import REFERENCE_PATH, output_digests  # noqa: E402
from inputs import WORKLOADS, permutation  # noqa: E402


def reference_entry(job) -> dict:
    graph = load_dataset(job.dataset, job.scale)
    result = nucleus_decomposition(graph, job.r, job.s, method="naive",
                                   kernel="loop")
    report = verify_decomposition(result)
    if not report.ok:
        raise SystemExit(f"{job.key}: oracle failed verification:\n{report}")
    cliques = [result.index.clique_of(rid) for rid in range(result.n_r)]
    entry = output_digests(cliques, result.core, result.tree.parent,
                           result.tree.level, permutation(graph.n, 0))
    entry.update(n=graph.n, m=graph.m, n_s=int(result.n_s))
    return entry


def main() -> int:
    reference = {}
    for jobs in WORKLOADS.values():
        for job in jobs:
            if job.key not in reference:
                start = time.perf_counter()
                reference[job.key] = reference_entry(job)
                print(f"{job.key}: {time.perf_counter() - start:.1f} s",
                      flush=True)
    with open(REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump(dict(sorted(reference.items())), handle, indent=1,
                  sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
