"""Self-test: the traced run's exact counts repeat exactly for one seed.

Builds every job of every workload twice through the staged default
pipeline (``tracing.staged_build``) and compares the counts the traced run
reports -- ``cliques.n_s``, ``core.rho``, ``core.link_calls``,
``core.work``, ``core.span`` and the rest -- plus the artifact's column
bytes (``store.artifact_bytes``). Exits 1 on any difference. Run from the
repository root::

    python3 perfbench/selftest.py --seed 3
"""

from __future__ import annotations

import argparse
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from checks import payload_bytes  # noqa: E402
from inputs import WORKLOADS, seeded_graphs  # noqa: E402
from tracing import Tracer, staged_build  # noqa: E402


def exact_counts(job, graph, path: Path) -> dict:
    counts = staged_build(graph, job.r, job.s, str(path), Tracer(),
                          job.key)["counts"]
    counts["store.artifact_bytes"] = payload_bytes(str(path))
    return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="selftest-",
                                    dir=ROOT / ".perfbench"))
    failures = 0
    try:
        for workload in sorted(WORKLOADS):
            jobs = WORKLOADS[workload]
            graphs = seeded_graphs(jobs, args.seed)
            for job in jobs:
                graph, _ = graphs[(job.dataset, job.scale)]
                first, second = (exact_counts(job, graph,
                                              workdir / f"{job.key}.{i}.nda")
                                 for i in range(2))
                same = first == second
                failures += not same
                print(f"{'ok  ' if same else 'DIFF'} {workload} {job.key} "
                      f"{first if same else (first, second)}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{failures} job(s) with differing counts")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
