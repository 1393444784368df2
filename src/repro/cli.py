"""Command-line interface: ``python -m repro``.

Decompose a SNAP-style edge list (or a named synthetic dataset) from the
shell, without writing Python:

    python -m repro decompose graph.txt --r 2 --s 3
    python -m repro decompose --dataset dblp --r 2 --s 4 --approx --delta 0.5
    python -m repro nuclei graph.txt --r 2 --s 3 --level 3
    python -m repro export graph.txt --r 2 --s 3 --format dot -o tree.dot
    python -m repro store build --dataset dblp --r 2 --s 3 -o dblp.nda
    python -m repro serve --artifact dblp.nda --port 8351
    python -m repro query --artifact dblp.nda --op community --vertices 0,5
    python -m repro datasets

Subcommands
-----------
``decompose``   run a decomposition, print the summary + hierarchy stats
``nuclei``      print the nuclei at one level (or the densest ones)
``export``      write the result as JSON or Graphviz DOT
``store``       build / inspect persistent ``.nda`` artifacts
``serve``       serve artifacts over HTTP (repro.service)
``query``       query a local artifact or a running server
``verify``      re-derive and validate a decomposition (self-check)
``datasets``    list the built-in synthetic stand-in datasets

Exit codes: 0 success; 1 a query ran cleanly but found nothing (e.g. no
covering community); 2 usage or runtime error (message on stderr).
"""

from __future__ import annotations

import argparse
import json as _json
import sys
from typing import List, Optional

from . import __version__
from .analysis.reporting import format_table
from .cliques.incidence import INCIDENCE_STRATEGIES
from .core.api import EXACT_METHODS, nucleus_decomposition
from .core.nucleus import KERNEL_CHOICES
from .parallel.backend import BACKEND_NAMES
from .core.queries import HierarchyQueryIndex, hierarchy_statistics
from .errors import ReproError
from .export import decomposition_to_json, tree_to_dot
from .graphs.datasets import dataset_names, dataset_spec, load_dataset
from .graphs.io import read_edge_list


def _add_input_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("path", nargs="?", default=None,
                        help="SNAP-style edge list file")
    parser.add_argument("--dataset", default=None, metavar="NAME",
                        help="use a built-in synthetic dataset instead of a file")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="scale factor for --dataset (default 1.0)")


def _add_decomposition_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--r", type=int, default=2, help="r (default 2)")
    parser.add_argument("--s", type=int, default=3, help="s (default 3)")
    parser.add_argument("--method", default="auto",
                        choices=("auto",) + EXACT_METHODS,
                        help="algorithm (default auto = anh-te; the others "
                             "are explicit paper variants or oracles)")
    parser.add_argument("--approx", action="store_true",
                        help="use APPROX-ARB-NUCLEUS (Algorithm 2)")
    parser.add_argument("--delta", type=float, default=0.5,
                        help="approximation parameter (default 0.5)")
    parser.add_argument("--strategy", "--incidence", default="csr",
                        choices=INCIDENCE_STRATEGIES, dest="strategy",
                        help="s-clique incidence strategy: 'csr' (default: "
                             "flat numpy arrays; with --method auto this "
                             "runs the vectorized peel and the array "
                             "ANH-TE tree), 'materialized' (dict/list "
                             "oracle layout), or 'reenum' (space-lean)")
    parser.add_argument("--kernel", default="auto", choices=KERNEL_CHOICES,
                        help="compute kernel for enumeration, peeling, and "
                             "hierarchy construction: 'auto' (array paths "
                             "where applicable), 'array' (force flat-array "
                             "enumeration + hierarchy; the latter needs "
                             "--strategy csr), 'vectorized' (force array "
                             "peeling; needs --strategy csr), or 'loop' "
                             "(scalar oracle)")
    parser.add_argument("--backend", default="serial",
                        choices=BACKEND_NAMES,
                        help="execution backend: 'serial' (instrumented "
                             "work-span metering) or 'process' "
                             "(multiprocessing pool)")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker processes for --backend process "
                             "(default: one per CPU)")


def _load_graph(args: argparse.Namespace):
    if (args.path is None) == (args.dataset is None):
        raise ReproError("provide exactly one of: an edge-list path, "
                         "or --dataset NAME")
    if args.dataset is not None:
        return load_dataset(args.dataset, scale=args.scale)
    return read_edge_list(args.path, name=args.path)


def _decompose(args: argparse.Namespace):
    graph = _load_graph(args)
    return nucleus_decomposition(
        graph, args.r, args.s, method=args.method, approx=args.approx,
        delta=args.delta, strategy=args.strategy,
        backend=getattr(args, "backend", "serial"),
        workers=getattr(args, "workers", None),
        kernel=getattr(args, "kernel", "auto"))


def cmd_decompose(args: argparse.Namespace, out) -> int:
    result = _decompose(args)
    print(result.summary(), file=out)
    if result.tree is not None:
        stats = hierarchy_statistics(result.tree)
        print(f"hierarchy: {stats.n_nuclei} nuclei on {stats.n_levels} "
              f"levels, height {stats.height}, "
              f"largest nucleus {stats.largest_nucleus} r-cliques, "
              f"mean branching {stats.mean_branching:.2f}", file=out)
        best = result.densest_nucleus(min_vertices=3)
        if best.n_vertices:
            print(f"densest nucleus: {best.n_vertices} vertices at density "
                  f"{best.density:.3f} (level {best.level:g})", file=out)
    print(f"time: {result.seconds_total:.3f}s "
          f"(predicted 30-core: {result.simulated_seconds(30):.3f}s)",
          file=out)
    return 0


def cmd_nuclei(args: argparse.Namespace, out) -> int:
    result = _decompose(args)
    if args.level is not None:
        groups = result.nuclei_at(args.level)
        groups = [g for g in groups if len(g) >= args.min_vertices]
        print(f"{len(groups)} nuclei at level {args.level:g}:", file=out)
        for group in sorted(groups, key=len, reverse=True)[:args.top]:
            print(f"  [{len(group)} vertices] "
                  + " ".join(map(str, group[:30]))
                  + (" ..." if len(group) > 30 else ""), file=out)
        return 0
    index = HierarchyQueryIndex(result)
    rows = [(f"{c.level:g}", len(c), c.n_r_cliques, f"{c.density:.3f}",
             " ".join(map(str, c.vertices[:12]))
             + (" ..." if len(c) > 12 else ""))
            for c in index.top_k_densest(args.top,
                                         min_vertices=args.min_vertices)]
    print(format_table(("level", "|V|", "r-cliques", "density", "vertices"),
                       rows, title=f"top {args.top} densest nuclei"),
          file=out)
    return 0


def cmd_export(args: argparse.Namespace, out) -> int:
    result = _decompose(args)
    if args.format == "json":
        text = decomposition_to_json(result)
    else:
        text = tree_to_dot(result)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {args.format} to {args.output}", file=out)
    else:
        print(text, file=out)
    return 0


def cmd_verify(args: argparse.Namespace, out) -> int:
    from .core.validation import verify_decomposition
    result = _decompose(args)
    report = verify_decomposition(result, max_levels=args.max_levels)
    print(report, file=out)
    return 0 if report.ok else 1


def cmd_store_build(args: argparse.Namespace, out) -> int:
    from .store import write_artifact, load_artifact
    result = _decompose(args)
    index = HierarchyQueryIndex(result)
    write_artifact(result, args.output, query_index=index)
    with load_artifact(args.output) as artifact:
        print(f"wrote {args.output}: {artifact.summary()}", file=out)
    return 0


def cmd_store_info(args: argparse.Namespace, out) -> int:
    from .store import load_artifact
    with load_artifact(args.artifact) as artifact:
        if args.verify:
            artifact.verify()
        if args.format == "json":
            doc = {"path": artifact.path,
                   "meta": {k: v for k, v in artifact.meta.items()
                            if k != "columns"},
                   "stats": artifact.stats(),
                   "columns": artifact.meta["columns"],
                   "verified": bool(args.verify)}
            print(_json.dumps(doc, indent=2, sort_keys=True), file=out)
        else:
            print(artifact.summary(), file=out)
            for key, value in sorted(artifact.stats().items()):
                print(f"  {key}: {value:g}", file=out)
            if args.verify:
                print("  payload checksum: OK", file=out)
    return 0


def _artifact_map(args: argparse.Namespace):
    """Resolve repeated --artifact (and optional --name) flags to a map."""
    import os
    names = list(args.name or [])
    if len(names) > len(args.artifact):
        raise ReproError("more --name flags than --artifact flags")
    mapping = {}
    for i, path in enumerate(args.artifact):
        name = names[i] if i < len(names) else \
            os.path.splitext(os.path.basename(path))[0]
        if name in mapping:
            raise ReproError(f"duplicate artifact name {name!r}; "
                             f"disambiguate with --name")
        mapping[name] = path
    return mapping


def cmd_serve(args: argparse.Namespace, out) -> int:
    from .service.http import make_server
    server = make_server(_artifact_map(args), host=args.host, port=args.port,
                         cache_bytes=args.cache_bytes)
    host, port = server.server_address[:2]
    print(f"serving {len(args.artifact)} artifact(s) on "
          f"http://{host}:{port} (Ctrl-C to stop)", file=out)
    out.flush()
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


def _parse_ints(text: str, flag: str) -> List[int]:
    try:
        return [int(part) for part in text.replace(" ", "").split(",") if part]
    except ValueError:
        raise ReproError(f"{flag} expects comma-separated integers, "
                         f"got {text!r}")


def _format_communities(payload, out) -> None:
    communities = payload.get("communities")
    if communities is None:
        communities = [payload["community"]] if payload.get("community") \
            else []
    if not communities:
        print("no matching community", file=out)
        return
    rows = [(f"{c['level']:g}", len(c["vertices"]), c["n_r_cliques"],
             f"{c['density']:.3f}",
             " ".join(map(str, c["vertices"][:12]))
             + (" ..." if len(c["vertices"]) > 12 else ""))
            for c in communities]
    print(format_table(("level", "|V|", "r-cliques", "density", "vertices"),
                       rows), file=out)


def cmd_query(args: argparse.Namespace, out) -> int:
    if (args.url is None) == (args.artifact is None):
        raise ReproError("provide exactly one of --url or --artifact")
    params = {}
    if args.name:
        params["artifact"] = args.name
    if args.vertices is not None:
        params["vertices"] = _parse_ints(args.vertices, "--vertices")
    if args.vertex is not None:
        params["vertex"] = args.vertex
    if args.clique is not None:
        params["clique"] = _parse_ints(args.clique, "--clique")
    if args.k is not None:
        params["k"] = args.k
    if args.min_level is not None:
        params["min_level"] = args.min_level
    if args.min_vertices is not None:
        params["min_vertices"] = args.min_vertices

    if args.url is not None:
        from .service.http import http_query
        try:
            payload = http_query(args.url, args.op, params)
        except OSError as exc:  # connection refused, DNS, timeout...
            raise ReproError(f"cannot reach {args.url}: {exc}")
        except ValueError as exc:  # malformed --url (urllib raises bare)
            raise ReproError(f"invalid --url {args.url!r}: {exc}")
    elif args.op in ("stats", "health", "artifacts"):
        raise ReproError(f"--op {args.op} requires --url (a running server)")
    else:
        from .service import DecompositionService
        service = DecompositionService()
        params["artifact"] = service.register(args.artifact)
        payload = service.query(args.op, params)

    if args.format == "json":
        print(_json.dumps(payload, indent=2, sort_keys=True), file=out)
    elif args.op in ("stats", "health", "artifacts"):
        print(_json.dumps(payload, indent=2, sort_keys=True), file=out)
    elif args.op == "coreness":
        print(f"clique {{{','.join(map(str, payload['clique']))}}} "
              f"core {payload['core']:g}", file=out)
    else:
        _format_communities(payload, out)
    if payload.get("found") is False:
        return 1
    return 0


def cmd_datasets(args: argparse.Namespace, out) -> int:
    rows = []
    for name in dataset_names():
        spec = dataset_spec(name)
        graph = load_dataset(name, scale=args.scale)
        rows.append((name, spec.paper_n, spec.paper_m, graph.n, graph.m,
                     spec.description))
    print(format_table(
        ("name", "paper n", "paper m", "stand-in n", "stand-in m", "notes"),
        rows, title="built-in synthetic stand-ins (paper Table 1)"),
        file=out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="(r, s) nucleus decomposition with hierarchy "
                    "(SIGMOD 2024 reproduction)")
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="run a decomposition")
    _add_input_arguments(p)
    _add_decomposition_arguments(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("nuclei", help="print nuclei at a level / densest")
    _add_input_arguments(p)
    _add_decomposition_arguments(p)
    p.add_argument("--level", type=float, default=None,
                   help="cut level (omit for the densest nuclei)")
    p.add_argument("--top", type=int, default=10,
                   help="max nuclei to print (default 10)")
    p.add_argument("--min-vertices", type=int, default=3,
                   help="hide nuclei smaller than this (default 3)")
    p.set_defaults(func=cmd_nuclei)

    p = sub.add_parser("export", help="export the result")
    _add_input_arguments(p)
    _add_decomposition_arguments(p)
    p.add_argument("--format", choices=("json", "dot"), default="json")
    p.add_argument("-o", "--output", default=None,
                   help="output path (default: stdout)")
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("store", help="build / inspect .nda artifacts")
    store_sub = p.add_subparsers(dest="store_command", required=True)

    p = store_sub.add_parser(
        "build", help="decompose and write a persistent artifact")
    _add_input_arguments(p)
    _add_decomposition_arguments(p)
    p.add_argument("-o", "--output", required=True,
                   help="artifact path to write (convention: .nda)")
    p.set_defaults(func=cmd_store_build)

    p = store_sub.add_parser("info", help="print artifact metadata")
    p.add_argument("artifact", help="path to a .nda artifact")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--verify", action="store_true",
                   help="also recompute the payload checksum")
    p.set_defaults(func=cmd_store_info)

    p = sub.add_parser("serve", help="serve artifacts over HTTP")
    p.add_argument("--artifact", action="append", required=True,
                   metavar="PATH", help="artifact to serve (repeatable)")
    p.add_argument("--name", action="append", metavar="NAME",
                   help="name for the matching --artifact (default: "
                        "file stem)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8351,
                   help="port to bind (0 = ephemeral; default 8351)")
    p.add_argument("--cache-bytes", type=int, default=None,
                   help="artifact LRU cache budget in bytes")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("query",
                       help="query a local artifact or a running server")
    p.add_argument("--url", default=None,
                   help="base URL of a running `repro serve` instance")
    p.add_argument("--artifact", default=None, metavar="PATH",
                   help="query a local .nda artifact directly (no server)")
    p.add_argument("--op", required=True,
                   choices=("community", "membership", "strongest_community",
                            "top_k_densest", "coreness", "stats", "health",
                            "artifacts"))
    p.add_argument("--name", default=None,
                   help="artifact name on a multi-artifact server")
    p.add_argument("--vertices", default=None,
                   help="comma-separated vertex ids (community)")
    p.add_argument("--vertex", type=int, default=None,
                   help="vertex id (membership / strongest_community)")
    p.add_argument("--clique", default=None,
                   help="comma-separated r-clique vertices (coreness)")
    p.add_argument("--k", type=int, default=None,
                   help="result count (top_k_densest; default 10)")
    p.add_argument("--min-level", type=float, default=None)
    p.add_argument("--min-vertices", type=int, default=None)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("verify", help="validate a decomposition end-to-end")
    _add_input_arguments(p)
    _add_decomposition_arguments(p)
    p.add_argument("--max-levels", type=int, default=None,
                   help="cap the per-level hierarchy checks")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("datasets", help="list built-in datasets")
    p.add_argument("--scale", type=float, default=1.0)
    p.set_defaults(func=cmd_datasets)

    return parser


def main(argv: Optional[List[str]] = None, out=None) -> int:
    """CLI entry point; returns a process exit code."""
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, out)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream pager/`head` closed the pipe: not an error. Detach
        # stdout so the interpreter's shutdown flush does not re-raise.
        try:
            sys.stdout.close()
        except BrokenPipeError:
            pass
        return 0
