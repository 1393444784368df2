"""The serving legs: in-process queries, then ``repro serve`` over HTTP.

The server runs in its own interpreter, so client and server never share
a GIL. :class:`ServerProcess` starts ``python -m repro serve`` on an
ephemeral port and always stops it with SIGINT (then SIGKILL after a
grace period), even when a check fails. Its peak RSS is read from its
``/proc`` status just before it is stopped.

Every leg is a closed loop with one caller, cycling through a seeded
pool of point queries whose expected answers come from the in-memory
``HierarchyQueryIndex``. Warm-up queries and the artifact-cache fill are
not timed. Each turn of a leg gets a ``scale`` that converts its times to
the reference host speed (see ``run.py``); the legs keep both the times
as measured and the scaled ones.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import selectors
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.service.core import DecompositionService
from repro.store import load_artifact

import checks
from checks import Tally
from inputs import query_pool

BATCH_SIZE = 100
WARMUP = {"in_process": 200, "http": 20, "batch": 2}

_BANNER = re.compile(r"http://([0-9.]+):([0-9]+)")


class ServerProcess:
    """``python -m repro serve`` over ``{name: artifact path}``."""

    def __init__(self, root: Path, artifacts: Dict[str, str],
                 log_path: Path) -> None:
        self.root = root
        self.artifacts = artifacts
        self.log_path = log_path
        self.proc: Optional[subprocess.Popen] = None
        self.host = ""
        self.port = 0
        self.peak_rss_mb = 0.0

    def __enter__(self) -> "ServerProcess":
        cmd = [sys.executable, "-m", "repro", "serve", "--port", "0"]
        for name, path in self.artifacts.items():
            cmd += ["--artifact", path, "--name", name]
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(cmd, cwd=self.root, env=env,
                                         stdout=subprocess.PIPE, stderr=log,
                                         stdin=subprocess.DEVNULL)
        try:
            line = self._read_banner(self.proc, timeout=60.0)
            match = _BANNER.search(line)
            if match is None:
                raise RuntimeError(f"unexpected serve banner {line!r}")
            self.host, self.port = match.group(1), int(match.group(2))
        except BaseException:
            self.stop()
            raise
        return self

    @staticmethod
    def _read_banner(proc: subprocess.Popen, timeout: float) -> str:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            if not sel.select(timeout):
                raise RuntimeError("server printed no banner within "
                                   f"{timeout:.0f} s")
        return proc.stdout.readline().decode("utf-8", "replace")

    def __exit__(self, *exc: object) -> None:
        self.stop()

    def stop(self) -> None:
        """SIGINT, wait, SIGKILL if needed; idempotent."""
        proc, self.proc = self.proc, None
        if proc is None:
            return
        self.peak_rss_mb = _peak_rss_mb(proc.pid)
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        proc.stdout.close()


def _peak_rss_mb(pid: int) -> float:
    """A live process's peak resident set (``VmHWM``) in MiB, or 0.0.

    ``getrusage(RUSAGE_CHILDREN)`` would also count the pages the child
    inherited from this process before ``exec``, so the server's own
    status is read instead. A process that already exited reports 0.0.
    """
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


class KeepAliveClient:
    """Exactly one HTTP/1.1 connection, reused for every request.

    ``http.client`` reconnects silently when a server closes the socket,
    so the client remembers its local port and :meth:`same_connection`
    reports whether every request went over the first connection.
    """

    def __init__(self, host: str, port: int) -> None:
        self.conn = http.client.HTTPConnection(host, port, timeout=60)
        self.conn.connect()
        self.local_port = self.conn.sock.getsockname()[1]

    def request(self, method: str, path: str,
                payload: Optional[Dict[str, Any]] = None) -> Tuple[int, Any]:
        body = None if payload is None else json.dumps(payload).encode()
        headers = {"Content-Type": "application/json"} if body else {}
        self.conn.request(method, path, body=body, headers=headers)
        response = self.conn.getresponse()
        return response.status, json.loads(response.read())

    def same_connection(self) -> bool:
        sock = self.conn.sock
        return sock is not None and sock.getsockname()[1] == self.local_port

    def close(self) -> None:
        self.conn.close()


def run_for(seconds: float):
    """Yield loop indices until ``seconds`` of wall time have passed."""
    deadline = time.perf_counter() + seconds
    i = 0
    while i == 0 or time.perf_counter() < deadline:
        yield i
        i += 1


class Served:
    """Artifacts to serve, a seeded query pool, and its expected answers.

    ``references`` maps each artifact name to the in-memory
    ``(decomposition, HierarchyQueryIndex)`` it was written from.
    """

    def __init__(self, paths: Dict[str, str], references: Dict[str, Tuple],
                 seed: int, size: int) -> None:
        self.paths = paths
        rows = {}
        for name, path in paths.items():
            with load_artifact(path) as artifact:
                rows[name] = artifact.cliques.copy()
        self.pool = query_pool(rows, size, seed)
        self.expected = []
        for op, params in self.pool:
            result, index = references[params["artifact"]]
            self.expected.append(checks.digest(
                checks.expected_answer(index, result, op, params)))
        self._verified: Dict[int, str] = {}

    def item(self, i: int):
        """``(pool position, op, params)`` of the ``i``-th query sent."""
        j = i % len(self.pool)
        return j, self.pool[j][0], self.pool[j][1]

    def matches(self, j: int, answer: Any) -> bool:
        """Whether ``answer`` is the right answer to pool query ``j``.

        The first answer is normalized and compared with the index's;
        the digest of a right one is kept as it came, so repeats of the
        query, from any leg, must equal it exactly -- node ids included,
        since every leg reads the same artifact. Only digests are kept,
        so the checks add little to the resident set.
        """
        raw = checks.digest(answer)
        seen = self._verified.get(j)
        if seen is not None:
            return raw == seen
        if checks.digest(checks.normalize(answer)) != self.expected[j]:
            return False
        self._verified[j] = raw
        return True


class InProcessLeg:
    """Leg (a): ``DecompositionService.query``, closed loop, one caller.

    Runs in slices (:meth:`run`) so that the samples spread over the
    whole run; :meth:`finish` checks the service's error counters and
    returns the latency (µs) of every timed query, as measured and
    scaled.
    """

    def __init__(self, served: Served, tally: Tally) -> None:
        self.served = served
        self.tally = tally
        self.service = DecompositionService(served.paths)
        for name in served.paths:  # cache fill
            self.service.query("membership", {"artifact": name, "vertex": 0})
        for i in range(WARMUP["in_process"]):
            _, op, params = served.item(i)
            self.service.query(op, params)
        self.errors_before = _service_errors(self.service.stats())
        self.samples: List[float] = []
        self.scaled: List[float] = []
        self.raised = 0
        self.cursor = WARMUP["in_process"]

    def run(self, seconds: float, scale: float = 1.0) -> None:
        for _ in run_for(seconds):
            j, op, params = self.served.item(self.cursor)
            self.cursor += 1
            self.tally.attempted += 1
            began = time.perf_counter()
            try:
                answer = self.service.query(op, params)
            except Exception as exc:  # a failed query is counted, not fatal
                self.raised += 1
                self.tally.fail(f"in-process {op}: {type(exc).__name__}: "
                                f"{exc}")
                continue
            elapsed = time.perf_counter() - began
            if self.served.matches(j, answer):
                self.samples.append(elapsed * 1e6)
                self.scaled.append(elapsed * 1e6 * scale)
            else:
                self.tally.fail(f"in-process {op} {params}: wrong answer")

    def finish(self, info: Dict[str, Any]
               ) -> Tuple[List[float], List[float]]:
        stats = self.service.stats()
        if _service_errors(stats) - self.errors_before != self.raised:
            self.tally.fail("in-process service error counters disagree "
                            "with the failures seen", 0)
        info["warmup_in_process"] = WARMUP["in_process"] + len(
            self.served.paths)
        info["cache_hit_rate"] = stats["cache"]["hit_rate"]
        return self.samples, self.scaled


def _service_errors(stats: Dict[str, Any]) -> int:
    return sum(int(e["errors"]) for e in stats["endpoints"].values())


class HttpLeg:
    """Legs (b) single queries and (c) ``/batch``, on one connection.

    Like :class:`InProcessLeg` it runs in slices. :meth:`finish` checks
    that the server's per-endpoint ``errors`` match the rejected single
    queries (a batch reports per-query errors in place instead) and that
    one connection carried everything, then returns the latency (µs) of
    every timed query and the latencies (s) of each distinct batch, as
    measured and scaled. Single requests are not scaled: a delayed-ACK
    timer, not the CPU, sets their latency.
    """

    def __init__(self, served: Served, server: ServerProcess,
                 tally: Tally) -> None:
        self.served = served
        self.tally = tally
        self.client = KeepAliveClient(server.host, server.port)
        self.n_batches = max(1, len(served.pool) // BATCH_SIZE)
        for i in range(WARMUP["http"]):
            _, op, params = served.item(i)
            self.client.request("POST", f"/{op}", params)
        for k in range(WARMUP["batch"]):
            self.client.request("POST", "/batch", self._batch(k)[0])
        self.errors_before = self._server_errors()
        self.single: List[float] = []
        self.batches: Dict[int, List[float]] = {}
        self.scaled_batches: Dict[int, List[float]] = {}
        self.rejected = 0
        self.cursor = WARMUP["http"]
        self.batch_cursor = 0

    def _server_errors(self) -> int:
        _, stats = self.client.request("GET", "/stats")
        return _service_errors(stats)

    def run_single(self, seconds: float, _scale: float = 1.0) -> None:
        for _ in run_for(seconds):
            j, op, params = self.served.item(self.cursor)
            self.cursor += 1
            self.tally.attempted += 1
            began = time.perf_counter()
            status, answer = self.client.request("POST", f"/{op}", params)
            elapsed = time.perf_counter() - began
            if status != 200:
                self.rejected += 1
                self.tally.fail(f"http {op}: status {status}: {answer}")
            elif self.served.matches(j, answer):
                self.single.append(elapsed * 1e6)
            else:
                self.tally.fail(f"http {op} {params}: wrong answer")

    def run_batch(self, seconds: float, scale: float = 1.0) -> None:
        for _ in run_for(seconds):
            k = self.batch_cursor
            self.batch_cursor += 1
            body, positions = self._batch(k)
            self.tally.attempted += BATCH_SIZE
            began = time.perf_counter()
            status, answer = self.client.request("POST", "/batch", body)
            elapsed = time.perf_counter() - began
            if status != 200:
                self.tally.fail(f"http batch: status {status}", BATCH_SIZE)
                continue
            results = answer["results"]
            wrong = sum(not self.served.matches(j, got)
                        for j, got in zip(positions, results))
            wrong += BATCH_SIZE - len(results)
            if wrong:
                self.tally.fail(f"http batch: {wrong} wrong answers", wrong)
            else:
                self.batches.setdefault(k % self.n_batches, []).append(
                    elapsed)
                self.scaled_batches.setdefault(k % self.n_batches,
                                               []).append(elapsed * scale)

    def _batch(self, k: int):
        """``(/batch body, pool positions)`` of the ``k``-th batch sent.

        The pool splits into ``n_batches`` consecutive stretches, and
        the batch leg cycles through them like the single-query legs.
        """
        start = (k % self.n_batches) * BATCH_SIZE
        queries, positions = [], []
        for i in range(start, start + BATCH_SIZE):
            j, op, params = self.served.item(i)
            queries.append(dict(params, op=op))
            positions.append(j)
        return {"queries": queries}, positions

    def finish(self, info: Dict[str, Any]) -> Tuple[
            List[float], Dict[int, List[float]], Dict[int, List[float]]]:
        try:
            if self._server_errors() - self.errors_before != self.rejected:
                self.tally.fail("server error counters disagree with the "
                                "failures seen", 0)
            if not self.client.same_connection():
                self.tally.fail("the client opened more than one "
                                "connection", 0)
        finally:
            self.client.close()
        info["warmup_http"] = WARMUP["http"]
        info["warmup_batches"] = WARMUP["batch"]
        return self.single, self.batches, self.scaled_batches
