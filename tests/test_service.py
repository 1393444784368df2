"""Tests for the concurrent query service (repro.service).

Covers the in-process :class:`DecompositionService` (dispatch, structured
errors, multi-artifact resolution), the LRU :class:`ArtifactCache` byte
budget, and the HTTP front end -- including the acceptance scenario: a
100-query ``/batch`` answered correctly under >= 8 concurrent client
threads with the latency / hit-rate counters populated.
"""

import os
import threading

import pytest

from repro import nucleus_decomposition
from repro.core.queries import HierarchyQueryIndex
from repro.errors import ServiceError
from repro.service import (ArtifactCache, DecompositionService, ENDPOINTS,
                           http_batch, http_query, serve_background)
from repro.service.http import MAX_BODY_BYTES
from repro.store import load_artifact, write_artifact


@pytest.fixture(scope="module")
def artifacts(planted, paper_like_graph, tmp_path_factory):
    """{name: path} for two decompositions, plus their query indices."""
    directory = tmp_path_factory.mktemp("service")
    paths, indices = {}, {}
    for name, graph in (("planted", planted), ("paper", paper_like_graph)):
        result = nucleus_decomposition(graph, 2, 3)
        index = HierarchyQueryIndex(result)
        path = str(directory / f"{name}-2-3.nda")
        write_artifact(result, path, query_index=index)
        paths[name] = path
        indices[name] = index
    return paths, indices


@pytest.fixture(scope="module")
def service(artifacts):
    paths, _ = artifacts
    return DecompositionService(paths)


@pytest.fixture(scope="module")
def server(artifacts):
    paths, _ = artifacts
    server, thread = serve_background(paths)
    host, port = server.server_address
    yield f"http://{host}:{port}"
    server.shutdown()
    thread.join(timeout=5)


class TestDispatch:
    def test_community_matches_index(self, service, artifacts):
        _, indices = artifacts
        want = indices["planted"].community([0, 5])
        got = service.query("community",
                            {"artifact": "planted", "vertices": [0, 5]})
        assert got["found"] is True
        assert tuple(got["community"]["vertices"]) == want.vertices
        assert got["community"]["level"] == want.level

    def test_not_found_is_structured(self, service):
        got = service.query("community",
                            {"artifact": "planted", "vertices": [0, 6],
                             "min_level": 1})
        assert got == {"found": False, "community": None}

    def test_membership_and_strongest(self, service, artifacts):
        _, indices = artifacts
        chain = service.query("membership",
                              {"artifact": "planted", "vertex": 0})
        assert chain["found"] and len(chain["communities"]) \
            == len(indices["planted"].membership(0))
        strongest = service.query("strongest_community",
                                  {"artifact": "planted", "vertex": 12})
        assert strongest["community"]["level"] \
            == indices["planted"].strongest_community(12).level

    def test_top_k_and_coreness(self, service, artifacts):
        _, indices = artifacts
        top = service.query("top_k_densest", {"artifact": "planted", "k": 2,
                                              "min_vertices": 4})
        assert [tuple(c["vertices"]) for c in top["communities"]] \
            == [c.vertices for c in
                indices["planted"].top_k_densest(2, min_vertices=4)]
        core = service.query("coreness",
                             {"artifact": "planted", "clique": [1, 0]})
        assert core["clique"] == [0, 1]
        assert core["core"] == indices["planted"].decomposition.core_of((0, 1))

    def test_unknown_op_404(self, service):
        with pytest.raises(ServiceError) as exc:
            service.query("explode", {})
        assert exc.value.status == 404

    def test_unknown_artifact_404(self, service):
        with pytest.raises(ServiceError) as exc:
            service.query("membership", {"artifact": "nope", "vertex": 0})
        assert exc.value.status == 404

    def test_ambiguous_artifact_400(self, service):
        with pytest.raises(ServiceError) as exc:
            service.query("membership", {"vertex": 0})
        assert exc.value.status == 400

    def test_single_artifact_needs_no_name(self, artifacts):
        paths, indices = artifacts
        solo = DecompositionService({"planted": paths["planted"]})
        got = solo.query("membership", {"vertex": 0})
        assert len(got["communities"]) == len(indices["planted"].membership(0))

    def test_missing_and_mistyped_params_400(self, service):
        for params in ({"artifact": "planted"},
                       {"artifact": "planted", "vertex": "abc"}):
            with pytest.raises(ServiceError) as exc:
                service.query("membership", params)
            assert exc.value.status == 400
        with pytest.raises(ServiceError):
            service.query("community",
                          {"artifact": "planted", "vertices": 7})

    def test_bad_vertex_becomes_service_error(self, service):
        with pytest.raises(ServiceError) as exc:
            service.query("community",
                          {"artifact": "planted", "vertices": [99999]})
        assert exc.value.status == 400

    def test_register_validates_eagerly(self, service, tmp_path):
        junk = tmp_path / "junk.nda"
        junk.write_bytes(b"not an artifact at all, sorry")
        with pytest.raises(Exception):
            service.register(str(junk))
        assert "junk" not in service.artifact_names()


class TestBatch:
    def test_batch_matches_singles(self, service, artifacts):
        _, indices = artifacts
        queries = [{"artifact": "planted", "op": "membership", "vertex": v}
                   for v in range(10)]
        results = service.batch(queries)
        assert len(results) == 10
        for v, result in enumerate(results):
            assert len(result["communities"]) \
                == len(indices["planted"].membership(v))

    def test_bad_entries_reported_in_place(self, service):
        results = service.batch([
            {"artifact": "planted", "op": "membership", "vertex": 0},
            {"artifact": "planted", "op": "no-such-op"},
            "not an object",
            {"artifact": "ghost", "op": "membership", "vertex": 0},
        ])
        assert "communities" in results[0]
        assert results[1]["error"]["status"] == 404
        assert "error" in results[2]
        assert results[3]["error"]["status"] == 404

    def test_batch_spans_artifacts(self, service, artifacts):
        _, indices = artifacts
        results = service.batch([
            {"artifact": "planted", "op": "top_k_densest", "k": 1},
            {"artifact": "paper", "op": "top_k_densest", "k": 1},
        ])
        assert tuple(results[0]["communities"][0]["vertices"]) \
            == indices["planted"].top_k_densest(1)[0].vertices
        assert tuple(results[1]["communities"][0]["vertices"]) \
            == indices["paper"].top_k_densest(1)[0].vertices

    def test_batch_counter_meters_parallel_round(self, artifacts):
        paths, _ = artifacts
        svc = DecompositionService(paths)
        svc.batch([{"artifact": "planted", "op": "membership", "vertex": v}
                   for v in range(20)])
        snap = svc.stats()["endpoints"]["batch"]
        assert snap["requests"] == 20
        assert snap["work"] >= 20
        assert snap["span"] < snap["work"]  # one round over 20 queries

    def test_non_list_batch_rejected(self, service):
        with pytest.raises(ServiceError):
            service.batch({"op": "membership"})


class TestCache:
    def test_lru_eviction_under_byte_budget(self, artifacts):
        paths, _ = artifacts
        sizes = {name: os.path.getsize(path)
                 for name, path in paths.items()}
        budget = max(sizes.values()) + 1  # room for exactly one artifact
        cache = ArtifactCache(budget_bytes=budget)
        a = cache.get(paths["planted"])
        b = cache.get(paths["paper"])
        snap = cache.snapshot()
        assert snap["evictions"] >= 1
        assert snap["resident"] == 1
        assert snap["resident_bytes"] <= budget
        # The evicted mapping stays usable by existing holders.
        assert a.n_leaves > 0 and b.n_leaves > 0

    def test_hits_and_misses(self, artifacts):
        paths, _ = artifacts
        cache = ArtifactCache()
        first = cache.get(paths["planted"])
        second = cache.get(paths["planted"])
        assert first is second
        snap = cache.snapshot()
        assert snap["hits"] == 1 and snap["misses"] == 1
        assert snap["hit_rate"] == 0.5

    def test_zero_budget_disables_caching(self, artifacts):
        paths, _ = artifacts
        cache = ArtifactCache(budget_bytes=0)
        first = cache.get(paths["planted"])
        second = cache.get(paths["planted"])
        assert first is not second
        assert cache.snapshot()["resident"] == 0

    def test_never_evicts_last_entry(self, artifacts):
        paths, _ = artifacts
        cache = ArtifactCache(budget_bytes=1)  # below any artifact size
        cache.get(paths["planted"])
        assert cache.snapshot()["resident"] == 1


class TestStats:
    def test_counters_populate(self, artifacts):
        paths, _ = artifacts
        svc = DecompositionService(paths)
        svc.query("membership", {"artifact": "planted", "vertex": 0})
        with pytest.raises(ServiceError):
            svc.query("membership", {"artifact": "planted"})
        stats = svc.stats()
        assert set(ENDPOINTS) <= set(stats["endpoints"])
        membership = stats["endpoints"]["membership"]
        assert membership["requests"] == 2
        assert membership["errors"] == 1
        assert membership["seconds_total"] > 0
        assert stats["cache"]["hits"] + stats["cache"]["misses"] >= 1
        assert stats["uptime_seconds"] >= 0

    def test_artifact_info(self, service):
        info = service.artifact_info()
        assert [e["name"] for e in info] == ["paper", "planted"]
        for entry in info:
            assert "columns" not in entry["meta"]
            assert entry["stats"]["n_nodes"] > 0


class TestHTTP:
    def test_health_and_artifacts(self, server):
        health = http_query(server, "health")
        assert health["ok"] is True
        assert sorted(health["artifacts"]) == ["paper", "planted"]
        listing = http_query(server, "artifacts")
        assert len(listing["artifacts"]) == 2

    def test_query_over_http_matches_index(self, server, artifacts):
        _, indices = artifacts
        want = indices["planted"].community([0, 5])
        got = http_query(server, "community",
                         {"artifact": "planted", "vertices": [0, 5]})
        assert tuple(got["community"]["vertices"]) == want.vertices

    def test_http_errors_are_structured(self, server):
        with pytest.raises(ServiceError) as exc:
            http_query(server, "community", {"artifact": "planted"})
        assert exc.value.status == 400
        with pytest.raises(ServiceError) as exc:
            http_query(server, "no_such_op", {})
        assert exc.value.status == 404

    def test_malformed_body_400(self, server):
        from urllib.error import HTTPError
        from urllib.request import Request, urlopen
        request = Request(f"{server}/community", data=b"{nope",
                          headers={"Content-Type": "application/json"})
        with pytest.raises(HTTPError) as exc:
            urlopen(request, timeout=10)
        assert exc.value.code == 400

    def test_get_unknown_path_404(self, server):
        with pytest.raises(ServiceError) as exc:
            http_query(server, "stats/../secret")
        assert exc.value.status == 404

    def test_concurrent_batches_acceptance(self, server, artifacts):
        """The ISSUE acceptance bar: 100-query batches, >= 8 threads."""
        _, indices = artifacts
        index = indices["planted"]
        n = index.decomposition.graph.n
        queries = [{"artifact": "planted", "op": "membership",
                    "vertex": v % n} for v in range(100)]
        expected = [len(index.membership(v % n)) for v in range(100)]
        failures = []

        def client(tid):
            try:
                results = http_batch(server, queries)
                got = [len(r["communities"]) for r in results]
                if got != expected:
                    failures.append((tid, "wrong answers"))
            except Exception as exc:  # noqa: BLE001 - collect, don't die
                failures.append((tid, repr(exc)))

        threads = [threading.Thread(target=client, args=(i,))
                   for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert failures == []
        stats = http_query(server, "stats")
        batch = stats["endpoints"]["batch"]
        assert batch["requests"] >= 800  # 8 threads x 100 queries
        assert batch["seconds_mean"] > 0
        cache = stats["cache"]
        assert cache["hits"] > 0
        assert 0.0 < cache["hit_rate"] <= 1.0

    def test_keep_alive_requests_do_not_stall(self, server):
        """20 requests on one connection: no delayed-ACK wait per response.

        With Nagle's algorithm on, each keep-alive response's body waits
        about 40 ms for the client's ACK of the headers, so 20 requests
        would take at least 0.8 s.
        """
        import http.client
        import json
        import time
        from urllib.parse import urlsplit
        address = urlsplit(server)
        conn = http.client.HTTPConnection(address.hostname, address.port,
                                          timeout=10)
        body = json.dumps({"artifact": "planted", "vertex": 0})
        headers = {"Content-Type": "application/json"}
        try:
            conn.request("POST", "/membership", body=body, headers=headers)
            conn.getresponse().read()  # warm the cache
            start = time.perf_counter()
            for _ in range(20):
                conn.request("POST", "/membership", body=body,
                             headers=headers)
                response = conn.getresponse()
                assert response.status == 200
                response.read()
            elapsed = time.perf_counter() - start
        finally:
            conn.close()
        assert elapsed < 20 * 0.040 / 2, elapsed

    @pytest.mark.parametrize("length,status",
                             [("-1", 400), ("12abc", 400),
                              (str(MAX_BODY_BYTES + 1), 413)])
    def test_bad_content_length_rejected(self, server, length, status):
        """A negative, non-integer or oversized Content-Length gets a
        structured error at once, and the server closes the connection
        instead of waiting for a body it will not read."""
        import json
        import socket
        from urllib.parse import urlsplit
        address = urlsplit(server)
        request = (f"POST /membership HTTP/1.1\r\n"
                   f"Host: {address.hostname}\r\n"
                   f"Content-Type: application/json\r\n"
                   f"Content-Length: {length}\r\n\r\n").encode("ascii")
        with socket.create_connection((address.hostname, address.port),
                                      timeout=5) as sock:
            sock.sendall(request)
            chunks = []
            while True:  # the server closes the connection after answering
                chunk = sock.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
        head, _, payload = b"".join(chunks).partition(b"\r\n\r\n")
        assert head.split(b"\r\n")[0].split()[1] == str(status).encode()
        error = json.loads(payload.decode("utf-8"))["error"]
        assert error["status"] == status
