"""HTTP report-server tests: endpoints, concurrency, daemon
integration, and triage persistence across restarts.

The contract (docs/REPORTS.md): the server is the daemon's report
surface promoted to multi-client HTTP -- ``GET /diff`` answers must
equal the offline ``xgcc --diff`` over the same store, any number of
clients may query concurrently, ``POST /triage`` lands in the shared
backend (so it survives a daemon restart and re-renders the warm
state), and the server also runs standalone over a bare store backend
with no daemon at all.
"""

import contextlib
import functools
import http.client
import json
import os
import shutil
import tempfile
import threading
import urllib.error
import urllib.request

import pytest

from repro.codegen.project_gen import generate_project
from repro.driver.cli import _build_extensions, main
from repro.driver.daemon import DaemonClient, XgccDaemon, wait_for_socket
from repro.driver.report_server import ReportServer, ReportServerError
from repro.driver.session import IncrementalSession, session_signature
from repro.driver.stats import DriverStats
from repro.driver.store import LocalStore, decode_message, encode_message
from repro.engine.analysis import AnalysisOptions
from repro.reports.hashing import assign_report_hashes
from repro.reports.history import RunHistory
from repro.reports.model import Report
from repro.reports.triage import TriageStore

cli_checkers = functools.partial(_build_extensions, ("free", "lock"), ())

CHECKER_ARGS = ["--checker", "free", "--checker", "lock"]

TREE = {
    "mod.c": (
        "int stable_bug(int *a) { kfree(a); return *a; }\n"
        "\n"
        "int target_bug(int *b) { kfree(b); return *b; }\n"
    ),
}

FIXED_TREE = {
    "mod.c": TREE["mod.c"].replace("return *b;", "return 0;"),
}


def write_tree(dirpath, files):
    for name, text in files.items():
        with open(os.path.join(str(dirpath), name), "w") as handle:
            handle.write(text)


def c_paths(dirpath):
    return sorted(
        os.path.join(str(dirpath), name)
        for name in os.listdir(str(dirpath))
        if name.endswith(".c")
    )


def get(url):
    """``(status, decoded JSON)`` for one GET."""
    try:
        with urllib.request.urlopen(url, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


def post(url, doc):
    data = json.dumps(doc).encode("utf-8")
    request = urllib.request.Request(
        url, data=data, headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


def post_raw(url, data):
    """``(status, body bytes)`` for one POST of raw bytes."""
    request = urllib.request.Request(url, data=data, method="POST")
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as err:
        return err.code, err.read()


def seeded_backend(tmp_path):
    """A local backend with two recorded runs one fix apart."""
    backend = LocalStore(str(tmp_path / "store"))
    history = RunHistory(backend)
    first = assign_report_hashes([
        Report("free_checker", "using a after free!", function="stable_bug",
               variable="a"),
        Report("free_checker", "using b after free!", function="target_bug",
               variable="b"),
    ])
    second = assign_report_hashes([
        Report("free_checker", "using a after free!", function="stable_bug",
               variable="a"),
    ])
    id1 = history.record_run(first, meta={"tag": "base"})
    id2 = history.record_run(second)
    return backend, history, id1, id2


@contextlib.contextmanager
def standalone_server(backend, stats=None):
    server = ReportServer(backend=backend, stats=stats)
    server.start()
    try:
        yield server
    finally:
        server.stop()


class TestStandaloneEndpoints:
    def test_needs_a_backend(self):
        with pytest.raises(ReportServerError):
            ReportServer()

    def test_ping(self, tmp_path):
        backend, *_ = seeded_backend(tmp_path)
        with standalone_server(backend) as server:
            status, doc = get(server.url + "/ping")
        assert status == 200
        assert doc["ok"] and not doc["live"]

    def test_runs_and_run_reports(self, tmp_path):
        backend, __, id1, id2 = seeded_backend(tmp_path)
        with standalone_server(backend) as server:
            status, doc = get(server.url + "/runs")
            assert status == 200
            assert [row["run_id"] for row in doc["runs"]] == [id1, id2]
            assert doc["runs"][0]["meta"] == {"tag": "base"}

            status, doc = get(server.url + "/runs/%s/reports" % id1)
            assert status == 200
            assert doc["run_id"] == id1
            assert len(doc["reports"]) == 2

            status, doc = get(server.url + "/runs/latest")
            assert doc["run_id"] == id2

            status, doc = get(server.url + "/runs/rnosuch")
            assert status == 404 and not doc["ok"]

    def test_reports_serves_latest_without_daemon(self, tmp_path):
        backend, __, __, id2 = seeded_backend(tmp_path)
        with standalone_server(backend) as server:
            status, doc = get(server.url + "/reports")
        assert status == 200
        assert doc["run_id"] == id2

    def test_diff_parity_with_offline_history(self, tmp_path):
        backend, history, id1, id2 = seeded_backend(tmp_path)
        offline = history.diff(id1, id2)
        with standalone_server(backend) as server:
            status, doc = get(
                server.url + "/diff?base=%s&head=%s" % (id1, id2)
            )
        assert status == 200
        for bucket in ("new", "resolved", "unresolved", "suppressed"):
            assert doc[bucket] == offline[bucket]
        assert [d["function"] for d in doc["resolved"]] == ["target_bug"]

    def test_diff_unknown_run_is_404(self, tmp_path):
        backend, *_ = seeded_backend(tmp_path)
        with standalone_server(backend) as server:
            status, doc = get(server.url + "/diff?base=rnosuch")
        assert status == 404 and "rnosuch" in doc["error"]

    def test_unknown_endpoint_is_404_and_counted(self, tmp_path):
        backend, *_ = seeded_backend(tmp_path)
        stats = DriverStats()
        with standalone_server(backend, stats=stats) as server:
            status, __ = get(server.url + "/nonsense")
        assert status == 404
        assert stats.count("report_server_errors") == 1
        assert stats.count("report_server_requests") == 1

    def test_triage_post_get_round_trip(self, tmp_path):
        backend, __, id1, id2 = seeded_backend(tmp_path)
        target = RunHistory(backend).load_run(id1)["reports"][1]
        with standalone_server(backend) as server:
            status, doc = get(server.url + "/triage")
            assert status == 200 and doc["entries"] == []

            status, doc = post(server.url + "/triage", {
                "kind": "hash", "key": target["hash"],
                "reason": "known-benign",
            })
            assert status == 200 and doc["entries"] == 1

            status, doc = get(server.url + "/triage")
            assert [e["key"] for e in doc["entries"]] == [target["hash"]]

            # The suppression shows up in diffs: the "new" report in the
            # reverse diff lands in the suppressed bucket instead.
            status, doc = get(
                server.url + "/diff?base=%s&head=%s" % (id2, id1)
            )
            assert doc["new"] == []
            assert [d["hash"] for d in doc["suppressed"]] == \
                [target["hash"]]
        # And it persisted through the shared backend.
        assert TriageStore.load_backend(backend).matches_dict(target)

    def test_triage_post_rejects_garbage(self, tmp_path):
        backend, *_ = seeded_backend(tmp_path)
        with standalone_server(backend) as server:
            status, doc = post(server.url + "/triage",
                               {"kind": "nope", "key": 1})
            assert status == 400 and not doc["ok"]

    @pytest.mark.parametrize("length", ["abc", "-1"])
    def test_bad_content_length_is_400(self, tmp_path, length):
        # Neither may kill the handler or block it reading the body.
        backend, *_ = seeded_backend(tmp_path)
        with standalone_server(backend) as server:
            conn = http.client.HTTPConnection(server.host, server.port,
                                              timeout=10)
            try:
                conn.putrequest("POST", "/triage")
                conn.putheader("Content-Length", length)
                conn.endheaders()
                response = conn.getresponse()
                status, doc = response.status, json.loads(response.read())
            finally:
                conn.close()
        assert status == 400 and not doc["ok"]
        assert "Content-Length" in doc["error"]

    def test_store_route_serves_the_backend(self, tmp_path):
        backend, __, id1, __ = seeded_backend(tmp_path)
        with standalone_server(backend) as server:
            status, body = post_raw(server.url + "/store", encode_message(
                {"op": "get", "items": [{"tier": "run", "key": id1}]}
            ))
            assert status == 200
            reply, blobs = decode_message(body)
            assert reply["ok"] and reply["found"] == [True]
            assert blobs == [backend.get_many("run", [id1])[id1]]

            status, body = post_raw(server.url + "/store", b"not json")
            reply, __ = decode_message(body)
            assert status == 200 and not reply["ok"]

    def test_stats_endpoint(self, tmp_path):
        backend, *_ = seeded_backend(tmp_path)
        stats = DriverStats()
        with standalone_server(backend, stats=stats) as server:
            get(server.url + "/runs")
            status, doc = get(server.url + "/stats")
        assert status == 200
        assert doc["stats"]["counters"]["report_server_requests"] >= 1


class TestConcurrentClients:
    def test_many_clients_query_concurrently(self, tmp_path):
        backend, __, id1, id2 = seeded_backend(tmp_path)
        results, errors = [], []

        def client(index):
            try:
                if index % 2:
                    status, doc = get(
                        "%s/diff?base=%s&head=%s"
                        % (server.url, id1, id2)
                    )
                    results.append(("diff", status,
                                    len(doc["resolved"])))
                else:
                    status, doc = get(server.url + "/runs")
                    results.append(("runs", status, len(doc["runs"])))
            except Exception as err:  # pragma: no cover - failure detail
                errors.append(err)

        with standalone_server(backend) as server:
            threads = [
                threading.Thread(target=client, args=(index,))
                for index in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        assert not errors
        assert len(results) == 8
        assert all(status == 200 for __, status, __ in results)
        assert {row for row in results} == \
            {("diff", 200, 1), ("runs", 200, 2)}


@contextlib.contextmanager
def live_daemon(src_dir, cache_dir, sock_path, http_port=0):
    """A daemon plus its HTTP report server, both torn down."""
    options = AnalysisOptions()
    signature = session_signature(
        checker_names=["free", "lock"], options=options
    )
    session = IncrementalSession(str(cache_dir), signature,
                                 pin_warm_state=True)
    daemon = XgccDaemon(
        watch_roots=[str(src_dir)], extension_factory=cli_checkers,
        session=session, socket_path=str(sock_path),
        include_paths=[str(src_dir)], cache_dir=str(cache_dir),
        options=options, poll_interval=30.0,
    )
    server = ReportServer(daemon=daemon, port=http_port)
    server.start()
    thread = threading.Thread(target=daemon.serve_forever, daemon=True)
    thread.start()
    assert wait_for_socket(str(sock_path), timeout=60.0)
    try:
        yield daemon, server
    finally:
        server.stop()
        try:
            with DaemonClient(str(sock_path)) as client:
                client.request("shutdown")
        except Exception:
            daemon.stop()
        thread.join(timeout=30.0)
        assert not thread.is_alive(), "daemon thread wedged"


@pytest.fixture
def sock_dir():
    path = tempfile.mkdtemp(prefix="xgccd-")
    yield path
    shutil.rmtree(path, ignore_errors=True)


def cold_output(dirpath, capsys):
    main(CHECKER_ARGS + ["-I", str(dirpath)] + c_paths(dirpath))
    return capsys.readouterr().out


class TestLiveDaemon:
    def test_reports_serve_warm_state_byte_identical(
        self, tmp_path, sock_dir, capsys
    ):
        src = tmp_path / "src"
        src.mkdir()
        gen = generate_project(seed=23, n_modules=2,
                               functions_per_module=4, bug_rate=0.5)
        write_tree(src, gen.files)
        baseline = cold_output(src, capsys)
        sock = os.path.join(sock_dir, "d.sock")
        with live_daemon(src, tmp_path / "cache", sock) as (__, server):
            status, doc = get(server.url + "/ping")
            assert doc["live"]
            status, doc = get(server.url + "/reports")
            assert status == 200
            assert doc["text"] == baseline
            assert doc["report_count"] == len(doc["reports"])
            # A second query is served from the warm response cache.
            status, warm = get(server.url + "/reports")
            assert warm["text"] == baseline
            assert warm["served_from"] == "cache"

    def test_a_request_builds_each_report_document_once(
        self, tmp_path, sock_dir, monkeypatch
    ):
        """``GET /reports`` and ``GET /diff?head=current`` serve the
        documents the record stage built: one ``to_dict`` per report for
        a request that analyzes, none for one served from the warm
        response cache."""
        src = tmp_path / "src"
        src.mkdir()
        gen = generate_project(seed=23, n_modules=2,
                               functions_per_module=4, bug_rate=0.5)
        write_tree(src, gen.files)
        built = []
        to_dict = Report.to_dict

        def counting(report):
            built.append(report)
            return to_dict(report)

        monkeypatch.setattr(Report, "to_dict", counting)
        sock = os.path.join(sock_dir, "d.sock")
        with live_daemon(src, tmp_path / "cache", sock) as (__, server):
            get(server.url + "/reports")
            edited = c_paths(src)[0]
            with open(edited, "a") as handle:
                handle.write("int added_root(int x) { return x; }\n")
            del built[:]
            status, doc = get(server.url + "/reports")
            assert status == 200
            assert doc["served_from"] == "analysis"
            assert doc["report_count"] > 0
            assert len(built) == doc["report_count"]
            del built[:]
            status, doc = get(server.url + "/reports")
            assert doc["served_from"] == "cache"
            assert built == []
            status, diff = get(server.url + "/diff?base=latest")
            assert diff["head"] == "current"
            assert built == []

    def test_head_current_diff_sees_live_edit(
        self, tmp_path, sock_dir, capsys
    ):
        src = tmp_path / "src"
        src.mkdir()
        write_tree(src, TREE)
        sock = os.path.join(sock_dir, "d.sock")
        with live_daemon(src, tmp_path / "cache", sock) as (__, server):
            status, doc = get(server.url + "/reports")
            base = doc["run_id"]
            assert base
            write_tree(src, FIXED_TREE)
            status, diff = get(server.url + "/diff?base=%s" % base)
            assert status == 200
            assert diff["head"] == "current"
            assert [d["function"] for d in diff["resolved"]] == \
                ["target_bug"]
            assert diff["new"] == []

    def test_http_diff_parity_with_offline_cli_diff(
        self, tmp_path, sock_dir, capsys
    ):
        # The CI-lane bar: the served diff equals xgcc --diff over the
        # same cache, endpoint vs offline.
        src = tmp_path / "src"
        src.mkdir()
        write_tree(src, TREE)
        cache = tmp_path / "cache"
        sock = os.path.join(sock_dir, "d.sock")
        with live_daemon(src, cache, sock) as (__, server):
            status, first = get(server.url + "/reports")
            write_tree(src, FIXED_TREE)
            status, second = get(server.url + "/reports")
            base, head = first["run_id"], second["run_id"]
            assert base != head
            status, served = get(
                "%s/diff?base=%s&head=%s" % (server.url, base, head)
            )
        code = main(["--diff", base, head, "--cache-dir", str(cache),
                     "--format", "json"])
        offline = json.loads(capsys.readouterr().out)
        assert code == 0
        for bucket in ("new", "resolved", "unresolved"):
            assert served[bucket] == offline[bucket]

    def test_triage_post_re_renders_and_survives_restart(
        self, tmp_path, sock_dir, capsys
    ):
        src = tmp_path / "src"
        src.mkdir()
        write_tree(src, TREE)
        cache = tmp_path / "cache"
        sock = os.path.join(sock_dir, "d.sock")
        with live_daemon(src, cache, sock) as (__, server):
            status, doc = get(server.url + "/reports")
            target = next(d for d in doc["reports"]
                          if d["function"] == "target_bug")
            status, __ = post(server.url + "/triage", {
                "kind": "hash", "key": target["hash"],
                "verdict": "false_positive", "reason": "triaged via api",
            })
            assert status == 200
            # The warm response cache was invalidated: the next query
            # re-renders without the suppressed report.
            status, doc = get(server.url + "/reports")
            assert "target_bug" not in doc["text"]
            assert "stable_bug" in doc["text"]

        # A fresh daemon over the same store: the decision held.
        sock2 = os.path.join(sock_dir, "d2.sock")
        with live_daemon(src, cache, sock2) as (__, server):
            status, doc = get(server.url + "/reports")
            assert "target_bug" not in doc["text"]
            assert "stable_bug" in doc["text"]
            status, doc = get(server.url + "/triage")
            assert [e["reason"] for e in doc["entries"]] == \
                ["triaged via api"]

    def test_unix_socket_and_http_clients_interleave(
        self, tmp_path, sock_dir, capsys
    ):
        # The promoted surface does not break the original one: socket
        # and HTTP clients hammer the daemon together.
        src = tmp_path / "src"
        src.mkdir()
        write_tree(src, TREE)
        sock = os.path.join(sock_dir, "d.sock")
        errors = []

        def http_client():
            try:
                for __ in range(3):
                    status, doc = get(server.url + "/reports")
                    assert status == 200 and doc["report_count"] == 2
            except Exception as err:  # pragma: no cover
                errors.append(err)

        def socket_client():
            try:
                for __ in range(3):
                    with DaemonClient(sock) as client:
                        response = client.request("analyze")
                    assert response["report_count"] == 2
            except Exception as err:  # pragma: no cover
                errors.append(err)

        with live_daemon(src, tmp_path / "cache", sock) as (__, server):
            threads = [threading.Thread(target=http_client)
                       for __ in range(2)]
            threads += [threading.Thread(target=socket_client)
                        for __ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        assert not errors


class TestStoreRouteWithDaemon:
    def test_store_route_is_404_with_a_daemon(self, tmp_path, sock_dir):
        # A sweep arriving over HTTP would not see the daemon's pins.
        src = tmp_path / "src"
        src.mkdir()
        write_tree(src, TREE)
        sock = os.path.join(sock_dir, "d.sock")
        with live_daemon(src, tmp_path / "cache", sock) as (__, server):
            status, body = post_raw(server.url + "/store",
                                    encode_message({"op": "gc"}))
        assert status == 404
        assert "/store" in json.loads(body)["error"]


class TestStandaloneMain:
    def test_main_needs_a_backend(self, capsys):
        with pytest.raises(SystemExit):
            from repro.driver.report_server import main as server_main

            server_main([])
