"""The multi-client HTTP report server (``xgcc --watch --http-port N``).

The daemon's UNIX-socket protocol serves one client at a time with the
full analysis surface; this server is the *report* surface promoted to
HTTP (stdlib ``http.server``, threaded) so any number of CI bots and
editor plugins can poll runs, diffs, and triage concurrently without
ever running a cold analysis:

====================  =====================================================
``GET /ping``         liveness + protocol version
``GET /reports``      the current tree's ranked reports, served from the
                      daemon's pinned warm state (a warm ``analyze``)
``GET /runs``         recorded run history (id, timestamp, report count)
``GET /runs/<id>``    one stored run's structured reports
``GET /diff``         ``?base=&head=`` hash set-difference between two
                      runs; ``head=current`` (the default with a live
                      daemon) diffs a stored base against the tree as it
                      is now
``GET /triage``       the shared triage document
``POST /triage``      record triage entries (suppressions, severity
                      overrides) into the shared store; the daemon's
                      warm response cache is invalidated so the next
                      ``analyze`` re-renders under the new state
``GET /stats``        the daemon's cumulative stats
``POST /store``       standalone servers only: one artifact-store message
                      in, one out (docs/STORE.md) -- the wire protocol
                      :class:`repro.driver.store.RemoteStore` speaks
====================  =====================================================

Every response but ``/store``'s is JSON.  The server can also run
*standalone* over a store backend with no daemon (``python -m
repro.driver.report_server``): the history/diff/triage endpoints work
identically -- ``/reports`` then serves the latest recorded run -- so a
dashboard can sit on a shared RemoteStore with no analysis capability
at all.  A standalone server is also the shared artifact store: ``POST
/store`` serves its backend to ``--store-url`` clients.  A
daemon-attached server answers that route 404, because a remote sweep
would not see the daemon's pinned keys.

Concurrency: handlers run on one thread per connection
(``ThreadingHTTPServer``); everything touching the daemon goes through
``daemon.lock`` (shared with the UNIX-socket serve loop), and triage
writes and ``/store`` requests are serialized by one server-side lock,
so manifest compare-and-swap and ``gc`` are atomic across clients.

Fault sites (docs/STORE.md): ``store.slow`` stalls one ``/store`` reply
outside the lock; ``store.request`` drops the connection before (or,
with ``mode="partial"``, half-way through) the reply.
"""

import argparse
import json
import os
import socket
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from repro import faults
from repro.driver.store import StoreError, decode_message, encode_message
from repro.reports.history import RunHistory, RunHistoryError
from repro.reports.pipeline import load_triage
from repro.reports.triage import TriageEntry, TriageError

#: Bump when the endpoint shapes change; every response carries it.
REPORT_PROTOCOL = 1


class ReportServerError(Exception):
    """Server-side setup failure (no backend, bind error)."""


def handle_message(store, header, blobs):
    """Dispatch one decoded ``/store`` request against a backend.

    Synchronous: returns ``(reply_fields, reply_blobs)``.  Unknown ops
    come back as ``ok=False`` replies, never connection drops.
    """
    op = header.get("op")
    items = [(item["tier"], item["key"]) for item in header.get("items") or ()]
    if op == "ping":
        return {"ok": True}, []
    if op == "get":
        frames = [store.get_many(tier, [key]).get(key) for tier, key in items]
        return ({"ok": True, "found": [f is not None for f in frames]},
                [f for f in frames if f is not None])
    if op == "put":
        if len(items) != len(blobs):
            return {"ok": False, "error": "put: %d items, %d blobs"
                    % (len(items), len(blobs))}, []
        for (tier, key), data in zip(items, blobs):
            store.put_many(tier, {key: data})
        return {"ok": True, "stored": len(items)}, []
    if op == "head":
        mtimes = [store.entry_mtime(tier, key) for tier, key in items]
        return {"ok": True, "found": [m is not None for m in mtimes],
                "mtimes": mtimes}, []
    if op == "touch":
        for tier, key in items:
            store.touch_many(tier, [key], ts=header.get("ts"))
        return {"ok": True, "touched": len(items)}, []
    if op == "delete":
        deleted = sum(store.delete_many(tier, [key]) for tier, key in items)
        return {"ok": True, "deleted": deleted}, []
    if op == "list":
        return {"ok": True, "entries": store.list_tier(header["tier"])}, []
    # manifest_cas / manifest_put carry the document as their one blob.
    text = blobs[0].decode("utf-8") if blobs else ""
    if op == "manifest_get":
        current, etag = store.manifest_get(header["signature"])
        return {"ok": True, "etag": etag}, (
            [] if current is None else [current.encode("utf-8")]
        )
    if op == "manifest_head":
        return {"ok": True,
                "etag": store.manifest_head(header["signature"])}, []
    if op == "manifest_cas":
        committed, etag, current = store.manifest_cas(
            header["signature"], text, header.get("etag")
        )
        # A conflict ships the current document: no re-read round trip.
        return {"ok": True, "committed": committed, "etag": etag}, (
            [current.encode("utf-8")] if current and not committed else []
        )
    if op == "manifest_put":
        return {"ok": True,
                "etag": store.manifest_put(header["signature"], text)}, []
    if op == "manifest_list":
        return {"ok": True, "manifests": store.manifest_list()}, []
    if op == "manifest_delete":
        return {"ok": True,
                "deleted": store.manifest_delete(header["token"])}, []
    if op == "gc":
        return {"ok": True, "gc": store.gc(
            cutoff_days=float(header.get("cutoff_days", 30.0)),
            now=header.get("now"),
            extra_live_sum=header.get("extra_live_sum") or (),
            extra_live_ast=header.get("extra_live_ast") or (),
        )}, []
    return {"ok": False, "error": "unknown op: %r" % (op,)}, []


class _Routes:
    """The endpoint logic, separated from HTTP plumbing for testing."""

    def __init__(self, daemon=None, backend=None, stats=None):
        self.daemon = daemon
        if backend is None and daemon is not None:
            backend = daemon.backend()
        if backend is None:
            raise ReportServerError(
                "report server needs a store backend or a daemon"
            )
        self.backend = backend
        self.stats = stats if stats is not None else (
            daemon.stats if daemon is not None else None
        )
        self.history = RunHistory(self.backend, stats=self.stats)
        # Serializes backend writes: triage read-merge-write and every
        # /store request.
        self._lock = threading.Lock()

    def _count(self, name, amount=1):
        if self.stats is not None:
            self.stats.add(name, amount)

    # -- endpoint handlers -------------------------------------------------

    def ping(self):
        return 200, {"ok": True, "protocol": REPORT_PROTOCOL,
                     "pid": os.getpid(),
                     "live": self.daemon is not None}

    def runs(self):
        return 200, {"ok": True, "protocol": REPORT_PROTOCOL,
                     "runs": self.history.list_runs()}

    def run_reports(self, run_id):
        try:
            doc = self.history.load_run(self.history.resolve_run_id(run_id))
        except RunHistoryError as err:
            return 404, {"ok": False, "protocol": REPORT_PROTOCOL,
                         "error": str(err)}
        return 200, {"ok": True, "protocol": REPORT_PROTOCOL,
                     "run_id": doc.get("run_id"),
                     "timestamp": doc.get("timestamp"),
                     "meta": doc.get("meta") or {},
                     "reports": doc.get("reports") or []}

    def current_reports(self):
        """The tree as it is now: a warm daemon ``analyze`` when live,
        the latest recorded run otherwise."""
        if self.daemon is not None:
            with self.daemon.lock:
                response = self.daemon.analyze()
                docs = self.daemon.last_docs()
            return 200, {
                "ok": True, "protocol": REPORT_PROTOCOL,
                "run_id": response.get("run_id"),
                "report_count": len(docs),
                "text": response.get("reports", ""),
                "served_from": response.get("served_from"),
                "reports": docs,
            }
        latest = self.history.latest_run_id()
        if latest is None:
            return 404, {"ok": False, "protocol": REPORT_PROTOCOL,
                         "error": "no runs recorded yet"}
        return self.run_reports(latest)

    def diff(self, query):
        base = (query.get("base") or ["latest"])[0]
        head = (query.get("head") or
                ["current" if self.daemon is not None else "latest"])[0]
        triage = load_triage(self.backend, stats=self.stats)
        try:
            if head == "current" and self.daemon is not None:
                with self.daemon.lock:
                    self.daemon.analyze()
                    head_docs = self.daemon.last_docs()
                diff = self.history.diff(base, None, triage=triage,
                                         head_docs=head_docs)
            else:
                diff = self.history.diff(base, head, triage=triage)
        except RunHistoryError as err:
            return 404, {"ok": False, "protocol": REPORT_PROTOCOL,
                         "error": str(err)}
        diff.update(ok=True, protocol=REPORT_PROTOCOL)
        return 200, diff

    def triage_get(self):
        doc = load_triage(self.backend, stats=self.stats).to_doc()
        doc.update(ok=True, protocol=REPORT_PROTOCOL)
        return 200, doc

    def triage_post(self, body):
        """Record triage entries.  Body: one entry object, or
        ``{"entries": [...]}``; each entry is the TriageEntry document
        shape (``kind``, ``key``, optional ``verdict``/``severity``/
        ``reason``/``author``)."""
        try:
            doc = json.loads(body.decode("utf-8")) if body else {}
        except (ValueError, UnicodeDecodeError) as err:
            return 400, {"ok": False, "protocol": REPORT_PROTOCOL,
                         "error": "undecodable body: %s" % err}
        entries = doc.get("entries") if isinstance(doc, dict) else None
        if entries is None:
            entries = [doc]
        with self._lock:
            store = load_triage(self.backend, stats=self.stats)
            try:
                for entry in entries:
                    parsed = TriageEntry.from_dict(entry)
                    if parsed.created is None:
                        parsed.created = time.time()
                    store.add(parsed)
            except (TriageError, AttributeError, TypeError) as err:
                return 400, {"ok": False, "protocol": REPORT_PROTOCOL,
                             "error": str(err)}
            store.save_backend(self.backend)
        self._count("triage_posts")
        if self.daemon is not None:
            with self.daemon.lock:
                self.daemon.invalidate()
        return 200, {"ok": True, "protocol": REPORT_PROTOCOL,
                     "entries": len(store)}

    def server_stats(self):
        if self.daemon is not None:
            with self.daemon.lock:
                payload = self.daemon.stats.as_dict()
        elif self.stats is not None:
            payload = self.stats.as_dict()
        else:
            payload = {}
        return 200, {"ok": True, "protocol": REPORT_PROTOCOL,
                     "stats": payload}

    def store(self, header, blobs):
        """``POST /store``: one decoded store request against the
        backend, atomic with respect to every other client."""
        with self._lock:
            try:
                return handle_message(self.backend, header, blobs)
            except (StoreError, KeyError, TypeError, ValueError) as err:
                return {"ok": False, "error": repr(err)}, []

    # -- dispatch ----------------------------------------------------------

    def dispatch(self, method, path, query, body):
        """Route one request; returns ``(status, json_payload)``."""
        self._count("report_server_requests")
        try:
            if method == "GET":
                if path == "/ping":
                    return self.ping()
                if path == "/runs":
                    return self.runs()
                if path.startswith("/runs/"):
                    run_id = path[len("/runs/"):]
                    if run_id.endswith("/reports"):
                        run_id = run_id[: -len("/reports")]
                    return self.run_reports(run_id.strip("/"))
                if path == "/reports":
                    return self.current_reports()
                if path == "/diff":
                    return self.diff(query)
                if path == "/triage":
                    return self.triage_get()
                if path == "/stats":
                    return self.server_stats()
            elif method == "POST":
                if path == "/triage":
                    return self.triage_post(body)
            self._count("report_server_errors")
            return 404, {"ok": False, "protocol": REPORT_PROTOCOL,
                         "error": "no such endpoint: %s %s" % (method, path)}
        except Exception as err:  # degrade, never kill the worker thread
            self._count("report_server_errors")
            return 500, {"ok": False, "protocol": REPORT_PROTOCOL,
                         "error": repr(err)}


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # Headers and body go out as two writes; without TCP_NODELAY the
    # body waits on the client's delayed ACK (~40 ms per round trip).
    disable_nagle_algorithm = True

    def _respond(self, method):
        parsed = urlparse(self.path)
        routes = self.server.routes
        try:
            length = int(self.headers.get("Content-Length") or 0)
            if length < 0:
                raise ValueError("negative length %d" % length)
        except ValueError as err:
            # The body cannot be delimited, so neither can the next
            # request on this connection.
            routes._count("report_server_errors")
            self.close_connection = True
            self._send(400, json.dumps({
                "ok": False, "protocol": REPORT_PROTOCOL,
                "error": "bad Content-Length: %s" % err,
            }).encode("utf-8"))
            return
        body = self.rfile.read(length) if length else b""
        if (method == "POST" and parsed.path == "/store"
                and routes.daemon is None):
            self._store(body)
            return
        status, payload = routes.dispatch(
            method, parsed.path, parse_qs(parsed.query), body
        )
        self._send(status, json.dumps(payload).encode("utf-8"))

    def _store(self, body):
        try:
            header, blobs = decode_message(body)
        except (ValueError, TypeError) as err:
            self._send(200, encode_message(
                {"ok": False, "error": "undecodable request: %s" % err}
            ), "application/octet-stream")
            return
        op = header.get("op")
        spec = faults.fires("store.slow", key=op)
        if spec is not None:
            # Outside the lock: only this connection stalls.
            time.sleep(float(spec.get("seconds", 30.0)))
        drop = faults.fires("store.request", key=op)
        if drop is not None and drop.get("mode") != "partial":
            self.close_connection = True
            return
        reply = encode_message(*self.server.routes.store(header, blobs))
        sent = len(reply)
        if drop is not None:
            # Mid-batch crash: the full Content-Length, then half the
            # body.  Clients must treat the whole batch as unserved.
            self.close_connection = True
            sent //= 2
        self._send(200, reply, "application/octet-stream", sent)

    def _send(self, status, data, content_type="application/json",
              sent=None):
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data[:sent])

    def do_GET(self):
        self._respond("GET")

    def do_POST(self):
        self._respond("POST")

    def log_message(self, format, *args):
        pass  # request logging lives in the stats counters


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True
    # server_close() must not join handler threads: a keep-alive store
    # client holds its connection (and thread) between requests.  It
    # shuts the open connections down instead, so none outlives stop().
    block_on_close = False

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._open = set()
        self._open_lock = threading.Lock()

    def process_request(self, request, client_address):
        with self._open_lock:
            self._open.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request):
        with self._open_lock:
            self._open.discard(request)
        super().shutdown_request(request)

    def server_close(self):
        super().server_close()
        with self._open_lock:
            for request in self._open:
                try:
                    request.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass

    def handle_error(self, request, client_address):
        # A client that went away mid-reply (a timed-out store client)
        # is not a server error.
        if not isinstance(sys.exc_info()[1], ConnectionError):
            super().handle_error(request, client_address)


class ReportServer:
    """The threaded HTTP report server.

    ``start()`` binds on a daemon thread and returns once listening
    (tests read ``url``); ``serve_forever()`` runs in the foreground;
    ``stop()`` shuts the threaded server down.
    """

    def __init__(self, daemon=None, backend=None, host="127.0.0.1",
                 port=0, stats=None):
        self.routes = _Routes(daemon=daemon, backend=backend, stats=stats)
        self.host = host
        self.port = port
        self._httpd = None
        self._thread = None

    @property
    def url(self):
        return "http://%s:%d" % (self.host, self.port)

    def _bind(self):
        if self._httpd is None:
            self._httpd = _Server((self.host, self.port), _Handler)
            self._httpd.routes = self.routes
            self.port = self._httpd.server_address[1]
        return self._httpd

    def start(self):
        """Serve on a daemon thread; returns the bound URL."""
        httpd = self._bind()
        self._thread = threading.Thread(
            target=httpd.serve_forever, kwargs={"poll_interval": 0.1},
            daemon=True,
        )
        self._thread.start()
        return self.url

    def serve_forever(self):
        self._bind().serve_forever(poll_interval=0.1)

    def stop(self):
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="xgcc-reports",
        description="standalone HTTP report server over a store backend "
        "(run history, diffs, and triage; no analysis)",
    )
    parser.add_argument("--cache-dir", help="local store directory")
    parser.add_argument("--store-url",
                        default=os.environ.get("XGCC_STORE") or None,
                        help="shared artifact-store server URL")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0,
                        help="TCP port (default: any free port)")
    args = parser.parse_args(argv)

    from repro.driver.store import open_store

    backend = open_store(cache_dir=args.cache_dir, store_url=args.store_url)
    if backend is None:
        parser.error("need --cache-dir or --store-url")
    server = ReportServer(backend=backend, host=args.host, port=args.port)
    server._bind()
    print("xgcc-reports: serving on %s" % server.url, file=sys.stderr,
          flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
