"""``xgccd``: the long-lived analysis daemon behind ``xgcc --watch``.

Every ``xgcc --incremental`` invocation pays process startup, manifest
load, and a pass-1 probe (dependency-record check + cache lookup) for
*every* file,
even when the dirty cone is one function.  The daemon converts that
per-run tax into per-process state: one process keeps the
:class:`repro.driver.session.IncrementalSession` (manifest and summary
packs pinned in memory), every parsed translation unit, and each
file's include dependencies warm across edit bursts, so a warm
re-analysis costs the dirty cone's analysis time alone — the
CodeChecker-style always-on deployment the ROADMAP names.

Architecture (single-threaded, crash-containing):

- A :class:`repro.driver.watch.TreeWatcher` detects edits by content
  fingerprint (SHA-256 of bytes — mtimes are never trusted), polled on
  the serve loop's idle tick and again on every ``analyze`` request.
- Changed files dirty themselves plus every pinned unit whose recorded
  include set intersects them; only those re-run pass 1.  Unchanged
  units are adopted from memory (:meth:`repro.driver.project.Project.
  adopt_unit`) — no preprocess, no parse, no cache probe.  A *new*
  non-``.c`` file conservatively dirties everything (it can change
  include resolution).
- Pass 2 goes through the pinned incremental session: dirty-cone
  scheduling, delta replay, byte-identical ranked reports.
- Requests arrive over a local UNIX stream socket, one JSON object per
  line: ``{"op": "analyze"}``, ``stats``, ``gc``, ``notify``, ``ping``,
  ``shutdown``.  Every failure — watcher stall, request-decode error,
  mid-burst analysis crash — degrades into an error *response* plus a
  stats record; the serve loop never wedges and never dies with a
  request.

The daemon's ``gc`` op passes its pinned pack keys and each file's
latest tier-1 keys as extra live sets, so on-disk cache GC stays coherent
with in-memory warm state (nothing the daemon still replays is swept).
"""

import contextlib
import errno
import itertools
import json
import os
import socket
import threading
import time

from repro import faults
from repro.driver import dump
from repro.driver.stats import DriverStats
from repro.driver.watch import TreeWatcher, WatcherError, fingerprint_file
from repro.reports.history import report_docs
from repro.reports.pipeline import PipelineConfig, run_pipeline

#: Bump when the request/response shape changes; every response carries
#: it so clients can detect skew.
PROTOCOL_VERSION = 1

#: Ops the daemon answers.
DAEMON_OPS = ("analyze", "stats", "gc", "notify", "ping", "shutdown")


class DaemonError(Exception):
    """Client-side failure talking to a daemon (no socket, bad reply)."""


class _PinnedUnit:
    """One file's warm pass-1 state: content digest at parse time, the
    compiled unit, and every file the preprocessor read to build it."""

    __slots__ = ("digest", "compiled", "deps")

    def __init__(self, digest, compiled, deps):
        self.digest = digest
        self.compiled = compiled
        self.deps = frozenset(deps)


class XgccDaemon:
    """A serving wrapper around one pinned analysis configuration.

    ``watch_roots`` are directories watched (and analyzed: every ``.c``
    under them); ``files`` adds explicit paths.  ``extension_factory``
    rebuilds the extension list per analysis (extensions are stateful).
    ``session`` is the pinned :class:`IncrementalSession` — construct it
    with ``pin_warm_state=True``.  The daemon object owns a cumulative
    :class:`DriverStats`; the ``stats`` op serves it.
    """

    def __init__(self, watch_roots, extension_factory, session,
                 socket_path, files=(), include_paths=(), defines=None,
                 cache_dir=None, options=None, pipeline=None, jobs=1,
                 worker_timeout=None, poll_interval=0.5, stats=None,
                 file_reader=None, store_url=None):
        self.watch_roots = [os.path.abspath(p) for p in watch_roots]
        self.extension_factory = extension_factory
        self.session = session
        self.socket_path = socket_path
        self.files = [os.path.abspath(p) for p in files]
        self.include_paths = list(include_paths)
        self.defines = dict(defines or {})
        self.cache_dir = cache_dir
        #: Shared artifact-store URL; the session's backend (local,
        #: remote, or tiered) is reused for the daemon's own projects so
        #: all warm state rides one connection and one overlay.
        self.store_url = store_url
        self.options = options
        #: The report stages after each analysis (the CLI's
        #: :class:`PipelineConfig`); every analysis is recorded.
        self.pipeline = pipeline or PipelineConfig()
        self.jobs = jobs
        self.worker_timeout = worker_timeout
        self.poll_interval = poll_interval
        self.stats = stats or DriverStats()
        self.file_reader = file_reader
        self.watcher = TreeWatcher(
            roots=self.watch_roots, files=self.files, stats=self.stats
        )
        #: path -> _PinnedUnit: warm pass-1 state across bursts.
        self._units = {}
        #: Content-changed paths not yet folded into an analysis.
        self._dirty = set()
        #: Cached response of the last completed analysis (served to
        #: ``analyze`` when nothing changed since), and the fingerprint
        #: of the triage file it was rendered under.
        self._last_response = None
        self._last_triage_file = None
        #: ``{filename: [tier-1 keys]}`` of each file's latest compile:
        #: the extra live AST set for ``gc``.
        self._ast_keys_seen = {}
        self._running = False
        #: The last completed analysis' ranked structured reports (the
        #: HTTP report server renders these without re-analyzing).
        self._last_reports = []
        #: Their documents, as the record stage built them (None when
        #: the analysis was not recorded).
        self._last_docs = None
        #: Serializes analysis/state access between the UNIX-socket serve
        #: loop and the threaded HTTP report server.
        self.lock = threading.RLock()

    # -- shared report state -----------------------------------------------

    def backend(self):
        return getattr(self.session, "backend", None)

    def last_docs(self):
        """The last analysis' report documents, built once: by its
        record stage, or here when it was not recorded."""
        if self._last_docs is None:
            self._last_docs = report_docs(self._last_reports)
        return self._last_docs

    def invalidate(self):
        """Drop the warm response cache (triage changed: the same tree
        now renders differently)."""
        self._last_response = None

    # -- change tracking ---------------------------------------------------

    def _poll(self, full=True):
        """Fold a watcher poll into the dirty set; degrades on watcher
        faults (stale dirty set, loudly counted) instead of failing the
        caller."""
        try:
            with self.stats.phase("daemon_fingerprint"):
                self._dirty.update(self.watcher.poll(full=full))
            return True
        except WatcherError as err:
            self.stats.add("daemon_watch_errors")
            self.stats.record_degradation(
                "daemon", "watcher poll failed (%s); serving last-known "
                "state" % err,
            )
            return False

    def _c_files(self):
        """The sorted analysis input set as of the last poll."""
        paths = set(self.files)
        paths.update(self.watcher.state)
        return sorted(p for p in paths if p.endswith(".c"))

    def _dirty_c_files(self, c_files):
        """Which inputs must re-run pass 1 for the current dirty set."""
        known_deps = set()
        for pin in self._units.values():
            known_deps.update(pin.deps)
        if self._units:
            # (With nothing pinned yet everything is dirty anyway; the
            # conservative rule only matters against warm state.)
            for path in self._dirty:
                if not path.endswith(".c") and path not in known_deps:
                    # A new (or never-included) non-.c file can change
                    # include resolution for anyone: full pass 1.
                    self.stats.add("daemon_full_reparses")
                    return set(c_files)
        dirty = set()
        for path in c_files:
            pin = self._units.get(path)
            if (
                pin is None
                or path in self._dirty
                or pin.deps & self._dirty
                or pin.digest != self.watcher.state.get(path)
            ):
                dirty.add(path)
        return dirty

    # -- analysis ----------------------------------------------------------

    def _build_project(self, c_files, dirty):
        """Pass 1: adopt pinned units, recompile only the dirty files.
        Each run of consecutive files to recompile is one pass-1 batch
        over ``jobs`` workers, so units still register in file order."""
        from repro.driver.project import Project

        project = Project(
            include_paths=self.include_paths, defines=self.defines,
            cache_dir=self.cache_dir, stats=self.stats, keep_going=True,
            store_url=self.store_url, file_reader=self.file_reader,
            store_backend=getattr(self.session, "backend", None),
        )

        def pinned(path):
            return path in self._units and path not in dirty

        for reuse, run in itertools.groupby(c_files, key=pinned):
            run = list(run)
            if reuse:
                for path in run:
                    project.adopt_unit(self._units[path].compiled)
                continue
            done = {
                compiled.filename: compiled
                for compiled in project.compile_files(
                    run, jobs=self.jobs, worker_timeout=self.worker_timeout)
            }
            for path in run:
                compiled = done.get(path)
                if compiled is None:
                    # Pass 1 failed outright (keep_going recorded a unit
                    # degradation): drop any stale pin so the next burst
                    # retries instead of serving the pre-edit unit.
                    self._units.pop(path, None)
                    continue
                self._units[path] = _PinnedUnit(
                    self.watcher.state.get(path), compiled, compiled.deps)
                self.stats.add("daemon_files_reparsed")
        for path in list(self._units):
            if path not in self.watcher.state:
                del self._units[path]  # deleted input: unpin
                self._ast_keys_seen.pop(path, None)
        self._ast_keys_seen.update(project.ast_keys_used)
        return project

    def analyze(self, force=False):
        """One analysis round-trip: poll, rebuild, run, rank, cache.

        Serves the cached response when nothing changed since the last
        completed analysis (``daemon_analyze_warm_hits``); ``force``
        bypasses that short-circuit.
        """
        start = time.perf_counter()
        self.stats.add("daemon_analyze_requests")
        polled = self._poll()
        # An edit to the --triage file changes the text.
        triage_file = (fingerprint_file(self.pipeline.triage)
                       if self.pipeline.triage else None)
        if (
            self._last_response is not None
            and not self._dirty
            and polled
            and triage_file == self._last_triage_file
            and not force
        ):
            self.stats.add("daemon_analyze_warm_hits")
            response = dict(self._last_response)
            response["latency_s"] = round(time.perf_counter() - start, 6)
            response["served_from"] = "cache"
            return response

        # The daemon keeps the collector on (each analysis leaves cyclic
        # garbage behind); metering it shows what that costs.
        with self.stats.collector_passes():
            with self.stats.phase("daemon_analyze"):
                c_files = self._c_files()
                dirty = self._dirty_c_files(c_files)
                project = self._build_project(c_files, dirty)
                extensions = self.extension_factory()
                result = project.run(
                    extensions, self.options, incremental=self.session)
            if result.degraded:
                self.stats.record_engine_degradations(result.degraded)
            reports, run_id, docs = run_pipeline(
                list(result.reports), self.pipeline, self.stats,
                backend=self.backend(), callgraph=project.callgraph,
                log=result.log,
                meta={"rank": self.pipeline.rank, "source": "daemon"},
                refine_pin=self.session.pinned_verdicts,
            )
            self._dirty = set()
            self._last_reports = reports
            self._last_docs = docs
            response = {
                "ok": True,
                "protocol": PROTOCOL_VERSION,
                "reports": dump.render_reports(reports),
                "report_count": len(reports),
                "run_id": run_id,
                "files": len(c_files),
                "files_reparsed": len(dirty),
                "roots_analyzed": result.stats.get(
                    "incremental_analyzed_pairs", 0
                ),
                "roots_replayed": result.stats.get(
                    "incremental_replayed_pairs", 0
                ),
                "degradations": [
                    entry.describe() for entry in result.degraded
                ],
                "served_from": "analysis",
            }
        self._last_response = dict(response)
        self._last_triage_file = triage_file
        response["latency_s"] = round(time.perf_counter() - start, 6)
        self.stats.add_time(
            "daemon_request_wall", time.perf_counter() - start
        )
        return response

    # -- request handling --------------------------------------------------

    def handle_request(self, obj):
        """Dispatch one decoded request object to its op handler.

        Anything that goes wrong — including a mid-burst analysis crash
        — comes back as an ``{"ok": false, "error": ...}`` response;
        the daemon itself keeps serving.
        """
        self.stats.add("daemon_requests")
        if not isinstance(obj, dict) or obj.get("op") not in DAEMON_OPS:
            self.stats.add("daemon_request_errors")
            return {
                "ok": False, "protocol": PROTOCOL_VERSION,
                "error": "unknown request: %r" % (obj,),
            }
        op = obj["op"]
        try:
            if op == "analyze":
                return self.analyze(force=bool(obj.get("force")))
            if op == "ping":
                return {"ok": True, "protocol": PROTOCOL_VERSION,
                        "pid": os.getpid()}
            if op == "notify":
                paths = [str(p) for p in obj.get("paths") or []]
                self.watcher.notify(paths)
                self._poll(full=False)
                return {"ok": True, "protocol": PROTOCOL_VERSION,
                        "queued": len(paths)}
            if op == "stats":
                payload = self.stats.as_dict()
                payload["pinned_frames"] = len(
                    self.session.pinned_frame_keys()
                )
                payload["pinned_units"] = len(self._units)
                return {"ok": True, "protocol": PROTOCOL_VERSION,
                        "stats": payload}
            if op == "gc":
                if not self.cache_dir and not self.store_url:
                    return {"ok": False, "protocol": PROTOCOL_VERSION,
                            "error": "daemon has no cache_dir or store"}
                counters = self.session.backend.gc(
                    cutoff_days=float(obj.get("days", 30.0)),
                    stats=self.stats,
                    extra_live_sum=self.session.pinned_frame_keys(),
                    extra_live_ast=sorted(
                        key for keys in self._ast_keys_seen.values()
                        for key in keys
                    ),
                )
                self.stats.add_counters(counters)
                return {"ok": True, "protocol": PROTOCOL_VERSION,
                        "gc": counters}
            if op == "shutdown":
                self._running = False
                return {"ok": True, "protocol": PROTOCOL_VERSION,
                        "bye": True}
        except Exception as err:  # degrade, never wedge the serve loop
            self.stats.add("daemon_analyze_errors" if op == "analyze"
                           else "daemon_request_errors")
            self.stats.record_degradation(
                "daemon", "%s request failed: %r" % (op, err)
            )
            self._last_response = None  # never serve a half-built cache
            return {"ok": False, "protocol": PROTOCOL_VERSION,
                    "error": "%s failed: %r" % (op, err)}

    def _serve_connection(self, conn):
        """One client: newline-delimited JSON requests until EOF."""
        conn.settimeout(60.0)
        reader = conn.makefile("rb")
        try:
            for line in reader:
                line = line.strip()
                if not line:
                    continue
                spec = faults.fires("daemon.request")
                try:
                    if spec is not None:
                        raise ValueError(
                            "injected decode fault (%s)"
                            % spec.get("mode", "garbage")
                        )
                    obj = json.loads(line.decode("utf-8"))
                except (ValueError, UnicodeDecodeError) as err:
                    self.stats.add("daemon_request_errors")
                    response = {
                        "ok": False, "protocol": PROTOCOL_VERSION,
                        "error": "undecodable request: %s" % err,
                    }
                else:
                    with self.lock:
                        response = self.handle_request(obj)
                payload = json.dumps(response) + "\n"
                conn.sendall(payload.encode("utf-8"))
                if not self._running:
                    break
        except OSError:
            # Client went away mid-exchange; nothing to clean up beyond
            # the connection itself.
            self.stats.add("daemon_connection_errors")
        finally:
            reader.close()

    def _idle_tick(self):
        """Between requests: poll, and eagerly analyze an edit burst so
        the next ``analyze`` request is a warm cache hit."""
        with self.lock:
            if not self._poll():
                return
            if self._dirty:
                self.stats.add("daemon_bursts")
                try:
                    self.analyze(force=True)
                except Exception as err:
                    self.stats.add("daemon_burst_errors")
                    self.stats.record_degradation(
                        "daemon", "eager burst analysis failed: %r" % err
                    )
                    self._last_response = None

    def serve_forever(self, warm_start=True, ready=None):
        """Bind the socket and serve until a ``shutdown`` request.

        ``warm_start`` runs one analysis before accepting requests, so
        the first client sees warm latency.  ``ready`` is an optional
        zero-argument callable invoked once the socket is listening
        (tests and supervisors use it as a barrier).
        """
        try:
            os.unlink(self.socket_path)
        except OSError as err:
            if err.errno != errno.ENOENT:
                raise
        server = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            server.bind(self.socket_path)
            server.listen(8)
            server.settimeout(self.poll_interval)
            self._running = True
            if warm_start:
                try:
                    with self.lock:
                        self.analyze()
                except Exception as err:
                    self.stats.add("daemon_burst_errors")
                    self.stats.record_degradation(
                        "daemon", "warm-start analysis failed: %r" % err
                    )
            if ready is not None:
                ready()
            while self._running:
                try:
                    conn, __ = server.accept()
                except socket.timeout:
                    self._idle_tick()
                    continue
                except OSError:
                    break
                with contextlib.closing(conn):
                    self._serve_connection(conn)
        finally:
            server.close()
            try:
                os.unlink(self.socket_path)
            except OSError:
                pass

    def stop(self):
        self._running = False


class DaemonClient:
    """A tiny line-oriented JSON client for :class:`XgccDaemon`.

    One connection per client object; reusable for many requests::

        with DaemonClient(path) as client:
            reply = client.request("analyze")
    """

    def __init__(self, socket_path, timeout=120.0):
        self.socket_path = socket_path
        self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._sock.settimeout(timeout)
        try:
            self._sock.connect(socket_path)
        except OSError as err:
            self._sock.close()
            raise DaemonError(
                "cannot reach daemon at %s: %s" % (socket_path, err)
            )
        self._reader = self._sock.makefile("rb")

    def request(self, op, **fields):
        """Send one request; returns the decoded response dict."""
        payload = dict(fields)
        payload["op"] = op
        try:
            self._sock.sendall((json.dumps(payload) + "\n").encode("utf-8"))
            line = self._reader.readline()
        except OSError as err:
            raise DaemonError("daemon request failed: %s" % err)
        if not line:
            raise DaemonError("daemon closed the connection")
        try:
            return json.loads(line.decode("utf-8"))
        except ValueError as err:
            raise DaemonError("undecodable daemon response: %s" % err)

    def send_raw(self, data):
        """Ship raw bytes (tests: undecodable requests) and read one
        response line."""
        self._sock.sendall(data)
        line = self._reader.readline()
        if not line:
            raise DaemonError("daemon closed the connection")
        return json.loads(line.decode("utf-8"))

    def close(self):
        try:
            self._reader.close()
        finally:
            self._sock.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


def wait_for_socket(socket_path, timeout=30.0, interval=0.05):
    """Block until a daemon answers ``ping`` at ``socket_path`` (or the
    timeout elapses); returns True when it did."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if os.path.exists(socket_path):
            try:
                with DaemonClient(socket_path, timeout=5.0) as client:
                    if client.request("ping").get("ok"):
                        return True
            except (DaemonError, OSError):
                pass
        time.sleep(interval)
    return False
