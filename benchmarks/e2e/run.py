"""End-to-end benchmark: the ``xgcc`` CLI and daemon over a generated
kernel corpus (benchmarks/e2e/README.md).

One run::

    python3 benchmarks/e2e/run.py --workload edit --seed 1 --seconds 12 \\
        --trace 0

generates the seeded ``kcorpus`` tree (corpus.py), drives the real
``xgcc`` in child processes for ``--seconds`` seconds of one workload,
checks outputs against an uncached cold run, and prints each metric by
name and unit.  The last stdout line is one JSON object with keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer ones with ``--trace 1``.
``--workload all`` (the default) runs every workload in turn.

Times are reported in reference seconds: each timed wall is divided by
the wall of a fixed pure-Python pass run just before it, then scaled by
that pass's nominal duration (:data:`REFERENCE_S`).  The host this was
built on changes speed by up to 2x within seconds; the ratio cancels
that, and the raw walls are printed beside it.

Further subcommands::

    python3 benchmarks/e2e/run.py sweep --seeds 1-10 --out SET.json
    python3 benchmarks/e2e/run.py compare PARENT.json CHANGE.json

Everything is generated under ``.bench_e2e/`` in the checkout and
removed when the run ends.
"""

import argparse
import difflib
import fcntl
import http.client
import json
import os
import platform
import shutil
import signal
import socket
import statistics
import struct
import subprocess
import sys
import tempfile
import threading
import time
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_e2e")
TRACED = os.path.join(HERE, "traced_xgcc.py")
sys.path.insert(0, SRC)

import corpus  # noqa: E402  (imports repro, from SRC)
import trace as spans  # noqa: E402  (this directory's trace.py)
from repro.codegen.project_gen import score_project  # noqa: E402

#: ``cold`` runs last: its file-creation cost depends on how much the
#: disk around the checkout was churned lately (README, "Noise").
WORKLOADS = ("edit", "header_edit", "daemon_edit", "cold")
CHECKERS = ("free", "lock", "mallocfail", "range", "user-pointer")

QUICK_MODULES = 8
QUICK_OPS = 2

OP_TIMEOUT = 300.0
CLI_SETUP_SAMPLES = 7
DAEMON_STARTS = 5
PRUNE_KEEP = "8"

#: Nominal wall of one :func:`reference_pass`: a time reported in
#: reference seconds is ``wall / reference_wall() * REFERENCE_S``.
REFERENCE_S = 0.01
REFERENCE_REPEATS = 3

END_TO_END_UNITS = {
    "op_s.p50": "s", "setup_s": "s", "peak_rss_mb": "MB",
    "recall": "ratio", "teeth_accuracy": "ratio",
}

#: Per-layer metrics summed per traced operation: (metric, span, field).
#: ``self_s`` is the span's self time, ``calls`` its call count, any other
#: field a count the span recorded.
SPAN_METRICS = (
    ("cfront.preprocess_s", "cfront.preprocess", "self_s"),
    ("cfront.preprocess_calls", "cfront.preprocess", "calls"),
    ("cfront.tokens", "cfront.preprocess", "tokens"),
    ("cfront.parse_s", "cfront.parse", "self_s"),
    ("cfront.parse_calls", "cfront.parse", "calls"),
    ("cache.ast_key_s", "cache.ast_key", "self_s"),
    ("cache.ast_probe_s", "cache.ast_probe", "self_s"),
    ("cache.emit_s", "cache.emit", "self_s"),
    ("cache.load_s", "cache.load", "self_s"),
    ("cache.summary_s", "cache.summary", "self_s"),
    ("cache.summary_calls", "cache.summary", "calls"),
    ("store.read_s", "store.read", "self_s"),
    ("store.read_calls", "store.read", "calls"),
    ("store.write_s", "store.write", "self_s"),
    ("store.write_calls", "store.write", "calls"),
    ("driver.pass1_s", "driver.pass1", "self_s"),
    ("cfg.callgraph_s", "cfg.callgraph", "self_s"),
    ("cfg.build_s", "cfg.build", "self_s"),
    ("cfg.build_calls", "cfg.build", "calls"),
    ("cfg.fingerprint_s", "cfg.fingerprint", "self_s"),
    ("session.run_s", "session.run", "self_s"),
    ("session.roots_analyzed", "session.run", "incremental_roots_analyzed"),
    ("session.roots_replayed", "session.run", "incremental_roots_replayed"),
    ("engine.traverse_s", "engine.traverse", "self_s"),
    ("engine.points_visited", "engine.traverse", "points_visited"),
    ("engine.paths_completed", "engine.traverse", "paths_completed"),
    ("engine.calls_followed", "engine.traverse", "calls_followed"),
    ("engine.cache_hits", "engine.traverse", "cache_hits"),
    ("metal.compile_s", "metal.compile", "self_s"),
    ("metal.table_hits", "engine.traverse", "table_hits"),
    ("refine.s", "refine", "self_s"),
    ("ranking.s", "ranking", "self_s"),
    ("reports.triage_s", "reports.triage", "self_s"),
    ("reports.record_s", "reports.record", "self_s"),
    ("reports.prune_s", "reports.prune", "self_s"),
    ("reports.json_s", "reports.json", "self_s"),
    ("reports.render_s", "reports.render", "self_s"),
    ("daemon.poll_s", "daemon.poll", "self_s"),
    ("daemon.analyze_s", "daemon.analyze", "self_s"),
    ("daemon.http_s", "daemon.http", "self_s"),
)

#: Further per-operation metrics, not read off a single span field.
OP_METRICS = ("refine.evaluated", "daemon.request_s", "daemon.transport_s",
              "cli.startup_s", "cli.other_s")

#: Ratios taken over all traced operations of a run.
RATIO_METRICS = ("cache.ast_hit_ratio", "refine.cache_hit_ratio",
                 "trace.unaccounted_share", "trace.overhead")


def _unit(metric):
    if metric in RATIO_METRICS:
        return "ratio"
    if metric.endswith(("_s", ".s")):
        return "s"
    return "count"


def per_layer_names():
    return ([name for name, __, __ in SPAN_METRICS] + list(OP_METRICS)
            + list(RATIO_METRICS))


# -- machine speed ------------------------------------------------------------


def reference_pass():
    """Fixed pure-Python work shaped like the analyzer's: tuple keys,
    dict inserts, small lists and strings.  Its wall time is how fast
    this machine runs such code at the moment."""
    table = {}
    for i in range(20000):
        table[("n", i % 1000, i)] = [i, str(i)]
    total = 0
    for key, value in table.items():
        total += len(value[1]) + key[1]
    return total


def reference_wall():
    """Wall of the fastest of :data:`REFERENCE_REPEATS` reference
    passes; the fastest, because a pass this short can lose a slice to
    the scheduler that a whole operation averages out."""
    walls = []
    for __ in range(REFERENCE_REPEATS):
        start = time.perf_counter()
        reference_pass()
        walls.append(time.perf_counter() - start)
    return min(walls)


def reference_seconds(samples):
    """Each ``(wall, reference wall)`` sample in reference seconds."""
    return [wall / ref * REFERENCE_S for wall, ref in samples]


_FS_IOC_GETFLAGS = 0x80086601
_FS_IOC_SETFLAGS = 0x40086602
_FS_TOPDIR_FL = 0x00020000


def spread_subdirectories(path):
    """Give directory ``path`` the ext4 top-directory attribute
    (``chattr +T``), so the allocator places each new subdirectory, one
    per run, in a block group of its own instead of next to the last
    run's.  Where the previous run had just deleted thousands of cache
    files, a cold operation otherwise paid 0.1 to 1.3 s of system time,
    varying run to run.  Other filesystems keep their own placement."""
    fd = os.open(path, os.O_RDONLY)
    try:
        flags = struct.unpack("i", fcntl.ioctl(
            fd, _FS_IOC_GETFLAGS, struct.pack("i", 0)))[0]
        fcntl.ioctl(fd, _FS_IOC_SETFLAGS,
                    struct.pack("i", flags | _FS_TOPDIR_FL))
    except OSError:
        pass  # not ext4, or the attribute is not ours to set
    finally:
        os.close(fd)


# -- child processes ----------------------------------------------------------


class Child(types.SimpleNamespace):
    """One finished child: ``wall`` (s, spawn to exit), ``rss_mb``,
    ``status`` (exit code, None on timeout), ``stdout`` (bytes)."""


def _kill(proc):
    try:
        os.kill(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _reap(proc, timeout):
    """Wait for ``proc`` with ``os.wait4`` (for its rusage); SIGKILL it
    after ``timeout`` seconds.  Returns ``(status, rusage)``; status is
    None when the child was killed for running over."""
    expired = threading.Event()

    def kill():
        expired.set()
        _kill(proc)

    timer = threading.Timer(timeout, kill)
    timer.start()
    try:
        __, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (None if expired.is_set() else proc.returncode), usage


class Bench:
    """One workload run over one seeded corpus."""

    def __init__(self, workload, seed, seconds, trace, quick, work):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.quick = quick
        self.work = work
        self.tree = os.path.join(work, "tree")
        self.include = os.path.join(self.tree, "include")
        self.env = dict(os.environ, PYTHONPATH=SRC)
        self.project, self.teeth = (
            corpus.generate_kcorpus(seed, n_modules=QUICK_MODULES) if quick
            else corpus.generate_kcorpus(seed)
        )
        self.on_disk = self.project
        self.paths = corpus.write_tree(self.project, self.tree)
        self.attempted = 0
        self.failed = 0
        #: ``(wall, reference wall)`` of untraced and traced operations,
        #: and of set-up samples.
        self.samples = []
        self.traced_samples = []
        self.setup = []
        self.rss_mb = []
        #: (label, outputs, project) for every measured op, in order.
        self.ops = []
        #: per traced op: {metric: value} from its spans
        self.layer_samples = []
        self.trace_events = []
        self._children = 0
        #: Spawned children not yet reaped, killed by :meth:`close`.
        self._live = set()

    def close(self):
        """Kill and reap every child still running (an interrupted run)."""
        for proc in list(self._live):
            if proc.returncode is None:  # else poll() already reaped it
                _kill(proc)
                _reap(proc, OP_TIMEOUT)
            self._live.discard(proc)

    # -- helpers --------------------------------------------------------------

    def _path(self, name):
        return os.path.join(self.work, name)

    def sync_tree(self, project):
        """Make the on-disk tree match ``project`` (changed files only)."""
        corpus.write_tree(project, self.tree, before=self.on_disk)
        self.on_disk = project

    def spawn(self, argv, traced=False, **popen):
        """Start ``xgcc argv`` (under the tracer when ``traced``)."""
        self._children += 1
        trace_path = self._path("trace-%d.json" % self._children)
        if traced:
            cmd = [sys.executable, TRACED, trace_path, "--"]
        else:
            cmd = [sys.executable, "-m", "repro.driver.cli"]
        proc = subprocess.Popen(cmd + list(argv), env=self.env, **popen)
        self._live.add(proc)
        proc.trace_path = trace_path if traced else None
        return proc

    def reap(self, proc, timeout):
        """:func:`_reap` for a child of this run."""
        result = _reap(proc, timeout)
        self._live.discard(proc)
        return result

    def xgcc(self, argv, traced=False):
        """Run one ``xgcc`` child to completion."""
        out_path, err_path = self._path("stdout"), self._path("stderr")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = self.spawn(argv, traced, stdout=out, stderr=err)
            status, usage = self.reap(proc, OP_TIMEOUT)
            wall = time.perf_counter() - start
        with open(out_path, "rb") as handle:
            stdout = handle.read()
        if status not in (0, 1):
            with open(err_path, "rb") as handle:
                tail = handle.read()[-2000:].decode("utf-8", "replace")
            print("xgcc exited %s: %s\n%s" % (status, " ".join(argv[:12]),
                                             tail), file=sys.stderr)
        return Child(wall=wall, rss_mb=usage.ru_maxrss / 1024.0,
                     status=status, stdout=stdout,
                     trace_path=proc.trace_path)

    def base_argv(self):
        argv = []
        for name in CHECKERS:
            argv += ["--checker", name]
        return argv + ["-I", self.include, "--refine=demote",
                       "--rank", "statistical"]

    def op_argv(self, cache):
        return self.base_argv() + [
            "--incremental", "--cache-dir", cache, "--record-run",
            "--prune-runs", PRUNE_KEEP,
            "--report-json", self._path("report.json"),
            "--stats-json", self._path("stats.json"),
        ] + self.paths

    def oracle_outputs(self):
        """Stdout and report JSON of an uncached, non-incremental cold
        run over the tree as it is on disk."""
        report = self._path("oracle.json")
        child = self.xgcc(self.base_argv() + ["--report-json", report]
                          + self.paths)
        if child.status not in (0, 1):
            return None
        with open(report, "rb") as handle:
            return child.stdout, handle.read()

    def fail(self, reason):
        self.failed += 1
        print("FAILED (%s/%d): %s" % (self.workload, self.seed, reason),
              file=sys.stderr)

    def more(self, deadline, done, round_len=1):
        """Run another operation?  Quick runs do a fixed count.  Others
        run whole rounds of ``round_len`` operations until the deadline;
        trace runs need at least one traced and one untraced round."""
        if self.quick:
            return done < QUICK_OPS
        return done < (2 if self.trace else 1) * round_len or \
            done % round_len != 0 or time.perf_counter() < deadline

    def traced_turn(self, done, round_len=1):
        """Trace runs alternate untraced and traced rounds."""
        return self.trace and (done // round_len) % 2 == 1

    # -- one CLI operation -----------------------------------------------------

    def cli_op(self, cache, traced, measured=True):
        ref = reference_wall() if measured else None
        child = self.xgcc(self.op_argv(cache), traced)
        self.attempted += 1
        if child.status not in (0, 1):
            self.fail("exit status %s" % child.status)
            outputs = None
        else:
            with open(self._path("report.json"), "rb") as handle:
                outputs = (child.stdout, handle.read())
        if not measured:
            return outputs
        if traced:
            self.traced_samples.append((child.wall, ref))
            if child.status in (0, 1):
                self.cli_layers(child, ref)
        else:
            self.samples.append((child.wall, ref))
            self.rss_mb.append(child.rss_mb)
        self.ops.append(("op %d" % len(self.ops), outputs, self.project))
        return outputs

    def cli_layers(self, child, ref):
        events = spans.load(child.trace_path)
        self.trace_events.extend(events)
        root = spans.roots(events, "cli.main")[0]
        sums = spans.totals(spans.subtree(events, root))
        write = sum(e["dur"] for e in events if e["name"] == "trace.write")
        sample = layer_sample(sums, root, child.wall)
        sample["cli.other_s"] = sums["cli.main"]["self_s"]
        sample["cli.startup_s"] = child.wall - (root["dur"] + write) / 1e6
        self.layer_samples.append(in_reference_seconds(sample, ref))

    def cli_setup(self):
        for __ in range(CLI_SETUP_SAMPLES):
            ref = reference_wall()
            child = self.xgcc(["--list-checkers"])
            if child.status != 0:
                self.attempted += 1
                self.fail("--list-checkers exit status %s" % child.status)
            self.setup.append((child.wall, ref))

    # -- workloads -----------------------------------------------------------

    def run_cold(self):
        """Fresh cache per operation: the CI / first-checkout run."""
        self.cli_setup()
        # Caches are deleted only when the run ends: on the host this
        # was built on, creating files just after deleting thousands cost
        # an operation up to 1.5 s of extra system time.  The discarded
        # warm-up takes that cost for the previous run's deletion.
        self.cli_op(self._path("cache-warm"), traced=False, measured=False)
        deadline = time.perf_counter() + self.seconds
        done = 0
        while self.more(deadline, done):
            self.cli_op(self._path("cache-cold-%d" % done),
                        traced=self.traced_turn(done))
            done += 1

    def run_edits(self, step_fn, round_len=1):
        """Chained edits on a primed cache, one CLI run after each."""
        if self.quick:
            round_len = 1  # a fixed count of operations, no rounds
        self.cli_setup()
        cache = self._path("cache")
        self.cli_op(cache, traced=False, measured=False)
        deadline = time.perf_counter() + self.seconds
        done = 0
        while self.more(deadline, done, round_len):
            self.project = step_fn(self.project, done)
            self.sync_tree(self.project)
            self.cli_op(cache, traced=self.traced_turn(done, round_len))
            done += 1

    def run_edit(self):
        self.run_edits(lambda project, step: corpus.edit_function(
            project, self.seed, step))

    def run_header_edit(self):
        # Whole rounds over h0..h7: an h0 edit reparses every module, a
        # leaf header's 8, so a partial round would shift the median.
        self.run_edits(lambda project, step: corpus.edit_header(
            project, step % corpus.N_HEADERS), round_len=corpus.N_HEADERS)

    def run_daemon_edit(self):
        """Closed loop: one client, the next edit only after the reply."""
        cache = self._path("cache")
        self.stop_daemon(self.start_daemon(cache))  # cold start primes
        daemon = None
        for __ in range(DAEMON_STARTS):
            if daemon is not None:
                self.stop_daemon(daemon)
            daemon = self.start_daemon(cache)
            if daemon.ready:
                self.setup.append(daemon.setup)
        start = time.perf_counter()
        deadline = start + self.seconds
        switch = start + self.seconds / 2.0
        done = 0
        while self.more(deadline, done):
            if self.trace and not daemon.traced and done >= 1 and (
                    self.quick or time.perf_counter() >= switch):
                # Second half of a trace run: the same loop, traced.
                self.stop_daemon(daemon)
                daemon = self.start_daemon(cache, traced=True)
            self.project = corpus.edit_function(self.project, self.seed,
                                                done)
            self.sync_tree(self.project)
            self.daemon_op(daemon)
            done += 1
        self.stop_daemon(daemon)

    # -- daemon ----------------------------------------------------------------

    def start_daemon(self, cache, traced=False):
        """Spawn ``xgcc --watch`` and wait for its first ``GET /reports``
        200.  With :meth:`stop_daemon`, the one place the daemon's
        command line and wire protocol live."""
        self._children += 1
        err_path = self._path("daemon-%d.err" % self._children)
        argv = self.base_argv() + [
            "--watch", self.tree, "--cache-dir", cache,
            "--daemon-socket", "d.sock", "--http-port", "0",
            "--prune-runs", PRUNE_KEEP, "--poll-interval", "3600",
        ]
        ref = reference_wall()
        start = time.perf_counter()
        with open(err_path, "wb") as err:
            proc = self.spawn(argv, traced, cwd=self.work,
                              stdout=subprocess.DEVNULL, stderr=err)
        daemon = types.SimpleNamespace(
            proc=proc, traced=traced, ready=False, url=None, conn=None,
            socket=os.path.relpath(self._path("d.sock")), samples=[],
            setup=None,
        )
        marker = b"xgccd: report API on "
        while daemon.url is None:
            if time.perf_counter() - start > OP_TIMEOUT or \
                    proc.poll() is not None:
                self.attempted += 1
                self.fail("daemon did not come up")
                return daemon
            with open(err_path, "rb") as handle:
                for line in handle.read().splitlines():
                    if line.startswith(marker):
                        daemon.url = line[len(marker):].decode().strip()
            if daemon.url is None:
                time.sleep(0.005)
        host, port = daemon.url.split("//", 1)[1].rsplit(":", 1)
        daemon.conn = http.client.HTTPConnection(host, int(port),
                                                 timeout=OP_TIMEOUT)
        status, __ = self.get_reports(daemon)
        daemon.setup = (time.perf_counter() - start, ref)
        if status != 200:
            self.attempted += 1
            self.fail("first GET /reports answered %s" % status)
        else:
            daemon.ready = True
        return daemon

    def get_reports(self, daemon):
        """``(status, decoded body)`` of one ``GET /reports``."""
        try:
            daemon.conn.request("GET", "/reports")
            response = daemon.conn.getresponse()
            body = response.read()
        except (OSError, http.client.HTTPException) as err:
            return "error: %r" % err, None
        try:
            return response.status, json.loads(body)
        except ValueError:
            return response.status, None

    def daemon_op(self, daemon):
        self.attempted += 1
        if not daemon.ready:
            self.fail("no daemon to ask")
            return
        ref = reference_wall()
        start = time.perf_counter()
        status, body = self.get_reports(daemon)
        sample = (time.perf_counter() - start, ref)
        outputs = None
        if status != 200 or body is None:
            self.fail("GET /reports answered %s" % status)
        else:
            outputs = (body["text"].encode("utf-8"), body["reports"])
        (self.traced_samples if daemon.traced else self.samples).append(
            sample)
        daemon.samples.append(sample)
        self.ops.append(("request %d" % len(self.ops), outputs,
                         self.project))

    def stop_daemon(self, daemon):
        """Ask the daemon to shut down over its UNIX socket and reap it.
        A daemon that served measured requests leaves its peak RSS
        (untraced) or its per-request layer samples (traced)."""
        if daemon.conn is not None:
            daemon.conn.close()
        status = daemon.proc.returncode  # set: exited early, reaped
        if status is None:
            try:
                with socket.socket(socket.AF_UNIX,
                                   socket.SOCK_STREAM) as sock:
                    sock.settimeout(60.0)
                    sock.connect(daemon.socket)
                    sock.sendall(b'{"op": "shutdown"}\n')
                    sock.makefile("rb").readline()
            except OSError as err:
                print("daemon shutdown request failed: %r" % err,
                      file=sys.stderr)
            status, usage = self.reap(daemon.proc, 60.0)
        if not daemon.samples:
            return
        if status is None:
            self.fail("daemon had to be killed")
        elif daemon.traced:
            self.daemon_layers(daemon)
        else:
            self.rss_mb.append(usage.ru_maxrss / 1024.0)

    def daemon_layers(self, daemon):
        if not os.path.exists(daemon.proc.trace_path):
            self.fail("traced daemon wrote no trace")
            return
        events = spans.load(daemon.proc.trace_path)
        self.trace_events.extend(events)
        requests = spans.roots(events, "daemon.request")
        # The first request is start_daemon's readiness probe.
        for root, (wall, ref) in zip(requests[1:], daemon.samples):
            sums = spans.totals(spans.subtree(events, root))
            sample = layer_sample(sums, root, wall)
            sample["daemon.request_s"] = sums["daemon.request"]["self_s"]
            sample["daemon.transport_s"] = wall - root["dur"] / 1e6
            self.layer_samples.append(in_reference_seconds(sample, ref))

    # -- checks and results ------------------------------------------------------

    def verify(self):
        """Compare the first, middle and last measured operations with an
        uncached cold run over the same tree; a mismatch fails the op."""
        if not self.ops:
            return
        picks = sorted({0, len(self.ops) // 2, len(self.ops) - 1})
        oracles = {}  # id(project) -> outputs: cold ops share one tree
        for index in picks:
            label, outputs, project = self.ops[index]
            if outputs is None:
                continue  # already counted as failed
            if id(project) not in oracles:
                self.sync_tree(project)
                oracles[id(project)] = self.oracle_outputs()
            expected = oracles[id(project)]
            if expected is None:
                self.attempted += 1
                self.fail("oracle run failed for %s" % label)
                continue
            if self.workload == "daemon_edit":
                got, want = outputs[0], expected[0]
            else:
                got, want = outputs, expected
            if got != want:
                self.fail("%s differs from the uncached cold run" % label)
                _print_diff(got, want)

    def quality(self):
        """``(recall, teeth_accuracy)`` of the last measured operation."""
        outputs = next((o for __, o, __ in reversed(self.ops) if o), None)
        if outputs is None:
            return 0.0, 0.0
        docs = outputs[1]
        if isinstance(docs, bytes):
            docs = json.loads(docs)
        reports = [types.SimpleNamespace(function=d.get("function"))
                   for d in docs]
        hits, injected, __ = score_project(self.project, reports)
        teeth = [d for d in docs if d.get("function") in self.teeth]
        right = sum(
            1 for d in teeth
            if ((d.get("annotations") or {}).get("feasibility") or {})
            .get("verdict") == self.teeth[d["function"]]
        )
        return hits / max(injected, 1), right / max(len(teeth), 1)

    def end_to_end(self):
        recall, teeth = self.quality()
        return {
            "op_s.p50": _median(reference_seconds(self.samples)),
            "setup_s": _median(reference_seconds(self.setup)),
            "peak_rss_mb": max(self.rss_mb or [0.0]),
            "recall": recall,
            "teeth_accuracy": teeth,
        }

    def readings(self):
        """Printed for reading only, not in the result line: the raw
        walls behind the reference seconds, and tail percentiles, which
        only ``daemon_edit`` has operations enough per run to bound."""
        times = sorted(reference_seconds(self.samples)) or [0.0]
        if len(times) < 2:
            p75 = p90 = times[0]
        else:
            cuts = statistics.quantiles(times, n=100, method="inclusive")
            p75, p90 = cuts[74], cuts[89]
        return [
            ("op_s.p75", p75, "s"), ("op_s.p90", p90, "s"),
            ("operations", len(self.samples), "count"),
            ("op_wall.p50", _median([w for w, __ in self.samples]), "s"),
            ("setup_wall", _median([w for w, __ in self.setup]), "s"),
            ("reference_wall.p50",
             _median([r for __, r in self.samples + self.setup]), "s"),
        ]

    def per_layer(self):
        return summarize_layers(self.layer_samples, self.samples,
                                self.traced_samples)


def _median(values):
    return statistics.median(values) if values else 0.0


def in_reference_seconds(sample, ref):
    """A per-layer sample with its times (every ``s`` metric) in
    reference seconds, by the reference wall measured before its
    operation."""
    scale = REFERENCE_S / ref
    return {name: value * scale if _unit(name) == "s" else value
            for name, value in sample.items()}


def layer_sample(sums, root, wall):
    """One traced operation as per-layer metric values.  ``sums`` are
    the span totals of the operation's ``root`` span subtree; ``wall``
    is the operation's wall time as the benchmark saw it."""

    def field(span, key):
        return sums.get(span, {}).get(key, 0)

    sample = {metric: field(span, key) for metric, span, key in SPAN_METRICS}
    sample.update({metric: 0.0 for metric in OP_METRICS})
    hits = field("refine", "refine_cache_hits")
    cacheable = field("refine", "refine_confirmed") + \
        field("refine", "refine_infeasible")
    sample["refine.evaluated"] = (
        cacheable + field("refine", "refine_unknown") - hits
    )
    sample.update(
        _refine_hits=hits, _refine_cacheable=cacheable,
        _ast_hits=field("cache.ast_probe", "hits"),
        _ast_probes=field("cache.ast_probe", "calls"),
        _other_s=field(root["name"], "self_s"), _wall_s=wall,
    )
    return sample


def summarize_layers(samples, untraced, traced):
    """Per-operation means of the per-layer metrics, plus the ratios.
    ``untraced`` and ``traced`` are the run's ``(wall, reference wall)``
    operation samples of each kind."""
    out = {name: 0.0 for name in per_layer_names()}
    if not samples:
        return out
    for name in out:
        if name not in RATIO_METRICS:
            out[name] = sum(s[name] for s in samples) / len(samples)

    def ratio(num, den):
        den_total = sum(s[den] for s in samples)
        return sum(s[num] for s in samples) / den_total if den_total else 0.0

    out["cache.ast_hit_ratio"] = ratio("_ast_hits", "_ast_probes")
    out["refine.cache_hit_ratio"] = ratio("_refine_hits", "_refine_cacheable")
    out["trace.unaccounted_share"] = ratio("_other_s", "_wall_s")
    if untraced and traced:
        out["trace.overhead"] = (
            statistics.median(reference_seconds(traced))
            / statistics.median(reference_seconds(untraced)) - 1.0
        )
    return out


def _print_diff(got, want):
    def lines(value):
        if isinstance(value, tuple):
            value = b"".join(v if isinstance(v, bytes) else b"" for v in value)
        return value.decode("utf-8", "replace").splitlines()

    diff = difflib.unified_diff(lines(want), lines(got), "oracle",
                                "operation", lineterm="", n=1)
    for line in list(diff)[:40]:
        print(line, file=sys.stderr)


# -- one run -----------------------------------------------------------------


def run_workload(workload, seed, seconds, trace, quick):
    """Run one workload; returns the result object (the last stdout line)."""
    os.makedirs(WORK_ROOT, exist_ok=True)
    spread_subdirectories(WORK_ROOT)
    work = tempfile.mkdtemp(prefix=workload + "-", dir=WORK_ROOT)
    bench = None
    try:
        bench = Bench(workload, seed, seconds, trace, quick, work)
        getattr(bench, "run_" + workload)()
        bench.verify()
        if trace:
            values = bench.per_layer()
            units = {name: _unit(name) for name in values}
        else:
            values = bench.end_to_end()
            units = END_TO_END_UNITS
            for name, value, unit in bench.readings():
                print("%-12s %-26s %14.6f %s (reading)"
                      % (workload, name, value, unit))
        result = {
            "correct": bench.failed == 0,
            "attempted": max(bench.attempted, 1),
            "failed": bench.failed,
            "metrics": {name: {"value": values[name], "unit": units[name]}
                        for name in values},
        }
        return result, bench.trace_events
    finally:
        if bench is not None:
            bench.close()
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass  # another run is using it


def _print_result(workload, result):
    for name, metric in result["metrics"].items():
        print("%-12s %-26s %14.6f %s" % (workload, name, metric["value"],
                                         metric["unit"]))
    print("%-12s attempted %d, failed %d, correct %s" % (
        workload, result["attempted"], result["failed"], result["correct"]))


def cmd_run(args):
    # A terminated run unwinds through the cleanup that kills its children.
    signal.signal(signal.SIGTERM, lambda *__: sys.exit(143))
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    events = []
    for workload in workloads:
        result, trace_events = run_workload(
            workload, args.seed, args.seconds, bool(args.trace), args.quick)
        _print_result(workload, result)
        results[workload] = result
        events.extend(trace_events)
    if args.trace_out and events:
        with open(args.trace_out, "w") as handle:
            json.dump(events, handle, separators=(",", ":"))
    if len(results) == 1:
        final = results[workloads[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {"%s.%s" % (w, name): metric
                        for w, r in results.items()
                        for name, metric in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


# -- sweep and compare ---------------------------------------------------------


def _parse_seeds(text):
    lo, __, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _stamp(seeds, seconds):
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        rev = "unknown"
    return {"git_rev": rev, "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "machine": platform.machine(), "seeds": seeds,
            "run_seconds": seconds}


def cmd_sweep(args):
    """Run every (workload, seed) as its own child and collect the
    results into one set file."""
    seeds = _parse_seeds(args.seeds)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    signal.signal(signal.SIGTERM, lambda *__: sys.exit(143))
    runs = []
    for seed in seeds:
        for workload in workloads:
            proc = subprocess.Popen(
                [sys.executable, os.path.abspath(__file__), "--workload",
                 workload, "--seed", str(seed), "--seconds",
                 str(args.seconds), "--trace", str(args.trace)],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            )
            try:
                stdout, stderr = proc.communicate()
            except BaseException:
                proc.terminate()  # lets the run stop its own children
                proc.wait()
                raise
            lines = stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                result = None  # the run crashed; its stderr says why
            runs.append({"workload": workload, "seed": seed,
                         "trace": args.trace, "result": result})
            print("%s seed %d: %s" % (workload, seed, lines[-1] if lines
                                      else stderr[-500:]), flush=True)
    doc = {"stamp": _stamp(seeds, args.seconds), "runs": runs}
    with open(args.out, "w") as handle:
        json.dump(doc, handle, indent=1)
        handle.write("\n")
    for row in spread_rows(runs):
        print("%-12s %-24s median %12.6f  iqr/median %.4f" % row)
    return 0


def load_runs(spec):
    """Runs from ``FILE`` (a sweep set) or ``FILE#N`` (set N of a file
    holding ``{"sets": [...]}``, such as baseline.json)."""
    path, __, index = spec.partition("#")
    with open(path) as handle:
        doc = json.load(handle)
    if index:
        doc = doc["sets"][int(index)]
    return doc["runs"]


def _series(runs):
    """``{(workload, metric): [values in run order]}``."""
    out = {}
    for run in runs:
        if not run.get("result"):
            continue
        for name, metric in run["result"]["metrics"].items():
            out.setdefault((run["workload"], name), []).append(metric["value"])
    return out


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread_rows(runs):
    """``(workload, metric, median, IQR/median)`` per series."""
    rows = []
    for (workload, name), values in sorted(_series(runs).items()):
        q1, median, q3 = _quartiles(values)
        rows.append((workload, name, median,
                     (q3 - q1) / median if median else 0.0))
    return rows


def _benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _benchmark_metrics():
    doc = _benchmark()
    metrics = {m["name"]: m for m in doc["per_layer"]}
    metrics.update({m["name"]: m for m in doc["end_to_end"]})
    return metrics


def compare_rows(parent_runs, change_runs, metrics):
    """One row per (workload, metric) seen on both sides: each side's
    quartiles, the change's win rate over run pairs (run i of one side
    against run i of the other, ties counting for neither), and a
    verdict by the benchmark's bounds."""
    parent, change = _series(parent_runs), _series(change_runs)
    rows = []
    for key in sorted(set(parent) & set(change)):
        workload, name = key
        spec = metrics.get(name, {})
        lower = spec.get("better", "lower") == "lower"
        bound = spec.get("bound")
        p, c = parent[key], change[key]
        pq, cq = _quartiles(p), _quartiles(c)
        pairs = list(zip(p, c))
        wins = sum(1 for a, b in pairs if (b < a if lower else b > a))
        win_rate = wins / len(pairs)
        pm, cm = pq[1], cq[1]
        worse = (cm - pm) if lower else (pm - cm)
        worse_share = worse / abs(pm) if pm else worse
        spread = max((pq[2] - pq[0]) / abs(pm) if pm else 0.0,
                     (cq[2] - cq[0]) / abs(cm) if cm else 0.0)
        all_better = (max(c) < min(p)) if lower else (min(c) > max(p))
        if win_rate >= 0.9 and -worse > pq[2] - pq[0]:
            verdict = "improved"
        elif bound is None:
            verdict = "no bound"
        elif spread > bound and not all_better:
            verdict = "unresolved"
        elif worse_share > bound:
            verdict = "regressed"
        else:
            verdict = "within bound"
        rows.append({
            "workload": workload, "metric": name, "parent": pq,
            "change": cq, "win_rate": win_rate, "pairs": len(pairs),
            "worse_share": worse_share, "spread": spread, "bound": bound,
            "verdict": verdict,
        })
    return rows


def cmd_compare(args):
    rows = compare_rows(load_runs(args.parent), load_runs(args.change),
                        _benchmark_metrics())
    print("%-12s %-24s %-30s %-30s %5s %s" % (
        "workload", "metric", "parent median [q1, q3]",
        "change median [q1, q3]", "wins", "verdict"))
    for row in rows:
        print("%-12s %-24s %-30s %-30s %5.2f %s" % (
            row["workload"], row["metric"],
            "%.5g [%.5g, %.5g]" % (row["parent"][1], row["parent"][0],
                                   row["parent"][2]),
            "%.5g [%.5g, %.5g]" % (row["change"][1], row["change"][0],
                                   row["change"][2]),
            row["win_rate"], row["verdict"]))
    return 0


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("parent", help="parent set (FILE or FILE#N)")
        parser.add_argument("change", help="change set (FILE or FILE#N)")
        return cmd_compare(parser.parse_args(argv[1:]))
    if argv[:1] == ["sweep"]:
        parser = argparse.ArgumentParser(prog="run.py sweep")
        parser.add_argument("--seeds", default="1-10")
        parser.add_argument("--workload", default="all",
                            choices=("all",) + WORKLOADS)
        parser.add_argument("--seconds", type=int,
                            default=_benchmark()["run_seconds"])
        parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
        parser.add_argument("--out", required=True)
        return cmd_sweep(parser.parse_args(argv[1:]))
    parser = argparse.ArgumentParser(prog="run.py")
    parser.add_argument("--workload", default="all",
                        choices=("all",) + WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=_benchmark()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run printing per-layer metrics")
    parser.add_argument("--trace-out", metavar="FILE",
                        help="with --trace 1: also write the merged Chrome "
                        "trace-event JSON to FILE")
    parser.add_argument("--quick", action="store_true",
                        help="8-module corpus, %d operations per workload"
                        % QUICK_OPS)
    return cmd_run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
