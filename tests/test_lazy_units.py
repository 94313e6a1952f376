"""A warm run unpickles only what it analyzes (docs/DRIVER.md, "Lazy
unit bodies").

A cache-hit unit registers from its AST frame's decl index; its body is
unpickled only when the engine, refine, delta resolution or a dump asks
for a decl.  Summary packs keep their empty artifacts in a blob decoded
only when the pack is rewritten or a coupled run needs them.  Every
test here checks that a warm run still prints what a cold run over the
same tree prints, and counts the bodies it loaded
(``ast_units_loaded``).
"""

import functools
import json
import os
import pickle

import pytest

from repro import faults
from repro.codegen.project_gen import generate_global_project
from repro.driver import cache as astcache
from repro.driver.cli import _build_extensions, main
from repro.driver.daemon import XgccDaemon
from repro.driver.project import Project
from repro.driver.report_server import ReportServer
from repro.driver.session import IncrementalSession, session_signature
from repro.driver.store import LocalStore
from repro.engine.analysis import AnalysisOptions
from repro.engine.summaries import SUMMARY_VERSION

#: ``shared`` (in a.c) is called from a.c and b.c, so one call-graph
#: component spans both files; c.c is a component of its own with a
#: report of its own.
FILES = {
    "a.c": """int shared(int *p) {
    kfree(p);
    return 0;
}
int a_root(int *p) {
    shared(p);
    kfree(p);
    return 0;
}
""",
    "b.c": """int b_root(int *p, int x) {
    if (x)
        shared(p);
    return 0;
}
""",
    "c.c": """int c_root(int *p) {
    kfree(p);
    return *p;
}
""",
}

#: b.c edited on a line it already has: only ``b_root`` changes, and its
#: component takes ``shared`` and ``a_root`` (in a.c) back into the cone.
B_EDITED = FILES["b.c"].replace("shared(p);", "shared(p); shared(p);")

FLAGS = ["--checker", "free", "--refine=demote"]


def write(src, files):
    for name, text in files.items():
        with open(os.path.join(src, name), "w") as handle:
            handle.write(text)


def run(src, capsys, *flags):
    """``(exit code, stdout, stats document)`` of one CLI run."""
    stats = os.path.join(src, "stats.json")
    paths = [os.path.join(src, name) for name in sorted(FILES)]
    code = main(FLAGS + list(flags) + ["--stats-json", stats] + paths)
    with open(stats) as handle:
        document = json.load(handle)
    return code, capsys.readouterr().out, document


def cold(src, capsys):
    """``(exit code, stdout)`` of an uncached run over the tree."""
    code, out, __ = run(src, capsys)
    return code, out


def incremental(src, capsys, *flags):
    return run(src, capsys, "--incremental", "--cache-dir",
               os.path.join(src, "cache"), *flags)


def counters(document):
    return document["counters"]


class TestWarmRuns:
    def test_no_edit_loads_no_body(self, tmp_path, capsys):
        src = str(tmp_path)
        write(src, FILES)
        expected = cold(src, capsys)
        assert expected[0] == 1
        first = incremental(src, capsys)
        warm = incremental(src, capsys)
        assert first[:2] == warm[:2] == expected
        assert counters(warm[2])["ast_units_loaded"] == 0
        assert counters(warm[2])["cache_hits"] == len(FILES)
        assert counters(warm[2])["incremental_roots_analyzed"] == 0
        assert warm[2]["degradations"] == []

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_edit_whose_component_spans_files(self, tmp_path, capsys, jobs):
        src = str(tmp_path)
        write(src, FILES)
        incremental(src, capsys, "--jobs", jobs)
        write(src, {"b.c": B_EDITED})
        code, out, document = incremental(src, capsys, "--jobs", jobs)
        assert (code, out) == cold(src, capsys)
        found = counters(document)
        assert found["parses"] == 1  # b.c
        # a.c holds the rest of the component: its body is loaded, not
        # reparsed; c.c replays untouched.
        assert found["ast_units_loaded"] == 1
        assert found["incremental_roots_analyzed"] == 2

    def test_refine_loads_a_clean_body_on_a_verdict_miss(self, tmp_path,
                                                         capsys):
        src = str(tmp_path)
        write(src, FILES)
        expected = cold(src, capsys)
        incremental(src, capsys)
        store = LocalStore(root=os.path.join(src, "cache"))
        verdicts = [key for key in store.list_tier("sum")
                    if key.startswith("refine")]
        assert verdicts
        store.delete_many("sum", verdicts)
        code, out, document = incremental(src, capsys)
        assert (code, out) == expected
        found = counters(document)
        assert found["incremental_roots_analyzed"] == 0
        assert found.get("refine_cache_hits", 0) == 0
        assert 1 <= found["ast_units_loaded"] <= len(FILES)
        assert document["timers_s"]["ast_load"] > 0

    def test_tiered_store(self, tmp_path, capsys):
        root = tmp_path / "store-root"
        root.mkdir()
        server = ReportServer(backend=LocalStore(root=str(root)))
        server.start()
        try:
            src = str(tmp_path)
            write(src, FILES)
            flags = ("--store-url", server.url)
            incremental(src, capsys, *flags)
            warm = incremental(src, capsys, *flags)
            assert counters(warm[2])["ast_units_loaded"] == 0
            write(src, {"b.c": B_EDITED})
            code, out, document = incremental(src, capsys, *flags)
        finally:
            server.stop()
        assert (code, out) == cold(src, capsys)
        assert counters(document)["ast_units_loaded"] == 1
        assert document["degradations"] == []


def _daemon(src, cache):
    options = AnalysisOptions()
    session = IncrementalSession(
        cache, session_signature(checker_names=["free"], options=options),
        pin_warm_state=True,
    )
    return XgccDaemon(
        watch_roots=[src],
        extension_factory=functools.partial(_build_extensions, ("free",),
                                            ()),
        session=session, socket_path=os.path.join(src, "unused.sock"),
        cache_dir=cache, options=options,
    )


class TestDaemon:
    def test_cold_start_over_a_primed_cache_then_an_edit(self, tmp_path,
                                                         capsys):
        src = str(tmp_path / "src")
        os.mkdir(src)
        write(src, FILES)
        cache = str(tmp_path / "cache")
        primer = _daemon(src, cache)
        primer.analyze()
        daemon = _daemon(src, cache)  # a new process's cold start
        first = daemon.analyze()
        assert first["roots_analyzed"] == 0
        assert daemon.stats.count("ast_units_loaded") == 0
        write(src, {"b.c": B_EDITED})
        second = daemon.analyze()
        assert daemon.stats.count("ast_units_loaded") == 1
        # The loaded body stays pinned: a later edit loads nothing new.
        write(src, {"b.c": B_EDITED.replace("x)", "x) ")})
        daemon.analyze()
        assert daemon.stats.count("ast_units_loaded") == 1
        write(src, {"b.c": B_EDITED})
        code = main(["--checker", "free"] + [
            os.path.join(src, name) for name in sorted(FILES)])
        assert capsys.readouterr().out == second["reports"]
        assert code == (1 if second["report_count"] else 0)


class TestCoupledWorkload:
    """pathkill + free + audit: cross-root state, so the coupled path
    decodes every replayed artifact, empty ones included."""

    NAMES = ["--checker", "pathkill", "--checker", "free", "--checker",
             "audit"]

    def _run(self, src, capsys, *flags):
        stats = os.path.join(src, "stats.json")
        paths = sorted(os.path.join(src, name) for name in os.listdir(src)
                       if name.endswith(".c"))
        code = main(self.NAMES + ["-I", src, "--stats-json", stats]
                    + list(flags) + paths)
        with open(stats) as handle:
            return code, capsys.readouterr().out, json.load(handle)

    def test_warm_and_edited_runs_match_cold(self, tmp_path, capsys):
        src = str(tmp_path / "src")
        os.mkdir(src)
        gen = generate_global_project(seed=3)
        write(src, gen.files)
        cache = ("--incremental", "--cache-dir", str(tmp_path / "cache"))
        cold_run = self._run(src, capsys)
        self._run(src, capsys, *cache)
        warm = self._run(src, capsys, *cache)
        assert warm[:2] == cold_run[:2]
        assert counters(warm[2])["incremental_coupled_runs"] == 1
        assert counters(warm[2])["incremental_roots_analyzed"] == 0
        edited = gen.files["module_0.c"].replace("audit(7)", "audit(9)")
        assert edited != gen.files["module_0.c"]
        write(src, {"module_0.c": edited})
        code, out, document = self._run(src, capsys, *cache)
        assert (code, out) == self._run(src, capsys)[:2]
        assert counters(document).get("incremental_fallbacks", 0) == 0


class TestFrames:
    @pytest.mark.parametrize("mode", ["truncate", "garbage", "version"])
    def test_corrupt_ast_frame_is_reparsed_in_pass1(self, tmp_path, capsys,
                                                    mode):
        src = str(tmp_path)
        write(src, FILES)
        expected = cold(src, capsys)
        with faults.injected([{"site": "cache.corrupt", "times": 1,
                               "mode": mode}]):
            incremental(src, capsys)
        code, out, document = incremental(src, capsys)
        assert (code, out) == expected
        found = counters(document)
        assert found["cache_evictions"] == 1
        assert found["parses"] == 1
        [entry] = document["degradations"]
        assert entry["kind"] == "cache"
        assert "corrupt cache entry" in entry["detail"]
        assert "evicted and re-parsed" in entry["detail"]

    def test_index_matches_the_unit(self, tmp_path):
        src = str(tmp_path)
        write(src, dict(FILES, **{"s.c": "static int hidden;\nint seen;\n"
                                  + FILES["c.c"]}))
        project = Project()
        compiled = project.compile_file(os.path.join(src, "s.c"))
        data = astcache.pack_unit(compiled.unit, compiled.source_bytes)
        index = astcache.unpack_index(data)
        assert index.statics == ["hidden"]
        assert [(entry.name, entry.location, entry.token_hash,
                 entry.direct_callees) for entry in index.functions] == [
            (decl.name, decl.location, decl.token_hash, decl.direct_callees)
            for decl in compiled.unit.functions()]
        unit, source_bytes = astcache.unpack(data)
        assert source_bytes == compiled.source_bytes
        assert [decl.name for decl in unit.functions()] == ["c_root"]

    def test_parent_format_cache_reads_as_misses(self, tmp_path, capsys,
                                                 monkeypatch):
        """A cache written in the previous layout (key version 2, whole
        unit pickles, summary format 3) is never probed: every file and
        root misses, and nothing is recorded as a degradation."""
        src = str(tmp_path)
        write(src, FILES)
        expected = cold(src, capsys)

        def old_pack_unit(unit, source_bytes):
            return astcache.pack_frame(b"XGCCAST\x02", {
                "format": 2, "parser_version": astcache.PARSER_VERSION,
                "filename": unit.filename, "source_bytes": source_bytes,
                "unit": unit,
            })

        def old_pack_summary(pack):
            return astcache.pack_frame(astcache.SUMMARY_MAGIC, {
                "format": 3, "summary_version": SUMMARY_VERSION,
                "pack": dict(pack),
            })

        with monkeypatch.context() as patch:
            patch.setattr(astcache, "AST_KEY_VERSION", "2")
            patch.setattr(astcache, "SUMMARY_FORMAT_VERSION", 3)
            patch.setattr(astcache, "pack_unit", old_pack_unit)
            patch.setattr(astcache, "pack_summary", old_pack_summary)
            incremental(src, capsys)
        store = LocalStore(root=os.path.join(src, "cache"))
        assert len(store.list_tier("ast")) == 2 * len(FILES)
        code, out, document = incremental(src, capsys)
        assert (code, out) == expected
        found = counters(document)
        assert found["cache_misses"] == found["parses"] == len(FILES)
        assert "cache_hits" not in found
        assert found["incremental_cold_runs"] == 1
        assert document["degradations"] == []


class TestSummaryPacks:
    def _artifact(self, root, reports=()):
        from repro.engine.summaries import RootArtifact

        return RootArtifact(
            ext_index=0, extension="free", root=root, reports=list(reports),
            examples={}, counterexamples={}, degraded=[], clean=True,
        )

    def test_empty_artifacts_decode_on_first_need(self):
        live = self._artifact("f", reports=["r"])
        pack = {(0, "f"): ("fp1", live), (0, "g"): ("fp2",
                                                    self._artifact("g"))}
        read = astcache.unpack_summary(astcache.pack_summary(pack))
        assert isinstance(read, astcache.SummaryPack)
        assert read.entries[(0, "f")][1].reports == ["r"]
        assert read.entries[(0, "g")] == ("fp2", None)
        fingerprint, empty = read[(0, "g")]
        assert fingerprint == "fp2" and empty.empty and empty.root == "g"
        assert read.entries[(0, "g")][1] is empty

    def test_a_pack_with_no_empty_artifact_has_no_blob(self):
        pack = {(0, "f"): ("fp1", self._artifact("f", reports=["r"]))}
        frame = astcache.pack_summary(pack)
        payload = pickle.loads(frame[len(astcache.SUMMARY_MAGIC) + 32:])
        assert payload["empty"] is None
