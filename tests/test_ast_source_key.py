"""The two-level AST-cache key (docs/DRIVER.md, "The persistent AST cache").

A file's dependency record, found by a hash of its raw source and the
-I/-D configuration, lets pass 1 skip preprocessing when every path the
last preprocess read or probed still reads the same.  Every case here
edits the tree (or the cache) and checks the cached run's reports
against an uncached cold run over the same tree, byte for byte, plus
the fast-path counters that say which way each file went.
"""

import json
import os
import pickle
import tempfile
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cfront.preproc import Preprocessor
from repro.codegen.project_gen import apply_function_edits, generate_project
from repro.driver import cache as astcache
from repro.driver.cli import main
from repro.driver.project import Project
from repro.driver.report_server import ReportServer
from repro.driver.store import LocalStore

MAIN_C = (
    '#include "conf.h"\n'
    "#include <extra.h>\n"
    "int use(int *p) {\n"
    "    RELEASE(p);\n"
    "#ifdef MODE\n"
    "    return *p;\n"
    "#endif\n"
    "#ifdef HAVE_EXTRA\n"
    "    kfree(p);\n"
    "#endif\n"
    "    return LIMIT;\n"
    "}\n"
)

SOLO_C = (
    "int solo(int *q) {\n"
    "    kfree(q);\n"
    "    return *q;\n"
    "}\n"
)

CONF_H = "#define LIMIT 4\n#define RELEASE(p) kfree(p)\n"
TWICE_H = "#define LIMIT 4\n#define RELEASE(p) kfree(p); kfree(p)\n"


class Tree:
    """A two-file tree with two include directories: ``inc_a`` (empty,
    searched first) and ``inc_b`` (holds ``conf.h``)."""

    def __init__(self, root):
        self.root = str(root)
        for sub in ("src", "inc_a", "inc_b"):
            os.makedirs(self.path(sub), exist_ok=True)
        self.write("src/main.c", MAIN_C)
        self.write("src/solo.c", SOLO_C)
        self.write("inc_b/conf.h", CONF_H)
        self.includes = [self.path("inc_a"), self.path("inc_b")]
        self.defines = []

    def path(self, name):
        return os.path.join(self.root, name)

    def write(self, name, text):
        with open(self.path(name), "w") as handle:
            handle.write(text)

    def read(self, name):
        with open(self.path(name)) as handle:
            return handle.read()

    def sources(self):
        return [self.path("src/main.c"), self.path("src/solo.c")]

    def argv(self):
        argv = ["--checker", "free"]
        for inc in self.includes:
            argv += ["-I", inc]
        for name in self.defines:
            argv += ["-D", name]
        return argv + self.sources()

    def record_key(self, name):
        defines = {name: "1" for name in self.defines}
        return astcache.source_key(
            self.path(name), self.read(name), self.includes, defines)


def run(capsys, tree, *extra):
    """``(exit code, report text, counters)`` of one CLI run."""
    stats = os.path.join(tree.root, "stats.json")
    if os.path.exists(stats):
        os.remove(stats)
    code = main(list(extra) + ["--stats-json", stats] + tree.argv())
    out = capsys.readouterr().out
    with open(stats) as handle:
        return code, out, json.load(handle)["counters"]


def cached(capsys, tree, cache, *extra):
    return run(capsys, tree, "--cache-dir", cache, *extra)


def assert_matches_cold(capsys, tree, result):
    code, out, __ = run(capsys, tree)
    assert (result[0], result[1]) == (code, out)


@pytest.fixture
def tree(tmp_path):
    return Tree(tmp_path / "tree")


@pytest.fixture
def cache(tmp_path):
    return str(tmp_path / "cache")


def warm_up(capsys, tree, cache):
    """Cold then warm cached runs; the warm one takes the fast path for
    both files."""
    __, __, cold = cached(capsys, tree, cache)
    assert cold["ast_fast_misses"] == 2 and cold["parses"] == 2
    result = cached(capsys, tree, cache)
    assert result[2]["ast_fast_hits"] == result[2]["cache_hits"] == 2
    assert "parses" not in result[2]
    assert_matches_cold(capsys, tree, result)
    return result[1]


def fast(counters):
    return (counters.get("ast_fast_hits", 0),
            counters.get("ast_fast_misses", 0),
            counters.get("parses", 0))


class TestInvalidation:
    def test_header_edit(self, capsys, tree, cache):
        warm_up(capsys, tree, cache)
        tree.write("inc_b/conf.h", TWICE_H)
        result = cached(capsys, tree, cache)
        assert "double free" in result[1]
        assert fast(result[2]) == (1, 1, 1)
        assert_matches_cold(capsys, tree, result)

    def test_unused_define_appended_to_header_still_hits_the_ast(
        self, capsys, tree, cache
    ):
        warm_up(capsys, tree, cache)
        tree.write("inc_b/conf.h", CONF_H + "#define UNUSED 1\n")
        result = cached(capsys, tree, cache)
        # The record is stale, so main.c preprocesses; its tokens did
        # not change, so the AST still hits.
        assert fast(result[2]) == (1, 1, 0)
        assert result[2]["cache_hits"] == 2
        assert_matches_cold(capsys, tree, result)

    def test_define_change(self, capsys, tree, cache):
        before = warm_up(capsys, tree, cache)
        tree.defines = ["MODE"]
        result = cached(capsys, tree, cache)
        assert fast(result[2]) == (0, 2, 2)
        assert result[1] != before
        assert_matches_cold(capsys, tree, result)
        again = cached(capsys, tree, cache)
        assert fast(again[2]) == (2, 0, 0)

    def test_include_path_change(self, capsys, tree, cache):
        warm_up(capsys, tree, cache)
        tree.includes = list(reversed(tree.includes))
        result = cached(capsys, tree, cache)
        assert fast(result[2]) == (0, 2, 2)
        assert_matches_cold(capsys, tree, result)

    def test_new_header_shadows_one_later_on_the_path(
        self, capsys, tree, cache
    ):
        warm_up(capsys, tree, cache)
        tree.write("inc_a/conf.h", TWICE_H)
        result = cached(capsys, tree, cache)
        assert "double free" in result[1]
        assert fast(result[2]) == (1, 1, 1)
        assert_matches_cold(capsys, tree, result)

    def test_deleted_header(self, capsys, tree, cache):
        tree.write("inc_a/conf.h", TWICE_H)
        warm_up(capsys, tree, cache)
        os.remove(tree.path("inc_a/conf.h"))
        result = cached(capsys, tree, cache)
        assert "double free" not in result[1]
        assert fast(result[2]) == (1, 1, 1)
        assert_matches_cold(capsys, tree, result)

    def test_absent_system_header_appears(self, capsys, tree, cache):
        warm_up(capsys, tree, cache)
        tree.write("inc_b/extra.h", "#define HAVE_EXTRA 1\n")
        result = cached(capsys, tree, cache)
        assert "double free" in result[1]
        assert fast(result[2]) == (1, 1, 1)
        assert_matches_cold(capsys, tree, result)

    def test_source_edit(self, capsys, tree, cache):
        warm_up(capsys, tree, cache)
        tree.write("src/solo.c", SOLO_C.replace("return *q;", "return 0;"))
        result = cached(capsys, tree, cache)
        assert fast(result[2]) == (1, 1, 1)
        assert_matches_cold(capsys, tree, result)


class TestRecordFaults:
    @pytest.mark.parametrize("mode", ["truncate", "garbage", "version"])
    def test_corrupt_record_is_evicted_and_preprocessed(
        self, capsys, tree, cache, mode
    ):
        warm_up(capsys, tree, cache)
        key = tree.record_key("src/main.c")
        ast_cache = astcache.AstCache(LocalStore(cache))
        ast_cache.corrupt(key, mode)
        with pytest.raises(astcache.CacheCorruption):
            ast_cache.fetch_record(key)
        result = cached(capsys, tree, cache)
        counters = result[2]
        assert counters["cache_evictions"] == 1
        # Preprocessing recomputes the same token key: the AST hits.
        assert fast(counters) == (1, 1, 0)
        assert counters["cache_hits"] == 2
        assert_matches_cold(capsys, tree, result)
        # The slow path rewrote a good record.
        healed = cached(capsys, tree, cache)
        assert fast(healed[2]) == (2, 0, 0)
        assert "cache_evictions" not in healed[2]

    def test_record_whose_ast_frame_was_collected(self, capsys, tree, cache):
        warm_up(capsys, tree, cache)
        ast_cache = astcache.AstCache(LocalStore(cache))
        token_key, __ = ast_cache.fetch_record(tree.record_key("src/main.c"))
        assert ast_cache.evict(token_key)
        result = cached(capsys, tree, cache)
        assert fast(result[2]) == (1, 1, 1)
        assert_matches_cold(capsys, tree, result)

    def test_cache_gc_keeps_records_a_fresh_manifest_pins(
        self, capsys, tree, cache
    ):
        cached(capsys, tree, cache, "--incremental")
        backend = LocalStore(root=cache)
        entries = backend.list_tier("ast")
        records = [key for key in entries if key.startswith("src")]
        assert len(records) == 2
        old = time.time() - 3 * 86400.0
        backend.touch_many("ast", list(entries), ts=old)
        assert main(["--cache-gc", "--cache-dir", cache,
                     "--cache-gc-days", "1"]) == 0
        capsys.readouterr()
        assert set(backend.list_tier("ast")) == set(entries)
        result = cached(capsys, tree, cache, "--incremental")
        assert fast(result[2]) == (2, 0, 0)
        assert_matches_cold(capsys, tree, result)

    def test_unpinned_stale_records_are_collected(self, capsys, tree, cache):
        cached(capsys, tree, cache)
        backend = LocalStore(root=cache)
        entries = backend.list_tier("ast")
        backend.touch_many("ast", list(entries),
                           ts=time.time() - 3 * 86400.0)
        counters = backend.gc(cutoff_days=1.0)
        assert counters["gc_ast_frames_dropped"] == len(entries) == 4
        result = cached(capsys, tree, cache)
        assert fast(result[2]) == (0, 2, 2)


@pytest.fixture
def server(tmp_path):
    root = tmp_path / "store-root"
    root.mkdir()
    srv = ReportServer(backend=LocalStore(root=str(root)))
    srv.start()
    yield srv
    srv.stop()


def test_serial_jobs_and_tiered_runs_agree(capsys, tmp_path, server):
    """The same edit sequence under a serial cache, ``--jobs 2``, and a
    tiered store: identical reports (equal to cold) and identical
    fast-path counters at every step."""
    modes = {
        "serial": [],
        "jobs": ["--jobs", "2"],
        "tiered": ["--store-url", server.url],
    }
    trees = {name: Tree(tmp_path / name) for name in modes}
    edits = [
        None,
        None,
        lambda t: t.write("inc_b/conf.h", TWICE_H),
        lambda t: t.write("src/solo.c", SOLO_C + "int pad(void);\n"),
        lambda t: t.write("inc_b/extra.h", "#define HAVE_EXTRA 1\n"),
    ]
    for step, edit in enumerate(edits):
        seen = {}
        for name, extra in modes.items():
            tree = trees[name]
            if edit is not None:
                edit(tree)
            code, out, counters = cached(
                capsys, tree, str(tmp_path / ("cache-" + name)), *extra)
            cold = run(capsys, tree)
            assert (code, out) == cold[:2], (step, name)
            seen[name] = (
                out.replace(tree.root, "<root>"), fast(counters),
                counters.get("cache_hits", 0),
            )
        assert seen["serial"] == seen["jobs"] == seen["tiered"], step


# -- property: fast-path units are the units a fresh parse builds ---------------


def _comment_edit(text, rng_value):
    lines = text.splitlines(True)
    at = rng_value % (len(lines) + 1)
    return "".join(lines[:at] + ["/* edit %d */\n" % rng_value] + lines[at:])


def _apply(files, kind, value):
    files = dict(files)
    if kind == "body":
        edited, __ = apply_function_edits(
            _Gen(files), k=1, seed=value)
        return dict(edited.files)
    if kind == "header":
        if value % 2:
            files["shared.h"] += "#define EXTRA_%d %d\n" % (value, value)
        else:
            files["shared.h"] = "/* rev %d */\n" % value + files["shared.h"]
        return files
    names = sorted(name for name in files if name.endswith(".c"))
    name = names[value % len(names)]
    files[name] = _comment_edit(files[name], value)
    return files


class _Gen:
    """The slice of :class:`GeneratedProject` ``apply_function_edits``
    reads."""

    def __init__(self, files):
        self.files = files
        self.bugs = []
        self.seed = 0


def _write(root, files):
    for name, text in files.items():
        with open(os.path.join(root, name), "w") as handle:
            handle.write(text)


def _units(root, files, cache=None):
    project = Project(include_paths=[root], cache_dir=cache)
    paths = [os.path.join(root, n) for n in sorted(files) if n.endswith(".c")]
    project.compile_files(paths)
    units = [pickle.dumps(c.unit, protocol=pickle.HIGHEST_PROTOCOL)
             for c in project.compiled]
    return units, project.stats


EDIT = st.tuples(st.sampled_from(["body", "header", "comment"]),
                 st.integers(min_value=0, max_value=10 ** 6))


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=50),
       edits=st.lists(EDIT, min_size=1, max_size=4))
def test_fast_path_units_pickle_like_fresh_parses(seed, edits):
    files = dict(generate_project(seed=seed, n_modules=3,
                                  functions_per_module=3).files)
    with tempfile.TemporaryDirectory() as root:
        cache = os.path.join(root, ".cache")
        _write(root, files)
        _units(root, files, cache)
        fast_hits = 0
        for kind, value in edits:
            files = _apply(files, kind, value)
            _write(root, files)
            warm, stats = _units(root, files, cache)
            fresh, __ = _units(root, files)
            assert warm == fresh, (kind, value)
            fast_hits += stats.count("ast_fast_hits")
        if any(kind != "header" for kind, __ in edits):
            assert fast_hits > 0


PIN_FILES = {
    "inc/pin.h": "#define SCALE(x) ((x) * N)\nstruct box { int v; };\n",
    "pin.c": '#include "pin.h"\n'
             "int scaled(struct box *b) { return SCALE(b->v) + N; }\n",
}

#: ``cache_key`` of ``pin.c`` under ``-I inc -D N=4`` with
#: ``AST_KEY_VERSION`` 4.
PINNED_KEY = "223bba2460e17a34a7c9222f5fc80e080dd178e39c0000ca88e259f26b0d9809"


def _pin_reader(path):
    try:
        return PIN_FILES[path]
    except KeyError:
        raise OSError(path) from None


def test_token_key_is_pinned():
    """The token key of a fixed source (an include, a function-like macro
    and a ``-D`` define) never drifts: a cache written by an older build
    must keep hitting.  A change that moves it must bump
    ``AST_KEY_VERSION`` (and this digest)."""
    assert astcache.AST_KEY_VERSION == "4"
    assert astcache.PARSER_VERSION == "2"
    for __ in range(2):  # the second run reads pin.h from the header memo
        pp = Preprocessor(["inc"], {"N": "4"}, file_reader=_pin_reader)
        tokens = pp.preprocess_text(PIN_FILES["pin.c"], "pin.c")
        key = astcache.cache_key("pin.c", tokens, ["inc"], {"N": "4"})
        assert key == PINNED_KEY
