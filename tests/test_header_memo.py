"""The preprocessor's per-process header memo (docs/DRIVER.md, "Pass 1
in one process").

A header's logical lines are lexed once per process and reused while
the text read at its path stays the same.  The batch and daemon cases
edit a header between two runs in one process and check that the second
run sees the new text: its token key moves, and its AST frames or
reports equal those of an uncached cold run made with the memo emptied
first.  The rest check what the memo is keyed by and how much it holds.
"""

import os
import sys
import threading

import pytest

from repro.cfront import preproc
from repro.cfront.lexer import Lexer
from repro.cfront.preproc import Preprocessor
from repro.cfront.source import LexError
from repro.driver import cache as astcache
from repro.driver.daemon import DaemonClient
from repro.driver.parallel import compile_files_into
from repro.driver.project import Project
from repro.driver.store import LocalStore
from test_daemon import cold_output, running_daemon, sock_dir  # noqa: F401

CONF_H = "#define LIMIT 3\n#define RELEASE(p) kfree(p)\nint helper(int x);\n"
LIMIT_H = CONF_H.replace("LIMIT 3", "LIMIT 4")
NOOP_H = CONF_H.replace("kfree(p)", "helper(0)")
A_C = ('#include "conf.h"\n'
       "int a_fn(int *p) { kfree(p); RELEASE(p); return LIMIT; }\n")
B_C = ('#include "conf.h"\n'
       "int b_fn(int *q) { RELEASE(q); return helper(0) + LIMIT; }\n")


@pytest.fixture(autouse=True)
def empty_memo():
    preproc._HEADER_LINES.clear()
    yield
    preproc._HEADER_LINES.clear()


def write(root, name, text):
    with open(os.path.join(str(root), name), "w") as handle:
        handle.write(text)


def tree(root, header=CONF_H):
    root.mkdir(exist_ok=True)
    write(root, "conf.h", header)
    write(root, "a.c", A_C)
    write(root, "b.c", B_C)
    return [str(root / "a.c"), str(root / "b.c")]


def compile_batch(root, sources, cache=None):
    """``{path: AST frame}`` of one pass-1 batch over ``sources``."""
    project = Project(include_paths=[str(root)], cache_dir=cache)
    try:
        return {compiled.filename:
                astcache.pack_unit(compiled.unit, compiled.source_bytes)
                for compiled in compile_files_into(project, sources)}
    finally:
        project.close()


def token_key(root, cache, source):
    """The token key the dependency record of ``source`` holds."""
    with open(source) as handle:
        text = handle.read()
    record = astcache.AstCache(LocalStore(cache)).fetch_record(
        astcache.source_key(source, text, [str(root)], {}))
    return record[0]


def cold_frames(root, sources):
    """Frames of an uncached batch that lexes every header afresh."""
    preproc._HEADER_LINES.clear()
    return compile_batch(root, sources)


class TestBatch:
    @pytest.mark.parametrize("edited", [LIMIT_H, NOOP_H],
                             ids=["constant", "macro-body"])
    def test_header_edit_between_batches(self, tmp_path, edited):
        root, cache = tmp_path / "src", str(tmp_path / "cache")
        sources = tree(root)
        first = compile_batch(root, sources, cache)
        keys = [token_key(root, cache, path) for path in sources]
        assert first == cold_frames(root, sources)
        header = str(root / "conf.h")
        assert preproc._HEADER_LINES[header][0] == CONF_H

        write(root, "conf.h", edited)
        second = compile_batch(root, sources, cache)
        assert preproc._HEADER_LINES[header][0] == edited
        for path, key in zip(sources, keys):
            assert token_key(root, cache, path) != key
        assert second != first
        assert second == cold_frames(root, sources)

    def test_header_lexed_once_per_process(self, tmp_path):
        root = tmp_path / "src"
        source = tree(root)[0]
        lexed = []
        for __ in range(2):
            pp = Preprocessor([str(root)])
            pp.preprocess_text(A_C, source)
            lexed.append(pp.tokens_lexed)
        # The second includer takes conf.h from the memo the first filled.
        header = Lexer(CONF_H, str(root / "conf.h"), emit_newlines=True)
        assert lexed[0] - lexed[1] == len(header.tokens())


class TestDaemon:
    def test_header_edit_between_requests(self, tmp_path, sock_dir,  # noqa: F811
                                          capsys):
        src, cache = tmp_path / "src", str(tmp_path / "cache")
        sources = tree(src)
        header = str(src / "conf.h")
        sock = os.path.join(sock_dir, "d.sock")
        with running_daemon(src, cache, sock):
            with DaemonClient(sock) as client:
                base = client.request("analyze")
                assert base["ok"] and base["report_count"] == 1
                keys = [token_key(src, cache, path) for path in sources]

                write(src, "conf.h", NOOP_H)
                resp = client.request("analyze")
                assert resp["ok"] and resp["files_reparsed"] == 2
                assert resp["report_count"] == 0
                assert preproc._HEADER_LINES[header][0] == NOOP_H
                for path, key in zip(sources, keys):
                    assert token_key(src, cache, path) != key
                preproc._HEADER_LINES.clear()
                assert resp["reports"] == cold_output(src, capsys)

                write(src, "conf.h", CONF_H)
                resp = client.request("analyze")
                assert resp["ok"] and resp["report_count"] == 1
                assert resp["reports"] == base["reports"]
                preproc._HEADER_LINES.clear()
                assert resp["reports"] == cold_output(src, capsys)


def _reader(files):
    def read(path):
        try:
            return files[path]
        except KeyError:
            raise OSError(path) from None
    return read


def _spellings(files, main="m.c"):
    pp = Preprocessor(["inc"], file_reader=_reader(files))
    return [token.value for token in pp.preprocess_text(files[main], main)]


class TestMemoKeys:
    def test_readers_with_different_text_never_share_lines(self):
        first = {"m.c": '#include "h.h"\n', "inc/h.h": "int first;\n"}
        second = {"m.c": '#include "h.h"\n', "inc/h.h": "long second;\n"}
        for __ in range(3):
            assert _spellings(first) == ["int", "first", ";"]
            assert _spellings(second) == ["long", "second", ";"]
        # Same text from a third reader is the same header: it may share.
        again = dict(first)
        assert _spellings(again) == ["int", "first", ";"]

    def test_one_entry_per_header_path_after_many_edits(self):
        files = {"m.c": '#include "a.h"\n#include "b.h"\nint m = A + B;\n'}
        for step in range(40):
            files["inc/a.h"] = "#define A %d\n" % step
            if step % 3 == 0:
                files["inc/b.h"] = "#define B %d\n" % (2 * step)
            b = 2 * (step - step % 3)
            assert _spellings(files) == [
                "int", "m", "=", str(step), "+", str(b), ";"]
        assert sorted(preproc._HEADER_LINES) == ["inc/a.h", "inc/b.h"]
        assert preproc._HEADER_LINES["inc/a.h"][0] == files["inc/a.h"]
        assert preproc._HEADER_LINES["inc/b.h"][0] == files["inc/b.h"]

    def test_threads_with_different_text_never_share_lines(self):
        # More threads than cores, switching often: each reads its own
        # text at one shared path, and must always see its own tokens.
        errors = []

        def work(index):
            files = {"m.c": '#include "h.h"\n',
                     "inc/h.h": "int v%d;\n" % index}
            try:
                for __ in range(200):
                    assert _spellings(files) == ["int", "v%d" % index, ";"]
            except Exception as err:  # reported by the main thread
                errors.append(err)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(index,))
                       for index in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert list(preproc._HEADER_LINES) == ["inc/h.h"]

    def test_header_that_fails_to_lex_leaves_no_entry(self):
        files = {"m.c": '#include "bad.h"\n', "inc/bad.h": 'char *s = "\n'}
        with pytest.raises(LexError):
            _spellings(files)
        assert "inc/bad.h" not in preproc._HEADER_LINES
