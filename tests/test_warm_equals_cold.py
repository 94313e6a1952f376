"""A warm run prints what a cold run prints, also when roots share a
callee (docs/DRIVER.md, "Incremental re-analysis").

Roots of one weakly connected call-graph component share block
summaries, and with false-path pruning (the default) what one root's
traversal leaves behind can change what a later root reports.  So the
dirty cone is widened to every root of each component it touches.  The
fixed case is the ``SHARED`` program of ``test_live_roots``; the
differential edits one function of a random multi-root program with a
shared callee and compares the warm output with a cold run's, serial,
at ``--jobs 2`` and through the daemon.  Before the cone was widened,
about one in ten of its edits to a root other than the first gave a
warm run that disagreed with the cold one.

An edit that only moves tokens inside a body (a blank line, spaces, a
comment) moves the reports in it, so it must re-analyze the function
(``TestPositionOnlyEdit``).

A global checker (``audit``) passes state between roots: a root that
claims a tag another root claimed first reports a duplicate.  Editing
the only root that wrote a claim must re-analyze the roots that read
it; a warm run once replayed the stale duplicate report instead
(``AUDIT``, and a differential over edits that add, drop or retag one
claim).
"""

import contextlib
import functools
import glob
import io
import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.driver.cli import _build_extensions, main
from repro.driver.daemon import XgccDaemon
from repro.driver.session import IncrementalSession, session_signature
from repro.engine.analysis import AnalysisOptions
from test_engine_properties import _block, _program_body, _stmt
from test_live_roots import SHARED, _call, shared_callee_program

#: ``b_live`` gains a statement on a line it already has, so no other
#: function moves: only ``b_live``'s fingerprint changes.
EDITED = SHARED.replace("    h2(p, s, 1);\n", "    h2(p, s, 1); sink = 2;\n")


def write(src, text):
    """Write ``text`` to ``src/s.c``, or each file of a ``{name: text}``
    dict."""
    files = text if isinstance(text, dict) else {"s.c": text}
    for name, body in files.items():
        with open(os.path.join(src, name), "w") as handle:
            handle.write(body)


def cli_argv(src, flags, checker):
    """An ``xgcc`` command line over every ``.c`` file of ``src``."""
    return (["--checker", checker] + list(flags)
            + sorted(glob.glob(os.path.join(src, "*.c"))))


def run(src, capsys, *flags, checker="free"):
    """``(exit code, stdout)`` of one CLI run over ``src``."""
    code = main(cli_argv(src, flags, checker))
    return code, capsys.readouterr().out


def cold(src, capsys, text, checker="free"):
    write(src, text)
    return run(src, capsys, checker=checker)


def warm(src, capsys, before, after, *flags, checker="free"):
    """The warm incremental run over ``after`` on a cache primed with
    ``before``."""
    cache = os.path.join(src, "cache")
    write(src, before)
    run(src, capsys, "--incremental", "--cache-dir", cache, *flags,
        checker=checker)
    write(src, after)
    return run(src, capsys, "--incremental", "--cache-dir", cache, *flags,
               checker=checker)


def daemon_warm(src, before, after, checker="free"):
    """A pinned daemon's answer over ``after``, primed with ``before``."""
    cache = os.path.join(src, "dcache")
    options = AnalysisOptions()
    session = IncrementalSession(
        cache, session_signature(checker_names=[checker], options=options),
        pin_warm_state=True,
    )
    daemon = XgccDaemon(
        watch_roots=[src],
        extension_factory=functools.partial(_build_extensions, (checker,),
                                            ()),
        session=session, socket_path=os.path.join(src, "unused.sock"),
        include_paths=[src], cache_dir=cache, options=options,
    )
    write(src, before)
    daemon.analyze()
    write(src, after)
    response = daemon.analyze()
    return (1 if response["report_count"] else 0), response["reports"]


class TestSharedCalleeEdit:
    """``xgcc --incremental`` over ``SHARED``, then ``b_live`` edited:
    the warm run once reported ``using a after free! in h2``, which a
    cold run over the edited tree does not."""

    def test_cold_runs_print_nothing(self, tmp_path, capsys):
        assert cold(str(tmp_path), capsys, SHARED) == (0, "")
        assert cold(str(tmp_path), capsys, EDITED) == (0, "")

    def test_serial(self, tmp_path, capsys):
        assert warm(str(tmp_path), capsys, SHARED, EDITED) == (0, "")

    def test_jobs(self, tmp_path, capsys):
        assert warm(str(tmp_path), capsys, SHARED, EDITED,
                    "--jobs", "2") == (0, "")

    def test_daemon(self, tmp_path):
        assert daemon_warm(str(tmp_path), SHARED, EDITED) == (0, "")

    def test_the_component_reanalyzes_but_not_its_neighbour(self, tmp_path,
                                                            capsys):
        stats = str(tmp_path / "stats.json")
        warm(str(tmp_path), capsys, SHARED, EDITED, "--stats-json", stats)
        with open(stats) as handle:
            counters = json.load(handle)["counters"]
        # b_live's component has roots a_dead and b_live; c_alone replays.
        assert counters["incremental_dirty_cone"] == 1
        assert counters["incremental_roots_analyzed"] == 2
        assert counters["incremental_roots_replayed"] == 1


#: ``a`` and ``b`` share ``callee``; with the cache primed, ``a`` stops
#: calling it, which splits the component.  A cold run over ``SPLIT_EDITED``
#: walks ``b`` first into ``callee`` and reports its double free there;
#: ``b``'s cached artifact, walked after ``a`` had summarized ``callee``,
#: does not hold that report.
SPLIT = """int callee(int *p) {
    kfree(p);
    kfree(p);
    return 0;
}
int a(int *p) {
    callee(p);
    kfree(p);
    return 0;
}
int b(int *p) {
    kfree(p);
    kfree(p);
    callee(p);
    return 0;
}
"""
SPLIT_EDITED = SPLIT.replace("    callee(p);\n    kfree(p);\n",
                             "    kfree(p);\n    kfree(p);\n", 1)

#: ``SPLIT`` with ``a`` defined last, and then deleted: ``b`` keeps its
#: lines and its fingerprint, but a cold run walks it first.
_A = SPLIT[SPLIT.index("int a("):SPLIT.index("int b(")]
SPLIT_A_LAST = SPLIT.replace(_A, "") + _A
SPLIT_A_DELETED = SPLIT.replace(_A, "")


class TestSplitComponentEdit:
    """An edit that removes a root's only call into a shared callee: the
    warm run once re-analyzed ``a`` alone and replayed ``b`` from the
    cache, losing ``s.c:3:10``; deleting ``a`` lost it too.  A function
    whose component changed membership joins the cone."""

    def test_cold_run_reports_the_callee(self, tmp_path, capsys):
        code, out = cold(str(tmp_path), capsys, SPLIT_EDITED)
        assert code == 1
        assert "s.c:3:10: free_checker: double free of p! in callee" in out

    def test_serial(self, tmp_path, capsys):
        expected = cold(str(tmp_path), capsys, SPLIT_EDITED)
        assert warm(str(tmp_path), capsys, SPLIT, SPLIT_EDITED) == expected

    def test_jobs(self, tmp_path, capsys):
        expected = cold(str(tmp_path), capsys, SPLIT_EDITED)
        assert warm(str(tmp_path), capsys, SPLIT, SPLIT_EDITED,
                    "--jobs", "2") == expected

    def test_daemon(self, tmp_path, capsys):
        expected = cold(str(tmp_path), capsys, SPLIT_EDITED)
        assert daemon_warm(str(tmp_path), SPLIT, SPLIT_EDITED) == expected

    def test_deleting_a_root(self, tmp_path, capsys):
        expected = cold(str(tmp_path), capsys, SPLIT_A_DELETED)
        assert "in callee" in expected[1]
        assert warm(str(tmp_path), capsys, SPLIT_A_LAST,
                    SPLIT_A_DELETED) == expected

    def test_deleting_a_root_daemon(self, tmp_path, capsys):
        expected = cold(str(tmp_path), capsys, SPLIT_A_DELETED)
        assert daemon_warm(str(tmp_path), SPLIT_A_LAST,
                           SPLIT_A_DELETED) == expected

    def test_both_roots_reanalyze(self, tmp_path, capsys):
        stats = str(tmp_path / "stats.json")
        warm(str(tmp_path), capsys, SPLIT, SPLIT_EDITED, "--stats-json",
             stats)
        with open(stats) as handle:
            counters = json.load(handle)["counters"]
        assert counters["incremental_dirty_cone"] == 1
        assert counters["incremental_roots_analyzed"] == 2


#: A root body that calls the shared callee more often than
#: ``test_live_roots``' roots do: the summaries one root leaves behind
#: only matter to a later root that calls the callee too.
_root_body = st.lists(st.one_of(_stmt, _call, _call), min_size=2,
                      max_size=6).map(_block)


@st.composite
def edited_programs(draw):
    """``(before, after)``: a multi-root program with a shared callee,
    and the same program with one function's body redrawn."""
    callee = draw(_program_body)
    roots = draw(st.lists(_root_body, min_size=2, max_size=4))
    target = draw(st.integers(0, len(roots)))
    if target == len(roots):
        edited = (draw(_program_body), roots)
    else:
        changed = list(roots)
        changed[target] = draw(_root_body)
        edited = (callee, changed)
    return (shared_callee_program(callee, roots),
            shared_callee_program(*edited))


class TestWarmEqualsColdDifferential:
    @given(edited_programs())
    @settings(max_examples=100, deadline=None)
    def test_serial(self, programs):
        self.check(programs)

    @given(edited_programs())
    @settings(max_examples=10, deadline=None)
    def test_jobs(self, programs):
        self.check(programs, "--jobs", "2")

    @given(edited_programs())
    @settings(max_examples=40, deadline=None)
    def test_daemon(self, programs):
        before, after = programs
        with tempfile.TemporaryDirectory() as src:
            expected = self.cold(src, after)
            assert daemon_warm(src, before, after) == expected

    checker = "free"

    def cold(self, src, text):
        write(src, text)
        return self.quiet_run(src)

    def check(self, programs, *flags):
        before, after = programs
        with tempfile.TemporaryDirectory() as src:
            expected = self.cold(src, after)
            cache = os.path.join(src, "cache")
            write(src, before)
            self.quiet_run(src, "--incremental", "--cache-dir", cache,
                           *flags)
            write(src, after)
            assert self.quiet_run(src, "--incremental", "--cache-dir",
                                  cache, *flags) == expected

    def quiet_run(self, src, *flags):
        """``(exit code, stdout)`` without capsys (hypothesis reuses the
        test's fixtures across examples)."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(cli_argv(src, flags, self.checker))
        return code, out.getvalue()


#: A use after free whose report position moves when tokens inside the
#: body move, while the definition's start and its rendering stay put.
MOVED = "int f(int *p) {\n    kfree(p);\n    return *p;\n}\n"

#: ``MOVED`` after each position-only edit: a blank line, extra spaces
#: before ``*p``, and a two-line comment.
MOVES = {
    "blank-line": MOVED.replace("    return", "\n    return"),
    "spaces": MOVED.replace("return *p", "return   *p"),
    "comment": MOVED.replace("    return", "    /* one\n       two */\n"
                                           "    return"),
}


@pytest.mark.parametrize("edit", sorted(MOVES))
class TestPositionOnlyEdit:
    """``xgcc --incremental`` over ``MOVED``, then an edit that moves
    tokens inside ``f``'s body and nothing else: the warm run once
    replayed the report at its old line or column, because the
    definition's hash covered only its start and its rendering."""

    def test_cold_run_reports_the_moved_position(self, tmp_path, capsys,
                                                 edit):
        code, out = cold(str(tmp_path), capsys, MOVES[edit])
        assert code == 1
        position = {"blank-line": "4:12", "spaces": "3:14",
                    "comment": "5:12"}[edit]
        assert "s.c:%s: free_checker: using p after free!" % position in out

    def test_serial(self, tmp_path, capsys, edit):
        expected = cold(str(tmp_path), capsys, MOVES[edit])
        assert warm(str(tmp_path), capsys, MOVED, MOVES[edit]) == expected

    def test_jobs(self, tmp_path, capsys, edit):
        expected = cold(str(tmp_path), capsys, MOVES[edit])
        assert warm(str(tmp_path), capsys, MOVED, MOVES[edit],
                    "--jobs", "2") == expected

    def test_daemon(self, tmp_path, capsys, edit):
        expected = cold(str(tmp_path), capsys, MOVES[edit])
        assert daemon_warm(str(tmp_path), MOVED, MOVES[edit]) == expected


#: ``a`` claims audit tag 1 first, so ``b``'s claim is a duplicate.
#: ``AUDIT_DROPPED`` drops ``a``'s claim, the only write of the tag:
#: ``b`` must re-analyze, and then claims the tag unopposed.
AUDIT = {
    "a.c": "void audit(int tag); int a(void) { audit(1); return 0; }\n",
    "b.c": "void audit(int tag);\nint b(void) { audit(1); return 0; }\n",
}
AUDIT_DROPPED = dict(
    AUDIT, **{"a.c": "void audit(int tag); int a(void) { return 0; }\n"})


class TestOnlyWriterEdit:
    """``xgcc --checker audit --incremental`` over ``AUDIT``, then
    ``AUDIT_DROPPED``: the warm run once replayed ``b``'s stale
    duplicate report, which a cold run over the edited tree does not
    print."""

    def test_cold_runs(self, tmp_path, capsys):
        assert cold(str(tmp_path), capsys, AUDIT, checker="audit") == (
            1, "%s:2:20: audit_tags: audit tag 1 already claimed by a() "
               "in b\n" % (tmp_path / "b.c"))
        assert cold(str(tmp_path), capsys, AUDIT_DROPPED,
                    checker="audit") == (0, "")

    def test_serial(self, tmp_path, capsys):
        assert warm(str(tmp_path), capsys, AUDIT, AUDIT_DROPPED,
                    checker="audit") == (0, "")

    def test_jobs(self, tmp_path, capsys):
        assert warm(str(tmp_path), capsys, AUDIT, AUDIT_DROPPED,
                    "--jobs", "2", checker="audit") == (0, "")

    def test_daemon(self, tmp_path):
        assert daemon_warm(str(tmp_path), AUDIT, AUDIT_DROPPED,
                           checker="audit") == (0, "")

    def test_the_reader_is_demoted(self, tmp_path, capsys):
        stats = str(tmp_path / "stats.json")
        warm(str(tmp_path), capsys, AUDIT, AUDIT_DROPPED, "--stats-json",
             stats, checker="audit")
        with open(stats) as handle:
            counters = json.load(handle)["counters"]
        assert counters["incremental_dirty_cone"] == 1
        assert counters["annotation_delta_read_demotions"] == 1
        assert counters["incremental_roots_analyzed"] == 2
        assert counters["incremental_coupled_runs"] == 1


_tags = st.lists(st.integers(1, 3), max_size=3)


def audit_program(roots):
    """``{name: text}``: root ``r<i>`` claims each of its tags in order,
    on one line of ``a.c`` or ``b.c`` (so editing one root moves no
    other)."""
    files = {"a.c": ["void audit(int tag);"], "b.c": ["void audit(int tag);"]}
    for index, (name, tags) in enumerate(roots):
        claims = "".join("audit(%d); " % tag for tag in tags)
        files[name].append("int r%d(void) { %sreturn 0; }" % (index, claims))
    return {name: "\n".join(lines) + "\n" for name, lines in files.items()}


@st.composite
def audit_edits(draw):
    """``(before, after)``: roots spread over two files claiming audit
    tags, and the same program with one claim added, dropped or
    retagged."""
    roots = draw(st.lists(st.tuples(st.sampled_from(["a.c", "b.c"]), _tags),
                          min_size=2, max_size=5))
    target = draw(st.integers(0, len(roots) - 1))
    name, tags = roots[target]
    tags = list(tags)
    kind = draw(st.sampled_from(["add", "drop", "retag"]) if tags
                else st.just("add"))
    if kind == "add":
        tags.insert(draw(st.integers(0, len(tags))), draw(st.integers(1, 3)))
    else:
        index = draw(st.integers(0, len(tags) - 1))
        old = tags.pop(index)
        if kind == "retag":
            tags.insert(index, draw(st.integers(1, 3).filter(
                lambda tag: tag != old)))
    edited = list(roots)
    edited[target] = (name, tags)
    return audit_program(roots), audit_program(edited)


class TestAuditEditDifferential(TestWarmEqualsColdDifferential):
    """The warm-equals-cold differential over ``audit_edits``."""

    checker = "audit"

    @given(audit_edits())
    @settings(max_examples=100, deadline=None)
    def test_serial(self, programs):
        self.check(programs)

    @given(audit_edits())
    @settings(max_examples=10, deadline=None)
    def test_jobs(self, programs):
        self.check(programs, "--jobs", "2")

    @given(audit_edits())
    @settings(max_examples=40, deadline=None)
    def test_daemon(self, programs):
        before, after = programs
        with tempfile.TemporaryDirectory() as src:
            expected = self.cold(src, after)
            assert daemon_warm(src, before, after, self.checker) == expected
