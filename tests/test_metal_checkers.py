"""The registered state-machine checkers are metal texts.

Each is one ``.metal`` file under ``src/repro/checkers/metal/``, parsed
once per process and copied per caller; parameters are bound in the
text; the session signature hashes the text, not just the name; and a
fragment that fails at run time is a located diagnostic.
"""

import os

import pytest

from conftest import messages, run_checker
from repro.checkers import ALL_CHECKERS, free_checker, lock_checker
from repro.checkers.free import suppressed_free_checker
from repro.checkers.metal import DIRECTORY, load, read
from repro.driver.cli import main
from repro.driver.session import session_signature
from repro.metal import Callout, compile_metal
from repro.metal.language import MetalError, instantiate

#: The registered checkers that stay Python (each module says why).
PYTHON_CHECKERS = {"audit", "block", "pathkill"}


def _callouts(pattern):
    if isinstance(pattern, Callout):
        yield pattern
    for side in ("left", "right", "inner"):
        inner = getattr(pattern, side, None)
        if inner is not None:
            yield from _callouts(inner)


class TestRegisteredCheckersAreMetal:
    @pytest.mark.parametrize(
        "name", sorted(set(ALL_CHECKERS) - PYTHON_CHECKERS)
    )
    def test_compiled_from_one_metal_file(self, name):
        ext = ALL_CHECKERS[name]()
        assert ext.source is not None
        files = [
            f for f in os.listdir(DIRECTORY)
            if f.endswith(".metal") and read(f) == ext.source
        ]
        assert len(files) == 1, name
        interpreted = "repro.metal.language"
        for rule in ext.transitions:
            if rule.action is not None:
                assert rule.action.__module__ == interpreted, (name, rule)
            for callout in _callouts(rule.pattern):
                assert callout.fn.__module__ == interpreted, (name, callout)

    @pytest.mark.parametrize("name", sorted(PYTHON_CHECKERS))
    def test_python_checkers_have_no_text(self, name):
        assert ALL_CHECKERS[name]().source is None

    def test_severity_declarations(self):
        severities = {
            name: ALL_CHECKERS[name]().default_severity
            for name in ("null", "mallocfail", "user-pointer", "free")
        }
        assert severities == {
            "null": "ERROR", "mallocfail": "MINOR",
            "user-pointer": "SECURITY", "free": None,
        }


class TestParseOnce:
    def test_each_caller_gets_its_own_extension(self):
        a = free_checker(("kfree", "vfree"))
        b = free_checker(("kfree", "vfree"))
        assert a is not b
        assert a.transitions is not b.transitions
        # The parse is shared: the rules are the same objects.
        assert a.transitions == b.transitions

    def test_mutating_a_copy_leaves_the_next_alone(self):
        base = len(free_checker(("kfree",)).transitions)
        suppressed = suppressed_free_checker()
        assert len(suppressed.transitions) == base + 3
        assert len(free_checker(("kfree",)).transitions) == base
        suppressed.decl("extra", None)
        assert "extra" not in free_checker(("kfree",)).hole_types


class TestInstantiate:
    def test_single_names_rename_identifiers_not_strings(self):
        text = 'sm x { start: { lock(l) } , { err("lock %s", mc_identifier(l)); } ; }'
        bound = instantiate(text, {"lock": "spin_lock"})
        assert "{ spin_lock(l) }" in bound
        assert '"lock %s"' in bound

    def test_several_names_become_a_disjunction(self):
        text = "sm x { start: { kfree(v) } ==> v.s ; }"
        bound = instantiate(text, {"kfree": ("kfree", "vfree")})
        assert "({ kfree(v) } || { vfree(v) })" in bound

    def test_defaults_leave_the_text_alone(self):
        text = read("lock.metal")
        assert instantiate(
            text, {"lock": "lock", "unlock": "unlock", "trylock": "trylock"}
        ) is text
        assert instantiate(text, {"kfree": ("kfree",)}) is text

    def test_lock_names(self):
        ext = lock_checker("mutex_lock", "mutex_unlock", "mutex_trylock")
        assert ext.start_anchors() == {
            "mutex_lock", "mutex_unlock", "mutex_trylock"
        }

    def test_deallocators(self):
        ext = free_checker(("kfree", "vfree"))
        assert ext.start_anchors() == {"kfree", "vfree"}
        result = run_checker(
            "int f(int *p) { vfree(p); kfree(p); return 0; }", ext
        )
        assert [(r.message, r.rule_id, r.severity) for r in result.reports] == [
            ("double free of p!", "vfree", "ERROR")
        ]


class TestRankingForms:
    TEXT = """
    sm ranked {
     state decl any_pointer v;
     severity MINOR;
     start: { take(v) } ==> v.held, { set_data("who", "take"); } ;
     v.held: { drop(v) } ==> v.stop, { count_example(get_data("who"), mc_origin); }
      | { *v } ==> v.stop,
        { err_rule(get_data("who"), 0, "%s used", mc_identifier(v)); }
      | { v[0] } ==> v.stop,
        { err_rule("indexed", SECURITY, "%s indexed", mc_identifier(v)); }
      ;
    }
    """

    def test_rule_id_and_severity(self):
        code = (
            "int f(int *p) { take(p); return *p; }\n"
            "int g(int *p) { take(p); return p[0]; }\n"
        )
        result = run_checker(code, compile_metal(self.TEXT))
        assert [(r.message, r.rule_id, r.severity) for r in result.reports] == [
            ("p used", "take", "MINOR"),
            ("p indexed", "indexed", "SECURITY"),
        ]
        assert result.log.rule_counts("take") == (0, 1)

    def test_count_example_credits_the_origin(self):
        code = "int f(int *p) {\n take(p);\n drop(p);\n return 0;\n}\n"
        result = run_checker(code, compile_metal(self.TEXT))
        (site,) = result.log.examples["take"]
        assert site[1] == 2  # the take() call, not the drop()

    def test_unknown_severity_is_a_parse_error(self):
        with pytest.raises(MetalError):
            compile_metal("sm x { severity FATAL; start: { f() } ; }")


class TestSessionSignature:
    def test_two_texts_under_one_name_give_two_signatures(self, monkeypatch):
        before = session_signature(checker_names=["free"])
        assert session_signature(checker_names=["free"]) == before
        edited = read("free.metal").replace("double free", "twice freed")
        monkeypatch.setitem(
            ALL_CHECKERS, "free", lambda: compile_metal(edited, "free.metal")
        )
        assert session_signature(checker_names=["free"]) != before


class TestLocatedFailures:
    def _run(self, tmp_path, capsys, action):
        metal = tmp_path / "bad.metal"
        metal.write_text(
            "sm bad {\n"
            " state decl any_pointer v;\n"
            " start: { kfree(v) } ==> v.stop,\n"
            "    { %s }\n"
            " ;\n"
            "}\n" % action
        )
        src = tmp_path / "t.c"
        src.write_text("int f(int *p) { kfree(p); return 0; }\n")
        status = main(["--metal", str(metal), str(src)])
        return status, capsys.readouterr().err

    def test_too_few_format_arguments(self, tmp_path, capsys):
        status, err = self._run(
            tmp_path, capsys, 'err("%s %s", mc_identifier(v));'
        )
        assert status == 2
        assert "bad.metal:4:7: TypeError: not enough arguments" in err

    def test_division_by_zero(self, tmp_path, capsys):
        status, err = self._run(tmp_path, capsys, "err(1 / 0);")
        assert status == 2
        assert "bad.metal:4:13: ZeroDivisionError" in err

    def test_unknown_identifier(self, tmp_path, capsys):
        status, err = self._run(tmp_path, capsys, "err(mystery);")
        assert status == 2
        assert "bad.metal:4:11: unknown identifier 'mystery'" in err
        assert "<unknown>" not in err

    def test_registered_checker_fragments_are_located(self):
        ext = load("null.metal")
        (deref,) = [
            rule for rule in ext.transitions
            if rule.source.value == "null"
        ]
        callout = next(_callouts(deref.pattern))
        assert callout.source == "mc_is_deref_of ( mc_stmt , v )"

    def test_branch_callout_calls_the_library(self):
        # ``mc_is_branch(mc_stmt)``: a context function in call position
        # is called with its arguments, not evaluated bare first.
        code = "int f(int n) { int *p = kmalloc(n); if (p) return *p; return 0; }"
        assert messages(run_checker(code, ALL_CHECKERS["null"]())) == []
