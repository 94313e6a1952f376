"""Unit tests for the lightweight preprocessor."""

import pytest

from repro.cfront.preproc import Preprocessor, preprocess
from repro.cfront.source import PreprocessorError


def pp(text, **kwargs):
    return preprocess(text, **kwargs)


class TestObjectMacros:
    def test_simple_define(self):
        assert pp("#define N 10\nint x = N;") == "int x = 10 ;"

    def test_redefine(self):
        assert pp("#define N 1\n#define N 2\nint x = N;") == "int x = 2 ;"

    def test_undef(self):
        assert pp("#define N 1\n#undef N\nint x = N;") == "int x = N ;"

    def test_empty_body(self):
        assert pp("#define EMPTY\nint EMPTY x;") == "int x ;"

    def test_nested_expansion(self):
        assert pp("#define A B\n#define B 3\nint x = A;") == "int x = 3 ;"

    def test_self_reference_does_not_loop(self):
        assert pp("#define X X\nint X;") == "int X ;"


class TestFunctionMacros:
    def test_simple(self):
        assert pp("#define SQ(x) ((x)*(x))\nint y = SQ(3);") == (
            "int y = ( ( 3 ) * ( 3 ) ) ;"
        )

    def test_two_args(self):
        assert pp("#define ADD(a,b) (a+b)\nint y = ADD(1, 2);") == (
            "int y = ( 1 + 2 ) ;"
        )

    def test_nested_call_argument(self):
        out = pp("#define ID(x) x\nint y = ID(f(1, 2));")
        assert out == "int y = f ( 1 , 2 ) ;"

    def test_name_without_parens_is_plain(self):
        assert pp("#define F(x) x\nint F;") == "int F ;"

    def test_space_before_parens_makes_object_macro(self):
        # "#define F (x)" is object-like with body "(x)".
        assert pp("#define F (x)\nint y = F;") == "int y = ( x ) ;"

    def test_varargs(self):
        out = pp("#define LOG(fmt, ...) printf(fmt, __VA_ARGS__)\nLOG(\"x\", 1, 2);")
        assert out == 'printf ( "x" , 1 , 2 ) ;'

    def test_macro_in_macro_arg(self):
        out = pp("#define N 5\n#define ID(x) x\nint y = ID(N);")
        assert out == "int y = 5 ;"

    def test_stringize_rejected(self):
        with pytest.raises(PreprocessorError):
            pp('#define S(x) #x\nchar *s = S(hi);')


class TestConditionals:
    def test_ifdef_taken(self):
        assert pp("#define A\n#ifdef A\nint x;\n#endif") == "int x ;"

    def test_ifdef_not_taken(self):
        assert pp("#ifdef A\nint x;\n#endif") == ""

    def test_ifndef(self):
        assert pp("#ifndef A\nint x;\n#endif") == "int x ;"

    def test_else(self):
        assert pp("#ifdef A\nint x;\n#else\nint y;\n#endif") == "int y ;"

    def test_elif(self):
        src = "#define B 1\n#if defined(A)\nint x;\n#elif B\nint y;\n#else\nint z;\n#endif"
        assert pp(src) == "int y ;"

    def test_nested(self):
        src = "#define A\n#ifdef A\n#ifdef B\nint x;\n#else\nint y;\n#endif\n#endif"
        assert pp(src) == "int y ;"

    def test_inactive_region_ignores_bad_directives(self):
        src = "#ifdef NOPE\n#define X 1\n#endif\nint X;"
        assert pp(src) == "int X ;"

    def test_if_arithmetic(self):
        assert pp("#if 2 + 3 > 4\nint x;\n#endif") == "int x ;"
        assert pp("#if 2 + 3 > 5\nint x;\n#endif") == ""

    def test_if_ternary_and_logical(self):
        assert pp("#if (1 ? 4 : 5) == 4 && !0\nint x;\n#endif") == "int x ;"

    def test_undefined_identifier_is_zero(self):
        assert pp("#if FOO\nint x;\n#endif") == ""

    def test_unterminated_conditional(self):
        with pytest.raises(PreprocessorError):
            pp("#ifdef A\nint x;")

    def test_stray_endif(self):
        with pytest.raises(PreprocessorError):
            pp("#endif")

    def test_error_directive(self):
        with pytest.raises(PreprocessorError):
            pp("#error broken")

    def test_error_in_dead_branch_is_fine(self):
        assert pp("#ifdef NOPE\n#error broken\n#endif\nint x;") == "int x ;"


class TestIncludes:
    def test_include_from_reader(self):
        files = {"defs.h": "#define N 7\n"}

        def reader(path):
            return files[path]

        out = preprocess(
            '#include "defs.h"\nint x = N;', file_reader=reader
        )
        assert out == "int x = 7 ;"

    def test_include_once(self):
        files = {"h.h": "int counter;\n"}
        out = preprocess(
            '#include "h.h"\n#include "h.h"\n',
            file_reader=lambda p: files[p],
        )
        assert out == "int counter ;"

    def test_missing_quoted_include_raises(self):
        with pytest.raises(PreprocessorError):
            preprocess('#include "gone.h"\n', file_reader=lambda p: (_ for _ in ()).throw(OSError()))

    def test_missing_system_include_skipped(self):
        out = preprocess(
            "#include <linux/slab.h>\nint x;",
            file_reader=lambda p: (_ for _ in ()).throw(OSError()),
        )
        assert out == "int x ;"

    def test_pragma_ignored(self):
        assert pp("#pragma once\nint x;") == "int x ;"


class TestCommandLineDefines:
    def test_defines_param(self):
        p = Preprocessor(defines={"DEBUG": "1"})
        tokens = p.preprocess_text("#ifdef DEBUG\nint x;\n#endif")
        assert [t.value for t in tokens] == ["int", "x", ";"]


class TestMalformedDirectives:
    """Each malformed directive raises PreprocessorError on its own line
    (line 2 here), never an IndexError/ValueError or ``<unknown>:0:0``."""

    @pytest.mark.parametrize("directive", [
        "#define F(",
        "#define F(a",
        "#define F(a,",
        "#if defined",
        "#if defined(",
        "#if defined(X",
        "#if 1 << -1",
        "#if 1 << 64",
        "#if 1 >> 64",
        "#if 1 / 0 == 0",
        "#if 1 % 0",
        "#if -(2 / (1 - 1))",
        "#define",
        "#include",
        "#include <a.h",
        "#if 1 )",
        "#if 0 1",
        "#if",
        "#if (1",
    ])
    def test_raises_at_the_directive(self, directive):
        endif = "#endif\n" if directive.startswith("#if") else ""
        with pytest.raises(PreprocessorError) as info:
            pp("int x;\n%s\nint y;\n%s" % (directive, endif), filename="m.c")
        assert info.value.location.filename == "m.c"
        assert info.value.location.line == 2

    @pytest.mark.parametrize("condition", [
        "!(0 && (1 << 64))", "1 || (1 >> -1)", "0 ? 1 << 64 : 1",
        "1 ? 1 : 1 << 64", "!(1 && 0 && (1 << 99))",
        "!(0 && 1 / 0)", "1 || 1 % 0", "0 ? 1 / 0 : 1",
    ])
    def test_unevaluated_shifts_are_not_errors(self, condition):
        assert pp("#if %s\nint x;\n#endif" % condition) == "int x ;"

    @pytest.mark.parametrize("condition", [
        "-7 / 2 == -3", "7 / -2 == -3", "-7 / -2 == 3", "-7 % 2 == -1",
        "7 % -2 == 1", "-7 % -2 == -1", "7 / 2 == 3 && 7 % 2 == 1",
    ])
    def test_division_truncates_toward_zero(self, condition):
        # C99 6.5.5p6, as gcc -E evaluates it; Python would floor.
        assert pp("#if %s\nint x;\n#endif" % condition) == "int x ;"

    @pytest.mark.parametrize("condition", [
        "(" * 3000 + "1" + ")" * 3000, "!" * 3000 + "1", "- " * 3000 + "1",
    ], ids=["parentheses", "negations", "minus-signs"])
    def test_nesting_past_the_bound_is_located(self, condition):
        with pytest.raises(PreprocessorError, match="nests deeper") as info:
            pp("int x;\n#if %s\n#endif\n" % condition, filename="m.c")
        assert info.value.location.filename == "m.c"
        assert info.value.location.line == 2

    def test_deep_nesting_below_the_bound_evaluates(self):
        text = "#if " + "(" * 900 + "1" + ")" * 900 + "\nint x;\n#endif"
        assert pp(text) == "int x ;"

    @pytest.mark.parametrize("condition", [
        "!(0 & -1)", "(2 | -1) == -1", "(3 ^ -1) == -4", "3 + -1 == 2",
        "3 * -1 == -3", "3 - -1 == 4",
    ])
    def test_negative_operands_of_other_operators_evaluate(self, condition):
        # Only the operator's own value is computed: ``0 & -1`` once
        # raised "negative shift count" from an unused ``0 << -1``.
        assert pp("#if %s\nint x;\n#endif" % condition) == "int x ;"

    def test_shift_counts_in_range_still_evaluate(self):
        assert pp("#if (1 << 63) >> 63 == 1\nint x;\n#endif") == "int x ;"
        assert pp("#if 1 << 0\nint x;\n#endif") == "int x ;"

    def test_defined_forms_still_evaluate(self):
        text = "#define A\n#if defined(A) && defined A && !defined(B)\nint x;\n#endif"
        assert pp(text) == "int x ;"
