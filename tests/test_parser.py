"""Unit tests for the C parser."""

import json
import os

import pytest

from repro.cfront import astnodes as ast
from repro.cfront import types as ctypes
from repro.cfront.lexer import EOF, KEYWORD, tokenize
from repro.cfront.parser import (
    LOOKAHEAD,
    MAX_NESTING,
    Parser,
    parse,
    parse_expression,
    parse_statement,
)
from repro.cfront.source import LexError, ParseError, SourceError
from repro.checkers import metal as metal_checkers
from repro.codegen.generator import generate_kernel_module
from repro.metal.language import MetalParser

METAL_DIR = os.path.dirname(metal_checkers.__file__)


class TestExpressions:
    def test_precedence(self):
        expr = parse_expression("1 + 2 * 3")
        assert isinstance(expr, ast.Binary) and expr.op == "+"
        assert isinstance(expr.right, ast.Binary) and expr.right.op == "*"

    def test_associativity(self):
        expr = parse_expression("1 - 2 - 3")
        assert expr.op == "-"
        assert isinstance(expr.left, ast.Binary)
        assert expr.right.value == 3

    def test_assignment_right_assoc(self):
        expr = parse_expression("a = b = 1")
        assert isinstance(expr, ast.Assign)
        assert isinstance(expr.value, ast.Assign)

    def test_compound_assign(self):
        expr = parse_expression("a += 2")
        assert isinstance(expr, ast.Assign) and expr.op == "+="

    def test_ternary(self):
        expr = parse_expression("a ? b : c ? d : e")
        assert isinstance(expr, ast.Conditional)
        assert isinstance(expr.otherwise, ast.Conditional)

    def test_unary_chain(self):
        expr = parse_expression("!*p")
        assert expr.op == "!"
        assert expr.operand.op == "*"

    def test_postfix_vs_prefix(self):
        post = parse_expression("p++")
        pre = parse_expression("++p")
        assert post.postfix and not pre.postfix

    def test_call_args(self):
        expr = parse_expression("f(a, b + 1, g(c))")
        assert isinstance(expr, ast.Call)
        assert len(expr.args) == 3
        assert expr.callee_name() == "f"

    def test_member_chain(self):
        expr = parse_expression("a->b.c")
        assert isinstance(expr, ast.Member)
        assert expr.name == "c" and not expr.arrow
        assert expr.obj.name == "b" and expr.obj.arrow

    def test_index(self):
        expr = parse_expression("a[i][j]")
        assert isinstance(expr, ast.Index)
        assert isinstance(expr.array, ast.Index)

    def test_comma(self):
        expr = parse_expression("a, b, c")
        assert isinstance(expr, ast.Comma)

    def test_comma_not_in_args(self):
        expr = parse_expression("f((a, b), c)")
        assert len(expr.args) == 2
        assert isinstance(expr.args[0], ast.Comma)

    def test_sizeof_expr(self):
        expr = parse_expression("sizeof x")
        assert isinstance(expr, ast.SizeofExpr)

    def test_sizeof_type(self):
        expr = parse_expression("sizeof(int *)")
        assert isinstance(expr, ast.SizeofType)
        assert expr.of_type.is_pointer()

    def test_cast(self):
        expr = parse_expression("(char *)p")
        assert isinstance(expr, ast.Cast)
        assert expr.to_type == ctypes.PointerType(ctypes.CHAR)

    def test_paren_not_cast(self):
        expr = parse_expression("(a)(b)")
        assert isinstance(expr, ast.Call)

    def test_string_concatenation(self):
        expr = parse_expression('"ab" "cd"')
        assert expr.value == "abcd"

    def test_trailing_tokens_rejected(self):
        with pytest.raises(ParseError):
            parse_expression("a b")


class TestStatements:
    def test_if_else_binding(self):
        stmt = parse_statement("if (a) if (b) x = 1; else x = 2;")
        assert stmt.otherwise is None
        assert stmt.then.otherwise is not None

    def test_while(self):
        stmt = parse_statement("while (x) x--;")
        assert isinstance(stmt, ast.While)

    def test_do_while(self):
        stmt = parse_statement("do x--; while (x);")
        assert isinstance(stmt, ast.DoWhile)

    def test_for_with_decl(self):
        stmt = parse_statement("for (int i = 0; i < 10; i++) f(i);")
        assert isinstance(stmt, ast.For)
        assert isinstance(stmt.init, ast.Compound)

    def test_for_empty_clauses(self):
        stmt = parse_statement("for (;;) break;")
        assert stmt.init is None and stmt.cond is None and stmt.step is None

    def test_switch(self):
        stmt = parse_statement(
            "switch (x) { case 1: f(); break; default: g(); }"
        )
        assert isinstance(stmt, ast.Switch)

    def test_goto_and_label(self):
        stmt = parse_statement("{ goto out; out: return; }")
        kinds = [type(i).__name__ for i in stmt.items]
        assert kinds == ["Goto", "Label"]

    def test_return_value(self):
        stmt = parse_statement("return x + 1;")
        assert isinstance(stmt.expr, ast.Binary)

    def test_empty_statement(self):
        assert isinstance(parse_statement(";"), ast.EmptyStmt)


class TestDeclarations:
    def test_multi_declarator(self):
        unit = parse("int a, *b, c[4];")
        names = [(d.name, type(d.ctype).__name__) for d in unit.decls]
        assert names == [
            ("a", "BasicType"),
            ("b", "PointerType"),
            ("c", "ArrayType"),
        ]

    def test_function_pointer(self):
        unit = parse("int (*handler)(int, char *);")
        decl = unit.decls[0]
        resolved = decl.ctype
        assert isinstance(resolved, ctypes.PointerType)
        assert resolved.target.is_function()

    def test_two_dimensional_array_order(self):
        unit = parse("int a[2][3];")
        arr = unit.decls[0].ctype
        assert isinstance(arr, ctypes.ArrayType)
        assert isinstance(arr.element, ctypes.ArrayType)
        assert arr.size.value == 2
        assert arr.element.size.value == 3

    def test_typedef(self):
        unit = parse("typedef unsigned long size_t; size_t n;")
        assert isinstance(unit.decls[0], ast.TypedefDecl)
        var = unit.decls[1]
        assert var.ctype.resolve() == ctypes.UNSIGNED_LONG

    def test_typedef_pointer(self):
        unit = parse("typedef struct foo *foo_t; foo_t p;")
        assert unit.decls[1].ctype.is_pointer()

    def test_struct_definition(self):
        unit = parse("struct s { int a; char *b; };")
        record = unit.decls[0].record_type
        assert record.field_type("a") == ctypes.INT
        assert record.field_type("b") == ctypes.PointerType(ctypes.CHAR)

    def test_struct_self_reference(self):
        unit = parse("struct node { int v; struct node *next; };")
        record = unit.decls[0].record_type
        next_type = record.field_type("next")
        assert isinstance(next_type, ctypes.PointerType)
        assert next_type.target is record

    def test_union(self):
        unit = parse("union u { int i; float f; };")
        assert unit.decls[0].record_type.kind == "union"

    def test_enum_values(self):
        unit = parse("enum e { A, B = 5, C };")
        enum = unit.decls[0].enum_type
        assert enum.enumerators == (("A", 0), ("B", 5), ("C", 6))

    def test_enum_constant_in_expression(self):
        unit = parse("enum e { K = 3 }; int x[K + 1];")
        # parses without error; K folds inside the size expression
        assert unit.decls[1].name == "x"

    def test_static_storage(self):
        unit = parse("static int x; extern int y;")
        assert unit.decls[0].storage == "static"
        assert unit.decls[1].storage == "extern"

    def test_prototype_and_definition(self):
        unit = parse("int f(int a); int f(int a) { return a; }")
        protos = [d for d in unit.decls if isinstance(d, ast.FunctionDecl)]
        assert not protos[0].is_definition
        assert protos[1].is_definition
        assert unit.functions() == [protos[1]]

    def test_varargs_function(self):
        unit = parse("int printf(const char *fmt, ...);")
        assert unit.decls[0].varargs

    def test_void_params(self):
        unit = parse("int f(void) { return 0; }")
        assert unit.decls[0].params == []

    def test_bitfields(self):
        unit = parse("struct s { int a : 3; int b : 5; };")
        record = unit.decls[0].record_type
        assert [name for name, __ in record.fields] == ["a", "b"]

    def test_initializer_list(self):
        unit = parse("int a[3] = {1, 2, 3};")
        assert isinstance(unit.decls[0].init, ast.InitList)


class TestGccExtensions:
    """Kernel code is saturated with __attribute__ and friends; the parser
    tolerates and drops them."""

    def test_attribute_on_function(self):
        unit = parse("int f(void) __attribute__((noreturn));")
        assert unit.decls[0].name == "f"

    def test_attribute_on_struct(self):
        unit = parse("struct s { int x; } __attribute__((packed));")
        assert isinstance(unit.decls[0], ast.RecordDecl)

    def test_inline_variants(self):
        unit = parse(
            "static __inline__ int add(int a, int b) { return a + b; }"
        )
        assert unit.functions()[0].name == "add"

    def test_extension_typedef(self):
        unit = parse("__extension__ typedef unsigned long long u64; u64 x;")
        assert unit.decls[1].name == "x"

    def test_restrict_pointer(self):
        unit = parse("int * __restrict__ p;")
        assert unit.decls[0].ctype.is_pointer()

    def test_nested_attribute_parens(self):
        unit = parse(
            'int f(void) __attribute__((alias("real_f"), aligned(8)));'
        )
        assert unit.decls[0].name == "f"


class TestTypeInference:
    def test_param_type(self):
        unit = parse("int f(int *p) { return *p; }")
        body = unit.decls[0].body
        ret = body.items[0]
        assert ret.expr.ctype == ctypes.INT
        assert ret.expr.operand.ctype == ctypes.PointerType(ctypes.INT)

    def test_member_type(self):
        unit = parse(
            "struct s { char *name; };\n"
            "char *f(struct s *p) { return p->name; }"
        )
        ret = unit.decls[1].body.items[0]
        assert ret.expr.ctype == ctypes.PointerType(ctypes.CHAR)

    def test_call_return_type(self):
        unit = parse("int g(void); int f(void) { return g(); }")
        ret = unit.decls[1].body.items[0]
        assert ret.expr.ctype == ctypes.INT

    def test_unknown_call_type_is_none(self):
        unit = parse("int f(void) { return mystery(); }")
        ret = unit.decls[0].body.items[0]
        assert ret.expr.ctype is None

    def test_pointer_arithmetic_keeps_pointer(self):
        unit = parse("char *f(char *p) { return p + 1; }")
        ret = unit.decls[0].body.items[0]
        assert ret.expr.ctype.is_pointer()

    def test_comparison_is_int(self):
        expr = parse_expression("a < b")
        assert expr.ctype == ctypes.INT

    def test_address_of(self):
        unit = parse("int f(int x) { return &x != 0; }")
        # no crash; &x typed as int*
        cond = unit.decls[0].body.items[0].expr
        assert cond.left.ctype == ctypes.PointerType(ctypes.INT)


class TestExecutionOrder:
    def test_assignment_rhs_first(self):
        expr = parse_expression("a = f(b)")
        order = list(ast.execution_order(expr))
        names = [type(n).__name__ for n in order]
        # b, f, call, a, assign
        assert names == ["Ident", "Ident", "Call", "Ident", "Assign"]
        assert order[0].name == "b"
        assert order[3].name == "a"

    def test_call_args_before_call(self):
        expr = parse_expression("f(g(x), y)")
        order = list(ast.execution_order(expr))
        call_positions = [i for i, n in enumerate(order) if isinstance(n, ast.Call)]
        # inner call before outer call; outer call is last
        assert call_positions[-1] == len(order) - 1


class TestStructuralEquality:
    def test_equal_trees(self):
        a = parse_expression("x[i] + f(1)")
        b = parse_expression("x[i] + f(1)")
        assert ast.structurally_equal(a, b)
        assert ast.structural_key(a) == ast.structural_key(b)

    def test_different_trees(self):
        a = parse_expression("x[i]")
        b = parse_expression("x[j]")
        assert not ast.structurally_equal(a, b)

    def test_spacing_irrelevant(self):
        a = parse_expression("f( a,b )")
        b = parse_expression("f(a, b)")
        assert ast.structurally_equal(a, b)

    def test_identity_equality_for_nodes(self):
        a = parse_expression("x")
        b = parse_expression("x")
        assert a != b or a is b  # nodes compare by identity
        assert ast.structurally_equal(a, b)


#: Three times past the parser's nesting bound.
DEEP = 3 * MAX_NESTING


class TestMalformedInputDiagnostics:
    """Malformed constants and an unterminated ``#if`` exit 2 with a
    ``file:line:col`` diagnostic, not a Python traceback."""

    @pytest.mark.parametrize("text, where, message", [
        ("int f(void) { return 0x; }\n", "t.c:1:22:",
         "invalid integer constant '0x'"),
        ("int x = 09;\n", "t.c:1:9:", "invalid integer constant '09'"),
        ("int x = '';\n", "t.c:1:9:", "empty character constant"),
        ("int a;\n#if 1\nint x;\n", "t.c:2:2:", "unterminated conditional"),
        ("double d = 1.\u00b2;\n", "t.c:1:12:",
         "invalid floating constant '1.\u00b2'"),
        ('char *s = "\\xFFFFFFFFF";\n', "t.c:1:11:",
         "hex escape \\xFFFFFFFFF out of range"),
        ("int a;\n#define F(a,\n", "t.c:2:9:",
         "malformed macro parameter list for 'F'"),
        ("int a;\n#if 1 << 64\n#endif\n", "t.c:2:7:",
         "shift count 64 out of range in #if expression"),
        ("int a;\n#if 1 / 0 == 0\n#endif\n", "t.c:2:7:",
         "division by zero in #if expression"),
        ("int x = " + "(" * 30000 + "1" + ")" * 30000 + ";\n", "t.c:1:1010:",
         "nesting deeper than 1000 levels"),
    ], ids=["hex-without-digits", "octal-with-nine", "empty-char",
            "unterminated-if", "non-ascii-digit-in-float",
            "hex-escape-out-of-range", "unclosed-macro-parameters",
            "if-shift-out-of-range", "if-division-by-zero",
            "parentheses-past-the-nesting-bound"])
    def test_cli_reports_a_source_location(self, tmp_path, capsys,
                                           monkeypatch, text, where,
                                           message):
        from repro.driver.cli import main

        monkeypatch.chdir(tmp_path)
        (tmp_path / "t.c").write_text(text)
        assert main(["--checker", "free", "t.c"]) == 2
        err = capsys.readouterr().err
        assert "%s %s" % (where, message) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_invalid_utf8_is_a_located_diagnostic(self, tmp_path, capsys,
                                                  monkeypatch, jobs):
        from repro.driver.cli import main

        monkeypatch.chdir(tmp_path)
        (tmp_path / "bad.c").write_bytes(b"int g;\n\xff\n")
        (tmp_path / "ok.c").write_text("int h;\n")
        argv = ["--checker", "free", "--jobs", jobs, "bad.c", "ok.c"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "xgcc: bad.c:2:1: invalid UTF-8 byte 0xff" in err
        assert "Traceback" not in err
        stats = str(tmp_path / "stats.json")
        assert main(argv + ["--keep-going", "--stats-json", stats]) == 0
        with open(stats) as handle:
            document = json.load(handle)
        units = [entry for entry in document["degradations"]
                 if entry["kind"] == "unit"]
        assert len(units) == 1 and "bad.c" in units[0]["detail"]

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_invalid_utf8_header_is_a_located_diagnostic(
            self, tmp_path, capsys, monkeypatch, jobs):
        # A header that exists but does not decode is not a missing
        # include, cold or behind a warm dependency record.
        from repro.driver.cli import main

        monkeypatch.chdir(tmp_path)
        (tmp_path / "bad.h").write_text("int g;\n")
        (tmp_path / "m.c").write_text('#include "bad.h"\nint x;\n')
        argv = ["--checker", "free", "--jobs", jobs, "m.c"]
        assert main(argv + ["--cache-dir", "cache"]) == 0
        (tmp_path / "bad.h").write_bytes(b"int g;\n\xff\n")
        for extra in ([], ["--cache-dir", "cache"]):
            capsys.readouterr()
            assert main(argv + extra) == 2
            err = capsys.readouterr().err
            assert "xgcc: bad.h:2:1: invalid UTF-8 byte 0xff" in err
            assert "cannot find include file" not in err
            assert "Traceback" not in err

    @pytest.mark.parametrize("text", [
        "int x = %s1%s;" % ("(" * DEEP, ")" * DEEP),
        "int f(int a) { return %sa; }" % ("- " * DEEP),
        "int f(int a) { return %sa; }" % ("(int)" * DEEP),
        "int f(int a) { a%s; }" % (" = a" * DEEP),
        "int f(int a) { return a%s; }" % (" ? a : a" * DEEP),
        "int f(int a) { return %sa%s; }" % ("f(" * DEEP, ")" * DEEP),
        "int f(int *a) { return %s0%s; }" % ("a[" * DEEP, "]" * DEEP),
        "int x[] = %s1%s;" % ("{" * DEEP, "}" * DEEP),
        "void f(void) %s%s" % ("{" * DEEP, "}" * DEEP),
        "struct s %s int x; %s;" % ("{ struct t" * DEEP, "} y;" * DEEP),
        "int %sx%s;" % ("(" * DEEP, ")" * DEEP),
    ], ids=["parentheses", "prefix-operators", "casts", "assignments",
            "conditionals", "calls", "subscripts", "initializers", "blocks",
            "structs", "declarators"])
    def test_nesting_past_the_bound_is_a_located_parse_error(self, text):
        with pytest.raises(ParseError) as info:
            parse(text, "deep.c")
        assert "nesting deeper than %d levels" % MAX_NESTING in str(info.value)
        assert info.value.location.filename == "deep.c"
        assert info.value.location.line == 1

    def test_nesting_at_the_bound_parses(self):
        depth = MAX_NESTING - 1
        unit = parse("int x = %s1%s;" % ("(" * depth, ")" * depth))
        assert len(unit.decls) == 1

    def test_out_of_range_shift_is_not_a_constant(self):
        parser = Parser("enum { A = 1 << -1, B, C = 1 << 64, D = 1 << 3 };\n")
        parser.parse_translation_unit()
        assert parser.enum_constants == {"A": 0, "B": 1, "C": 2, "D": 8}


DATA = os.path.join(os.path.dirname(__file__), "data")


def _cuts(text):
    """Every prefix of ``text`` that ends at a token boundary: before each
    token, and the whole text."""
    lines = text.splitlines(True)
    starts = [0]
    for line in lines:
        starts.append(starts[-1] + len(line))
    cuts = [starts[token.location.line - 1] + token.location.column - 1
            for token in tokenize(text)]
    return sorted(set(cuts))


class TestEndOfInput:
    """The parsers look past the current token through EOF sentinels
    (:data:`LOOKAHEAD` of them): every prefix of real input either
    parses or is a located diagnostic, never an ``IndexError``."""

    SOURCES = sorted(
        name for name in os.listdir(DATA)
        if name.startswith("torture_") and name.endswith(".c")
    )

    @pytest.mark.parametrize("name", SOURCES + ["module"])
    def test_every_token_boundary_prefix(self, name):
        if name == "module":
            text = generate_kernel_module(seed=1, n_functions=6).source
        else:
            with open(os.path.join(DATA, name)) as handle:
                text = handle.read()
        for cut in _cuts(text):
            try:
                parse(text[:cut], name)
            except (ParseError, LexError) as err:
                assert err.location.filename == name
                assert err.location.line >= 1

    @pytest.mark.parametrize("text", [
        "int f(void) { x",
        "int f(void) { x:",
        "(int",
        "int f(void) { return (int",
        "int f(void) { return sizeof (int",
        "a ? b",
        "int f(void) { return a ? b",
        "__attribute__((",
        "int x __attribute__((",
        "int (",
        "int (f",
        "int (*",
        "int f(void",
        "int f(",
        "struct s {",
        "int f(void) { goto",
        "int f(void) { return f(a,",
        "int f(void) { return p->",
        'int f(void) { return "a" "b"',
    ])
    def test_prefixes_that_look_ahead_at_the_end(self, text):
        with pytest.raises(ParseError) as info:
            parse(text, "cut.c")
        assert info.value.location.filename == "cut.c"

    @pytest.mark.parametrize("name", sorted(
        name for name in os.listdir(METAL_DIR) if name.endswith(".metal")))
    def test_every_metal_token_boundary_prefix(self, name):
        with open(os.path.join(METAL_DIR, name)) as handle:
            text = handle.read()
        for cut in _cuts(text):
            try:
                MetalParser(text[:cut], name).parse()
            except SourceError as err:
                assert err.location.filename == name
                assert err.location.line >= 1

    def test_padding_never_runs_out(self):
        # Two tokens past the current one is as far as the parser looks
        # (``_paren_is_declarator``); advancing stops at the EOF token.
        assert LOOKAHEAD >= 2
        parser = Parser("int")
        assert [parser.advance().kind for __ in range(4)] == [
            KEYWORD, EOF, EOF, EOF]
        assert parser.pos == parser.end
        assert [parser.peek(offset).kind for offset in range(3)] == [EOF] * 3
