"""CFG construction, call graph, and supergraph tests."""

from repro.cfront import astnodes as ast
from repro.cfront.parser import parse
from repro.cfront.unparse import unparse
from repro.cfg import CallGraph, build_cfg, build_supergraph
from repro.cfg.blocks import ReturnMarker


def cfg_of(code, name=None):
    unit = parse(code)
    fns = unit.functions()
    decl = unit.function(name) if name else fns[0]
    return build_cfg(decl)


def edge_labels(block):
    return sorted(
        (repr(e.label), e.target.index) for e in block.edges
    )


class TestLinear:
    def test_straight_line(self):
        cfg = cfg_of("int f(int a) { a = a + 1; return a; }")
        entry = cfg.entry
        assert any(isinstance(i, ReturnMarker) for i in entry.items)
        assert entry.successor(None) is cfg.exit

    def test_declarations_in_blocks(self):
        cfg = cfg_of("int f(void) { int x = 1; return x; }")
        decls = [i for i in cfg.entry.items if isinstance(i, ast.VarDecl)]
        assert len(decls) == 1
        # initializer becomes an assignment item
        assigns = [i for i in cfg.entry.items if isinstance(i, ast.Assign)]
        assert len(assigns) == 1

    def test_local_names(self):
        cfg = cfg_of("int f(int a) { int b; { int c; } return a; }")
        assert cfg.local_names() == {"a", "b", "c"}


class TestBranches:
    def test_if_diamond(self):
        cfg = cfg_of("int f(int x) { if (x) x = 1; else x = 2; return x; }")
        branch = next(b for b in cfg.blocks if b.branch_cond is not None)
        labels = {e.label for e in branch.edges}
        assert labels == {True, False}

    def test_if_without_else_joins(self):
        cfg = cfg_of("int f(int x) { if (x) x = 1; return x; }")
        branch = next(b for b in cfg.blocks if b.branch_cond is not None)
        true_block = branch.successor(True)
        false_block = branch.successor(False)
        assert true_block is not false_block

    def test_negation_swaps_edges(self):
        cfg = cfg_of("int f(int x) { if (!x) return 1; return 2; }")
        branch = next(b for b in cfg.blocks if b.branch_cond is not None)
        # cond tree is the bare x; True edge leads to 'return 2'
        assert isinstance(branch.branch_cond, ast.Ident)

        def returns_reachable_from(start):
            seen, stack, out = set(), [start], []
            while stack:
                block = stack.pop()
                if block.index in seen:
                    continue
                seen.add(block.index)
                out.extend(
                    i.expr.value for i in block.items if isinstance(i, ReturnMarker)
                )
                stack.extend(e.target for e in block.edges)
            return out

        # True edge (x nonzero) reaches "return 2" only.
        assert returns_reachable_from(branch.successor(True)) == [2]
        assert returns_reachable_from(branch.successor(False)) == [1]

    def test_short_circuit_and(self):
        cfg = cfg_of("int f(int a, int b) { if (a && b) return 1; return 0; }")
        branches = [b for b in cfg.blocks if b.branch_cond is not None]
        assert len(branches) == 2  # one test per operand

    def test_short_circuit_or(self):
        cfg = cfg_of("int f(int a, int b) { if (a || b) return 1; return 0; }")
        branches = [b for b in cfg.blocks if b.branch_cond is not None]
        assert len(branches) == 2


class TestLoops:
    def test_while_back_edge(self):
        cfg = cfg_of("int f(int n) { while (n) n--; return n; }")
        header = next(b for b in cfg.blocks if b.branch_cond is not None)
        body = header.successor(True)
        assert any(e.target is header for e in body.edges)

    def test_loop_havoc_vars(self):
        cfg = cfg_of(
            "int f(int n) { int s = 0; while (n) { s += n; n--; } return s; }"
        )
        header = next(b for b in cfg.blocks if b.havoc_vars)
        assert header.havoc_vars == {"s", "n"}

    def test_for_havoc_includes_step(self):
        cfg = cfg_of("int f(int n) { int i; for (i = 0; i < n; i++) f(i); return i; }")
        header = next(b for b in cfg.blocks if b.havoc_vars)
        assert "i" in header.havoc_vars

    def test_break_exits_loop(self):
        cfg = cfg_of(
            "int f(int n) { while (1) { if (n) break; n++; } return n; }"
        )
        # some block jumps past the loop; the return must be reachable
        reachable = set()
        stack = [cfg.entry]
        while stack:
            b = stack.pop()
            if b.index in reachable:
                continue
            reachable.add(b.index)
            stack.extend(e.target for e in b.edges)
        assert cfg.exit.index in reachable

    def test_continue_targets_step(self):
        cfg = cfg_of(
            "int f(int n) { int i, s = 0;"
            " for (i = 0; i < n; i++) { if (i == 2) continue; s++; }"
            " return s; }"
        )
        assert cfg.exit.index in {b.index for b in cfg.blocks}

    def test_do_while(self):
        cfg = cfg_of("int f(int n) { do n--; while (n); return n; }")
        branch = next(b for b in cfg.blocks if b.branch_cond is not None)
        assert branch.successor(True) is not None


class TestSwitch:
    def test_case_edges(self):
        cfg = cfg_of(
            "int f(int x) { switch (x) { case 1: return 1; case 2: return 2;"
            " default: return 0; } }"
        )
        dispatch = next(b for b in cfg.blocks if b.switch_cond is not None)
        labels = [e.label for e in dispatch.edges]
        assert ("case", 1) in labels and ("case", 2) in labels
        assert "default" in labels

    def test_missing_default_falls_through(self):
        cfg = cfg_of("int f(int x) { switch (x) { case 1: x = 2; } return x; }")
        dispatch = next(b for b in cfg.blocks if b.switch_cond is not None)
        assert any(e.label == "default" for e in dispatch.edges)

    def test_fallthrough(self):
        cfg = cfg_of(
            "int f(int x) { int r = 0; switch (x) {"
            " case 1: r = 1; case 2: r += 2; break; } return r; }"
        )
        dispatch = next(b for b in cfg.blocks if b.switch_cond is not None)
        case1 = next(e.target for e in dispatch.edges if e.label == ("case", 1))
        case2 = next(e.target for e in dispatch.edges if e.label == ("case", 2))
        assert any(e.target is case2 for e in case1.edges)


class TestOutcomes:
    """BasicBlock.outcomes(): the facts each edge lets a path assume."""

    @staticmethod
    def facts_text(facts):
        return [(unparse(cond), truth) for cond, truth in facts]

    def test_branch_edges_assert_the_condition(self):
        cfg = cfg_of("int f(int x) { if (x > 1) return 1; return 0; }")
        branch = next(b for b in cfg.blocks if b.branch_cond is not None)
        outcomes = branch.outcomes()
        assert [edge.label for edge, __ in outcomes] == [True, False]
        for edge, facts in outcomes:
            assert facts == ((branch.branch_cond, edge.label),)

    def test_case_and_default_edges(self):
        cfg = cfg_of(
            "int f(int x) { switch (x) { case 1: return 1; case 2: return 2;"
            " default: return 0; } }"
        )
        dispatch = next(b for b in cfg.blocks if b.switch_cond is not None)
        by_label = {edge.label: self.facts_text(facts)
                    for edge, facts in dispatch.outcomes()}
        assert by_label == {
            ("case", 1): [("x == 1", True)],
            ("case", 2): [("x == 2", True)],
            "default": [("x == 1", False), ("x == 2", False)],
        }

    def test_non_integer_case_asserts_nothing(self):
        cfg = cfg_of(
            "enum color { RED, BLUE };\n"
            "int f(int x) { switch (x) { case RED: return 1; case 3: return 3;"
            " default: return 0; } }"
        )
        dispatch = next(b for b in cfg.blocks if b.switch_cond is not None)
        by_label = {edge.label: self.facts_text(facts)
                    for edge, facts in dispatch.outcomes()}
        assert by_label == {
            ("case", "RED"): [],
            ("case", 3): [("x == 3", True)],
            "default": [("x == 3", False)],
        }

    def test_implicit_default(self):
        cfg = cfg_of("int f(int x) { switch (x) { case 1: x = 2; } return x; }")
        dispatch = next(b for b in cfg.blocks if b.switch_cond is not None)
        default = [self.facts_text(facts) for edge, facts in dispatch.outcomes()
                   if edge.label == "default"]
        assert default == [[("x == 1", False)]]

    def test_plain_edge_asserts_nothing(self):
        cfg = cfg_of("int f(int a) { a = a + 1; return a; }")
        assert [(edge.target, facts) for edge, facts in cfg.entry.outcomes()] \
            == [(cfg.exit, ())]

    def test_exit_block_has_no_outcomes(self):
        cfg = cfg_of("int f(int a) { return a; }")
        assert cfg.exit.outcomes() == []


class TestGoto:
    def test_forward_goto(self):
        cfg = cfg_of(
            "int f(int x) { if (x) goto out; x = 1; out: return x; }"
        )
        assert cfg.exit.index in {b.index for b in cfg.blocks}

    def test_backward_goto_loop(self):
        cfg = cfg_of(
            "int f(int x) { top: x--; if (x) goto top; return x; }"
        )
        # backward goto creates a cycle; still builds and prunes fine
        assert len(cfg.blocks) > 2


class TestCallBlocks:
    def test_call_isolated(self):
        cfg = cfg_of("int f(int *p) { int a = 1; g(p); a = 2; return a; }")
        call_blocks = [b for b in cfg.blocks if b.is_call_block]
        assert len(call_blocks) == 1
        assert len(call_blocks[0].items) == 1

    def test_return_value_call(self):
        cfg = cfg_of("int f(void) { int x = g(); return x; }")
        assert any(b.is_call_block for b in cfg.blocks)


class TestCallGraph:
    CODE = """
    int leaf(int x) { return x; }
    int mid(int x) { return leaf(x) + leaf(x + 1); }
    int root_a(int x) { return mid(x); }
    int root_b(int x) { return leaf(x); }
    """

    def test_roots(self):
        cg = CallGraph.from_units([parse(self.CODE)])
        assert cg.roots() == ["root_a", "root_b"]

    def test_callers_callees(self):
        cg = CallGraph.from_units([parse(self.CODE)])
        assert cg.callees["mid"] == {"leaf"}
        assert cg.callers["leaf"] == {"mid", "root_b"}

    def test_recursion_broken(self):
        code = "int a(int x) { return b(x); } int b(int x) { return a(x); }"
        cg = CallGraph.from_units([parse(code)])
        roots = cg.roots()
        assert len(roots) == 1  # one arbitrary root breaks the cycle

    def test_self_recursion(self):
        code = "int f(int x) { return f(x - 1); }"
        cg = CallGraph.from_units([parse(code)])
        assert cg.roots() == ["f"]

    def test_topological_order(self):
        cg = CallGraph.from_units([parse(self.CODE)])
        order = cg.topological_order()
        assert order.index("leaf") < order.index("mid")
        assert order.index("mid") < order.index("root_a")


class TestSupergraph:
    def test_callsites(self, fig2_code):
        cg = CallGraph.from_units([parse(fig2_code, "fig2.c")])
        sg = build_supergraph(cg)
        assert len(sg.callsites) == 1
        site = sg.callsites[0]
        assert site.caller == "contrived_caller"
        assert site.callee_name == "contrived"
        assert site.return_block is site.call_block.successor(None)

    def test_matched_calls_excluded(self, fig2_code):
        cg = CallGraph.from_units([parse(fig2_code, "fig2.c")])
        sg = build_supergraph(
            cg, matched_call_filter=lambda call: call.callee_name() == "contrived"
        )
        assert sg.callsites == []

    def test_entry_exit_nodes(self, fig2_code):
        cg = CallGraph.from_units([parse(fig2_code, "fig2.c")])
        sg = build_supergraph(cg)
        assert sg.entry("contrived").index == 0
        assert sg.exit("contrived").is_exit
