"""False-path pruning tests (§8): value tracking, congruence closure,
branch evaluation, loop havoc -- plus hypothesis properties of the
union-find closure."""

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import messages, run_checker

from repro.checkers import free_checker
from repro.cfront.parser import parse_expression
from repro.engine.falsepath import PathConstraints, _Closure


def e(text):
    return parse_expression(text)


class TestAssignAndEvaluate:
    def test_constant_tracking(self):
        pc = PathConstraints()
        pc.assign(e("x"), e("10"))
        assert pc.evaluate(e("x == 10")) is True
        assert pc.evaluate(e("x == 11")) is False
        assert pc.evaluate(e("x")) is True

    def test_zero_is_false(self):
        pc = PathConstraints()
        pc.assign(e("x"), e("0"))
        assert pc.evaluate(e("x")) is False
        assert pc.evaluate(e("!x")) is True

    def test_unknown_is_none(self):
        pc = PathConstraints()
        assert pc.evaluate(e("x == 1")) is None
        assert pc.evaluate(e("x")) is None

    def test_expression_evaluation(self):
        # §8 step 2: "If we know that x is 10, then we will assign y 11."
        pc = PathConstraints()
        pc.assign(e("x"), e("10"))
        pc.assign(e("y"), e("x + 1"))
        assert pc.evaluate(e("y == 11")) is True

    def test_opaque_expression_stored(self):
        # "If we know nothing about x, we store the entire expression."
        pc = PathConstraints()
        pc.assign(e("y"), e("x + 1"))
        pc.assign(e("z"), e("x + 1"))
        assert pc.evaluate(e("y == z")) is True

    def test_renaming_on_assignment(self):
        # §8 step 1: "we assign a new name to that variable so that
        # different definitions of the variable are not confused."
        pc = PathConstraints()
        pc.assign(e("x"), e("1"))
        pc.assign(e("y"), e("x"))
        pc.assign(e("x"), e("2"))
        assert pc.evaluate(e("y == 1")) is True
        assert pc.evaluate(e("x == 2")) is True
        assert pc.evaluate(e("x == y")) is False

    def test_copy_propagation(self):
        pc = PathConstraints()
        pc.assign(e("y"), e("x"))
        assert pc.evaluate(e("y == x")) is True

    def test_compound_lvalue_versions(self):
        pc = PathConstraints()
        pc.assume(e("s->len == 4"), True)
        assert pc.evaluate(e("s->len == 4")) is True
        pc.assign(e("s->len"), e("somecall()"))
        assert pc.evaluate(e("s->len == 4")) is None


class TestAssume:
    def test_fig2_contradiction(self):
        # if(x) then-branch: x != 0; later if(!x) must be false.
        pc = PathConstraints()
        pc.assume(e("x"), True)
        assert pc.evaluate(e("!x")) is False
        assert pc.evaluate(e("x")) is True

    def test_fig2_false_branch(self):
        pc = PathConstraints()
        pc.assume(e("x"), False)
        assert pc.evaluate(e("!x")) is True

    def test_equality_assume(self):
        pc = PathConstraints()
        pc.assume(e("x == y"), True)
        pc.assign(e("z"), e("x"))
        assert pc.evaluate(e("z == y")) is True

    def test_disequality(self):
        pc = PathConstraints()
        pc.assume(e("x != y"), True)
        assert pc.evaluate(e("x == y")) is False

    def test_relational_true_branch(self):
        # "If we see the statement (x < y), we record that x < y holds
        # along the true branch and x >= y holds along the false branch."
        pc = PathConstraints()
        pc.assume(e("x < y"), True)
        assert pc.evaluate(e("x < y")) is True
        assert pc.evaluate(e("x >= y")) is False
        assert pc.evaluate(e("x == y")) is False

    def test_relational_false_branch(self):
        pc = PathConstraints()
        pc.assume(e("x < y"), False)
        assert pc.evaluate(e("x >= y")) is True
        assert pc.evaluate(e("x < y")) is False

    def test_transitivity_through_classes(self):
        # §8 step 4: "if x < y holds, then everything in x's equivalence
        # class is smaller than everything in y's equivalence class."
        pc = PathConstraints()
        pc.assume(e("a == x"), True)
        pc.assume(e("b == y"), True)
        pc.assume(e("x < y"), True)
        assert pc.evaluate(e("a < b")) is True

    def test_transitive_chain(self):
        pc = PathConstraints()
        pc.assume(e("a < b"), True)
        pc.assume(e("b < c"), True)
        assert pc.evaluate(e("a < c")) is True
        assert pc.evaluate(e("c <= a")) is False

    def test_le_then_lt(self):
        pc = PathConstraints()
        pc.assume(e("a <= b"), True)
        pc.assume(e("b < c"), True)
        assert pc.evaluate(e("a < c")) is True
        assert pc.evaluate(e("a <= c")) is True

    def test_le_only_not_strict(self):
        pc = PathConstraints()
        pc.assume(e("a <= b"), True)
        assert pc.evaluate(e("a < b")) is None
        assert pc.evaluate(e("a <= b")) is True

    def test_implicit_constant_ordering(self):
        # n > 10 and n < 5 contradict through the constants themselves.
        pc = PathConstraints()
        pc.assume(e("n > 10"), True)
        assert pc.evaluate(e("n < 5")) is False
        assert pc.evaluate(e("n > 3")) is True

    def test_constant_chain_through_variables(self):
        pc = PathConstraints()
        pc.assume(e("a < 3"), True)
        pc.assume(e("b > 7"), True)
        assert pc.evaluate(e("a < b")) is True
        assert pc.evaluate(e("b <= a")) is False

    def test_bound_does_not_overreach(self):
        pc = PathConstraints()
        pc.assume(e("n > 10"), True)
        # n vs 20 is genuinely unknown
        assert pc.evaluate(e("n < 20")) is None
        assert pc.evaluate(e("n > 20")) is None

    def test_and_decomposition(self):
        pc = PathConstraints()
        pc.assume(e("x == 1 && y == 2"), True)
        assert pc.evaluate(e("x == 1")) is True
        assert pc.evaluate(e("y == 2")) is True

    def test_or_false_decomposition(self):
        pc = PathConstraints()
        pc.assume(e("x == 1 || y == 2"), False)
        assert pc.evaluate(e("x == 1")) is False
        assert pc.evaluate(e("y == 2")) is False

    def test_contradiction_detected(self):
        pc = PathConstraints()
        pc.assume(e("x == 1"), True)
        pc.assume(e("x == 2"), True)
        assert pc.infeasible

    def test_diseq_union_contradiction(self):
        pc = PathConstraints()
        pc.assume(e("x != y"), True)
        pc.assume(e("x == y"), True)
        assert pc.infeasible


class TestHavoc:
    def test_havoc_forgets(self):
        # §8 step 3: variables defined in a loop become unknown.
        pc = PathConstraints()
        pc.assign(e("x"), e("1"))
        pc.havoc(["x"])
        assert pc.evaluate(e("x == 1")) is None

    def test_havoc_is_selective(self):
        pc = PathConstraints()
        pc.assign(e("x"), e("1"))
        pc.assign(e("y"), e("2"))
        pc.havoc(["x"])
        assert pc.evaluate(e("y == 2")) is True


class TestCopySemantics:
    def test_copies_are_independent(self):
        pc = PathConstraints()
        pc.assume(e("x == 1"), True)
        fork = pc.copy()
        fork.assume(e("y == 2"), True)
        assert pc.evaluate(e("y == 2")) is None
        assert fork.evaluate(e("x == 1")) is True

    def test_constant_folding_in_closure(self):
        pc = PathConstraints()
        pc.assign(e("x"), e("3"))
        pc.assign(e("y"), e("x * 2 + 1"))
        assert pc.evaluate(e("y == 7")) is True

    def test_commutative_canonicalization(self):
        pc = PathConstraints()
        pc.assign(e("s"), e("a + b"))
        pc.assign(e("t"), e("b + a"))
        assert pc.evaluate(e("s == t")) is True


class TestClosureProperties:
    """Hypothesis: the congruence closure is a sound union-find."""

    @given(
        st.lists(
            st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=20
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_union_find_equivalence(self, unions):
        closure = _Closure()
        keys = [("v", "x%d" % i, 0) for i in range(7)]
        for key in keys:
            closure.fresh(key)
        # Model with naive sets.
        groups = {i: {i} for i in range(7)}
        for a, b in unions:
            closure.union(keys[a], keys[b])
            ga, gb = groups[a], groups[b]
            if ga is not gb:
                merged = ga | gb
                for member in merged:
                    groups[member] = merged
        for i in range(7):
            for j in range(7):
                expected = j in groups[i]
                assert closure.are_equal(keys[i], keys[j]) == expected

    @given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_congruence_lifts_equalities(self, unions):
        # If x == y then f(x) == f(y) for composite terms built afterwards.
        closure = _Closure()
        keys = [("v", "x%d" % i, 0) for i in range(6)]
        for key in keys:
            closure.fresh(key)
        for a, b in unions:
            closure.union(keys[a], keys[b])
        for a, b in unions:
            fa = closure.composite("f", [keys[a]])
            fb = closure.composite("f", [keys[b]])
            assert closure.are_equal(fa, fb)

    @given(st.permutations(list(range(5))), st.integers(0, 4))
    @settings(max_examples=50, deadline=None)
    def test_constants_never_merge(self, order, pivot):
        closure = _Closure()
        consts = [closure.const_key(i) for i in order]
        # Union a variable into one constant class; other constants stay
        # distinct and a second union flags infeasibility.
        var = closure.fresh(("v", "x", 0))
        closure.union(var, consts[pivot])
        other = consts[(pivot + 1) % len(consts)]
        closure.union(var, other)
        assert closure.infeasible


class TestHypothesisStraightLine:
    """Property: after a chain of constant assignments, evaluate() agrees
    with a Python interpreter of the same straight-line program."""

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["x", "y", "z"]),
                st.sampled_from(["const", "copy", "add"]),
                st.integers(-50, 50),
                st.sampled_from(["x", "y", "z"]),
            ),
            min_size=1,
            max_size=15,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_interpreter(self, program):
        pc = PathConstraints()
        env = {}
        for target, kind, value, source in program:
            if kind == "const":
                pc.assign(e(target), e(str(value)))
                env[target] = value
            elif kind == "copy":
                pc.assign(e(target), e(source))
                env[target] = env.get(source)
            else:
                pc.assign(e(target), parse_expression("%s + %d" % (source, value)))
                env[target] = (
                    env[source] + value if env.get(source) is not None else None
                )
        for name in ("x", "y", "z"):
            if env.get(name) is not None:
                verdict = pc.evaluate(parse_expression("%s == %d" % (name, env[name])))
                assert verdict is True
                verdict = pc.evaluate(
                    parse_expression("%s == %d" % (name, env[name] + 1))
                )
                assert verdict is False


class TestSwitchDefaultPruning:
    """The engine's ``default`` edge asserts the discriminant equals no
    integer case constant (BasicBlock.outcomes), as refine's does."""

    def test_known_discriminant_never_takes_default(self):
        code = (
            "int f(int *p) {\n"
            "    int x = 1;\n"
            "    kfree(p);\n"
            "    switch (x) {\n"
            "    case 1:\n"
            "        return 0;\n"
            "    default:\n"
            "        return *p;\n"
            "    }\n"
            "}\n"
        )
        assert messages(run_checker(code, free_checker())) == []

    def test_default_refutes_a_case_constant(self):
        code = (
            "int f(int *p, int y) {\n"
            "    kfree(p);\n"
            "    switch (y) {\n"
            "    case 1:\n"
            "        return 0;\n"
            "    default:\n"
            "        if (y == %d)\n"
            "            return *p;\n"
            "        return 0;\n"
            "    }\n"
            "}\n"
        )
        assert messages(run_checker(code % 1, free_checker())) == []
        # Any other value stays possible under default.
        assert messages(run_checker(code % 2, free_checker())) == [
            "using p after free!"
        ]
