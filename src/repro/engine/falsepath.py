"""False path pruning (§8): value tracking + congruence closure.

Implements the six steps from the paper:

1. track assignments and comparisons, renaming variables on assignment so
   different definitions are not confused;
2. evaluate expressions from known values, storing opaque expressions
   symbolically;
3. havoc variables defined in a loop at the loop head (avoids unrolling);
4. infer equalities through ``=``/``==``/``!=`` into congruence classes
   (Downey-Sethi-Tarjan style congruence closure [8]) and derive relations
   between classes from tracked inequalities;
5. at each branch, evaluate the condition against the known classes and
   relations and prune the impossible direction;
6. pruned paths are simply never traversed, so no summary entries are
   recorded for them (the retraction step is satisfied by construction;
   see DESIGN.md).

"Our algorithm is scalable because it does not track values or evaluate
branches too precisely" -- matching the paper, only scalar variables and
simple field/index expressions are tracked; everything else is opaque.
"""

from repro.cfront import astnodes as ast

_RELOPS = {"==", "!=", "<", ">", "<=", ">="}
_NEGATE = {"==": "!=", "!=": "==", "<": ">=", ">": "<=", "<=": ">", ">=": "<"}
_SWAP = {"<": ">", ">": "<", "<=": ">=", ">=": "<=", "==": "==", "!=": "!="}


class _Closure:
    """Union-find with congruence over composite terms."""

    def __init__(self):
        self.parent = {}
        self.consts = {}  # rep -> int value
        self.diseq = {}  # rep -> set of reps
        self.sig = {}  # (op, rep...) -> composite term key
        self.args_of = {}  # composite key -> (op, [term keys])
        self.infeasible = False

    def copy(self):
        clone = _Closure()
        clone.parent = dict(self.parent)
        clone.consts = dict(self.consts)
        clone.diseq = {k: set(v) for k, v in self.diseq.items()}
        clone.sig = dict(self.sig)
        clone.args_of = dict(self.args_of)
        clone.infeasible = self.infeasible
        return clone

    def find(self, key):
        root = key
        while self.parent.get(root, root) != root:
            root = self.parent[root]
        # Path compression.
        while self.parent.get(key, key) != root:
            self.parent[key], key = root, self.parent[key]
        return root

    def const_key(self, value):
        key = ("c", value)
        if key not in self.parent:
            self.parent[key] = key
            self.consts[key] = value
        return key

    def fresh(self, key):
        if key not in self.parent:
            self.parent[key] = key
        return key

    def composite(self, op, arg_keys):
        reps = tuple(self.find(a) for a in arg_keys)
        signature = (op,) + reps
        existing = self.sig.get(signature)
        if existing is not None:
            return existing
        key = ("t", op) + reps
        self.fresh(key)
        self.sig[signature] = key
        self.args_of[key] = (op, list(arg_keys))
        # Constant-fold when every argument class has a known constant.
        values = [self.consts.get(rep) for rep in reps]
        if all(v is not None for v in values):
            folded = _fold(op, values)
            if folded is not None:
                self.union(key, self.const_key(folded))
        return key

    def const_of(self, key):
        return self.consts.get(self.find(key))

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if rb in self.diseq.get(ra, ()):  # contradiction
            self.infeasible = True
            return
        ca, cb = self.consts.get(ra), self.consts.get(rb)
        if ca is not None and cb is not None and ca != cb:
            self.infeasible = True
            return
        self.parent[ra] = rb
        if ca is not None and cb is None:
            self.consts[rb] = ca
        # Merge disequality sets.
        if ra in self.diseq:
            self.diseq.setdefault(rb, set()).update(self.diseq.pop(ra))
        for other, enemies in self.diseq.items():
            if ra in enemies:
                enemies.discard(ra)
                enemies.add(rb)
        # Congruence: re-signature composites; any collision means two
        # composites became equal.  Stored signatures are always
        # canonical (this loop re-canonicalizes eagerly), so after
        # remapping ra -> rb the only signatures whose canonical form
        # changes are those mentioning ra, and the change is exactly the
        # substitution ra -> rb -- no find() calls needed.
        pending = []
        for signature, key in list(self.sig.items()):
            if ra not in signature:
                continue
            op = signature[0]
            reps = tuple(rb if r == ra else r for r in signature[1:])
            new_signature = (op,) + reps
            del self.sig[signature]
            existing = self.sig.get(new_signature)
            if existing is not None and self.find(existing) != self.find(key):
                pending.append((existing, key))
            else:
                self.sig[new_signature] = key
        for x, y in pending:
            self.union(x, y)

    def assert_diseq(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            self.infeasible = True
            return
        self.diseq.setdefault(ra, set()).add(rb)
        self.diseq.setdefault(rb, set()).add(ra)

    def are_equal(self, a, b):
        return self.find(a) == self.find(b)

    def are_diseq(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if rb in self.diseq.get(ra, ()):
            return True
        ca, cb = self.consts.get(ra), self.consts.get(rb)
        return ca is not None and cb is not None and ca != cb


def _fold(op, values):
    try:
        if op == "+":
            return sum(values)
        if op == "-":
            return values[0] - values[1]
        if op == "*":
            result = 1
            for v in values:
                result *= v
            return result
        if op == "/":
            return values[0] // values[1] if values[1] else None
        if op == "%":
            return values[0] % values[1] if values[1] else None
        if op == "neg":
            return -values[0]
        if op == "<<":
            return values[0] << values[1]
        if op == ">>":
            return values[0] >> values[1]
        if op == "&":
            return values[0] & values[1]
        if op == "|":
            return values[0] | values[1]
        if op == "^":
            return values[0] ^ values[1]
    except (TypeError, ValueError):
        return None
    return None


class PathConstraints:
    """Per-path value knowledge.  Copied at every path split."""

    def __init__(self):
        self.closure = _Closure()
        self.versions = {}  # variable name -> current version number
        # Ordering relations between class members, as raw (kind, a, b)
        # records; queried by graph search after canonicalization.
        self.relations = []

    def copy(self):
        clone = PathConstraints.__new__(PathConstraints)
        clone.closure = self.closure.copy()
        clone.versions = dict(self.versions)
        clone.relations = list(self.relations)
        return clone

    @property
    def infeasible(self):
        return self.closure.infeasible

    # -- term construction ------------------------------------------------------

    def _var_key(self, name):
        version = self.versions.setdefault(name, 0)
        return self.closure.fresh(("v", name, version))

    def term(self, expr):
        """The term key for an expression, or None when untrackable."""
        if isinstance(expr, ast.IntLit) or isinstance(expr, ast.CharLit):
            return self.closure.const_key(expr.value)
        if isinstance(expr, ast.Ident):
            return self._var_key(expr.name)
        if isinstance(expr, ast.Cast):
            return self.term(expr.operand)
        if isinstance(expr, ast.Unary) and expr.op == "-" and not expr.postfix:
            inner = self.term(expr.operand)
            if inner is None:
                return None
            return self.closure.composite("neg", [inner])
        if isinstance(expr, ast.Binary) and expr.op in (
            "+", "-", "*", "/", "%", "<<", ">>", "&", "|", "^",
        ):
            left = self.term(expr.left)
            right = self.term(expr.right)
            if left is None or right is None:
                return None
            if expr.op in ("+", "*", "&", "|", "^"):
                # Canonical argument order for commutative operators.
                if repr(right) < repr(left):
                    left, right = right, left
            return self.closure.composite(expr.op, [left, right])
        if isinstance(expr, (ast.Member, ast.Index)):
            base = _base_variable(expr)
            if base is None:
                return None
            version = self.versions.setdefault(base, 0)
            return self.closure.fresh(("l", ast.structural_key(expr), version))
        return None

    # -- updates ------------------------------------------------------------------

    def assign(self, target, value_expr):
        """Track ``target = value_expr`` (step 1: rename on assignment)."""
        if isinstance(target, ast.Ident):
            value_key = self.term(value_expr) if value_expr is not None else None
            self.versions[target.name] = self.versions.get(target.name, 0) + 1
            if value_key is not None:
                self.closure.union(self._var_key(target.name), value_key)
        else:
            base = _base_variable(target)
            if base is not None:
                # Redefining a[i] / s->f invalidates tracked lvalues on the
                # base; cheapest correct move is a fresh version.
                self.versions[base] = self.versions.get(base, 0) + 1

    def define(self, point):
        """Track the definition at ``point``: ``x = v``, a compound
        assignment (``x op= v`` is ``x = x op v``) or ``++``/``--``
        (``x = x +/- 1``).  Any other point defines nothing."""
        if isinstance(point, ast.Assign):
            target = point.target
            value = point.value
            if point.op != "=":
                value = ast.Binary(point.op[:-1], target, value)
        elif isinstance(point, ast.Unary) and point.op in ("++", "--"):
            target = point.operand
            value = ast.Binary("+" if point.op == "++" else "-", target,
                               ast.IntLit(1))
        else:
            return
        self.assign(target, value)

    def havoc(self, names):
        """Forget everything about the named variables (step 3)."""
        for name in names:
            self.versions[name] = self.versions.get(name, 0) + 1

    def assume(self, cond, truth):
        """Record a branch outcome (steps 1 and 4), one atom at a time."""
        for atom, atom_truth in atoms(cond, truth):
            if isinstance(atom, ast.Binary) and atom.op in _RELOPS:
                op = atom.op if atom_truth else _NEGATE[atom.op]
                left = self.term(atom.left)
                right = self.term(atom.right)
                if left is not None and right is not None:
                    self._assume_relation(op, left, right)
                continue
            key = self.term(atom)
            if key is None:
                continue
            zero = self.closure.const_key(0)
            if atom_truth:
                self.closure.assert_diseq(key, zero)
            else:
                self.closure.union(key, zero)

    def _assume_relation(self, op, left, right):
        if op == "==":
            self.closure.union(left, right)
        elif op == "!=":
            self.closure.assert_diseq(left, right)
        elif op == "<":
            self.relations.append(("<", left, right))
            self.closure.assert_diseq(left, right)
        elif op == ">":
            self.relations.append(("<", right, left))
            self.closure.assert_diseq(left, right)
        elif op == "<=":
            self.relations.append(("<=", left, right))
        elif op == ">=":
            self.relations.append(("<=", right, left))

    # -- queries ----------------------------------------------------------------------

    def evaluate(self, cond):
        """Three-valued evaluation of a branch condition (step 5)."""
        if cond is None:
            return None
        if isinstance(cond, ast.Unary) and cond.op == "!" and not cond.postfix:
            inner = self.evaluate(cond.operand)
            return None if inner is None else (not inner)
        if isinstance(cond, ast.Binary) and cond.op == "&&":
            left = self.evaluate(cond.left)
            right = self.evaluate(cond.right)
            if left is False or right is False:
                return False
            if left is True and right is True:
                return True
            return None
        if isinstance(cond, ast.Binary) and cond.op == "||":
            left = self.evaluate(cond.left)
            right = self.evaluate(cond.right)
            if left is True or right is True:
                return True
            if left is False and right is False:
                return False
            return None
        if isinstance(cond, ast.Binary) and cond.op in _RELOPS:
            left = self.term(cond.left)
            right = self.term(cond.right)
            if left is None or right is None:
                return None
            return self._evaluate_relation(cond.op, left, right)
        if isinstance(cond, ast.Assign):
            return self.evaluate(cond.target)
        key = self.term(cond)
        if key is None:
            return None
        const = self.closure.const_of(key)
        if const is not None:
            return bool(const)
        zero = self.closure.const_key(0)
        if self.closure.are_diseq(key, zero):
            return True
        if self.closure.are_equal(key, zero):
            return False
        return None

    def _evaluate_relation(self, op, left, right):
        closure = self.closure
        if op == "==":
            if closure.are_equal(left, right):
                return True
            if closure.are_diseq(left, right):
                return False
            if self._strictly_less(left, right) or self._strictly_less(right, left):
                return False
            return None
        if op == "!=":
            result = self._evaluate_relation("==", left, right)
            return None if result is None else (not result)
        la, lb = closure.const_of(left), closure.const_of(right)
        if la is not None and lb is not None:
            return {"<": la < lb, ">": la > lb, "<=": la <= lb, ">=": la >= lb}[op]
        if op == "<":
            if self._strictly_less(left, right):
                return True
            if self._less_equal(right, left):
                return False
            return None
        if op == ">":
            return self._evaluate_relation("<", right, left)
        if op == "<=":
            if self._less_equal(left, right):
                return True
            if self._strictly_less(right, left):
                return False
            return None
        if op == ">=":
            return self._evaluate_relation("<=", right, left)
        return None

    def _relation_graph(self):
        """Edges rep -> [(rep, strict)] from the recorded relations, plus
        the implicit ordering between known-constant classes (5 < 10 needs
        no recorded relation)."""
        graph = {}
        find = self.closure.find
        for kind, a, b in self.relations:
            graph.setdefault(find(a), []).append((find(b), kind == "<"))
        # Implicit constant ordering: chain consecutive constant classes.
        by_value = {}
        for key, value in self.closure.consts.items():
            by_value[value] = find(key)
        ordered = sorted(by_value)
        for low, high in zip(ordered, ordered[1:]):
            graph.setdefault(by_value[low], []).append((by_value[high], True))
        return graph

    def _search(self, start, goal, need_strict):
        find = self.closure.find
        start, goal = find(start), find(goal)
        ca, cb = self.closure.consts.get(start), self.closure.consts.get(goal)
        if ca is not None and cb is not None:
            return ca < cb if need_strict else ca <= cb
        if start == goal:
            return not need_strict
        # Without recorded relations the graph holds only the implicit
        # constant chain, and at most one endpoint is constant here -- no
        # path can reach the non-constant endpoint.
        if not self.relations:
            return False
        graph = self._relation_graph()
        seen = set()
        stack = [(start, False)]
        while stack:
            node, strict = stack.pop()
            for succ, edge_strict in graph.get(node, ()):
                now_strict = strict or edge_strict
                if succ == goal and (now_strict or not need_strict):
                    return True
                # Bridge through constants: node <= c1 and c1 < c2 <= goal.
                if (succ, now_strict) not in seen:
                    seen.add((succ, now_strict))
                    stack.append((succ, now_strict))
        return False

    def _strictly_less(self, a, b):
        return self._search(a, b, need_strict=True)

    def _less_equal(self, a, b):
        return self._search(a, b, need_strict=False)


def atoms(cond, truth):
    """The atomic ``(cond, truth)`` facts a branch outcome asserts.

    ``!`` flips the truth, a true ``&&`` and a false ``||`` assert both
    operands, and an assignment used as a condition (``if ((p = f()))``)
    asserts its target -- the assignment itself is tracked as a
    definition.  Anything else is one atom.  Atoms come in left-to-right
    source order; a ``None`` condition asserts nothing.
    """
    out = []
    stack = [(cond, truth)]
    while stack:
        cond, truth = stack.pop()
        if cond is None:
            continue
        if isinstance(cond, ast.Unary) and cond.op == "!" and not cond.postfix:
            stack.append((cond.operand, not truth))
        elif isinstance(cond, ast.Binary) and (
            (cond.op == "&&" and truth) or (cond.op == "||" and not truth)
        ):
            stack.append((cond.right, truth))
            stack.append((cond.left, truth))
        elif isinstance(cond, ast.Assign):
            stack.append((cond.target, truth))
        else:
            out.append((cond, truth))
    return out


def _base_variable(expr):
    """The leftmost identifier a compound lvalue hangs off, if any."""
    node = expr
    while True:
        if isinstance(node, ast.Ident):
            return node.name
        if isinstance(node, ast.Member):
            node = node.obj
        elif isinstance(node, ast.Index):
            node = node.array
        elif isinstance(node, ast.Unary) and node.op == "*":
            node = node.operand
        elif isinstance(node, ast.Cast):
            node = node.operand
        else:
            return None
