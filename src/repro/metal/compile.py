"""Table-driven matcher compilation (docs/MATCHER.md).

The engine applies every extension's patterns at every (point, state)
visit; interpreting the pattern tree there (``Pattern.match`` walking
``_unify``'s isinstance chain, with a ``dict(bindings)`` copy per
attempt) dominates cold runs and daemon bursts.  This module compiles
each :class:`~repro.metal.sm.Extension` once, at registration time, into

* **dispatch tables** -- per source state, candidate transitions indexed
  by the class of the program point, so states whose rules cannot match
  an ``Assign`` never even see one (the common miss costs one dict
  probe); and
* **flat matcher programs** -- each base pattern becomes a precomputed
  instruction sequence run by a tight loop over an explicit node stack,
  with hole bindings in a flat slot array (saved/restored by list copy,
  never a dict copy); ``&&``/``||``/``!`` composition becomes
  short-circuit jump blocks around the base programs, and callouts stay
  callable Python escapes.

The tree-walking interpreter in :mod:`repro.metal.patterns` remains the
semantic oracle: any pattern shape the compiler does not cover compiles
to a *fallback* rule the engine matches with ``Pattern.match`` (counted
in ``matcher_fallbacks``), and the whole compiled layer is bypassed
under ``--matcher=interp``.  The differential tests in
``tests/test_matcher.py`` hold the two paths byte-identical.
"""

from repro.cfront import astnodes as ast
from repro.cfront.astnodes import structurally_equal
from repro.cfg.blocks import ReturnMarker
from repro.metal.metatypes import ANY_ARGUMENTS, ANY_FN_CALL
from repro.metal.patterns import (
    AndPattern,
    BasePattern,
    Callout,
    EndOfPath,
    MatchContext,
    NotPattern,
    OrPattern,
)


class _CannotCompile(Exception):
    """Raised during compilation for pattern shapes the instruction set
    does not cover; the rule then falls back to the interpreter."""


# ---------------------------------------------------------------------------
# Base-pattern programs
#
# A program is a tuple of instructions, each of which pops exactly one
# node from the work stack.  Structural instructions push their child
# nodes in reverse so the next instruction pops the leftmost child:
# execution order is exactly ``_unify``'s preorder, so repeated holes
# bind and check in the same order as the interpreter.
# ---------------------------------------------------------------------------

OP_NODE = 0  # (OP_NODE, cls, ((attr, value), ...), (child_attr, ...))
OP_HOLE = 1  # (OP_HOLE, slot, metatype)
OP_CALL = 2  # (OP_CALL, func_mode, func_slot, args_mode, args_arg)
OP_RETURN = 3  # (OP_RETURN, has_expr)
OP_INITLIST = 4  # (OP_INITLIST, n_items)

FUNC_SUB = 0  # callee matched by the following sub-program
FUNC_HOLE = 1  # any_fn_call hole in callee position binds node.func
ARGS_LIST = 0  # fixed arity, each argument matched by a sub-program
ARGS_HOLE = 2  # single any_arguments hole swallows the whole list

#: Non-node fields compared by equality, per pattern class -- mirrors the
#: atom checks in :func:`repro.metal.patterns._unify`.
_ATOM_FIELDS = {
    ast.Ident: ("name",),
    ast.IntLit: ("value",),
    ast.CharLit: ("value",),
    ast.FloatLit: ("value",),
    ast.StringLit: ("value",),
    ast.Unary: ("op", "postfix"),
    ast.Binary: ("op",),
    ast.Assign: ("op",),
    ast.Conditional: (),
    ast.Member: ("name", "arrow"),
    ast.Index: (),
    ast.Cast: ("to_type",),
    ast.SizeofExpr: (),
    ast.SizeofType: ("of_type",),
    ast.Comma: (),
}

#: Node-valued fields, in the order ``_unify`` recurses into them.
_CHILD_FIELDS = {
    ast.Ident: (),
    ast.IntLit: (),
    ast.CharLit: (),
    ast.FloatLit: (),
    ast.StringLit: (),
    ast.Unary: ("operand",),
    ast.Binary: ("left", "right"),
    ast.Assign: ("target", "value"),
    ast.Conditional: ("cond", "then", "otherwise"),
    ast.Member: ("obj",),
    ast.Index: ("array", "index"),
    ast.Cast: ("operand",),
    ast.SizeofExpr: ("operand",),
    ast.SizeofType: (),
    ast.Comma: ("left", "right"),
}


def _emit_base(pattern, code, slot_of):
    """Append the program for one pattern-AST node (preorder)."""
    if pattern is None:
        # ``_unify(None, x)`` is always False; not worth an opcode.
        raise _CannotCompile("None pattern child")
    if isinstance(pattern, ast.Hole):
        code.append((OP_HOLE, slot_of[pattern.name], pattern.metatype))
        return
    if isinstance(pattern, ast.Return):
        expr = pattern.expr
        code.append((OP_RETURN, expr is not None))
        if expr is not None:
            _emit_base(expr, code, slot_of)
        return
    cls = type(pattern)
    if cls is ast.Call:
        func = pattern.func
        args = pattern.args
        if isinstance(func, ast.Hole) and func.metatype is ANY_FN_CALL:
            func_mode, func_arg = FUNC_HOLE, slot_of[func.name]
        else:
            func_mode, func_arg = FUNC_SUB, 0
        if (
            len(args) == 1
            and isinstance(args[0], ast.Hole)
            and args[0].metatype is ANY_ARGUMENTS
        ):
            args_mode, args_arg = ARGS_HOLE, slot_of[args[0].name]
        else:
            args_mode, args_arg = ARGS_LIST, len(args)
        code.append((OP_CALL, func_mode, func_arg, args_mode, args_arg))
        if func_mode == FUNC_SUB:
            _emit_base(func, code, slot_of)
        if args_mode == ARGS_LIST:
            for arg in args:
                _emit_base(arg, code, slot_of)
        return
    if cls is ast.InitList:
        code.append((OP_INITLIST, len(pattern.items)))
        for item in pattern.items:
            _emit_base(item, code, slot_of)
        return
    atoms = _ATOM_FIELDS.get(cls)
    if atoms is None:
        raise _CannotCompile("unsupported pattern node %s" % cls.__name__)
    checks = tuple((attr, getattr(pattern, attr)) for attr in atoms)
    children = _CHILD_FIELDS[cls]
    code.append((OP_NODE, cls, checks, children))
    for attr in children:
        _emit_base(getattr(pattern, attr), code, slot_of)


def _run_program(program, node, slots):
    """Run a base-pattern program against ``node``.

    Returns True and fills ``slots`` on success; on failure ``slots``
    may hold partial bindings (the caller snapshots around it).
    """
    stack = [node]
    for ins in program:
        node = stack.pop()
        op = ins[0]
        if op == OP_NODE:
            if node.__class__ is not ins[1]:
                return False
            for attr, value in ins[2]:
                if value != getattr(node, attr):
                    return False
            children = ins[3]
            if children:
                if len(children) == 1:
                    stack.append(getattr(node, children[0]))
                else:
                    for attr in reversed(children):
                        stack.append(getattr(node, attr))
        elif op == OP_HOLE:
            if isinstance(node, ReturnMarker):
                return False
            if not ins[2].matches(node):
                return False
            slot = ins[1]
            previous = slots[slot]
            if previous is not None:
                if previous is not node and not structurally_equal(previous, node):
                    return False
            else:
                slots[slot] = node
        elif op == OP_CALL:
            if node.__class__ is not ast.Call:
                return False
            if ins[1] == FUNC_HOLE:
                func = node.func
                slot = ins[2]
                previous = slots[slot]
                if previous is not None and not (
                    previous is func or structurally_equal(previous, func)
                ):
                    return False
                slots[slot] = func
            args = node.args
            if ins[3] == ARGS_HOLE:
                slot = ins[4]
                previous = slots[slot]
                if previous is not None:
                    if len(previous) != len(args):
                        return False
                    for bound, arg in zip(previous, args):
                        if not structurally_equal(bound, arg):
                            return False
                else:
                    slots[slot] = list(args)
            else:
                if len(args) != ins[4]:
                    return False
                if args:
                    stack.extend(reversed(args))
            if ins[1] == FUNC_SUB:
                stack.append(node.func)
        elif op == OP_RETURN:
            if node.__class__ is not ReturnMarker:
                return False
            if ins[1]:
                if node.expr is None:
                    return False
                stack.append(node.expr)
            elif node.expr is not None:
                return False
        else:  # OP_INITLIST
            if node.__class__ is not ast.InitList:
                return False
            items = node.items
            if len(items) != ins[1]:
                return False
            if items:
                stack.extend(reversed(items))
    return True


# ---------------------------------------------------------------------------
# Composition blocks
#
# ``&&``/``||``/``!`` compile to a flat op list with explicit jumps; the
# snapshot stack (plain list copies of the slot array) replaces the
# interpreter's trial-dict copies.
# ---------------------------------------------------------------------------

C_BASE = 0  # (C_BASE, program): ok = run program at the point
C_CALLOUT = 1  # (C_CALLOUT, fn): ok = fn(MatchContext)
C_EOP = 2  # (C_EOP,): ok = end_of_path
C_JF = 3  # (C_JF, target): jump if not ok
C_JT = 4  # (C_JT, target): jump if ok
C_JMP = 5  # (C_JMP, target)
C_SNAP = 6  # push a copy of the slot array
C_POP = 7  # drop the top snapshot (commit)
C_RESTORE = 8  # restore + drop the top snapshot (roll back)
C_NOTEND = 9  # restore + drop snapshot, invert ok


def _emit_pattern(pattern, ops, slot_of):
    if isinstance(pattern, BasePattern):
        code = []
        _emit_base(pattern.pattern_ast, code, slot_of)
        ops.append((C_BASE, tuple(code)))
    elif isinstance(pattern, Callout):
        ops.append((C_CALLOUT, pattern.fn))
    elif isinstance(pattern, EndOfPath):
        ops.append((C_EOP,))
    elif isinstance(pattern, AndPattern):
        ops.append((C_SNAP,))
        _emit_pattern(pattern.left, ops, slot_of)
        jf_left = len(ops)
        ops.append(None)
        _emit_pattern(pattern.right, ops, slot_of)
        jf_right = len(ops)
        ops.append(None)
        ops.append((C_POP,))
        jmp_end = len(ops)
        ops.append(None)
        fail = len(ops)
        ops.append((C_RESTORE,))
        end = len(ops)
        ops[jf_left] = (C_JF, fail)
        ops[jf_right] = (C_JF, fail)
        ops[jmp_end] = (C_JMP, end)
    elif isinstance(pattern, OrPattern):
        ops.append((C_SNAP,))
        _emit_pattern(pattern.left, ops, slot_of)
        jt_left = len(ops)
        ops.append(None)
        ops.append((C_RESTORE,))
        ops.append((C_SNAP,))
        _emit_pattern(pattern.right, ops, slot_of)
        jt_right = len(ops)
        ops.append(None)
        ops.append((C_RESTORE,))
        jmp_end = len(ops)
        ops.append(None)
        succeed = len(ops)
        ops.append((C_POP,))
        end = len(ops)
        ops[jt_left] = (C_JT, succeed)
        ops[jt_right] = (C_JT, succeed)
        ops[jmp_end] = (C_JMP, end)
    elif isinstance(pattern, NotPattern):
        ops.append((C_SNAP,))
        _emit_pattern(pattern.inner, ops, slot_of)
        ops.append((C_NOTEND,))
    else:
        raise _CannotCompile(
            "unsupported pattern class %s" % type(pattern).__name__
        )


def _run_ops(matcher, point, slots, engine, end_of_path):
    ops = matcher.ops
    names = matcher.names
    n = len(ops)
    i = 0
    ok = False
    saves = []
    while i < n:
        ins = ops[i]
        code = ins[0]
        if code == C_BASE:
            ok = _run_program(ins[1], point, slots)
        elif code == C_CALLOUT:
            # Callouts see (and may extend) the bindings of earlier
            # conjuncts; materialize a dict only here, at the escape
            # hatch, and sync declared holes back on success.
            bindings = {}
            for name, slot in names:
                value = slots[slot]
                if value is not None:
                    bindings[name] = value
            ok = bool(ins[1](MatchContext(point, bindings, engine, end_of_path)))
            if ok:
                for name, slot in names:
                    value = bindings.get(name)
                    if value is not None:
                        slots[slot] = value
        elif code == C_EOP:
            ok = end_of_path
        elif code == C_JF:
            if not ok:
                i = ins[1]
                continue
        elif code == C_JT:
            if ok:
                i = ins[1]
                continue
        elif code == C_JMP:
            i = ins[1]
            continue
        elif code == C_SNAP:
            saves.append(slots[:])
        elif code == C_POP:
            saves.pop()
        elif code == C_RESTORE:
            slots[:] = saves.pop()
        else:  # C_NOTEND
            slots[:] = saves.pop()
            ok = not ok
        i += 1
    return ok


# ---------------------------------------------------------------------------
# Root-kind analysis (dispatch-table keys)
#
# ``kinds`` is (match_any, match_any_expr, classes): a rule is a
# candidate at a point iff match_any, or match_any_expr and the point is
# an Expr, or the point's exact class is in ``classes``.  Rules carry
# one kinds value for normal points and one for end-of-path points
# ($end_of_path$ contributes nothing to the former, everything to the
# latter).
# ---------------------------------------------------------------------------

_K_ALL = (True, False, frozenset())
_K_NONE = (False, False, frozenset())


def _k_union(a, b):
    if a[0] or b[0]:
        return _K_ALL
    return (False, a[1] or b[1], a[2] | b[2])


def _k_intersect(a, b):
    if a[0]:
        return b
    if b[0]:
        return a
    classes = set(a[2] & b[2])
    if a[1]:
        classes.update(c for c in b[2] if issubclass(c, ast.Expr))
    if b[1]:
        classes.update(c for c in a[2] if issubclass(c, ast.Expr))
    return (False, a[1] and b[1], frozenset(classes))


def _admits(kinds, cls):
    if kinds[0]:
        return True
    if kinds[1] and issubclass(cls, ast.Expr):
        return True
    return cls in kinds[2]


def _root_kinds(root):
    if root is None:
        return _K_NONE
    if isinstance(root, ast.Hole):
        # Holes only ever unify with Expr nodes (never ReturnMarker,
        # never the end-of-path point).
        return (False, True, frozenset())
    if isinstance(root, ast.Return):
        return (False, False, frozenset((ReturnMarker,)))
    # Exact-class dispatch mirrors _unify's ``type(pattern) is
    # type(node)``; unknown pattern classes simply never match any
    # point class, which the table encodes for free.
    return (False, False, frozenset((type(root),)))


def _analyze(pattern):
    """Return (kinds_normal, kinds_eop) for a composed pattern."""
    if isinstance(pattern, BasePattern):
        kinds = _root_kinds(pattern.pattern_ast)
        return kinds, kinds
    if isinstance(pattern, EndOfPath):
        return _K_NONE, _K_ALL
    if isinstance(pattern, AndPattern):
        left = _analyze(pattern.left)
        right = _analyze(pattern.right)
        return (
            _k_intersect(left[0], right[0]),
            _k_intersect(left[1], right[1]),
        )
    if isinstance(pattern, OrPattern):
        left = _analyze(pattern.left)
        right = _analyze(pattern.right)
        return _k_union(left[0], right[0]), _k_union(left[1], right[1])
    # Callout, NotPattern, and anything exotic: no static pruning.
    return _K_ALL, _K_ALL


def _pattern_holes(pattern, found):
    """Collect hole names appearing anywhere in a composed pattern."""
    if isinstance(pattern, BasePattern):
        root = pattern.pattern_ast
        if root is not None:
            for node in root.walk():
                if isinstance(node, ast.Hole) and node.name not in found:
                    found.append(node.name)
    elif isinstance(pattern, (AndPattern, OrPattern)):
        _pattern_holes(pattern.left, found)
        _pattern_holes(pattern.right, found)
    elif isinstance(pattern, NotPattern):
        _pattern_holes(pattern.inner, found)
    return found


# ---------------------------------------------------------------------------
# Compiled rules, state tables, and the per-extension container
# ---------------------------------------------------------------------------


class _Matcher:
    """One rule's compiled match program."""

    __slots__ = ("ops", "names", "slot_of", "n_slots", "single")

    def __init__(self, ops, names, slot_of):
        self.ops = tuple(ops)
        self.names = tuple(sorted(slot_of.items(), key=lambda kv: kv[1]))
        self.slot_of = slot_of
        self.n_slots = len(slot_of)
        # Fast path: the overwhelmingly common single-base-pattern rule
        # skips the op loop (and all snapshotting) entirely.
        if len(self.ops) == 1 and self.ops[0][0] == C_BASE:
            self.single = self.ops[0][1]
        else:
            self.single = None
        _ = names  # names order is slot order; parameter kept for clarity


class CompiledRule:
    """A transition plus its compiled matcher (or None: interpreter
    fallback) and dispatch metadata."""

    __slots__ = ("rule", "index", "matcher", "kinds_normal", "kinds_eop",
                 "mentions_eop")

    def __init__(self, rule, index, matcher, kinds_normal, kinds_eop):
        self.rule = rule
        self.index = index
        self.matcher = matcher
        self.kinds_normal = kinds_normal
        self.kinds_eop = kinds_eop
        self.mentions_eop = rule.pattern.mentions_end_of_path()

    def match(self, point, engine, end_of_path=False, seed_name=None,
              seed_obj=None):
        """Run the compiled matcher; return the bindings dict (content-
        identical to the interpreter's) on success, None on failure."""
        matcher = self.matcher
        slots = [None] * matcher.n_slots
        if seed_name is not None:
            slots[matcher.slot_of[seed_name]] = seed_obj
        single = matcher.single
        if single is not None:
            ok = _run_program(single, point, slots)
        else:
            ok = _run_ops(matcher, point, slots, engine, end_of_path)
        if not ok:
            return None
        bindings = {}
        for name, slot in matcher.names:
            value = slots[slot]
            if value is not None:
                bindings[name] = value
        return bindings


class _StateTable:
    """Candidate transitions out of one source state, indexed by point
    class.  The per-class tuples are built lazily and cached; an empty
    cached tuple *is* the miss memo -- re-probing costs one dict get."""

    __slots__ = ("rules", "eop_mentions", "_normal", "_eop")

    def __init__(self, rules):
        self.rules = tuple(rules)
        #: Rules whose pattern mentions $end_of_path$, declared order
        #: (drives the engine's scope-exit matching).
        self.eop_mentions = tuple(r for r in self.rules if r.mentions_eop)
        self._normal = {}
        self._eop = {}

    def candidates(self, cls, end_of_path=False):
        cache = self._eop if end_of_path else self._normal
        cands = cache.get(cls)
        if cands is None:
            if end_of_path:
                cands = tuple(
                    r for r in self.rules if _admits(r.kinds_eop, cls)
                )
            else:
                cands = tuple(
                    r for r in self.rules if _admits(r.kinds_normal, cls)
                )
            cache[cls] = cands
        return cands


class CompiledExtension:
    """All of one extension's transitions, compiled.

    ``specific[(var, value)]`` and ``globals_[value]`` map source states
    to :class:`_StateTable`; states with no outgoing transitions have no
    entry at all, so the engine's common "nothing to do here" case is a
    single failed dict probe.
    """

    def __init__(self, extension):
        # No reference back to ``extension``: the extension caches this
        # object, and a back-reference would make every extension a
        # cycle only the collector can free.
        self.n_rules = 0
        self.n_fallback = 0
        specific = {}
        globals_ = {}
        declared = list(extension.hole_types)
        for index, rule in enumerate(extension.transitions):
            crule = self._compile_rule(rule, index, declared)
            source = rule.source
            if source.is_global:
                globals_.setdefault(source.value, []).append(crule)
            else:
                specific.setdefault((source.var, source.value), []).append(crule)
        self.specific = {
            key: _StateTable(rules) for key, rules in specific.items()
        }
        self.globals_ = {
            key: _StateTable(rules) for key, rules in globals_.items()
        }
        self._any_memo = {}

    def _compile_rule(self, rule, index, declared):
        self.n_rules += 1
        kinds_normal, kinds_eop = _analyze(rule.pattern)
        names = list(declared)
        for extra in _pattern_holes(rule.pattern, []):
            if extra not in names:
                names.append(extra)
        slot_of = {name: i for i, name in enumerate(names)}
        try:
            ops = []
            _emit_pattern(rule.pattern, ops, slot_of)
            matcher = _Matcher(ops, names, slot_of)
        except _CannotCompile:
            matcher = None
            self.n_fallback += 1
        return CompiledRule(rule, index, matcher, kinds_normal, kinds_eop)

    # -- engine queries ----------------------------------------------------

    def any_candidates(self, cls, end_of_path):
        """True when *some* state table admits this node class.

        The extension-wide "no candidates" memo: after the first probe for
        a class the answer is one dict hit, letting the engine skip the
        whole per-instance loop for node kinds no rule can match (kinds
        are analyzed even for fallback rules, so this is sound).
        """
        key = (cls, end_of_path)
        memo = self._any_memo
        cached = memo.get(key)
        if cached is None:
            cached = any(
                table.candidates(cls, end_of_path)
                for table in self.specific.values()
            ) or any(
                table.candidates(cls, end_of_path)
                for table in self.globals_.values()
            )
            memo[key] = cached
        return cached

    def specific_table(self, var_name, value):
        return self.specific.get((var_name, value))

    def global_table(self, value):
        return self.globals_.get(value)

    def all_rules(self):
        for table in self.specific.values():
            for crule in table.rules:
                yield crule
        for table in self.globals_.values():
            for crule in table.rules:
                yield crule


def compile_matcher(pattern, extra_names=()):
    """Compile one composed pattern standalone (tests, tooling).

    Slots are allocated from ``extra_names`` followed by the holes found
    in the pattern; returns a :class:`CompiledRule`-like single matcher
    wrapper with a ``match(point, engine=None, end_of_path=False)``
    convenience, or raises :class:`_CannotCompile`.
    """
    names = list(extra_names)
    for name in _pattern_holes(pattern, []):
        if name not in names:
            names.append(name)
    slot_of = {name: i for i, name in enumerate(names)}
    ops = []
    _emit_pattern(pattern, ops, slot_of)
    return _Matcher(ops, names, slot_of)


def run_matcher(matcher, point, engine=None, end_of_path=False, seed=None):
    """Run a standalone matcher; returns the bindings dict or None."""
    slots = [None] * matcher.n_slots
    if seed:
        for name, value in seed.items():
            slots[matcher.slot_of[name]] = value
    if matcher.single is not None:
        ok = _run_program(matcher.single, point, slots)
    else:
        ok = _run_ops(matcher, point, slots, engine, end_of_path)
    if not ok:
        return None
    return {
        name: slots[slot]
        for name, slot in matcher.names
        if slots[slot] is not None
    }
