"""Per-state dispatch tables for the metal matcher (docs/MATCHER.md).

The engine applies every extension's patterns at every (point, state)
visit (§5.1).  Most of those visits cannot match: the state has no
outgoing transition, or none of its rules can match a node of the
point's class.  This module builds, once per extension, **dispatch
tables** -- per source state, the candidate transitions indexed by the
class of the program point -- so that the common miss costs one dict
probe.  Every candidate is then matched by the tree-walking interpreter,
``Pattern.match`` in :mod:`repro.metal.patterns`.  The tables only
filter: they change what matches only if they drop a rule the
interpreter would match, and ``tests/test_matcher.py`` checks that they
never do.
"""

from repro.cfront import astnodes as ast
from repro.cfg.blocks import ReturnMarker
from repro.metal.patterns import AndPattern, BasePattern, EndOfPath, OrPattern


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


# ---------------------------------------------------------------------------
# Rules, state tables, and the per-extension container
# ---------------------------------------------------------------------------


class CompiledRule:
    """A transition plus its dispatch metadata."""

    __slots__ = ("rule", "kinds_normal", "kinds_eop", "mentions_eop")

    def __init__(self, rule):
        self.rule = rule
        self.kinds_normal, self.kinds_eop = _analyze(rule.pattern)
        self.mentions_eop = rule.pattern.mentions_end_of_path()


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
    """All of one extension's transitions, in dispatch tables.

    ``specific[(var, value)]`` and ``globals_[value]`` map source states
    to :class:`_StateTable`; states with no outgoing transitions have no
    entry at all, so the engine's common "nothing to do here" case is a
    single failed dict probe.
    """

    def __init__(self, extension):
        # No reference back to ``extension``: the extension caches this
        # object, and a back-reference would make every extension a
        # cycle only the collector can free.
        self.specific = {}
        self.globals_ = {}
        for (var, value), rules in extension._grouping().items():
            table = _StateTable(CompiledRule(rule) for rule in rules)
            if rules[0].source.is_global:
                self.globals_[value] = table
            else:
                self.specific[(var, value)] = table
        self._any_memo = {}

    # -- engine queries ----------------------------------------------------

    def any_candidates(self, cls, end_of_path):
        """True when *some* state table admits this node class.

        The extension-wide "no candidates" memo: after the first probe for
        a class the answer is one dict hit, letting the engine skip the
        whole per-instance loop for node kinds no rule can match.
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
