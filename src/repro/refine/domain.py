"""The refinement abstract domain: intervals over congruence classes.

:class:`RefineState` wraps the engine's own
:class:`repro.engine.falsepath.PathConstraints` (equalities,
disequalities, ordering relations, congruence closure) and layers an
*interval* per congruence class on top.  The closure alone never
derives a contradiction from ``x <= 4`` followed by ``x >= 10`` -- its
relations list is only consulted when *evaluating* a branch, not when
*assuming* one -- so the intervals are where chained inequality
contradictions actually surface.

Intervals are keyed by closure representative and re-canonicalized
after every assume (unions move representatives); a class whose
interval goes empty, or whose known constant falls outside its
interval, marks the state contradictory.
"""

from repro.cfront import astnodes as ast
from repro.engine.falsepath import (
    _NEGATE,
    _RELOPS,
    _SWAP,
    PathConstraints,
    _base_variable,
    atoms,
)
from repro.engine.kills import definition_target


class Interval:
    """A closed integer interval; ``None`` bounds are infinite."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo=None, hi=None):
        self.lo = lo
        self.hi = hi

    @property
    def empty(self):
        return self.lo is not None and self.hi is not None \
            and self.lo > self.hi

    def intersect(self, other):
        lo = (self.lo if other.lo is None
              else other.lo if self.lo is None
              else max(self.lo, other.lo))
        hi = (self.hi if other.hi is None
              else other.hi if self.hi is None
              else min(self.hi, other.hi))
        return Interval(lo, hi)

    def contains(self, value):
        if self.lo is not None and value < self.lo:
            return False
        if self.hi is not None and value > self.hi:
            return False
        return True

    def __repr__(self):
        return (
            f"[{'-inf' if self.lo is None else self.lo!s}, "
            f"{'+inf' if self.hi is None else self.hi!s}]"
        )


def _interval_for(op, value):
    """The interval implied by ``<term> op <const value>``."""
    if op == "<":
        return Interval(None, value - 1)
    if op == "<=":
        return Interval(None, value)
    if op == ">":
        return Interval(value + 1, None)
    if op == ">=":
        return Interval(value, None)
    if op == "==":
        return Interval(value, value)
    return None


class RefineState:
    """Per-path symbolic state for the refinement evaluator.

    ``relevant`` is the slice's variable set
    (:func:`repro.refine.slicing.relevant_variables`); assignments to
    variables outside it are skipped entirely.  ``None`` tracks
    everything.
    """

    def __init__(self, relevant=None):
        self.pc = PathConstraints()
        self.intervals = {}
        self.relevant = relevant
        self._interval_dead = False

    def copy(self):
        clone = RefineState.__new__(RefineState)
        clone.pc = self.pc.copy()
        clone.intervals = dict(self.intervals)
        clone.relevant = self.relevant
        clone._interval_dead = self._interval_dead
        return clone

    @property
    def infeasible(self):
        return self.pc.infeasible or self._interval_dead

    def _tracks(self, name):
        return self.relevant is None or name in self.relevant

    def havoc(self, names):
        self.pc.havoc([n for n in names if self._tracks(n)])

    def declare(self, name):
        """Scope entry: a declaration kills any stale tracked state."""
        if self._tracks(name):
            self.pc.havoc([name])

    def define(self, point):
        """Track the definition at ``point``
        (:meth:`PathConstraints.define`) unless the slice drops the
        variable it defines."""
        target = definition_target(point)
        if target is not None and self._tracks(_base_variable(target)):
            self.pc.define(point)

    def call_effects(self, call, local_names):
        """Havoc what an opaque call may clobber: variables whose
        address escapes into the call, and every tracked non-local."""
        clobbered = set()
        for arg in call.args:
            for sub in arg.walk():
                if isinstance(sub, ast.Unary) and sub.op == "&" \
                        and not sub.postfix:
                    base = _base_variable(sub.operand)
                    if base is not None:
                        clobbered.add(base)
        if self.relevant is not None:
            clobbered.update(
                name for name in self.relevant if name not in local_names
            )
        self.havoc(clobbered)

    def assume(self, cond, truth):
        """Record a branch outcome in both layers, then
        re-canonicalize."""
        self.pc.assume(cond, truth)
        self._assume_interval(cond, truth)
        self._refresh()

    def _assume_interval(self, cond, truth):
        closure = self.pc.closure
        for atom, atom_truth in atoms(cond, truth):
            if not isinstance(atom, ast.Binary) or atom.op not in _RELOPS:
                continue
            op = atom.op if atom_truth else _NEGATE[atom.op]
            left = self.pc.term(atom.left)
            right = self.pc.term(atom.right)
            if left is None or right is None:
                continue
            left_const = closure.const_of(left)
            right_const = closure.const_of(right)
            if right_const is not None:
                self._constrain(left, op, right_const)
            if left_const is not None:
                self._constrain(right, _SWAP[op], left_const)

    def _constrain(self, key, op, value):
        implied = _interval_for(op, value)
        if implied is None:
            return
        rep = self.pc.closure.find(key)
        current = self.intervals.get(rep)
        self.intervals[rep] = (implied if current is None
                              else current.intersect(implied))

    def _refresh(self):
        """Re-key intervals by current representative and check for
        contradictions (empty class, constant outside its interval)."""
        closure = self.pc.closure
        merged = {}
        for key, interval in self.intervals.items():
            rep = closure.find(key)
            current = merged.get(rep)
            merged[rep] = (interval if current is None
                           else current.intersect(interval))
        for rep, interval in merged.items():
            if interval.empty:
                self._interval_dead = True
                break
            const = closure.consts.get(rep)
            if const is not None and not interval.contains(const):
                self._interval_dead = True
                break
        self.intervals = merged
