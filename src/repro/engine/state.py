"""Extension state as the engine sees it (§3.1, §5.1).

``var_state``/``sm_instance`` from Figure 4 map to :class:`VarInstance` and
:class:`SMInstance`.  An extension's state is a set of *state tuples*
``(gstate, v)`` where ``v`` is a variable-specific instance or the
placeholder ``<>`` (§5.2); :func:`state_tuples` computes that view.

Modifications to both ``gstate`` and ``active_vars`` are private to each
path: the DFS copies the SMInstance before exploring each successor, so
mutations revert on backtrack.
"""

from repro.cfront import astnodes as ast
from repro.metal.sm import PLACEHOLDER, STOP

#: The pseudo state value in an add edge's start tuple (§5.2): "the edge
#: only applies when we know nothing about t at the entry to b."
UNKNOWN = "$unknown"


class VarInstance:
    """One variable-specific instance: a state value attached to a program
    object, plus the extension-defined data value (§3.1)."""

    __slots__ = (
        "var_name",
        "obj",
        "obj_key",
        "value",
        "data",
        "uid",
        "created_at",
        "created_location",
        "origin_location",
        "conditionals_crossed",
        "synonym_chain",
        "synonym_group",
        "inactive",
        "file_scope_file",
        "call_depth_at_creation",
        "history",
    )

    _next_uid = [0]

    def __init__(self, var_name, obj, value, data=None):
        self.var_name = var_name
        self.obj = obj  # AST tree for the program object
        self.obj_key = ast.structural_key(obj)
        self.value = value
        self.data = dict(data) if data else {}
        # A path-stable identity: copies share the uid, fresh instances get
        # a new one.  Block-summary recording maps entry instances to their
        # exit states through it.
        VarInstance._next_uid[0] += 1
        self.uid = VarInstance._next_uid[0]
        self.file_scope_file = None
        # The "why" trace (§3.2): (event-text, location) steps from the
        # moment tracking began, attached to reports for inspection.
        self.history = []
        # Where (block id, item index) the instance was created: an instance
        # cannot trigger a transition at its creation statement (§3.1).
        self.created_at = None
        self.created_location = None
        # Where the tracked property began (for ranking distance).
        self.origin_location = None
        # Ranking inputs (§9): conditionals crossed since creation, synonym
        # assignment-chain length, call depth where the state was attached.
        self.conditionals_crossed = 0
        self.synonym_chain = 0
        self.synonym_group = None
        # File-scope variables are temporarily inactivated across calls into
        # other files (§6.1).
        self.inactive = False
        self.call_depth_at_creation = 0

    def copy(self):
        # Not through __init__: the key and uid are the original's.
        clone = VarInstance.__new__(VarInstance)
        clone.var_name = self.var_name
        clone.obj = self.obj
        clone.obj_key = self.obj_key
        clone.value = self.value
        clone.data = dict(self.data)
        clone.uid = self.uid
        clone.created_at = self.created_at
        clone.created_location = self.created_location
        clone.origin_location = self.origin_location
        clone.conditionals_crossed = self.conditionals_crossed
        clone.synonym_chain = self.synonym_chain
        clone.synonym_group = self.synonym_group
        clone.inactive = self.inactive
        clone.file_scope_file = self.file_scope_file
        clone.call_depth_at_creation = self.call_depth_at_creation
        clone.history = list(self.history)
        return clone

    def record(self, event, location=None):
        """Append one step to the why-trace."""
        self.history.append((event, location))

    def retarget(self, new_obj):
        """Attach this instance to a different program object (refine and
        restore move state between caller and callee scopes, §6.1)."""
        self.obj = new_obj
        self.obj_key = ast.structural_key(new_obj)

    def data_key(self):
        """A hashable digest of the data value for cache tuples."""
        if not self.data:
            return None
        try:
            return frozenset(self.data.items())
        except TypeError:
            # Unhashable data: fall back to identity; disables caching for
            # this instance rather than mis-caching it.
            return id(self)

    def tuple_key(self, gstate):
        """This instance's state tuple given the global value."""
        return (gstate, (self.var_name, self.obj_key, self.value, self.data_key()))

    def __repr__(self):
        from repro.cfront.unparse import unparse

        return "%s:%s->%s" % (self.var_name, unparse(self.obj), self.value)


class SMInstance:
    """The state of one extension along the current path (Fig. 4)."""

    __slots__ = ("extension", "gstate", "active_vars", "pending_splits",
                 "path_data")

    def __init__(self, extension, gstate=None, active_vars=None):
        self.extension = extension
        self.gstate = gstate if gstate is not None else extension.initial_global
        self.active_vars = list(active_vars) if active_vars is not None else []
        # Path-local general-purpose storage for extension escapes; copied
        # at path splits so mutations revert on backtrack (like gstate).
        self.path_data = {}
        # Path-specific transitions deferred until a branch direction is
        # chosen: list of (instance-or-None, PathSplit, matched point).
        self.pending_splits = []

    def copy(self):
        clone = SMInstance(self.extension, self.gstate)
        clone.path_data = dict(self.path_data)
        clone.active_vars = [inst.copy() for inst in self.active_vars]
        clone.pending_splits = []
        for inst, split, point in self.pending_splits:
            if inst is None:
                clone.pending_splits.append((None, split, point))
            else:
                index = self.active_vars.index(inst)
                clone.pending_splits.append((clone.active_vars[index], split, point))
        return clone

    def find(self, obj_key, var_name=None):
        """The live instance attached to the object with this key, if any;
        restricted to one state variable family when ``var_name`` given."""
        for inst in self.active_vars:
            if inst.obj_key == obj_key and (
                var_name is None or inst.var_name == var_name
            ):
                return inst
        return None

    def add(self, instance):
        self.active_vars.append(instance)
        return instance

    def remove(self, instance):
        if instance in self.active_vars:
            self.active_vars.remove(instance)
        self.pending_splits = [
            entry for entry in self.pending_splits if entry[0] is not instance
        ]

    def live_instances(self):
        return [inst for inst in self.active_vars if not inst.inactive]

    def __repr__(self):
        return "<SMInstance %s gstate=%s vars=%r>" % (
            self.extension.name,
            self.gstate,
            self.active_vars,
        )


def state_tuples(sm):
    """The set-of-state-tuples view of an SMInstance (§5.2).

    The placeholder element "persists throughout the analysis, but it is
    ignored whenever active_vars is nonempty" (§5.3).
    """
    live = [inst for inst in sm.active_vars if not inst.inactive]
    if not live:
        return {(sm.gstate, PLACEHOLDER)}
    return {inst.tuple_key(sm.gstate) for inst in live}


def describe_tuple(tup):
    """Human-readable form of a state tuple, in the paper's notation."""
    gstate, rest = tup
    if rest == PLACEHOLDER:
        return "(%s,<>)" % gstate
    var_name, obj_key, value, __ = rest
    return "(%s,%s:%s->%s)" % (gstate, var_name, _key_text(obj_key), value)


def _key_text(obj_key):
    """Best-effort rendering of a structural key (for summaries/debug)."""
    if isinstance(obj_key, tuple) and obj_key and obj_key[0] == "Ident":
        return obj_key[1][0]
    return _flatten_key(obj_key)


def _flatten_key(key):
    if isinstance(key, tuple):
        return "".join(str(_flatten_key(part)) for part in key if part != ())
    return str(key)
