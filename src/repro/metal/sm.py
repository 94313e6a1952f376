"""Metal state machines (§2.1, §3).

An :class:`Extension` declares one global state variable and (optionally)
one variable-specific state variable, the state values bound to each, and
per-state transition lists.  The engine executes extensions against the
CFG; an extension's *state* at any moment is the set of state tuples
``(global value, instance value)`` (§3.1).

The Python API is deliberately close to the metal surface syntax::

    free = Extension("free_checker")
    v = free.state_var("v", ANY_POINTER)
    free.transition("start", "{ kfree(v) }", to="v.freed")
    free.transition("v.freed", "{ *v }", to="v.stop",
                    action=lambda ctx: ctx.err("using %s after free!",
                                               ctx.identifier("v")))
    free.transition("v.freed", "{ kfree(v) }", to="v.stop",
                    action=lambda ctx: ctx.err("double free of %s!",
                                               ctx.identifier("v")))

C code actions become Python callables receiving an :class:`ActionContext`.
"""

from repro.metal.compile import CompiledExtension
from repro.metal.metatypes import MetaType
from repro.metal.patterns import EndOfPath, Pattern, compile_pattern

#: Name of the implicitly-defined global state variable.
GLOBAL = "$global"

#: The sink state: assigning it removes the instance's SM (§2.1).
STOP = "stop"

#: The placeholder value for "no instances known" (§5.2).
PLACEHOLDER = "<>"


class StateRef:
    """A resolved state reference: the global value ``start`` or a
    variable-bound value ``v.freed``."""

    __slots__ = ("var", "value")

    def __init__(self, var, value):
        self.var = var  # GLOBAL or the specific variable's name
        self.value = value

    @property
    def is_global(self):
        return self.var == GLOBAL

    def __eq__(self, other):
        return (
            isinstance(other, StateRef)
            and other.var == self.var
            and other.value == self.value
        )

    def __hash__(self):
        return hash((self.var, self.value))

    def __repr__(self):
        if self.is_global:
            return self.value
        return "%s.%s" % (self.var, self.value)


class PathSplit:
    """A path-specific destination (§3.2): different states on the true and
    false branches out of the condition where the transition fired."""

    __slots__ = ("true_state", "false_state")

    def __init__(self, true_state, false_state):
        self.true_state = true_state
        self.false_state = false_state

    def __repr__(self):
        return "PathSplit(true=%r, false=%r)" % (self.true_state, self.false_state)


class Transition:
    """One transition rule.

    ``source`` is the :class:`StateRef` whose transition list contains this
    rule.  ``target`` is a StateRef, a :class:`PathSplit`, or None (the
    state is unchanged -- an action-only rule).  ``action`` is a callable
    of one :class:`ActionContext` argument (or None).
    """

    def __init__(self, source, pattern, target=None, action=None):
        self.source = source
        self.pattern = pattern
        self.target = target
        self.action = action

    @property
    def creates_instance(self):
        """A rule in a global state whose target is variable-bound creates a
        new SM instance (like the free checker's start rule)."""
        target = self.target
        if isinstance(target, PathSplit):
            target = target.true_state
        return (
            self.source.is_global
            and isinstance(target, StateRef)
            and not target.is_global
        )

    def __repr__(self):
        return "Transition(%r, %r ==> %r)" % (self.source, self.pattern, self.target)


class Extension:
    """A metal extension: state variables, values, and transitions."""

    # Derived-structure caches (per-state transition grouping, the
    # end-of-path flag, the dispatch tables).  Each cache entry
    # is ``(mutation_key, value)``; see :meth:`_mutation_key`.  Class
    # attributes so unpickled instances start clean.
    _groups_cache = None
    _eop_cache = None
    _anchors_cache = None
    _compiled_cache = None

    def __init__(self, name):
        self.name = name
        self.global_states = []  # declared order; first is the initial state
        self.specific_var = None  # (name, metatype) or None
        self.specific_states = []
        self.transitions = []  # declared order
        #: Extra options the engine consults (e.g. disabling auto-kill, §8).
        self.options = {}
        #: Severity class used for grouping/ranking unless an error says
        #: otherwise ('SECURITY' | 'ERROR' | 'MINOR' | None).
        self.default_severity = None
        #: The metal text this extension was compiled from (None for a
        #: Python-API extension).
        self.source = None

    # -- declaration API ------------------------------------------------------

    def state_var(self, name, metatype):
        """Declare a variable-specific state variable (``state decl``).

        §3.1: "While the state tuples in this paper have only two
        components, the actual implementation of metal allows the
        extension to define tuples with additional components" -- multiple
        ``state decl``s are allowed; each declares an independent family
        of instances.
        """
        if not isinstance(metatype, MetaType):
            from repro.metal.metatypes import ConcreteType

            metatype = ConcreteType(metatype)
        if not hasattr(self, "_specific_vars"):
            self._specific_vars = {}
        if name in self._specific_vars:
            raise ValueError(
                "extension %r already declares state variable %r"
                % (self.name, name)
            )
        self._specific_vars[name] = metatype
        if self.specific_var is None:
            self.specific_var = (name, metatype)
        return name

    @property
    def specific_vars(self):
        """All declared state variables: {name: metatype}."""
        return dict(getattr(self, "_specific_vars", {}))

    @property
    def hole_types(self):
        """Hole typing environment for pattern compilation."""
        holes = dict(getattr(self, "_specific_vars", {}))
        holes.update(self.extra_holes())
        return holes

    def extra_holes(self):
        """Additional hole variables (``decl`` without ``state``)."""
        return getattr(self, "_extra_holes", {})

    def decl(self, name, metatype):
        """Declare a plain hole variable (non-state)."""
        if not hasattr(self, "_extra_holes"):
            self._extra_holes = {}
        self._extra_holes[name] = metatype
        return name

    def parse_state(self, text):
        """Parse ``start`` or ``v.freed`` into a StateRef."""
        if "." in text:
            var, value = text.split(".", 1)
            if var not in getattr(self, "_specific_vars", {}):
                raise ValueError("unknown state variable %r in %r" % (var, text))
            return StateRef(var, value)
        return StateRef(GLOBAL, text)

    def transition(self, source, pattern, to=None, action=None,
                   true_to=None, false_to=None):
        """Add a transition.

        ``source``/``to`` accept ``"start"`` / ``"v.freed"`` strings or
        StateRefs.  ``pattern`` accepts a :class:`Pattern` or base-pattern
        text like ``"{ kfree(v) }"``.  Path-specific transitions pass
        ``true_to``/``false_to`` instead of ``to``.
        """
        source = self._as_ref(source)
        if isinstance(pattern, str):
            pattern = self._compile_pattern_text(pattern)
        if true_to is not None or false_to is not None:
            target = PathSplit(self._as_ref(true_to), self._as_ref(false_to))
        else:
            target = self._as_ref(to) if to is not None else None
        rule = Transition(source, pattern, target, action)
        self.transitions.append(rule)
        self._register_states(rule)
        return rule

    def _as_ref(self, ref):
        if ref is None:
            return None
        if isinstance(ref, StateRef):
            return ref
        return self.parse_state(ref)

    def _compile_pattern_text(self, text):
        text = text.strip()
        if text == "$end_of_path$" or text == "$end of path$":
            return EndOfPath()
        if text.startswith("{") and text.endswith("}"):
            text = text[1:-1]
        return compile_pattern(text, self.hole_types)

    def _register_states(self, rule):
        def register(ref):
            if ref is None or not isinstance(ref, StateRef):
                return
            if ref.value == STOP:
                return
            pool = self.global_states if ref.is_global else self.specific_states
            if ref.value not in pool:
                pool.append(ref.value)

        register(rule.source)
        if isinstance(rule.target, PathSplit):
            register(rule.target.true_state)
            register(rule.target.false_state)
        else:
            register(rule.target)

    # -- queries used by the engine --------------------------------------------------

    @property
    def initial_global(self):
        """The initial global state: the first state in the extension text
        (§5.3)."""
        if self.global_states:
            return self.global_states[0]
        return "start"

    def _mutation_key(self):
        """Cheap fingerprint of the transition list used to invalidate
        the derived-structure caches.  Appends, inserts and removals all
        change it; replacing an element *in place* at the same length
        does not (no seed checker does that -- they go through
        :meth:`transition` or ``transitions.insert``)."""
        transitions = self.transitions
        return (id(transitions), len(transitions))

    def _grouping(self):
        key = self._mutation_key()
        cache = self._groups_cache
        if cache is None or cache[0] != key:
            groups = {}
            for t in self.transitions:
                groups.setdefault((t.source.var, t.source.value), []).append(t)
            cache = (key, {k: tuple(v) for k, v in groups.items()})
            self._groups_cache = cache
        return cache[1]

    def transitions_from(self, ref):
        return self._grouping().get((ref.var, ref.value), ())

    def global_transitions(self, value):
        return self._grouping().get((GLOBAL, value), ())

    def specific_transitions(self, value, var_name=None):
        """Transitions out of ``<var>.<value>``; ``var_name`` defaults to
        the first declared state variable (the common one-variable case)."""
        if var_name is None:
            if self.specific_var is None:
                return ()
            var_name = self.specific_var[0]
        return self._grouping().get((var_name, value), ())

    def uses_end_of_path(self):
        key = self._mutation_key()
        cache = self._eop_cache
        if cache is None or cache[0] != key:
            cache = (
                key,
                any(t.pattern.mentions_end_of_path() for t in self.transitions),
            )
            self._eop_cache = cache
        return cache[1]

    def start_anchors(self):
        """The callee names a run must call before any rule can fire.

        Only a rule out of the initial global state can create an
        instance or change the global state, so a root whose analysis
        never meets a call to one of these names cannot report.  The
        union of the start rules' :meth:`Pattern.anchors`; None when
        one of them is unanchored, and empty when there is no start
        rule (docs/ENGINE.md, "Live roots").
        """
        key = self._mutation_key()
        cache = self._anchors_cache
        if cache is None or cache[0] != key:
            anchors = frozenset()
            for rule in self.global_transitions(self.initial_global):
                names = rule.pattern.anchors()
                if names is None:
                    anchors = None
                    break
                anchors |= names
            cache = (key, anchors)
            self._anchors_cache = cache
        return cache[1]

    def compiled(self):
        """This extension's dispatch tables (lazily built by
        :mod:`repro.metal.compile` from :meth:`_grouping`, invalidated
        when the transition list changes)."""
        key = self._mutation_key()
        cache = self._compiled_cache
        if cache is None or cache[0] != key:
            cache = (key, CompiledExtension(self))
            self._compiled_cache = cache
        return cache[1]

    def copy(self):
        """An extension with this one's declarations and transitions that
        can be extended or reordered without touching this one (the rules
        themselves are shared: nothing mutates a rule)."""
        clone = Extension.__new__(Extension)
        clone.__dict__ = self.__getstate__()
        for attr, value in clone.__dict__.items():
            if isinstance(value, (list, dict)):
                clone.__dict__[attr] = type(value)(value)
        return clone

    def __getstate__(self):
        """Derived caches are rebuilt on demand; never pickle them."""
        state = dict(self.__dict__)
        for attr in ("_groups_cache", "_eop_cache", "_anchors_cache",
                     "_compiled_cache"):
            state.pop(attr, None)
        return state

    def __repr__(self):
        return "<Extension %s: %d transitions>" % (self.name, len(self.transitions))
