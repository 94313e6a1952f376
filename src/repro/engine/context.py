"""The context object handed to C code actions (§3.2).

Actions can: report errors with the "why" attached, manipulate the
instance's data value, update the global state directly, annotate ASTs for
composed extensions, bump the statistical counters used by ranking, and
stop the current path (the path-kill idiom).
"""

from repro.cfront.unparse import unparse
from repro.reports.model import Report


class StopPath(Exception):
    """Raised by ``ctx.stop_path()``: abandon the current execution path
    (the path-kill composition idiom, §3.2)."""


class ActionContext:
    """What a transition's action (or a callout) sees when it runs."""

    def __init__(self, engine, sm, point, bindings, instance=None):
        self.engine = engine
        self.sm = sm
        self.point = point
        self.bindings = bindings
        self.instance = instance

    # -- conveniences ----------------------------------------------------------

    @property
    def extension(self):
        return self.sm.extension

    @property
    def globals(self):
        """The per-extension user-global dictionary (metal's global C
        variables)."""
        return self.engine.user_globals(self.extension)

    @property
    def path_data(self):
        """Path-local storage; mutations revert when the DFS backtracks."""
        return self.sm.path_data

    @property
    def location(self):
        return getattr(self.point, "location", None)

    @property
    def function(self):
        return self.engine.current_function_name()

    def binding(self, name):
        return self.bindings.get(name)

    def identifier(self, name):
        """Source text of a binding (mc_identifier in metal)."""
        node = self.bindings.get(name)
        if node is None:
            return "<unbound %s>" % name
        if isinstance(node, list):
            return ", ".join(unparse(n) for n in node)
        return unparse(node)

    # -- error reporting ----------------------------------------------------------

    def err(self, fmt, *args, severity=None, rule_id=None):
        """Report a rule violation.

        Ranking inputs (distance, conditionals crossed, synonym chain,
        call-chain length) are filled in from the triggering instance and
        the engine's current path.
        """
        message = fmt % args if args else fmt
        inst = self.instance
        report = Report(
            checker=self.extension.name,
            message=message,
            location=self.location,
            function=self.function,
            origin_location=inst.origin_location if inst else None,
            conditionals=inst.conditionals_crossed if inst else 0,
            synonym_chain=inst.synonym_chain if inst else 0,
            call_chain=self.engine.call_depth(),
            severity=severity or self.extension.default_severity,
            rule_id=rule_id,
            variable=unparse(inst.obj) if inst else None,
            trace=inst.history if inst else None,
        )
        added = self.engine.log.add(report)
        if added is not None and rule_id is not None:
            self.engine.log.count_violation(rule_id, self.location)
        return report

    # -- instance data values (§3.1: "a C structure of arbitrary size") -------------

    def get_data(self, key, default=None):
        if self.instance is None:
            return default
        return self.instance.data.get(key, default)

    def set_data(self, key, value):
        if self.instance is None:
            raise ValueError("no instance to attach data to")
        self.instance.data[key] = value

    # -- direct state manipulation ("xgcc's internal interface", §3.2) --------------

    def set_global_state(self, value):
        self.sm.gstate = value

    def set_instance_state(self, value):
        """Transition the triggering instance directly; assigning ``stop``
        removes its SM like an ordinary stop transition would."""
        if self.instance is None:
            return
        from repro.metal.sm import STOP
        from repro.engine.synonyms import mirror_transition

        if value == STOP:
            mirror_transition(self.sm, self.instance, STOP)
            self.sm.remove(self.instance)
        else:
            self.instance.value = value
            mirror_transition(self.sm, self.instance, value, self.instance.data)

    # -- composition (AST annotations, §3.2) ----------------------------------------

    def annotate(self, node, key, value):
        self.engine.annotations.put(node, key, value)

    def annotation(self, node, key, default=None):
        return self.engine.annotations.get(node, key, default)

    # -- statistical counters (§9) ----------------------------------------------------

    def count_example(self, rule_id, site=None):
        self.engine.log.count_example(rule_id, site or self.location)

    def count_violation(self, rule_id, site=None):
        self.engine.log.count_violation(rule_id, site or self.location)

    # -- control ------------------------------------------------------------------------

    def stop_path(self):
        """Abandon the current path (path-kill)."""
        raise StopPath()
