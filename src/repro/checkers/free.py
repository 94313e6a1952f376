"""The free checker (Figure 1): use-after-free and double-free.

``free.metal`` is the Figure 1 text, verbatim modulo the DSL's
underscored spelling of ``any pointer``.  ``free_ranked.metal`` is the
production variant: every dereference form, the freeing function as each
report's ``rule_id`` for statistical ranking (§9), and "pointer freed and
never touched again" counted as an example of that rule.
"""

from repro.checkers.metal import load, read

FREE_CHECKER_SOURCE = read("free.metal")


def free_checker(free_functions=None):
    """The Figure 1 checker.

    Called with no arguments this compiles the figure's metal text;
    passing deallocator names (``("kfree", "vfree")``) compiles the
    production variant with one start and one double-free pattern per
    deallocator.
    """
    if free_functions is None:
        return load("free.metal")
    return load("free_ranked.metal", kfree=tuple(free_functions))


def suppressed_free_checker():
    """The §8 "targeted suppression" variant.

    The conservative checker's false positives came from (1) passing freed
    pointers to debugging print functions and (2) passing their addresses
    to reinitializers.  The paper fixed both with eight added lines; here
    the suppression is three transitions built from the shared helpers in
    :mod:`repro.reports.triage`, added to a copy of the production
    checker.
    """
    from repro.reports.triage import (
        address_of_suppression,
        insert_suppressions,
        pattern_suppression,
    )

    ext = free_checker(("kfree",))
    # Passing a freed pointer to a debug printer is fine: stay freed.
    insert_suppressions(ext, [
        pattern_suppression(ext, "v.freed", "{ %s(v) }" % fn)
        for fn in ("printk", "dprintf")
    ])
    # Passing &v to any function redefines v (the BSD idiom): drop state.
    insert_suppressions(ext, [
        address_of_suppression(ext, "v.freed", "v", to="v.stop"),
    ])
    return ext
