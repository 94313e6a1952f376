"""The free checker (Figure 1): use-after-free and double-free.

``free.metal`` is the Figure 1 text, verbatim modulo the DSL's
underscored spelling of ``any pointer``.  ``free_ranked.metal`` is the
production variant: every dereference form, the freeing function as each
report's ``rule_id`` for statistical ranking (§9), and "pointer freed and
never touched again" counted as an example of that rule.
``free_suppressed.metal`` is that variant with the §8 targeted
suppressions.
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
    """The §8 "targeted suppression" variant of the production checker
    over ``kfree`` (``free_suppressed.metal``): freed pointers passed to
    ``printk``/``dprintf`` stay freed, and ``&v`` passed to any call
    stops tracking ``v``."""
    return load("free_suppressed.metal")
