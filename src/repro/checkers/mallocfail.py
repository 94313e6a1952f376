"""Unchecked-allocation checker (``mallocfail.metal``).

Flags a dereference of a freshly allocated pointer that happens before
*any* test of the pointer -- the classic "kernel code must check kmalloc"
rule.  The null checker (:mod:`repro.checkers.null`) is the path-sensitive
sibling; this one is deliberately simpler and demonstrates how little
metal a useful rule needs.

The paper ranks this class of error low ("easier to diagnose with
testing, such as memory allocation failures", §9), so its default
severity is MINOR.
"""

from repro.checkers.metal import load


def malloc_fail_checker():
    return load("mallocfail.metal")
