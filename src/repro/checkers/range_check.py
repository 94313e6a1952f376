"""Tainted-index checker (``range.metal``): user-supplied integers must
be bounds-checked before indexing an array (the second Oakland'02 rule
family).

Path-specific transitions on the bounds comparison move the index from
``tainted`` to ``checked`` on the guarded side only.
"""

from repro.checkers.metal import load


def range_check_checker():
    return load("range.metal")
