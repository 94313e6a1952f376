"""Memory-leak (ownership) checker (``leak.metal``).

The rule: memory obtained from an allocator must, on every path, be
released, returned to the caller, or published through a pointer store
before the path ends.  A classic of the MC checker family -- and a good
showcase for ``$end_of_path$`` plus callout-based ownership transfer.
"""

from repro.checkers.metal import load


def leak_checker():
    return load("leak.metal")
