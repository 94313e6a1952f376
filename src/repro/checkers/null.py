"""Null-pointer checker (``null.metal``): dereferencing a pointer on a
path where it is known (or not yet known) to be NULL.

Demonstrates path-specific transitions on *checks* rather than on calls:
``if (p)`` / ``if (p == 0)`` / ``if (!p)`` all branch the instance into a
null state and a non-null state.  Synonyms make the classic

    p = q = kmalloc(...);
    if (!p) return 0;
    *q;            /* safe: q = p = not null */

sequence check out (§8).
"""

from repro.checkers.metal import load


def null_checker():
    return load("null.metal")
