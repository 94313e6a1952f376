"""The metal texts of the registered state-machine checkers.

Each ``*.metal`` file here is one checker, and :func:`load` is how the
checker modules build them: the text is read once, its parameters are
bound by :func:`repro.metal.language.instantiate`, and
:func:`repro.metal.compile_metal` parses each distinct text once per
process, handing every caller its own :class:`~repro.metal.sm.Extension`.
"""

import functools
import os

from repro.metal.language import compile_metal, instantiate

DIRECTORY = os.path.dirname(os.path.abspath(__file__))


@functools.lru_cache(maxsize=None)
def read(name):
    """The text of the checker file ``name``."""
    with open(os.path.join(DIRECTORY, name)) as handle:
        return handle.read()


def load(name, **params):
    """A fresh extension compiled from the checker file ``name``, with
    ``params`` bound in its text."""
    return compile_metal(instantiate(read(name), params),
                         os.path.join(DIRECTORY, name))
