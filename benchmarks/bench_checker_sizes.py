"""§1 claim: "extensions are small -- usually between 10 and 200 lines of
code, depending mostly on the amount of error reporting that they do."

We count the effective source lines of every shipped checker: the metal
text of each metal checker (every state-machine checker, plus the
production free variant), and the Python body only of the checkers that
stay Python (``audit``, ``block``, ``pathkill``).
"""

import inspect
import os

from repro.checkers import ALL_CHECKERS
from repro.checkers.metal import DIRECTORY, read


def _loc(text):
    """Non-blank lines outside comments (``#``, ``//`` and ``/* */``)."""
    count = 0
    in_comment = False
    for line in text.splitlines():
        line = line.strip()
        if in_comment:
            in_comment = "*/" not in line
            continue
        if line.startswith("/*"):
            in_comment = "*/" not in line
            continue
        if line and not line.startswith(("#", "//")):
            count += 1
    return count


def collect_sizes():
    sizes = {}
    for name in sorted(os.listdir(DIRECTORY)):
        if name.endswith(".metal"):
            sizes["%s (metal)" % name[:-len(".metal")]] = _loc(read(name))
    for name, factory in sorted(ALL_CHECKERS.items()):
        if factory().source is None:
            sizes["%s (python)" % name] = _loc(inspect.getsource(factory))
    return sizes


def test_checker_sizes(benchmark):
    sizes = benchmark(collect_sizes)
    print("\nchecker sizes (paper: 10-200 lines each):")
    for name, loc in sorted(sizes.items(), key=lambda kv: kv[1]):
        print("  %-26s %3d lines" % (name, loc))
    for name, loc in sizes.items():
        assert 5 <= loc <= 200, name
