"""Format-string checker (``format_string.metal``).

Two rules in one extension:

* *stateless*: calling a printf-family function with a non-literal format
  string (the "%n" attack surface) -- a pure pattern+callout rule;
* *taint-flow*: a string obtained from the user reaching a format
  position, via a variable-specific state machine.

Which argument is the format is the callout library's
``mc_format_arg`` (:data:`repro.metal.callouts.PRINTF_FAMILY`).
"""

from repro.checkers.metal import load


def format_string_checker():
    return load("format_string.metal")
