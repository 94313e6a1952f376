"""The checker library.

The paper reports "over fifty checkers" across its companion papers; this
package ships the representative set the paper itself discusses -- the two
figures (free, lock) plus the families its prose describes (null/unchecked
allocation, interrupts, user-pointer security, format strings, tainted
indices, path-kill composition, and statistical pair inference).

Every checker is a factory returning a fresh
:class:`repro.metal.sm.Extension`.  Each state-machine checker is one
metal text under ``checkers/metal/`` (free, lock, null, mallocfail, intr,
user-pointer, format-string, range, leak, and the production free and
counting-lock variants), compiled by :func:`repro.metal.compile_metal`;
its module is a one-line factory, and ``FREE_CHECKER_SOURCE`` /
``LOCK_CHECKER_SOURCE`` are the Figure 1 / Figure 3 files' texts.  Three
registered checkers stay Python, each saying why in its module:
``block`` (a path-local depth on a global machine), ``audit`` (a
tag -> claimant table) and ``pathkill`` (the composition layer), as do
the statistical inferers (``retcheck``, ``nullarg``, ``pairs_infer``),
which are not state machines.
"""

from repro.checkers.block import blocking_checker
from repro.checkers.free import FREE_CHECKER_SOURCE, free_checker
from repro.checkers.leak import leak_checker
from repro.checkers.lock import LOCK_CHECKER_SOURCE, lock_checker
from repro.checkers.retcheck import infer_must_check_rules, report_deviant_sites
from repro.checkers.null import null_checker
from repro.checkers.nullarg import infer_nonnull_rules, report_null_argument_sites
from repro.checkers.mallocfail import malloc_fail_checker
from repro.checkers.intr import interrupt_checker
from repro.checkers.security import user_pointer_checker
from repro.checkers.format_string import format_string_checker
from repro.checkers.range_check import range_check_checker
from repro.checkers.global_audit import audit_checker
from repro.checkers.pathkill import path_kill_extension
from repro.checkers.pairs_infer import infer_pairs, make_pair_checker

#: name -> factory, for the CLI and the benchmarks.
ALL_CHECKERS = {
    "free": free_checker,
    "lock": lock_checker,
    "null": null_checker,
    "mallocfail": malloc_fail_checker,
    "intr": interrupt_checker,
    "user-pointer": user_pointer_checker,
    "format-string": format_string_checker,
    "range": range_check_checker,
    "pathkill": path_kill_extension,
    "block": blocking_checker,
    "leak": leak_checker,
    "audit": audit_checker,
}

__all__ = [
    "ALL_CHECKERS",
    "FREE_CHECKER_SOURCE",
    "LOCK_CHECKER_SOURCE",
    "blocking_checker",
    "free_checker",
    "lock_checker",
    "null_checker",
    "malloc_fail_checker",
    "interrupt_checker",
    "user_pointer_checker",
    "format_string_checker",
    "range_check_checker",
    "path_kill_extension",
    "infer_pairs",
    "make_pair_checker",
    "leak_checker",
    "infer_must_check_rules",
    "report_deviant_sites",
    "infer_nonnull_rules",
    "report_null_argument_sites",
]
