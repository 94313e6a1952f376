"""Injection points: the site-side API the engine and driver call.

These functions consult the active :class:`repro.faults.plan.FaultPlan`
(installed locally or adopted from the ``XGCC_FAULTS`` environment) and
fire the matching fault: return the spec (:func:`fires`), raise
(:func:`check`), or kill/hang the current worker
(:func:`at_worker_entry`).
"""

import os
import time

from repro.faults.plan import _bump, _plan, _stable_fraction, in_worker


class InjectedFault(Exception):
    """Raised at ``raise``-style injection sites (:func:`check`, as
    ``pass1.parse`` does)."""


def fires(site, key=None):
    """The matching spec dict if a fault fires here, else None.

    Every call against a ``times``-limited spec counts as one attempt in
    the plan's shared (cross-process) counter.
    """
    plan = _plan()
    if plan is None:
        return None
    for index, spec in enumerate(plan.specs):
        if spec.get("site") != site:
            continue
        want = spec.get("key")
        if want is not None and (key is None or str(want) != str(key)):
            continue
        probability = spec.get("probability")
        if probability is not None:
            if _stable_fraction(plan.seed, site, key) < probability:
                return spec
            continue
        times = spec.get("times")
        if times is None or _bump(plan, index) <= times:
            return spec
    return None


def check(site, key=None):
    """Raise :class:`InjectedFault` if a fault fires at this site."""
    spec = fires(site, key=key)
    if spec is not None:
        raise InjectedFault(
            "injected fault at %s (key=%r)" % (site, key)
        )


def at_worker_entry(site_prefix, key=None):
    """Apply kill/hang faults at a worker function's entry point.

    No-op in the installing process, so the in-process fallback path can
    never take the driver down with it.
    """
    if not in_worker():
        return
    spec = fires(site_prefix + ".kill", key=key)
    if spec is not None:
        os._exit(int(spec.get("exit_code", 87)))
    spec = fires(site_prefix + ".hang", key=key)
    if spec is not None:
        time.sleep(float(spec.get("seconds", 3600.0)))
