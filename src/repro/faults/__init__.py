"""Deterministic, seeded fault injection for robustness testing.

Production static analysis survives hostile environments: worker
processes get OOM-killed mid-component, full disks truncate cache
entries, and pathological translation units blow every analysis budget.
The recovery machinery for all of that (docs/DRIVER.md, "Degradation
semantics") is only trustworthy if it can be exercised on demand, so this
package lets tests force those failures at instrumented points in the
engine and driver.

The package is split in two (with everything re-exported here):

- :mod:`repro.faults.plan` -- the plan model: spec validation,
  install/clear, cross-process counter state, env propagation;
- :mod:`repro.faults.inject` -- the injection points the engine and
  driver call (:func:`fires`, :func:`check`, :func:`at_worker_entry`).

A fault *plan* is a list of spec dicts::

    faults.install([
        {"site": "pass1.worker.kill", "key": "/src/ioctl.c", "times": 1},
        {"site": "cache.corrupt", "mode": "garbage", "times": 1},
        {"site": "summary.corrupt", "mode": "truncate", "times": 1},
        {"site": "engine.budget", "key": "hot_root"},
        {"site": "pass1.parse", "key": "/src/ioctl.c", "probability": 0.5},
    ])

Instrumented sites (``key`` narrows the fault to one work item):

==========================  =============================  ==================
site                        fires where                    key
==========================  =============================  ==================
``pass1.worker.kill``       pass-1 worker entry (exits)    source path
``pass1.worker.hang``       pass-1 worker entry (sleeps)   source path
``pass1.parse``             before the parse (raises)      source path
``cache.corrupt``           after an AST-cache store       cache key
``summary.corrupt``         after a summary-pack store     pack key
``engine.budget``           every budget check (raises)    root function
``daemon.watcher``          every watcher poll (raises)    watch root
``daemon.request``          daemon request decode (raises) request op
``store.request``           ``POST /store``: drop reply    request op
``store.slow``              ``POST /store``: stall reply   request op
``store.conflict``          client manifest-CAS window     session signature
==========================  =============================  ==================

(The ``summary.manifest`` site simulates a rival session's manifest
merge landing first; see :meth:`repro.driver.cache.SummaryCache.
store_manifest`.  ``store.request`` with ``mode="partial"`` sends the
full ``Content-Length`` but half the body before dropping -- the
mid-batch-crash shape; ``store.conflict`` runs a genuine rival
read-merge-CAS inside the client's compare-and-swap window, forcing the
bounded-retry merge path; see docs/STORE.md.)

Determinism guarantees:

- ``times=N`` counters live in a shared on-disk state directory, so the
  count is global across the installing process and every worker: the
  first N matching attempts fire, wherever they happen.  A plan that
  kills the first pass-1 worker therefore kills it exactly once -- the
  retry survives -- no matter which process hosts the retry.
- ``probability=p`` is stateless: the verdict is a pure hash of
  ``(seed, site, key)``, so it is identical in every process and on
  every retry.  No ambient randomness is consulted anywhere.
- Plans propagate to worker processes through the ``XGCC_FAULTS``
  environment variable, surviving both fork and spawn start methods.

The ``*.kill`` and ``*.hang`` sites are applied through
:func:`at_worker_entry`, which is a no-op in the installing process --
an in-process fallback run can never kill or hang the driver itself.
"""

from repro.faults.inject import (
    InjectedFault,
    at_worker_entry,
    check,
    fires,
)
from repro.faults.plan import (
    ENV_VAR,
    FaultPlan,
    active,
    clear,
    in_worker,
    injected,
    install,
)

__all__ = [
    "ENV_VAR",
    "FaultPlan",
    "InjectedFault",
    "active",
    "at_worker_entry",
    "check",
    "clear",
    "fires",
    "in_worker",
    "injected",
    "install",
]
