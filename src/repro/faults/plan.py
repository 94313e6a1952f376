"""Fault *plans*: the installed spec list plus its cross-process state.

A plan is a list of spec dicts naming instrumented sites (see
:mod:`repro.faults` for the site table), installed process-wide with
:func:`install` and exported to worker processes through the
``XGCC_FAULTS`` environment variable.  This module owns the plan model
and its determinism machinery (shared counters, stable hashing); the
sites that *consume* plans live in :mod:`repro.faults.inject`.
"""

import hashlib
import json
import os
import shutil
import tempfile

#: Environment variable carrying the active plan to worker processes.
ENV_VAR = "XGCC_FAULTS"

_SITES = frozenset([
    "pass1.worker.kill", "pass1.worker.hang", "pass1.parse",
    "cache.corrupt", "summary.corrupt", "summary.manifest", "engine.budget",
    "daemon.watcher", "daemon.request",
    "store.request", "store.conflict", "store.slow",
    "refine.budget", "refine.error",
])


class FaultPlan:
    """An installed set of fault specs plus the shared counter state."""

    def __init__(self, specs, seed=0, state_dir=None, installer_pid=None):
        self.specs = [dict(spec) for spec in specs]
        for spec in self.specs:
            if spec.get("site") not in _SITES:
                raise ValueError("unknown fault site: %r" % spec.get("site"))
        self.seed = seed
        self.state_dir = state_dir
        self.installer_pid = installer_pid if installer_pid else os.getpid()
        self._local_counts = {}

    def to_json(self):
        return json.dumps({
            "specs": self.specs,
            "seed": self.seed,
            "state_dir": self.state_dir,
            "installer_pid": self.installer_pid,
        })

    @classmethod
    def from_json(cls, blob):
        data = json.loads(blob)
        return cls(data["specs"], data["seed"], data["state_dir"],
                   data["installer_pid"])


_PLAN = None


def install(specs, seed=0):
    """Install a plan process-wide and export it to worker processes."""
    global _PLAN
    state_dir = tempfile.mkdtemp(prefix="xgcc-faults-")
    _PLAN = FaultPlan(specs, seed=seed, state_dir=state_dir)
    os.environ[ENV_VAR] = _PLAN.to_json()
    return _PLAN


def clear():
    """Remove the active plan (and its shared counter state)."""
    global _PLAN
    plan = _plan()
    _PLAN = None
    os.environ.pop(ENV_VAR, None)
    if plan is not None and plan.state_dir and plan.installer_pid == os.getpid():
        shutil.rmtree(plan.state_dir, ignore_errors=True)


class injected:
    """``with faults.injected([...]):`` -- install, then always clear."""

    def __init__(self, specs, seed=0):
        self.specs = specs
        self.seed = seed

    def __enter__(self):
        return install(self.specs, seed=self.seed)

    def __exit__(self, *exc):
        clear()
        return False


def _plan():
    """The active plan: installed locally, or adopted from the env (the
    path a worker process takes on its first check)."""
    global _PLAN
    if _PLAN is not None:
        return _PLAN
    blob = os.environ.get(ENV_VAR)
    if blob:
        _PLAN = FaultPlan.from_json(blob)
        return _PLAN
    return None


def active():
    """Is any fault plan installed?  (Cheap gate for hot paths.)"""
    return _plan() is not None


def in_worker():
    """Is this process a worker (not the plan's installing process)?"""
    plan = _plan()
    return plan is not None and os.getpid() != plan.installer_pid


def _stable_fraction(seed, site, key):
    """A deterministic [0, 1) value from (seed, site, key) -- the same in
    every process, so probabilistic plans reproduce exactly."""
    text = "%s|%s|%s" % (seed, site, key)
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


def _bump(plan, index):
    """Increment spec ``index``'s shared attempt counter; returns the
    count *including* this attempt.

    The counter is a file in the plan's state directory opened with
    ``O_APPEND``: the kernel serializes the writes, and ``lseek`` after
    our own write reports exactly how many attempts preceded us -- an
    atomic cross-process counter with no locking.
    """
    if not plan.state_dir or not os.path.isdir(plan.state_dir):
        count = plan._local_counts.get(index, 0) + 1
        plan._local_counts[index] = count
        return count
    path = os.path.join(plan.state_dir, "spec-%d" % index)
    fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
    try:
        os.write(fd, b".")
        return os.lseek(fd, 0, os.SEEK_CUR)
    finally:
        os.close(fd)
