"""The lock checker (Figure 3): path-specific transitions and
``$end_of_path$``.

Warns when locks are (1) released without being acquired, (2) double
acquired, or (3) not released at all.  ``trylock`` (non-blocking
acquisition, returns 1 on success) drives the path-specific transition:
locked on the true path, dropped on the false path.  ``lock.metal`` is
the Figure 3 text; ``counting_lock.metal`` is §3.2's recursive-lock
variant.
"""

from repro.checkers.metal import load, read

LOCK_CHECKER_SOURCE = read("lock.metal")


def lock_checker(lock_fn="lock", unlock_fn="unlock", trylock_fn="trylock"):
    """The Figure 3 checker; the function names are parameters so the same
    machine checks spin_lock/spin_unlock, mutex_lock/mutex_unlock, etc."""
    return load("lock.metal", lock=lock_fn, unlock=unlock_fn,
                trylock=trylock_fn)


def counting_lock_checker():
    """The §3.2 recursive-lock variant: C code actions track the lock
    depth in the instance's data value; depth below zero or above four
    is an incorrect pairing."""
    return load("counting_lock.metal")
