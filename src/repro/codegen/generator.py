"""Deterministic kernel-style C generator with ground-truth bug injection.

Each generated function follows one of a handful of kernel idioms
(lock/unlock around a critical section, allocate/check/use/free, user
input handling, wrapper functions) and, with a seeded probability, gets a
specific bug injected: missing unlock on an error path, use-after-free,
double free, unchecked allocation, unchecked user index, user-pointer
dereference.

The generator returns both the C text and the list of
:class:`InjectedBug` ground-truth records; benchmark harnesses score
checkers against them.
"""

import random


class InjectedBug:
    """Ground truth for one injected bug."""

    def __init__(self, kind, function):
        self.kind = kind
        self.function = function

    def __repr__(self):
        return "InjectedBug(%r, %r)" % (self.kind, self.function)

    def __eq__(self, other):
        return (
            isinstance(other, InjectedBug)
            and other.kind == self.kind
            and other.function == self.function
        )

    def __hash__(self):
        return hash((self.kind, self.function))


#: Bug kinds the generator can inject, mapped to the checker that finds them.
BUG_KINDS = {
    "missing-unlock": "lock",
    "double-lock": "lock",
    "use-after-free": "free",
    "double-free": "free",
    "unchecked-alloc": "mallocfail",
    "tainted-index": "range",
    "user-pointer-deref": "user-pointer",
    "interproc-uaf": "free",
}

_HEADER = """\
/* generated kernel-style module (seed=%d) */
struct device { int flags; int count; int lck; char *buf; };
"""


class KernelWorkload:
    """The generator output: source text + ground truth."""

    def __init__(self, source, bugs, seed, function_names):
        self.source = source
        self.bugs = bugs
        self.seed = seed
        self.function_names = function_names

    def __repr__(self):
        return "<KernelWorkload %d functions, %d bugs, seed=%d>" % (
            len(self.function_names),
            len(self.bugs),
            self.seed,
        )


def generate_kernel_module(seed=0, n_functions=20, bug_rate=0.3, kinds=None,
                           suppression_idioms=False):
    """Generate one module.

    ``bug_rate`` is the probability that a generated function gets its
    idiom's bug injected.  ``kinds`` restricts the idioms used (defaults
    to all of ``BUG_KINDS``).  ``suppression_idioms`` additionally emits
    *correct* functions written in the idioms §8's techniques exist to
    protect (correlated branches, kill-then-reuse, synonym checks) --
    they stay clean only while those techniques are enabled, which is
    what the ablation benchmarks measure.
    """
    rng = random.Random(seed)
    kinds = list(kinds or BUG_KINDS)
    chunks = [_HEADER % seed]
    bugs = []
    names = []
    for index in range(n_functions):
        kind = kinds[index % len(kinds)]
        buggy = rng.random() < bug_rate
        name = "%s_%d" % (kind.replace("-", "_"), index)
        names.append(name)
        body, injected = _FUNCTION_MAKERS[kind](name, buggy, rng)
        chunks.append(body)
        if injected:
            bugs.append(InjectedBug(kind, name))
    if suppression_idioms:
        for maker_index, maker in enumerate(_SUPPRESSION_MAKERS):
            name = "idiom_%d" % maker_index
            names.append(name)
            chunks.append(maker(name, rng))
    return KernelWorkload("\n".join(chunks), bugs, seed, names)


def _idiom_correlated_branches(name, rng):
    """Clean only under false-path pruning (the Fig. 2 shape)."""
    return (
        "int %s(struct device *p, int x) {\n"
        "    if (x)\n"
        "        kfree(p);\n"
        "    if (!x)\n"
        "        return p->count;\n"
        "    return 0;\n"
        "}\n" % name
    )


def _idiom_kill_then_reuse(name, rng):
    """Clean only under kill-on-redefinition."""
    return (
        "int %s(struct device *p, int n) {\n"
        "    kfree(p);\n"
        "    p = make_device(n);\n"
        "    p->count = n;\n"
        "    return 0;\n"
        "}\n" % name
    )


def _idiom_synonym_check(name, rng):
    """Clean only under synonym tracking (the §8 kmalloc example)."""
    return (
        "int %s(int n) {\n"
        "    struct device *p, *q;\n"
        "    p = q = kmalloc(n);\n"
        "    if (!p)\n"
        "        return -1;\n"
        "    q->count = n;\n"
        "    return 0;\n"
        "}\n" % name
    )


_SUPPRESSION_MAKERS = (
    _idiom_correlated_branches,
    _idiom_kill_then_reuse,
    _idiom_synonym_check,
)


# -- per-idiom function makers ------------------------------------------------


def _lock_missing_unlock(name, buggy, rng):
    """Lock around a critical section; bug: early error return skips the
    unlock."""
    error_branch = (
        "    if (dev->flags & %d) {\n"
        "        %s\n"
        "        return -1;\n"
        "    }\n"
    ) % (rng.randint(1, 15), "" if buggy else "unlock(&dev->lck);")
    text = (
        "int %s(struct device *dev) {\n"
        "    lock(&dev->lck);\n"
        "    dev->count = dev->count + 1;\n"
        "%s"
        "    dev->flags = 0;\n"
        "    unlock(&dev->lck);\n"
        "    return 0;\n"
        "}\n"
    ) % (name, error_branch)
    return text, buggy


def _double_lock(name, buggy, rng):
    relock = "    lock(&dev->lck);\n" if buggy else ""
    text = (
        "int %s(struct device *dev, int n) {\n"
        "    lock(&dev->lck);\n"
        "    if (n > %d)\n"
        "        dev->flags = n;\n"
        "%s"
        "    dev->count = n;\n"
        "    unlock(&dev->lck);\n"
        "    return n;\n"
        "}\n"
    ) % (name, rng.randint(2, 9), relock)
    return text, buggy


def _use_after_free(name, buggy, rng):
    tail = "    return p->flags;\n" if buggy else "    return 0;\n"
    text = (
        "int %s(struct device *p, int n) {\n"
        "    p->count = n;\n"
        "    if (n < 0) {\n"
        "        kfree(p);\n"
        "        return -1;\n"
        "    }\n"
        "    kfree(p);\n"
        "%s"
        "}\n"
    ) % (name, tail)
    return text, buggy


def _double_free(name, buggy, rng):
    refree = "    kfree(p);\n" if buggy else ""
    text = (
        "int %s(struct device *p) {\n"
        "    int rc = p->flags;\n"
        "    kfree(p);\n"
        "%s"
        "    return rc;\n"
        "}\n"
    ) % (name, refree)
    return text, buggy


def _unchecked_alloc(name, buggy, rng):
    check = "" if buggy else "    if (!p)\n        return -1;\n"
    text = (
        "int %s(int n) {\n"
        "    struct device *p = kmalloc(n);\n"
        "%s"
        "    p->count = n;\n"
        "    kfree(p);\n"
        "    return 0;\n"
        "}\n"
    ) % (name, check)
    return text, buggy


def _tainted_index(name, buggy, rng):
    size = rng.choice((16, 32, 64))
    check = "" if buggy else "    if (idx >= %d)\n        return -1;\n" % size
    text = (
        "int %s(int cmd) {\n"
        "    int table[%d];\n"
        "    int idx = get_user_int(cmd);\n"
        "%s"
        "    table[idx] = cmd;\n"
        "    return table[0];\n"
        "}\n"
    ) % (name, size, check)
    return text, buggy


def _user_pointer_deref(name, buggy, rng):
    use = (
        "    *p = cmd;\n"
        if buggy
        else "    copy_from_user(buf, p, %d);\n" % rng.choice((8, 16))
    )
    text = (
        "int %s(int cmd) {\n"
        "    char buf[32];\n"
        "    char *p = get_user_ptr(cmd);\n"
        "%s"
        "    return 0;\n"
        "}\n"
    ) % (name, use)
    return text, buggy


def _interproc_uaf(name, buggy, rng):
    """A helper frees its argument; the caller must not touch it after
    the call -- found only by the interprocedural machinery (Table 2)."""
    tail = "    return dev->count;\n" if buggy else "    return %d;\n" % rng.randint(0, 9)
    text = (
        "void %s_discard(struct device *p) {\n"
        "    p->flags = 0;\n"
        "    kfree(p);\n"
        "}\n"
        "int %s(struct device *dev, int n) {\n"
        "    dev->count = n;\n"
        "    %s_discard(dev);\n"
        "%s"
        "}\n"
    ) % (name, name, name, tail)
    return text, buggy


_FUNCTION_MAKERS = {
    "missing-unlock": _lock_missing_unlock,
    "double-lock": _double_lock,
    "use-after-free": _use_after_free,
    "double-free": _double_free,
    "unchecked-alloc": _unchecked_alloc,
    "tainted-index": _tainted_index,
    "user-pointer-deref": _user_pointer_deref,
    "interproc-uaf": _interproc_uaf,
}


def generate_wrapper_module(seed=0, n_users=20, sections_per_user=3):
    """The §9 code-ranking scenario: lock *wrapper* functions that only
    acquire (or only release) -- which an intraprocedural pairing analysis
    flags every time -- plus honest users, each with several correctly
    paired critical sections and the occasional real bug in one of them.

    Returns (source, names_of_wrappers, names_of_real_bugs).
    """
    rng = random.Random(seed)
    chunks = [_HEADER % seed]
    chunks.append(
        "void helper_acquire(struct device *dev) {\n"
        "    lock(&dev->lck);\n"
        "}\n"
        "void helper_release(struct device *dev) {\n"
        "    unlock(&dev->lck);\n"
        "}\n"
    )
    real_bugs = []
    for index in range(n_users):
        buggy = index % 7 == 3
        name = "user_fn_%d" % index
        sections = []
        for section in range(sections_per_user):
            drop_unlock = buggy and section == sections_per_user - 1
            sections.append(
                "    lock(&dev->lck);\n"
                "    dev->count = %d;\n"
                "%s" % (
                    rng.randint(0, 99),
                    "" if drop_unlock else "    unlock(&dev->lck);\n",
                )
            )
        chunks.append(
            "int %s(struct device *dev) {\n%s    return 0;\n}\n"
            % (name, "".join(sections))
        )
        if buggy:
            real_bugs.append(name)
    return "\n".join(chunks), ["helper_acquire", "helper_release"], real_bugs
