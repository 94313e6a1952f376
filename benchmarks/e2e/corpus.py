"""``kcorpus``: the seeded kernel-style source tree the end-to-end
benchmark drives ``xgcc`` over.

The tree is built on the public generator
(:func:`repro.codegen.generator.generate_kernel_module`) and adds the
shapes a whole source base has and a single module lacks:

- ``include/h0.h`` .. ``include/h7.h``: an include DAG.  Header ``i > 0``
  includes ``h<(i-1)//2>`` and, from ``h4`` on, ``h<i-2>`` too, so all of
  them reach ``h0`` (which defines ``struct device``).  Header ``i``
  defines ``H<i>_LIMIT`` and ``H<i>_SCALE(x)``; module ``k`` includes
  ``h<k % 8>`` and uses both macros in its ``m<k>_limits``.  Editing
  ``h0`` therefore invalidates every module, a leaf header a few.
- ``module_<k>.c``: generated functions (renamed ``m<k>_*``; their
  idioms rotate through all bug kinds and every third function carries
  its bug), the generator's suppression idioms in every 4th module, and
  a refine "teeth" pair in every 3rd: an ``x < c`` ... ``x > c-1``
  contradiction next to a feasible twin.
- A cross-file call tree: ``m<k>_entry`` calls ``m<2k+1>_entry`` and
  ``m<2k+2>_entry``.

The shape is the same for every seed; the seed draws the constants,
the function bodies' details, which third of the functions is buggy,
and the edit sequence.  Work per operation then moves with the program,
not with the draw.

Ground truth rides along: the injected bugs (scored with
:func:`repro.codegen.project_gen.score_project`'s function/helper rule)
and the teeth labels.  Teeth and entry functions open their body on a
line of its own, which the seeded function edits never touch: teeth
labels hold for every edited tree, and every edit dirties one leaf
function.
"""

import os
import random
import re

from repro.codegen.generator import (
    BUG_KINDS,
    InjectedBug,
    generate_kernel_module,
)
from repro.codegen.project_gen import GeneratedProject, apply_function_edits

N_HEADERS = 8
INCLUDE_DIR = "include"
_KINDS = sorted(BUG_KINDS)

#: Teeth labels: the refine verdict each teeth function's report must get.
INFEASIBLE = "infeasible"
CONFIRMED = "confirmed"

_IDENT = re.compile(r"\b\w+\b")
_LIMIT = "#define H%d_LIMIT "


def header_name(index):
    return "%s/h%d.h" % (INCLUDE_DIR, index)


def header_parents(index):
    """The headers header ``index`` includes."""
    if index == 0:
        return []
    parents = [(index - 1) // 2]
    if index >= 4:
        parents.append(index - 2)
    return parents


def _headers(rng):
    files = {}
    for index in range(N_HEADERS):
        lines = ["#ifndef KC_H%d_H" % index, "#define KC_H%d_H" % index]
        parents = header_parents(index)
        if parents:
            lines.extend('#include "h%d.h"' % p for p in parents)
            scale = "((x) + H%d_LIMIT)" % parents[0]
        else:
            lines.append(
                "struct device { int flags; int count; int lck; char *buf; };"
            )
            scale = "((x) * 3)"
        lines.append(_LIMIT % index + str(rng.randint(8, 64)))
        lines.append("#define H%d_SCALE(x) %s" % (index, scale))
        lines.append("#endif")
        files[header_name(index)] = "\n".join(lines) + "\n"
    return files


_TEETH = """\
static int m%(k)d_teeth_bad(int *p, int x)
{
    if (x < %(hi)d)
        kfree(p);
    if (x > %(lo)d)
        return *p;
    return 0;
}
static int m%(k)d_teeth_ok(int *q, int y)
{
    if (y > 0)
        kfree(q);
    if (y > 1)
        return *q;
    return 0;
}
"""


def _renamed(workload, names):
    """The workload's source with its functions (and ``_discard``
    helpers) renamed through ``names`` and the per-module preamble
    dropped: the struct comes from h0.h via the module's header."""
    renames = dict(names)
    renames.update((old + "_discard", new + "_discard")
                   for old, new in names.items())
    body = _IDENT.sub(lambda m: renames.get(m.group(), m.group()),
                      workload.source)
    return "\n".join(
        line for line in body.splitlines()
        if not line.startswith(("struct device {", "/* generated"))
    )


def _module(k, n_modules, functions_per_module, rng, bug_offset):
    """``(source, bugs, teeth)`` for module ``k``.

    Function ``i`` is global function ``g = k * functions_per_module +
    i``: its idiom is ``BUG_KINDS[g % 8]`` and it is buggy when ``(g +
    bug_offset) % 3 == 0``.  Every kind is then injected equally often
    whatever the seed, so recall moves with the checkers, not with the
    draw.
    """
    prefix = "m%d_" % k
    header = k % N_HEADERS
    chunks = ['#include "h%d.h"' % header, "static int m%d_uses;" % k]
    children = [c for c in (2 * k + 1, 2 * k + 2) if c < n_modules]
    chunks.extend(
        "int m%d_entry(struct device *dev, int n);" % c for c in children
    )
    bugs = []
    for i in range(functions_per_module):
        g = k * functions_per_module + i
        kind = _KINDS[g % len(_KINDS)]
        workload = generate_kernel_module(
            seed=rng.randrange(1 << 30), n_functions=1, kinds=[kind],
            bug_rate=1.0 if (g + bug_offset) % 3 == 0 else 0.0,
        )
        name = "%s%s_%d" % (prefix, kind.replace("-", "_"), i)
        chunks.append(_renamed(workload, {workload.function_names[0]: name}))
        bugs.extend(InjectedBug(b.kind, name) for b in workload.bugs)
    if k % 4 == 0:
        idioms = generate_kernel_module(
            seed=rng.randrange(1 << 30), n_functions=0,
            suppression_idioms=True,
        )
        chunks.append(_renamed(idioms, {
            name: prefix + name for name in idioms.function_names
        }))
    teeth = {}
    if k % 3 == 0:
        hi = rng.randint(3, 40)
        chunks.append(_TEETH % {"k": k, "hi": hi, "lo": hi - 1})
        teeth = {prefix + "teeth_bad": INFEASIBLE,
                 prefix + "teeth_ok": CONFIRMED}
    chunks.append(
        "int m%(k)d_limits(struct device *dev, int n) {\n"
        "    if (n > H%(h)d_LIMIT)\n"
        "        n = H%(h)d_SCALE(n);\n"
        "    dev->count = n;\n"
        "    return n;\n"
        "}\n" % {"k": k, "h": header}
    )
    if children:
        tail = " + ".join(
            "m%d_entry(dev, n + %d)" % (c, i + 1)
            for i, c in enumerate(children)
        )
    else:
        tail = "n"
    chunks.append(
        "int m%(k)d_entry(struct device *dev, int n)\n"
        "{\n"
        "    m%(k)d_uses = m%(k)d_uses + 1;\n"
        "    return %(tail)s;\n"
        "}\n" % {"k": k, "tail": tail}
    )
    return "\n".join(chunks), bugs, teeth


def generate_kcorpus(seed, n_modules=64, functions_per_module=6):
    """``(GeneratedProject, teeth)``: the tree plus its ground truth.

    ``teeth`` maps each teeth function to the verdict its report must
    get (``infeasible`` for the contradiction, ``confirmed`` for the
    twin).  The default size keeps a cold ``xgcc`` run near 3 s on a
    2-core box, so every workload fits several operations into one
    measured run.
    """
    rng = random.Random("kcorpus:%d" % seed)
    files = _headers(rng)
    bug_offset = rng.randrange(3)
    bugs = []
    teeth = {}
    for k in range(n_modules):
        source, module_bugs, module_teeth = _module(
            k, n_modules, functions_per_module, rng, bug_offset
        )
        files["module_%d.c" % k] = source
        bugs.extend(module_bugs)
        teeth.update(module_teeth)
    return GeneratedProject(files, bugs, seed), teeth


def edit_function(project, seed, step):
    """Step ``step`` of the chained one-function-body edit sequence."""
    edited, __ = apply_function_edits(
        project, k=1, seed=seed * 100003 + step
    )
    return edited


def edit_header(project, index):
    """Bump ``H<index>_LIMIT`` by one in its header."""
    name = header_name(index)
    prefix = _LIMIT % index
    lines = project.files[name].splitlines(True)
    for i, line in enumerate(lines):
        if line.startswith(prefix):
            lines[i] = "%s%d\n" % (prefix, int(line[len(prefix):]) + 1)
    files = dict(project.files)
    files[name] = "".join(lines)
    return GeneratedProject(files, list(project.bugs), project.seed)


def write_tree(project, root, before=None):
    """Write ``project`` under ``root``; with ``before`` (the tree as it
    is on disk) only changed files are rewritten.  Returns the sorted
    absolute ``.c`` paths."""
    for name, text in sorted(project.files.items()):
        if before is not None and before.files.get(name) == text:
            continue
        path = os.path.join(root, name)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            handle.write(text)
    return sorted(
        os.path.join(root, name) for name in project.files
        if name.endswith(".c")
    )
