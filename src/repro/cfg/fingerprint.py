"""Content-addressed function fingerprints over the call graph.

The incremental driver (docs/DRIVER.md, "Incremental re-analysis") keys
persistent per-root analysis artifacts by a *function fingerprint*: a
hash of everything that can change what analyzing the function from a
root produces.  Fingerprints form a Merkle DAG over
:class:`repro.cfg.callgraph.CallGraph` -- a function's fingerprint folds
in the fingerprints of its direct callees, so a root's fingerprint
covers its entire transitive callee cone and "did anything under this
root change?" is a single hash comparison.

Each function's *local* hash covers its definition's tokens, from the
first declaration specifier to the closing brace: each token's kind,
spelling, file, line and column (:func:`repro.cfront.parser.
definition_hash`).  It is insensitive to whitespace and comments that
move nothing, but sensitive to every real token, including the name and
parameter list, and to every token's position.  Positions are part of
every report, so a function whose tokens merely *moved* -- the whole
definition, or one token inside the body -- must be re-analyzed to keep
incremental reports byte-identical to a cold run.  The fingerprint adds
the sorted names of callees with no definition in the project (defined
callees contribute their full fingerprints instead).

Recursive call cycles are hashed per strongly-connected component: every
member of an SCC folds in a group hash over all members' local hashes
plus the fingerprints of the SCC's external callees, so the Merkle
construction terminates and any edit inside a cycle invalidates the
whole cycle (and its callers) deterministically.

The local hash and the direct-callee set depend on one definition only,
so they are computed once, when the unit is parsed (the parser hashes
each definition's tokens; :func:`stamp_unit` adds the callee set), and
the AST frame carries them as ``token_hash`` and ``direct_callees``.
The Merkle pass over the graph runs once per run (memoized on the
:class:`CallGraph`).
"""

import hashlib

from repro.cfg.callgraph import direct_callees


def stamp_unit(unit):
    """Keep each function definition's direct-callee set on its decl
    (pass 1, before the unit is packed)."""
    for decl in unit.functions():
        decl.direct_callees = direct_callees(decl)


def strongly_connected_components(graph, names=None):
    """Tarjan's SCCs over the defined-call edges, iteratively (generated
    call chains nest thousands deep).  Returns a list of sorted name
    lists in reverse-topological order: callees before callers.  With
    ``names`` (a set closed under callers, so each SCC lies wholly in or
    out of it) only the SCCs inside it are returned."""
    nodes = graph.index if names is None else names
    index_of = {}
    lowlink = {}
    on_stack = set()
    stack = []
    sccs = []
    counter = [0]

    for start in sorted(nodes):
        if start in index_of:
            continue
        # Each work entry is (name, iterator over defined callees).
        work = [(start, None)]
        while work:
            name, edges = work.pop()
            if edges is None:
                index_of[name] = lowlink[name] = counter[0]
                counter[0] += 1
                stack.append(name)
                on_stack.add(name)
                edges = iter(sorted(
                    callee
                    for callee in graph.callees.get(name, ())
                    if callee in nodes
                ))
            advanced = False
            for callee in edges:
                if callee not in index_of:
                    work.append((name, edges))
                    work.append((callee, None))
                    advanced = True
                    break
                if callee in on_stack:
                    lowlink[name] = min(lowlink[name], index_of[callee])
            if advanced:
                continue
            if lowlink[name] == index_of[name]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == name:
                        break
                sccs.append(sorted(component))
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[name])
    return sccs


def compute_fingerprints(graph, salt=""):
    """``{function name: fingerprint hexdigest}`` for a call graph.

    ``salt`` folds session-constant context (extension set, engine
    version, analysis options) into every fingerprint; leave it empty to
    fingerprint source content alone.
    """
    return fingerprint_tables(graph, salt)[1]


def fingerprint_tables(graph, salt="", previous=None):
    """``(local_hashes, fingerprints)`` for a call graph.

    ``local_hashes`` covers each function's own content only (which
    functions were *edited*); ``fingerprints`` is the Merkle construction
    over callees (which functions are in the *dirty cone*).  Memoized on
    the graph, so every consumer in one run shares one pass; callers must
    not mutate the returned dicts.

    ``previous`` is ``(callees, local_hashes, fingerprints)`` of an
    earlier graph of the same program under the same ``salt`` (a
    long-lived caller's last run: its :attr:`CallGraph.callees` and
    tables).  When it names the same functions, only the dirty cone --
    functions whose own hash or callee set changed, and their transitive
    callers -- is rehashed; every other fingerprint is the previous one,
    which is the value a full pass would compute again.
    """
    tables = graph.fingerprint_memo.get(salt)
    if tables is None:
        tables = graph.fingerprint_memo[salt] = _fingerprint_tables(
            graph, salt, previous)
    return tables


def _fingerprint_tables(graph, salt, previous):
    local = {name: entry.token_hash for name, entry in graph.index.items()}
    if previous is None or previous[1].keys() != local.keys():
        fingerprints = {}
        components = strongly_connected_components(graph)
    else:
        old_callees, old_local, old_fingerprints = previous
        cone = dirty_cone(graph, [
            name for name in graph.index
            if local[name] != old_local[name]
            or graph.callees[name] != old_callees[name]
        ])
        fingerprints = {name: fingerprint
                        for name, fingerprint in old_fingerprints.items()
                        if name not in cone}
        components = strongly_connected_components(graph, cone)
    for component in components:
        members = set(component)
        digest = hashlib.sha256()
        digest.update(str(salt).encode())
        digest.update(b"\x00")
        for name in component:
            digest.update(name.encode())
            digest.update(b"\x1f")
            digest.update(local[name].encode())
            digest.update(b"\x1e")
        digest.update(b"\x00")
        external = set()
        for name in component:
            for callee in graph.callees.get(name, ()):
                if callee in members:
                    continue
                if callee in graph.index:
                    # SCCs arrive callees-first, so this is always ready.
                    external.add(("fp", callee, fingerprints[callee]))
                else:
                    external.add(("undef", callee, ""))
        for kind, callee, value in sorted(external):
            digest.update(("%s:%s:%s" % (kind, callee, value)).encode())
            digest.update(b"\x1d")
        group_hash = digest.hexdigest()
        for name in component:
            member = hashlib.sha256()
            member.update(local[name].encode())
            member.update(b"\x00")
            member.update(group_hash.encode())
            fingerprints[name] = member.hexdigest()
    return local, fingerprints


def dirty_cone(graph, dirty_functions):
    """The dirty functions plus every transitive caller of one.

    This is the set of functions whose fingerprint changes when exactly
    ``dirty_functions`` changed content -- the re-analysis cone the
    incremental scheduler must cover (callees are *not* in the cone:
    their summaries are still valid).
    """
    cone = set()
    stack = [name for name in dirty_functions if name in graph.index]
    while stack:
        name = stack.pop()
        if name in cone:
            continue
        cone.add(name)
        stack.extend(graph.callers.get(name, ()))
    return cone
