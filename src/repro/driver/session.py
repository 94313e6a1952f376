"""Incremental analysis sessions: re-analyze only the dirty cone.

A session ties one project + extension set + option configuration to a
persistent tier-2 summary store (:class:`repro.driver.cache.SummaryCache`)
and schedules pass 2 around *function fingerprints*
(:mod:`repro.cfg.fingerprint`):

1. Fingerprint every function.  The fingerprint is a Merkle hash over
   the function's emitted body tokens, its definition location, and its
   direct callees' fingerprints -- so a root's fingerprint covers its
   entire transitive callee cone.
2. Diff against the manifest the previous run left behind.  A root whose
   fingerprint is unchanged produced, by construction, the same
   analysis outcome; everything else is the *dirty cone* (edited
   functions plus their transitive callers).
3. Re-analyze only the dirty roots, capturing one independent
   :class:`repro.engine.summaries.RootArtifact` per (extension, root).
4. Replay cached artifacts for the clean roots and freshly captured
   ones for the dirty roots, in serial (extension, root) order, through
   a fresh log -- reproducing a cold run's ranked report byte for byte.

Artifacts persist as one *pack* per (signature, defining source file):
``{(ext_index, root): (fingerprint, RootArtifact)}`` for every root of
the file.  A warm run reads each file's pack once, all in one backend
batch, replays an entry only when its fingerprint is the root's current
one, and rewrites only the packs of files that gained fresh artifacts.

Coupled (global) extensions -- the paper's §7.1 cross-root checkers,
which communicate through AST annotations and user globals -- are
scheduled through *annotation deltas* instead of falling back: each
artifact records the net cross-root state its (extension, root) pair
wrote plus a coarse read set (:mod:`repro.engine.deltas`).  On a warm
run the session replays clean roots' deltas at their serial positions
(so dirty roots observe the environment a cold serial run would have
built) and demotes any clean root whose read set intersects a changed
delta into the dirty cone -- the soundness condition that replaced the
blanket coupled fallback.  Annotation reads always target nodes inside
functions the reader traverses, so their intersection test is
call-graph reachability: a clean root re-enters the cone when a changed
annotation write lives in a function it can reach.  User-global reads
are recorded per (extension, variable), with a wildcard for iteration.
After the run, freshly produced deltas are diffed against the previous
run's; a replayed root whose inputs turn out stale is demoted and the
run repeated (bounded, loudly counted) -- unknown previous deltas count
as changed, so missing history degrades to re-analysis, never to a
stale replay.

Safety valves (all recorded in the driver stats, never silent):

- A partial fast-path run that unexpectedly turns out coupled is re-run
  with delta replay, counted as ``annotation_delta_serial_reruns``.
- Truncated runs (global step budget) skip roots order-dependently;
  non-incremental fallback.
- Degraded roots (per-root budget blown, recovered error) and roots
  whose cross-root state does not pickle (``delta.opaque``) are never
  persisted, so they are re-analyzed on every run until they pass.
- A corrupt summary pack is evicted and its file's roots re-analyzed
  (same self-heal contract as the tier-1 AST cache).
"""

import copy
import hashlib
import os

from repro.cfg.fingerprint import fingerprint_tables
from repro.checkers import ALL_CHECKERS
from repro.driver import cache as astcache
from repro.driver import store as storemod
from repro.engine import deltas as deltamod
from repro.engine.analysis import AnalysisOptions, AnalysisResult
from repro.engine.errors import ErrorLog
from repro.engine.summaries import SUMMARY_VERSION

#: AnalysisOptions fields excluded from the session signature:
#: capture_root_artifacts is the session's own machinery, not a semantic
#: switch of the run being cached.
_NON_SEMANTIC_OPTIONS = frozenset(["capture_root_artifacts"])


def session_signature(checker_names=(), metal_texts=(), options=None,
                      extra=""):
    """A stable identity for one analysis configuration.

    Everything that changes what a run reports must land here: the
    built-in checker names (in order) with the metal text each registered
    one compiles, the full text of every ``--metal`` extension, every
    semantic analysis option, and the parser / summary format versions.
    Two runs share cached summaries only when their signatures match.
    """
    digest = hashlib.sha256()
    digest.update(astcache.PARSER_VERSION.encode())
    digest.update(b"\x00")
    digest.update(SUMMARY_VERSION.encode())
    digest.update(b"\x00")
    for name in checker_names:
        digest.update(str(name).encode())
        digest.update(b"\x1d")
        factory = ALL_CHECKERS.get(name)
        source = factory().source if factory is not None else None
        if source is not None:
            digest.update(source.encode())
            digest.update(b"\x1d")
    digest.update(b"\x00")
    for text in metal_texts:
        digest.update(str(text).encode())
        digest.update(b"\x1d")
    digest.update(b"\x00")
    for name, value in sorted(vars(options or AnalysisOptions()).items()):
        if name in _NON_SEMANTIC_OPTIONS:
            continue
        digest.update(("%s=%r" % (name, value)).encode())
        digest.update(b"\x1d")
    digest.update(b"\x00")
    digest.update(str(extra).encode())
    return digest.hexdigest()


def pack_key(signature, filename, pack):
    """The tier-2 store key of one source file's summary pack: SHA-256
    over the pack format version, the session signature, the file, and
    every entry's (extension index, root, fingerprint)."""
    digest = hashlib.sha256()
    for part in (str(astcache.SUMMARY_FORMAT_VERSION), signature,
                 str(filename)):
        digest.update(part.encode())
        digest.update(b"\x00")
    for (ext_index, root), (fingerprint, __) in sorted(pack.items()):
        digest.update(
            ("%d\x1f%s\x1f%s\x1e" % (ext_index, root, fingerprint)).encode()
        )
    return digest.hexdigest()


def defining_file(graph, name):
    """The source file a function is defined in ("" when unknown)."""
    location = getattr(graph.index.get(name), "location", None)
    return getattr(location, "filename", None) or ""


class _CappedPin(dict):
    """An in-memory pin of at most ``cap`` entries: past the cap the
    oldest pins fall out (the store still has them)."""

    def __init__(self, cap):
        super().__init__()
        self.cap = cap

    def __setitem__(self, key, value):
        dict.__setitem__(self, key, value)
        while len(self) > self.cap:
            del self[next(iter(self))]


class IncrementalSession:
    """Summary-persistent incremental scheduling for one configuration.

    Construct with the project's cache directory and a
    :func:`session_signature`; pass as ``Project.run(...,
    incremental=session)``.  Reusable across runs (the manifest and
    packs live on disk, not in the object).
    """

    #: In-memory pin cap (pinned sessions only), for summary packs and
    #: refine verdicts alike.  A rewritten pack unpins its file's
    #: previous one; beyond the cap the oldest pins fall out (the disk
    #: store still has them).
    PIN_CAP = 8192

    def __init__(self, cache_dir, signature, stats=None,
                 pin_warm_state=False, store_url=None, backend=None):
        if backend is None:
            backend = storemod.open_store(
                cache_dir=cache_dir, store_url=store_url
            )
        #: The artifact-store backend (local, remote, or tiered); shared
        #: with the project's AST cache when the daemon builds both.
        self.backend = backend
        self.store = astcache.SummaryCache(backend)
        self.signature = signature
        #: Optional DriverStats override; defaults to the project's.
        self.stats = stats
        #: Long-lived (daemon) mode: keep the manifest and replayed
        #: summary packs pinned in memory, so a warm run pays neither a
        #: manifest JSON load nor per-pack disk reads.  Coherent with
        #: rival sessions by stat-invalidation (any on-disk manifest
        #: change reloads it) and with cache GC by touching the on-disk
        #: pack on every in-memory hit.
        self.pin_warm_state = pin_warm_state
        self._pinned_manifest = None
        self._pinned_manifest_stat = None
        self._pinned_packs = _CappedPin(self.PIN_CAP)
        #: ``{refine cache key: verdict}`` for a pinned session's report
        #: pipeline (:func:`repro.refine.refine_reports`); None when not
        #: pinned.  Keys bind the function fingerprint, so a pinned
        #: verdict never goes stale.
        self.pinned_verdicts = (
            _CappedPin(self.PIN_CAP) if pin_warm_state else None
        )
        #: A pinned session's last ``(callees, local hashes,
        #: fingerprints)``: the next run rehashes only its dirty cone
        #: against them (the graph itself, with its ASTs, is not kept).
        self._last_fingerprints = None
        #: A pinned session's last ``(callees, component labels)``.
        self._last_labels = None

    # -- pinned warm state -------------------------------------------------

    def _manifest_stat(self):
        """The stored manifest's version identity (None when absent):
        a stat tuple on local backends, the ETag on remote ones -- any
        rival merge changes it either way."""
        try:
            return self.backend.manifest_version(self.signature)
        except storemod.StoreError:
            return None

    def _load_manifest(self, stats):
        """The manifest document, through the in-memory pin when
        ``pin_warm_state`` is set and the on-disk file is unchanged (a
        rival session's merge shows up as a stat change and reloads)."""
        if not self.pin_warm_state:
            return self.store.load_manifest(self.signature)
        stat = self._manifest_stat()
        if stat is not None and stat == self._pinned_manifest_stat:
            stats.add("manifest_pin_hits")
            return self._pinned_manifest
        manifest = self.store.load_manifest(self.signature)
        self._pinned_manifest = manifest
        self._pinned_manifest_stat = stat if manifest is not None else None
        return manifest

    def _repin_manifest(self):
        """Re-pin the manifest after this session wrote it (one JSON
        read per analyzed burst; warm requests then hit the pin)."""
        if not self.pin_warm_state:
            return
        self._pinned_manifest = self.store.load_manifest(self.signature)
        self._pinned_manifest_stat = (
            self._manifest_stat() if self._pinned_manifest is not None
            else None
        )

    def _pin_pack(self, key, pack):
        if self.pin_warm_state:
            self._pinned_packs[key] = pack

    def pinned_frame_keys(self):
        """Pack keys the in-memory pin currently holds (a daemon's `gc`
        request passes them to the backend's ``gc`` as extra live
        keys, so on-disk GC never
        collects what this process still replays)."""
        return sorted(self._pinned_packs)

    def _fetch_pack(self, key, stats):
        """A summary pack by key: the in-memory pin when held, else one
        store read (pinned after).  None on a miss or an unreachable
        store; corruption raises (the caller decides whether to evict).
        """
        pack = self._pinned_packs.get(key)
        if pack is not None:
            return pack
        try:
            pack = self.store.get(key)
        except storemod.StoreError:
            return None
        if pack is None:
            return None
        if not isinstance(pack, astcache.SummaryPack):
            raise astcache.CacheCorruption("summary frame holds no pack")
        stats.add("summary_pack_reads")
        self._pin_pack(key, pack)
        return pack

    # -- scheduling --------------------------------------------------------

    def run(self, project, extensions, options=None):
        """Incremental pass 2: fingerprint, diff, re-analyze dirty roots,
        replay the rest.  Returns an :class:`AnalysisResult` whose
        reports (and ranking inputs) match a cold run byte for byte."""
        if not isinstance(extensions, (list, tuple)):
            extensions = [extensions]
        options = options or AnalysisOptions()
        stats = self.stats or project.stats
        self.backend.bind_stats(stats)

        graph = project.callgraph
        local, fingerprints = fingerprint_tables(
            graph, previous=self._last_fingerprints)
        if self.pin_warm_state:
            if self._last_labels is not None \
                    and self._last_labels[0] == graph.callees:
                # The same call edges give the same components.
                graph.label_memo = self._last_labels[1]
            self._last_fingerprints = (graph.callees, local, fingerprints)
        all_roots = (
            graph.roots() if options.interprocedural
            else sorted(graph.functions)
        )

        manifest = self._load_manifest(stats)
        if manifest is None:
            stats.add("incremental_cold_runs")
            edited = set(fingerprints)
            cone = set(fingerprints)
        else:
            previous = manifest["fingerprints"]
            edited = {
                name for name, token_hash in local.items()
                if (previous.get(name) or (None, None))[0] != token_hash
            }
            cone = {
                name for name, fingerprint in fingerprints.items()
                if (previous.get(name) or (None, None))[1] != fingerprint
            }
        stats.add("incremental_dirty_functions", len(edited))
        stats.add("incremental_dirty_cone", len(cone))
        if options.interprocedural:
            # Roots of one weakly connected component share block
            # summaries, and with false-path pruning what one root
            # leaves behind changes what a later one reports: a
            # component is re-analyzed whole, as a cold run walks it.
            # An edit or a deletion can also split a component (a root
            # stops calling the shared callee, or is gone), leaving the
            # other roots' fingerprints as they were: their cached
            # artifacts were walked after a root this run does not
            # walk.  So a function whose component changed membership
            # (its label) joins the cone too.
            if manifest is not None:
                cone.update(
                    name for name, label in graph.component_labels().items()
                    if (previous.get(name) or ())[2:] != [label]
                )
            cone = graph.connected(cone)

        packs = {}
        live = []
        reanalyze = set(root for root in all_roots if root in cone)
        cached = self._load_clean_artifacts(
            extensions, [root for root in all_roots if root not in cone],
            graph, fingerprints, manifest, reanalyze, stats, packs, live,
        )

        run_options = copy.copy(options)
        run_options.capture_root_artifacts = True

        # Known-coupled configuration (some cached artifact wrote
        # cross-root state): schedule with delta replay from the start.
        # An artifact with writes is never empty, so ``live`` holds them.
        if any(
            cached[pair].delta is not None and cached[pair].delta.has_writes()
            for pair in live
        ):
            return self._run_coupled(
                project, extensions, options, run_options, stats, graph,
                all_roots, fingerprints, local, manifest, cached, reanalyze,
                packs, live,
            )

        analyze_roots = sorted(reanalyze)
        fresh = project.analysis(run_options).run(
            extensions, roots=analyze_roots)

        if fresh.coupled:
            # The run discovered cross-root state we had no record of.
            # A full run already *is* the cold environment, so its
            # deltas are valid as captured; a partial one must be redone
            # with delta replay.
            if cached or set(analyze_roots) != set(all_roots):
                stats.add("annotation_delta_serial_reruns")
                stats.record_degradation(
                    "incremental",
                    "extensions left cross-root state mid-session; re-ran "
                    "serially with annotation-delta replay",
                )
                return self._run_coupled(
                    project, extensions, options, run_options, stats, graph,
                    all_roots, fingerprints, local, manifest, cached,
                    reanalyze, packs, live,
                )
        if fresh.truncated:
            return self._fallback(
                project, extensions, options, stats,
                "global step budget exhausted; root skipping is "
                "order-dependent",
            )

        stats.add("incremental_roots_analyzed", len(analyze_roots))
        stats.add(
            "incremental_roots_replayed",
            len(all_roots) - len(analyze_roots),
        )
        result = self._merge(all_roots, fresh, cached, live)
        self._persist(fresh, cached, graph, fingerprints, local, manifest,
                      stats, project, packs)
        return result

    # -- coupled (global-checker) scheduling -------------------------------

    def _run_coupled(self, project, extensions, options, run_options, stats,
                     graph, all_roots, fingerprints, local, manifest, cached,
                     reanalyze, packs, live):
        """Incremental scheduling for extensions with cross-root state.

        Replayed deltas and analyzed roots interleave in the order a cold
        run would produce them.  The sequence:

        1. *Pre-run demotion*: every dirty root's previous delta names
           the writes that may change; clean roots whose read set (or
           annotation reachability cone) intersects them are demoted to
           a fixpoint.
        2. *Resolve + run*: clean roots' deltas are bound to the current
           tree's nodes (unresolvable ones demote their root) and
           applied at their serial positions while the dirty roots are
           re-analyzed.
        3. *Post-run validation*: fresh deltas are diffed against the
           previous run's; a replayed root whose inputs actually changed
           is demoted and the run repeated.  Unknown previous deltas
           count as fully changed, so the loop converges (each round
           strictly shrinks the replayed set) and missing history can
           only cause extra analysis, never a stale replay.
        """
        stats.add("incremental_coupled_runs")
        self._materialize(cached, packs, graph)

        old_deltas = {}
        old_packs = {name: pack for name, (__, pack) in packs.items()}

        def old_pack(name):
            """The previous run's pack of one file (None when unknown)."""
            if name not in old_packs:
                key = manifest["packs"].get(name)
                try:
                    old_packs[name] = key and self._fetch_pack(key, stats)
                except (OSError, astcache.CacheCorruption):
                    old_packs[name] = None
            return old_packs[name]

        def old_delta(ext_index, root):
            """The delta this (extension, root) produced last run, or
            None when unknown (no manifest entry, missing/corrupt pack:
            treated as fully changed)."""
            pair = (ext_index, root)
            if pair in old_deltas:
                return old_deltas[pair]
            delta = None
            artifact = cached.get(pair)
            if artifact is not None:
                delta = artifact.delta
            elif manifest and root in manifest["fingerprints"]:
                old_fp = (manifest["fingerprints"][root] or (None, None))[1]
                pack = old_pack(defining_file(graph, root))
                entry = pack.get(pair) if pack else None
                if old_fp and entry is not None and entry[0] == old_fp:
                    delta = entry[1].delta
            old_deltas[pair] = delta
            return delta

        reach_memo = {}

        def reach(root):
            """Functions reachable from ``root`` through the call graph
            (the functions whose nodes this root's traversal can read)."""
            seen = reach_memo.get(root)
            if seen is None:
                seen = set()
                stack = [root]
                while stack:
                    fn = stack.pop()
                    if fn in seen or fn not in graph.index:
                        continue
                    seen.add(fn)
                    stack.extend(graph.callees.get(fn, ()))
                reach_memo[root] = seen
            return seen

        changed_fns = set()   # functions containing changed annotation writes
        changed_glob = set()  # ("glob", ext, var) keys whose value changed

        def seed_changes(root):
            """Mark a root's previous writes as potentially changed."""
            for ext_index in range(len(extensions)):
                old = old_delta(ext_index, root)
                if old is None:
                    continue
                changed_fns.update(old.write_functions())
                changed_glob.update(old.glob_write_keys())

        def impacted(root):
            """Does this clean root read anything that changed?"""
            if changed_fns and reach(root) & changed_fns:
                return True
            for ext_index in range(len(extensions)):
                artifact = cached.get((ext_index, root))
                if artifact is None:
                    continue
                delta = artifact.delta
                if delta is None:
                    return True  # unknown read set: never replay blind
                for read in delta.reads:
                    if read[0] == "glob" and read in changed_glob:
                        return True
                    if read == ("ann*",) and changed_fns:
                        return True
                    if read[0] == "glob*" and any(
                        key[1] == read[1] for key in changed_glob
                    ):
                        return True
            return False

        def demote(root, counter):
            stats.add(counter)
            seed_changes(root)  # its own writes will be re-derived
            for ext_index in range(len(extensions)):
                cached.pop((ext_index, root), None)
            reanalyze.add(root)

        def settle(counter):
            """Demote impacted clean roots to a fixpoint."""
            pending = True
            while pending:
                pending = False
                for root in sorted({r for (_, r) in cached}):
                    if root not in reanalyze and impacted(root):
                        demote(root, counter)
                        pending = True

        for root in sorted(reanalyze):
            seed_changes(root)
        settle("annotation_delta_read_demotions")

        rounds = 0
        max_rounds = len(all_roots) + 2
        while True:
            rounds += 1
            if rounds > max_rounds:
                return self._fallback(
                    project, extensions, options, stats,
                    "annotation-delta scheduling did not converge",
                )
            analysis = project.analysis(run_options)
            resolver = deltamod.DeltaResolver(graph, analysis._cfg)
            replay_map = {}
            unresolved = set()
            for (ext_index, root), artifact in sorted(cached.items()):
                if root in unresolved:
                    continue
                try:
                    replay_map[(ext_index, root)] = resolver.resolve(
                        artifact.delta)
                except deltamod.UnresolvedDelta:
                    unresolved.add(root)
            if unresolved:
                for root in sorted(unresolved):
                    demote(root, "annotation_delta_unresolved")
                settle("annotation_delta_read_demotions")
                continue

            analyze_roots = sorted(reanalyze)
            fresh = analysis.run(
                extensions, roots=all_roots, replay=replay_map)
            if fresh.truncated:
                return self._fallback(
                    project, extensions, options, stats,
                    "global step budget exhausted; root skipping is "
                    "order-dependent",
                )

            # Post-run validation: what actually changed?
            new_deltas = {
                (a.ext_index, a.root): a.delta for a in fresh.root_artifacts
            }
            for root in analyze_roots:
                for ext_index in range(len(extensions)):
                    fns, globs = deltamod.delta_changes(
                        old_delta(ext_index, root),
                        new_deltas.get((ext_index, root)),
                    )
                    changed_fns.update(fns)
                    changed_glob.update(globs)
            stale = [
                root for root in sorted({r for (_, r) in cached})
                if impacted(root)
            ]
            if stale:
                for root in stale:
                    demote(root, "annotation_delta_stale_demotions")
                settle("annotation_delta_read_demotions")
                continue
            break

        stats.add("annotation_delta_rounds", rounds)
        stats.add("annotation_delta_replays", sum(
            1 for artifact in cached.values()
            if artifact.delta is not None and artifact.delta.has_writes()
        ))
        stats.add("incremental_roots_analyzed", len(analyze_roots))
        stats.add(
            "incremental_roots_replayed",
            len(all_roots) - len(analyze_roots),
        )
        result = self._merge(all_roots, fresh, cached, live)
        self._persist(fresh, cached, graph, fingerprints, local, manifest,
                      stats, project, packs)
        return result

    # -- pieces ------------------------------------------------------------

    def _fallback(self, project, extensions, options, stats, why):
        """Run non-incrementally (and persist nothing), loudly."""
        stats.add("incremental_fallbacks")
        stats.record_degradation(
            "incremental", "%s; re-ran non-incrementally" % why
        )
        return project.analysis(options).run(extensions)

    def _load_clean_artifacts(self, extensions, clean_roots, graph,
                              fingerprints, manifest, reanalyze, stats,
                              packs, live):
        """``{(ext_index, root): RootArtifact}`` for every clean root
        whose file's pack holds an entry with the root's current
        fingerprint for every extension; other clean roots move into
        ``reanalyze``.  The pairs of the artifacts that are not
        ``empty`` (:class:`~repro.engine.summaries.RootArtifact`) are
        appended to ``live``.  Each file's pack is read at most once,
        all in one backend batch, and recorded into ``packs`` as
        ``{file: (key, pack)}``; a corrupt pack is evicted and only its
        file's roots re-analyze."""
        by_file = {}
        for root in clean_roots:
            by_file.setdefault(defining_file(graph, root), []).append(root)
        known = manifest["packs"] if manifest else {}
        keys = {name: known.get(name) for name in by_file}
        with stats.phase("summary_read"):
            self.store.prefetch(
                key for key in keys.values()
                if key and key not in self._pinned_packs
            )
        count = len(extensions)
        cached = {}
        touched = []
        for name in sorted(by_file):
            key = keys[name]
            pinned = key in self._pinned_packs
            try:
                with stats.phase("summary_read"):
                    pack = self._fetch_pack(key, stats) if key else None
            except (OSError, astcache.CacheCorruption) as err:
                stats.add("summary_evictions")
                stats.record_degradation(
                    "summary-cache",
                    "%s: corrupt summary pack (%s); evicted and "
                    "re-analyzed" % (name, err),
                )
                self.store.evict(key)
                self._pinned_packs.pop(key, None)
                reanalyze.update(by_file[name])
                continue
            roots = by_file[name]
            if pack is None:
                stats.add("summary_misses", len(roots))
                reanalyze.update(roots)
                continue
            packs[name] = (key, pack)
            if pinned:
                # In-memory warm hit: no disk read, but refresh the
                # stored pack's mtime (below, in one batch) so GC still
                # sees it in use.
                touched.append(key)
            entries = pack.entries
            hits = 0
            for root in roots:
                fingerprint = fingerprints[root]
                found = []
                for ext_index in range(count):
                    entry = entries.get((ext_index, root))
                    if entry is None or entry[0] != fingerprint:
                        break
                    found.append(entry[1])
                else:
                    hits += 1
                    for ext_index, artifact in enumerate(found):
                        # An empty artifact the pack has not decoded
                        # stays None (see _materialize).
                        cached[(ext_index, root)] = artifact
                        if artifact is not None and not artifact.empty:
                            live.append((ext_index, root))
                    continue
                reanalyze.add(root)
            if hits < len(roots):
                stats.add("summary_misses", len(roots) - hits)
            if hits:
                stats.add("summary_hits", hits * count)
                if pinned:
                    stats.add("summary_memory_hits", hits * count)
        if touched:
            self.store.touch_many(touched)
        return cached

    @staticmethod
    def _materialize(cached, packs, graph):
        """Decode the empty artifacts ``cached`` holds as None, from
        their files' packs (the coupled path reads every artifact's
        read set)."""
        for pair in [pair for pair, artifact in cached.items()
                     if artifact is None]:
            cached[pair] = packs[defining_file(graph, pair[1])][1][pair][1]

    def _merge(self, all_roots, fresh, cached, live):
        """Replay fresh + cached artifacts in serial (extension, root)
        order through one log: global dedup re-applies at exactly the
        points a cold serial run would apply it.  Only the artifacts
        that add something are replayed: the fresh ones that are not
        empty and the cached ones in ``live``."""
        produced = {
            (artifact.ext_index, artifact.root): artifact
            for artifact in fresh.root_artifacts
        }
        position = {root: index for index, root in enumerate(all_roots)}
        replay = [
            ((ext_index, position[root]), artifact)
            for (ext_index, root), artifact in produced.items()
            if root in position and not artifact.empty
        ]
        for pair in live:
            artifact = cached.get(pair)
            # A demoted (coupled) root left ``cached``; a re-analyzed
            # pair replays its fresh artifact instead.
            if artifact is not None and pair not in produced:
                replay.append(((pair[0], position[pair[1]]), artifact))
        replay.sort(key=lambda item: item[0])
        log = ErrorLog()
        degraded = []
        for __, artifact in replay:
            artifact.replay_into(log)
            degraded.extend(artifact.degraded)
        merged_stats = dict(fresh.stats)
        merged_stats["errors"] = len(log)
        # Provenance (docs/DRIVER.md, "Stats schema"): the traversal
        # counters above (points_visited, paths_completed, ...) cover
        # only the analyzed dirty cone -- replayed roots contribute
        # reports without traversal work.  Mark the split explicitly so
        # a warm run's counters are never mistaken for a cold run's.
        merged_stats["incremental_analyzed_pairs"] = len(produced)
        merged_stats["incremental_replayed_pairs"] = len(cached)
        merged_stats["stats_coverage"] = "analyzed-roots-only"
        return AnalysisResult(
            log, fresh.tables, merged_stats, truncated=False,
            degraded=degraded,
        )

    def _persist(self, fresh, cached, graph, fingerprints, local,
                 manifest, stats, project, packs):
        """Rewrite the pack of every file that gained clean fresh
        artifacts -- its replayed entries plus the fresh ones -- and
        merge the new manifest, dropping the entries of files that are
        gone."""
        rewrite = {}
        for artifact in fresh.root_artifacts:
            if not artifact.clean:
                continue
            if artifact.delta is not None and artifact.delta.opaque:
                # Cross-root state that does not pickle cannot be
                # replayed; never persist it -- the root simply
                # re-analyzes every run, loudly.
                stats.add("annotation_delta_opaque_roots")
                continue
            fingerprint = fingerprints.get(artifact.root)
            if fingerprint is None:
                continue
            name = defining_file(graph, artifact.root)
            rewrite.setdefault(name, {})[
                (artifact.ext_index, artifact.root)
            ] = (fingerprint, artifact)
            stats.add("summary_stores")
        pack_keys = {name: key for name, (key, __) in packs.items()}
        previous = manifest["packs"] if manifest else {}
        to_store = {}
        for name, pack in rewrite.items():
            # Keep the old pack's entries this run replayed.
            for pair, entry in packs.get(name, (None, {}))[1].items():
                if (pair not in pack and pair in cached
                        and entry[0] == fingerprints.get(pair[1])):
                    pack[pair] = entry
            key = pack_key(self.signature, name, pack)
            if previous.get(name) not in (None, key):
                self._pinned_packs.pop(previous[name], None)
            pack_keys[name] = key
            to_store[key] = pack
            self._pin_pack(key, astcache.SummaryPack(pack))
        if to_store:
            # One batched put: a remote-backed session ships every
            # rewritten pack in a single round trip.
            self.store.store_many(to_store)
            stats.add("summary_pack_writes", len(to_store))
        # A file the manifest still pins that this run neither recorded
        # nor can find was deleted or renamed: unpin it, so the pin set
        # tracks the current tree, not every file ever seen.
        gone = sorted(
            name for name in set(previous).union(
                manifest["ast_keys"] if manifest else ())
            if name not in pack_keys and name not in project.ast_keys_used
            and not os.path.exists(name)
        )
        for name in gone:
            self._pinned_packs.pop(previous.get(name), None)
        labels = graph.component_labels()
        if self.pin_warm_state:
            self._last_labels = (graph.callees, labels)
        self.store.store_manifest(
            self.signature,
            {
                name: [local[name], fingerprints[name], labels[name]]
                for name in fingerprints
            },
            packs=pack_keys,
            ast_keys=project.ast_keys_used,
            dropped=gone,
            stats=stats,
        )
        self._repin_manifest()
