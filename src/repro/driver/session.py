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

Global extensions -- the paper's §7.1 cross-root checkers, which
communicate through AST annotations and user globals -- need no schedule
of their own: each artifact records the net cross-root state its
(extension, root) pair wrote plus a coarse read set
(:mod:`repro.engine.deltas`), and every warm run is one loop over
those *annotation deltas*:

1. *Pre-run demotion*: the dirty roots' previous writes, read from the
   old packs, may change; a clean root whose read set intersects them
   joins the dirty cone, to a fixpoint.  Annotation reads always target
   nodes inside functions the reader traverses, so their intersection
   test is call-graph reachability: a clean root re-enters the cone when
   a changed annotation write lives in a function it can reach.
   User-global reads are recorded per (extension, variable), with a
   wildcard for iteration.
2. *Resolve and run*: the deltas of clean roots that wrote something are
   bound to the current tree's nodes (an unresolvable one demotes its
   root) and applied at their serial positions while the dirty roots
   analyze, so a dirty root observes the environment a cold serial run
   would have built.
3. *Post-run validation* (only when a cached artifact is replayed):
   fresh deltas are diffed against the previous run's; a replayed root
   whose inputs turn out stale is demoted and the round repeated
   (bounded, loudly counted).  Unknown previous deltas count as
   changed, so missing history degrades to re-analysis, never to a
   stale replay.

When no root wrote cross-root state the loop is one round that replays
nothing and analyzes exactly the dirty roots.

Safety valves (all recorded in the driver stats, never silent):

- Truncated runs (global step budget) skip roots order-dependently;
  non-incremental fallback.  So does a loop that does not converge.
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
            extensions, all_roots, graph, fingerprints, manifest,
            reanalyze, stats, packs, live,
        )
        count = len(extensions)
        old_packs = {name: pack for name, (__, pack) in packs.items()}

        def old_delta(pair):
            """The delta this (extension, root) pair wrote last run, or
            None when it wrote nothing or is unknown (no manifest entry,
            a missing or corrupt pack): validation then counts every
            fresh write of the pair as changed."""
            previous = manifest and manifest["fingerprints"].get(pair[1])
            if not previous:
                return None
            name = defining_file(graph, pair[1])
            if name not in old_packs:
                key = manifest["packs"].get(name)
                try:
                    old_packs[name] = key and self._fetch_pack(key, stats)
                except (OSError, astcache.CacheCorruption):
                    old_packs[name] = None
            pack = old_packs[name]
            # ``entries``, not the mapping: an empty artifact left
            # undecoded (None) wrote nothing.
            entry = pack.entries.get(pair) if pack else None
            if entry is None or entry[0] != previous[1] or entry[1] is None:
                return None
            return entry[1].delta

        def writes(artifact):
            return (artifact is not None and artifact.delta is not None
                    and artifact.delta.has_writes())

        reach = {}
        changed_fns = set()   # functions containing changed annotation writes
        changed_glob = set()  # ("glob", ext, var) keys whose value changed

        def seed_changes(root):
            """Mark a root's previous writes as potentially changed."""
            for ext_index in range(count):
                old = old_delta((ext_index, root))
                if old is not None:
                    changed_fns.update(old.write_functions())
                    changed_glob.update(old.glob_write_keys())

        def impacted(root):
            """Does this clean root read anything that changed?"""
            if changed_fns:
                if root not in reach:
                    reach[root] = graph.reachable_from([root])
                if reach[root] & changed_fns:
                    return True
            for ext_index in range(count):
                pair = (ext_index, root)
                if cached[pair] is None:
                    # An empty artifact the pack has not decoded yet.
                    pack = packs[defining_file(graph, root)][1]
                    cached[pair] = pack[pair][1]
                delta = cached[pair].delta
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
            for ext_index in range(count):
                cached.pop((ext_index, root), None)
            reanalyze.add(root)

        def stale_roots():
            """The clean roots that read something that changed."""
            if not (changed_fns or changed_glob):
                return []
            return [root for root in sorted({r for (__, r) in cached})
                    if impacted(root)]

        def settle(counter):
            """Demote impacted clean roots to a fixpoint."""
            stale = stale_roots()
            while stale:
                for root in stale:
                    demote(root, counter)
                stale = stale_roots()

        # Pre-run demotion: the dirty roots' previous writes may change.
        dirty = len(reanalyze)
        if cached:
            for root in sorted(reanalyze):
                seed_changes(root)
            settle("annotation_delta_read_demotions")

        run_options = copy.copy(options)
        run_options.capture_root_artifacts = True
        rounds = 0
        replayed = False
        while True:
            rounds += 1
            if rounds > len(all_roots) + 2:
                return self._fallback(
                    project, extensions, options, stats,
                    "annotation-delta scheduling did not converge",
                )
            # Resolve: bind every pair of each root with a cached writer
            # to the current tree's nodes; unresolvable ones demote.
            analysis = project.analysis(run_options)
            resolver = deltamod.DeltaResolver(graph, analysis._cfg)
            writers = sorted({pair[1] for pair in live
                              if writes(cached.get(pair))})
            replay_map = {}
            unresolved = []
            for root in writers:
                try:
                    for ext_index in range(count):
                        artifact = cached[(ext_index, root)]
                        replay_map[(ext_index, root)] = resolver.resolve(
                            artifact.delta if artifact is not None
                            else None)
                except deltamod.UnresolvedDelta:
                    unresolved.append(root)
            if unresolved:
                for root in unresolved:
                    demote(root, "annotation_delta_unresolved")
                settle("annotation_delta_read_demotions")
                continue
            replayed = replayed or bool(replay_map)

            # Run: the dirty roots analyze, the writers replay, in the
            # serial order a cold run walks them.
            writer_set = set(writers)
            fresh = analysis.run(extensions, roots=[
                root for root in all_roots
                if root in reanalyze or root in writer_set
            ], replay=replay_map)
            if fresh.truncated:
                return self._fallback(
                    project, extensions, options, stats,
                    "global step budget exhausted; root skipping is "
                    "order-dependent",
                )
            if not cached:
                break

            # Post-run validation: a replayed root whose inputs changed
            # is demoted and the run repeated.
            for artifact in fresh.root_artifacts:
                fns, globs = deltamod.delta_changes(
                    old_delta((artifact.ext_index, artifact.root)),
                    artifact.delta,
                )
                changed_fns.update(fns)
                changed_glob.update(globs)
            stale = stale_roots()
            if not stale:
                break
            for root in stale:
                demote(root, "annotation_delta_stale_demotions")
            settle("annotation_delta_read_demotions")

        stats.add("annotation_delta_rounds", rounds)
        if replayed or len(reanalyze) > dirty:
            stats.add("incremental_coupled_runs")
            stats.add("annotation_delta_replays", sum(
                1 for pair in live if writes(cached.get(pair))))
        stats.add("incremental_roots_analyzed", len(reanalyze))
        stats.add(
            "incremental_roots_replayed", len(all_roots) - len(reanalyze))
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

    def _load_clean_artifacts(self, extensions, all_roots, graph,
                              fingerprints, manifest, reanalyze, stats,
                              packs, live):
        """``{(ext_index, root): RootArtifact}`` for every clean root
        (not in ``reanalyze``) whose file's pack holds an entry with the
        root's current fingerprint for every extension; other clean
        roots move into ``reanalyze``.  An empty artifact the pack has
        not decoded stays None.  The pairs of the artifacts that are not
        ``empty`` (:class:`~repro.engine.summaries.RootArtifact`) are
        appended to ``live``.  Each file's pack is read at most once,
        all in one backend batch -- the packs of files whose roots are
        all dirty too, for their previous deltas -- and a clean root's
        is recorded into ``packs`` as ``{file: (key, pack)}``; a corrupt
        pack is evicted and only its file's roots re-analyze."""
        by_file = {}
        for root in all_roots:
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
            roots = [root for root in by_file[name] if root not in reanalyze]
            if not roots:
                continue
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
                reanalyze.update(roots)
                continue
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
            # A demoted root left ``cached``; a re-analyzed
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
