"""The persistent, content-addressed two-tier cache behind incremental runs.

Tier 1 -- emitted ASTs.  The paper's pass 1 "compiles each file in
isolation, emitting ASTs" (§6); those emitted files are re-runnable
artifacts.  We key each one by what actually determines its contents:

    key = SHA-256( key version || parser version
                 || filename
                 || include-path configuration
                 || -D define configuration
                 || preprocessed token stream, with positions )

Hashing the *preprocessed* tokens means edits to any transitively included
header invalidate every file that saw it; hashing their file, line, and
column means an edit that moves tokens (a comment that adds lines)
misses too, so a hit never serves stale source coordinates.  A warm
cache turns pass 1 into pure ``load_emitted`` work: zero re-parses.

The token key needs a preprocess to compute, so a second, source-level
key sits in front of it.  :func:`source_key` hashes the raw source text
and the same configuration; it names a small *dependency record*: every
path the preprocessor read or probed, in order, with the SHA-256 of the
text it got (or None for an absent file), plus the token key.  When
every recorded path still reads the same, the preprocess would see the
same inputs and produce the same tokens, so the worker goes straight to
the token key without preprocessing.  Records live in the AST tier
under ``src``-prefixed keys.

Tier 2 -- summary packs (:class:`SummaryCache`).  Pass 2's per-root
outcomes (:class:`repro.engine.summaries.RootArtifact`) are persisted
under the same directory, one *pack* frame per (session signature,
defining source file) holding every root of that file, each entry
tagged with the root's Merkle *function fingerprint*
(:mod:`repro.cfg.fingerprint`), so a warm incremental run replays clean
roots instead of re-traversing them (docs/DRIVER.md, "Tier-2 summary
packs").

Both tiers share one frame format: a payload preceded by a magic marker
and a SHA-256 checksum of the payload.  The checksum is verified on every
read: a truncated, garbled, or version-skewed entry raises
:class:`CacheCorruption` instead of crashing (or silently poisoning) the
run, and the driver evicts it and re-derives the content (re-parse for
tier 1, re-analyze for tier 2).

Both frames are laid out so a warm run decodes only what it uses.  An
AST frame's payload leads with the file's *decl index*
(:class:`UnitIndex`: every definition's name, location, local hash and
direct callees, plus the file-scope statics), which registers the file
with the call graph, fingerprints and scheduling; the unit body after it
is unpickled only when something asks for a decl (:func:`unpack`).  A
summary pack frame keeps the empty artifacts in a blob of their own,
decoded only when the pack is rewritten or a cross-root change needs
their read sets (:class:`SummaryPack`).

Where the bytes live is a separate concern: both caches take only an
artifact-store *backend* (:mod:`repro.driver.store` -- LocalStore /
RemoteStore / TieredStore), so the same verification, eviction, and
manifest-merge discipline runs against a local directory, a shared
remote store, or a write-through overlay of both.  Garbage collection
is the backend's too (``backend.gc``).

Manifest writes use ETag compare-and-swap with bounded retry
(:data:`repro.driver.store.MANIFEST_CAS_RETRIES`): the read-merge-write
cycle re-reads and re-merges on conflict instead of holding a
filesystem lock across the cycle, which is what lets rival sessions on
*different machines* share one manifest through the remote store.  On a
local backend the CAS itself is still serialized under the
per-signature :func:`_file_lock`, so each round commits exactly one
writer and N contenders converge in at most N rounds.
"""

import collections
import contextlib
import hashlib
import json
import os
import pickle
import time
from collections.abc import Mapping

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None

from repro import faults
from repro.cfg.callgraph import direct_callees
from repro.cfront import astnodes as ast
from repro.cfront.lexer import token_text
from repro.driver import store as storemod
from repro.engine.summaries import SUMMARY_VERSION

#: Bump when parser/astnodes change shape: old cache entries stop matching.
#: 2: function definitions carry the values pass 1 derives at parse time
#: (``token_hash`` and :func:`repro.cfg.fingerprint.stamp_unit`).  Any
#: change to ``definition_hash`` or to callee extraction
#: (``direct_callees``) must bump it or ``AST_KEY_VERSION``, so a frame
#: never carries a hash or callee set made by a different definition.
PARSER_VERSION = "2"

#: Version of the tier-1 key scheme.  2: token positions are hashed and
#: source-level dependency records front the token key.  3: AST frames
#: lead with a decl index, so every key moves and a cache of the older
#: layout reads as plain misses.  4: a definition's ``token_hash`` covers
#: its tokens' positions (:func:`repro.cfront.parser.definition_hash`),
#: so frames carrying the older hash read as misses.
AST_KEY_VERSION = "4"

#: Key prefix of dependency records in the AST tier.
RECORD_PREFIX = "src"

#: Payload format marker for emitted .ast files.  3: the payload is a
#: length-prefixed decl index followed by the unit body.
AST_FORMAT_VERSION = 3

#: Payload format marker for summary (.sum) frames and manifests.  2:
#: RootArtifact carries an annotation/user-global delta; manifests record
#: the frame and AST keys the run used (cache GC liveness).  3: one pack
#: frame per source file, no function-summary snapshot; manifests map
#: each file to its current pack key and AST keys.  4: empty artifacts
#: ride in a separately pickled blob (:class:`SummaryPack`), and pack keys
#: fold in this version, so packs and manifests of format 3 read as
#: misses.
SUMMARY_FORMAT_VERSION = 4

#: Leading magic of a framed payload: marker + 32-byte SHA-256 of the
#: payload that follows.
FRAME_MAGIC = b"XGCCAST\x03"
_FRAME_HEADER = len(FRAME_MAGIC) + 32

#: Byte width of the AST payload's decl-index length prefix.
_INDEX_PREFIX = 4

#: Frame magic for tier-2 summary frames (same layout, distinct marker so
#: the tiers can never be confused for one another).
SUMMARY_MAGIC = b"XGCCSUM\x01"

#: Frame magic for dependency records (same layout again).
RECORD_MAGIC = b"XGCCSRC\x01"


class CacheCorruption(Exception):
    """An emitted/cached payload that cannot be trusted: truncated,
    garbled, checksum-mismatched, or written by a different parser
    version.  Callers evict and re-parse instead of crashing."""


def _config_digest(filename, include_paths, defines):
    """A SHA-256 primed with the key version and the configuration both
    tier-1 keys share."""
    digest = hashlib.sha256()
    digest.update(AST_KEY_VERSION.encode())
    digest.update(b"\x00")
    digest.update(PARSER_VERSION.encode())
    digest.update(b"\x00")
    digest.update(str(filename).encode())
    digest.update(b"\x00")
    for path in include_paths:
        digest.update(str(path).encode())
        digest.update(b"\x1d")
    digest.update(b"\x00")
    for name, value in sorted((defines or {}).items()):
        digest.update(("%s=%s" % (name, value)).encode())
        digest.update(b"\x1d")
    digest.update(b"\x00")
    return digest


def cache_key(filename, tokens, include_paths=(), defines=None):
    """The content-addressed key for one preprocessed file: its
    configuration and :func:`repro.cfront.lexer.token_text`."""
    digest = _config_digest(filename, include_paths, defines)
    digest.update(token_text(tokens).encode())
    return digest.hexdigest()


def source_key(filename, text, include_paths=(), defines=None):
    """The key of one source file's dependency record: its raw text
    under the same configuration :func:`cache_key` hashes."""
    digest = _config_digest(filename, include_paths, defines)
    digest.update(text.encode("utf-8", "surrogatepass"))
    return RECORD_PREFIX + digest.hexdigest()


def content_digest(text):
    """The SHA-256 a dependency record stores for one file's text."""
    return hashlib.sha256(text.encode("utf-8", "surrogatepass")).hexdigest()


def pack_record(token_key, dependencies):
    """Frame a dependency record; ``dependencies`` is ``[(path, digest
    or None)]`` in the order the preprocessor probed the paths."""
    return pack_frame(
        RECORD_MAGIC,
        {
            "key_version": AST_KEY_VERSION,
            "token_key": token_key,
            "dependencies": list(dependencies),
        },
    )


def unpack_record(data):
    """``(token_key, [(path, digest or None)])`` from a framed record;
    raises :class:`CacheCorruption` on anything untrustworthy."""
    obj = unpack_frame(RECORD_MAGIC, data)
    if not isinstance(obj, dict) or obj.get("key_version") != AST_KEY_VERSION:
        raise CacheCorruption("dependency record version skew")
    return obj["token_key"], obj["dependencies"]


def pack_frame(magic, payload_obj):
    """Frame an arbitrary picklable payload: magic + SHA-256 + pickle."""
    payload = pickle.dumps(payload_obj, protocol=pickle.HIGHEST_PROTOCOL)
    return magic + hashlib.sha256(payload).digest() + payload


def _verified_payload(magic, data):
    """The checksummed payload of a frame (a memoryview, no copy);
    raises :class:`CacheCorruption` on a wrong marker or a checksum
    mismatch."""
    header = len(magic) + 32
    if data[: len(magic)] != magic:
        raise CacheCorruption("bad frame magic (wrong tier or not a frame)")
    payload = memoryview(data)[header:]
    if len(data) < header or hashlib.sha256(payload).digest() != data[
            len(magic):header]:
        raise CacheCorruption(
            "checksum mismatch (truncated or garbled payload)"
        )
    return payload


def _loads(payload):
    try:
        return pickle.loads(payload)
    except Exception as err:
        raise CacheCorruption("unreadable payload: %r" % err)


def unpack_frame(magic, data):
    """The verified payload object of a frame written by
    :func:`pack_frame`; raises :class:`CacheCorruption` on a wrong
    marker, checksum mismatch, or unreadable pickle."""
    return _loads(_verified_payload(magic, data))


#: One function definition as an AST frame's decl index records it.
FunctionEntry = collections.namedtuple(
    "FunctionEntry", "name location token_hash direct_callees")


class UnitIndex:
    """The decl index at the head of an AST frame: what the call graph,
    fingerprints, scheduling and the static map read from one file
    without its body.  ``functions`` lists a :class:`FunctionEntry` per
    definition, in ``unit.functions()`` order; ``statics`` names the
    file-scope ``static`` variables in declaration order."""

    __slots__ = ("filename", "source_bytes", "functions", "statics")

    def __init__(self, filename, source_bytes, functions, statics):
        self.filename = filename
        self.source_bytes = source_bytes
        self.functions = functions
        self.statics = statics


def _frame_unit(index, body):
    """An AST frame: the ``index`` dict, pickled, ahead of the pickled
    unit ``body``."""
    head = pickle.dumps(index, protocol=pickle.HIGHEST_PROTOCOL)
    payload = b"".join(
        (len(head).to_bytes(_INDEX_PREFIX, "big"), head, body))
    return FRAME_MAGIC + hashlib.sha256(payload).digest() + payload


def _split_unit(payload):
    """``(index, body)`` views of a verified AST payload."""
    if len(payload) < _INDEX_PREFIX:
        raise CacheCorruption("frame holds no decl index")
    end = _INDEX_PREFIX + int.from_bytes(payload[:_INDEX_PREFIX], "big")
    if end > len(payload):
        raise CacheCorruption("frame holds no decl index")
    return payload[_INDEX_PREFIX:end], payload[end:]


def pack_unit(unit, source_bytes):
    """Serialize a translation unit into the emitted .ast payload: its
    decl index, then the unit itself."""
    index = {
        "format": AST_FORMAT_VERSION,
        "parser_version": PARSER_VERSION,
        "filename": unit.filename,
        "source_bytes": source_bytes,
        "functions": [
            (decl.name, decl.location, decl.token_hash,
             decl.direct_callees if decl.direct_callees is not None
             else direct_callees(decl))
            for decl in unit.functions()
        ],
        "statics": [
            decl.name for decl in unit.decls
            if isinstance(decl, ast.VarDecl) and decl.storage == "static"
        ],
    }
    return _frame_unit(
        index, pickle.dumps(unit, protocol=pickle.HIGHEST_PROTOCOL))


def _decode_index(payload):
    """``(UnitIndex, body view)`` of a verified AST payload."""
    head, body = _split_unit(payload)
    obj = _loads(head)
    if not isinstance(obj, dict) or obj.get("format") != AST_FORMAT_VERSION:
        raise CacheCorruption("frame does not hold a decl index")
    version = obj.get("parser_version")
    if version != PARSER_VERSION:
        raise CacheCorruption(
            "parser version skew: entry says %r, this build is %r"
            % (version, PARSER_VERSION)
        )
    index = UnitIndex(
        obj["filename"], int(obj.get("source_bytes") or 0),
        [FunctionEntry(*entry) for entry in obj["functions"]],
        obj["statics"],
    )
    return index, body


def unpack_index(data):
    """The :class:`UnitIndex` of a payload written by :func:`pack_unit`.

    Verifies the marker and the checksum of the whole frame and the
    recorded format and parser version, but unpickles only the index;
    raises :class:`CacheCorruption` on anything untrustworthy, a bare
    unframed pickle included, so the caller evicts and re-parses.
    """
    return _decode_index(_verified_payload(FRAME_MAGIC, data))[0]


def unpack(data):
    """``(unit, source_bytes)`` from a payload written by :func:`pack_unit`.

    The same checks as :func:`unpack_index`, then the unit body is
    unpickled; raises :class:`CacheCorruption` on anything
    untrustworthy.
    """
    index, body = _decode_index(_verified_payload(FRAME_MAGIC, data))
    unit = _loads(body)
    if not hasattr(unit, "decls"):
        raise CacheCorruption("frame does not hold a translation unit")
    return unit, index.source_bytes


class AstCache:
    """Content-addressed store of emitted ASTs behind one
    :mod:`repro.driver.store` backend (local, remote, tiered)."""

    def __init__(self, backend):
        self.backend = backend

    def fetch(self, key):
        """``(data, path)`` for a cached key, without verifying it.

        A local (or overlay) hit returns ``(None, path)`` -- the bytes
        stay on disk for the parent process to read, exactly as before
        the store existed.  A remote-only hit returns ``(bytes, None)``
        unless the backend's write-through landed the frame locally, in
        which case the local path is preferred.  ``(None, None)`` is a
        miss.
        """
        path = self.backend.local_path("ast", key)
        if path is not None and os.path.exists(path):
            touch_entry(path)
            if hasattr(self.backend, "count_overlay_hit"):
                self.backend.count_overlay_hit()
            return None, path
        data = self.backend.get_many("ast", [key]).get(key)
        if data is None:
            return None, None
        if path is not None and os.path.exists(path):
            return None, path  # write-through overlay landed it
        return data, None

    def fetch_record(self, key):
        """``(token_key, dependencies)`` of the dependency record at a
        :func:`source_key`, or None on a miss.  Raises
        :class:`CacheCorruption` for an untrustworthy record."""
        data = self.backend.get_many("ast", [key]).get(key)
        if data is None:
            return None
        return unpack_record(data)

    def store_record(self, key, token_key, dependencies):
        """Write (or overwrite) the dependency record at ``key``."""
        self.backend.put_many(
            "ast", {key: pack_record(token_key, dependencies)})

    def store(self, key, data):
        """Atomically write a payload; safe under concurrent writers."""
        self.backend.put_many("ast", {key: data})
        spec = faults.fires("cache.corrupt", key=key)
        if spec is not None:
            self.corrupt(key, spec.get("mode", "truncate"))
        path = self.backend.local_path("ast", key)
        return path if path else key

    def corrupt(self, key, mode="truncate"):
        """Damage a stored entry *through the backend* (fault injection:
        reaches every tier a write-through put reached, so self-heal
        tests cannot silently heal from an untouched copy)."""
        data = self.backend.get_many("ast", [key]).get(key)
        if data is None:
            return
        self.backend.put_many("ast", {key: corrupt_bytes(data, mode)})

    def evict(self, key):
        """Drop a (corrupt) entry; the next probe for ``key`` misses."""
        return self.backend.delete_many("ast", [key]) > 0


class SummaryPack(Mapping):
    """One source file's summary pack as a warm run reads it: a mapping
    ``{(ext_index, root): (fingerprint, RootArtifact)}``.

    ``entries`` holds every pair's fingerprint and its non-empty
    artifact; an empty artifact is None there until the pack's blob of
    empty artifacts is decoded, once, by the first lookup that needs
    one.  A replay never needs one (empty artifacts add nothing to a
    merge), so a warm run decodes the blob only for a pack it rewrites
    or when a cross-root change makes it test an empty artifact's read
    set.
    """

    __slots__ = ("entries", "_blob")

    def __init__(self, entries, blob=None):
        self.entries = entries
        self._blob = blob

    def _decode(self):
        if self._blob is not None:
            empty = _loads(self._blob)
            self._blob = None
            for pair, artifact in empty.items():
                self.entries[pair] = (self.entries[pair][0], artifact)

    def __getitem__(self, pair):
        entry = self.entries[pair]
        if entry[1] is None:
            self._decode()
            entry = self.entries[pair]
        return entry

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)


def pack_summary(pack):
    """Serialize one source file's summary pack -- ``{(ext_index, root):
    (fingerprint, RootArtifact)}`` -- into a framed .sum payload, the
    empty artifacts pickled apart (:class:`SummaryPack`).  Any other
    payload is framed whole."""
    blob = None
    if isinstance(pack, Mapping):
        eager, empty = {}, {}
        for pair, (fingerprint, artifact) in pack.items():
            if artifact.empty:
                empty[pair] = artifact
                artifact = None
            eager[pair] = (fingerprint, artifact)
        pack = eager
        if empty:
            blob = pickle.dumps(empty, protocol=pickle.HIGHEST_PROTOCOL)
    return pack_frame(
        SUMMARY_MAGIC,
        {
            "format": SUMMARY_FORMAT_VERSION,
            "summary_version": SUMMARY_VERSION,
            "pack": pack,
            "empty": blob,
        },
    )


def unpack_summary(data):
    """The :class:`SummaryPack` of a framed .sum payload (any other
    framed payload as it was stored); raises :class:`CacheCorruption`
    on anything untrustworthy, including frames written by a different
    summary format or engine summary version."""
    obj = unpack_frame(SUMMARY_MAGIC, data)
    if not isinstance(obj, dict) or "pack" not in obj:
        raise CacheCorruption("summary frame has no pack")
    if obj.get("format") != SUMMARY_FORMAT_VERSION:
        raise CacheCorruption(
            "summary format skew: entry says %r, this build is %r"
            % (obj.get("format"), SUMMARY_FORMAT_VERSION)
        )
    if obj.get("summary_version") != SUMMARY_VERSION:
        raise CacheCorruption(
            "engine summary version skew: entry says %r, this build is %r"
            % (obj.get("summary_version"), SUMMARY_VERSION)
        )
    if isinstance(obj["pack"], dict):
        return SummaryPack(obj["pack"], obj.get("empty"))
    return obj["pack"]


class SummaryCache:
    """Tier 2: per-file summary packs plus the session manifest.

    Pack keys are computed by the incremental session
    (:func:`repro.driver.session.pack_key`) from the session signature,
    the file, and every entry's root fingerprint, and each entry carries
    its fingerprint, so an entry can only ever be replayed into a run
    whose extensions, options, and transitive callee cone all match the
    run that produced it.
    """

    def __init__(self, backend):
        self.backend = backend
        #: Batched-read stash: frames fetched ahead of time by
        #: :meth:`prefetch`, consumed by :meth:`get`.
        self._prefetched = {}

    def get(self, key):
        """The cached pack, or None on a miss (one probe, no separate
        existence check).  Raises :class:`CacheCorruption` for
        untrustworthy frames -- the caller evicts and re-analyzes.
        Consumes the :meth:`prefetch` stash first, so a warm run pays
        one backend batch for all the packs it replays."""
        data = self._prefetched.pop(key, None)
        if data is None:
            data = self.backend.get_many("sum", [key]).get(key)
        if data is None:
            return None
        return unpack_summary(data)

    def prefetch(self, keys):
        """Fetch many frames in one backend batch, stashed for
        :meth:`get`.  Best-effort: a failed batch just means per-key
        fetches later (which carry the real error handling)."""
        wanted = [key for key in keys if key not in self._prefetched]
        if not wanted:
            return
        try:
            self._prefetched.update(self.backend.get_many("sum", wanted))
        except storemod.StoreError:
            pass

    def touch_many(self, keys):
        """Refresh frames' liveness without reading them (in-memory
        warm hits still count as GC liveness)."""
        self.backend.touch_many("sum", keys)

    def store(self, key, pack):
        """Atomically persist one pack."""
        self.store_many({key: pack})
        path = self.backend.local_path("sum", key)
        return path if path else key

    def store_many(self, packs):
        """Persist a batch of packs (one backend round trip for remote
        stores)."""
        payload = {
            key: pack_summary(pack) for key, pack in sorted(packs.items())
        }
        self.backend.put_many("sum", payload)
        for key in payload:
            spec = faults.fires("summary.corrupt", key=key)
            if spec is not None:
                self.corrupt(key, spec.get("mode", "truncate"))

    def corrupt(self, key, mode="truncate"):
        """Damage a stored frame *through the backend* (fault
        injection: reaches every tier a write-through put reached)."""
        data = self.backend.get_many("sum", [key]).get(key)
        if data is None:
            return
        self.backend.put_many("sum", {key: corrupt_bytes(data, mode)})

    def evict(self, key):
        """Drop a (corrupt) entry; the next probe for ``key`` misses."""
        self._prefetched.pop(key, None)
        return self.backend.delete_many("sum", [key]) > 0

    # -- session manifest -------------------------------------------------
    #
    # One JSON document per session signature recording the fingerprint of
    # every function the last completed run saw, plus each source file's
    # current pack key and tier-1 keys.  Diffing the manifest against
    # freshly computed fingerprints yields the dirty function set.

    def manifest_path(self, signature):
        """The local manifest path (a stable token for pathless
        backends)."""
        path = self.backend.manifest_local_path(signature)
        return path if path else "manifest-%s.json" % signature[:32]

    def _decode_manifest(self, text, signature):
        """The validated manifest document from its JSON text, or None
        when absent/unreadable/skewed."""
        if text is None:
            return None
        try:
            obj = json.loads(text)
        except ValueError:
            return None
        if (
            not isinstance(obj, dict)
            or obj.get("format") != SUMMARY_FORMAT_VERSION
            or obj.get("signature") != signature
            or not isinstance(obj.get("fingerprints"), dict)
            or not isinstance(obj.get("packs"), dict)
            or not isinstance(obj.get("ast_keys"), dict)
        ):
            return None
        return obj

    @staticmethod
    def manifest_pins(document):
        """``(summary keys, AST keys)`` a manifest document pins (what
        GC keeps live): the current pack of every file in its ``packs``
        map and every key in its per-file ``ast_keys`` map."""
        if not isinstance(document, dict):
            return set(), set()
        packs = document.get("packs")
        ast_keys = document.get("ast_keys")
        pinned_sum = set(packs.values()) if isinstance(packs, dict) else set()
        pinned_ast = set()
        if isinstance(ast_keys, dict):
            for keys in ast_keys.values():
                pinned_ast.update(keys)
        return pinned_sum, pinned_ast

    def load_manifest(self, signature):
        """The validated manifest document from the last run under this
        signature -- ``fingerprints`` (``{function: fingerprint}``) plus
        the ``packs`` and ``ast_keys`` per-file maps -- or None when
        absent/unreadable/skewed (a garbled manifest or an unreachable
        store degrades to a cold run, never a crash)."""
        try:
            text, __ = self.backend.manifest_get(signature)
        except storemod.StoreError:
            return None
        return self._decode_manifest(text, signature)

    def store_manifest(self, signature, fingerprints, packs=None,
                       ast_keys=None, dropped=(), stats=None):
        """Record the fingerprints of a completed run.

        A read-merge-write through ETag compare-and-swap: entries from
        a concurrent session (functions we did not fingerprint this
        run, files whose packs or AST keys we did not record) are
        preserved rather than clobbered, so two incremental sessions
        sharing one store both keep their warm state.  For functions
        and files both runs saw, this run's entry wins -- which is also
        what keeps the pin sets bounded: a file's previous pack and AST
        keys drop out of the manifest as soon as a run records new ones.
        A CAS conflict (rival landed first) re-reads and re-merges,
        bounded by :data:`repro.driver.store.MANIFEST_CAS_RETRIES` and
        counted as ``store_cas_conflicts``; an exhausted bound loses
        this merge loudly (degradation record) rather than corrupting
        anything.  ``packs`` maps each source file to its current
        tier-2 pack key and ``ast_keys`` each file to the tier-1 keys
        (AST frame, dependency record) its last compile used; GC treats
        both as live as long as the manifest is fresh.  ``dropped``
        names files that are gone (deleted or renamed): their stored
        entries are not carried over, so the pins track the current
        tree rather than every file ever seen.
        """
        spec = faults.fires("summary.manifest", key=signature)
        if spec is not None:
            # Fault injection: a rival session completes its manifest
            # store in the window before ours.  The merge below must
            # preserve its entries.
            self._merge_manifest(signature, self._rival_entries(spec), (),
                                 None)
        return self._merge_manifest(
            signature, (fingerprints, packs or {}, ast_keys or {}),
            frozenset(dropped), stats)

    @staticmethod
    def _rival_entries(spec):
        """The ``(fingerprints, packs, ast_keys)`` a fault spec's rival
        session records."""
        return (
            dict(spec.get("fingerprints") or {"__rival__": ["r", "r"]}),
            dict(spec.get("packs") or {}),
            dict(spec.get("ast_keys") or {}),
        )

    def _merged_document(self, signature, entries, existing, dropped=()):
        """The manifest document ``entries`` (ours) merged over an
        ``existing`` one: ours win per function and per file, and the
        existing file entries named in ``dropped`` are left out."""
        maps = [dict(part) for part in entries]
        if existing is not None:
            for ours, name in zip(maps, ("fingerprints", "packs",
                                         "ast_keys")):
                for item, value in existing[name].items():
                    if name == "fingerprints" or item not in dropped:
                        ours.setdefault(item, value)
        fingerprints, packs, ast_keys = maps
        return json.dumps(
            {
                "format": SUMMARY_FORMAT_VERSION,
                "signature": signature,
                "fingerprints": fingerprints,
                "packs": packs,
                "ast_keys": {
                    name: sorted(keys) for name, keys in ast_keys.items()
                },
            },
            sort_keys=True,
        )

    def _merge_manifest(self, signature, entries, dropped, stats):
        counted_merge = False
        for _attempt in range(storemod.MANIFEST_CAS_RETRIES):
            text, etag = self.backend.manifest_get(signature)
            existing = self._decode_manifest(text, signature)
            if (
                existing is not None and stats is not None
                and not counted_merge
                and set(existing["fingerprints"]) - set(entries[0])
            ):
                stats.add("manifest_merges")
                counted_merge = True
            document = self._merged_document(signature, entries, existing,
                                             dropped)
            spec = faults.fires("store.conflict", key=signature)
            if spec is not None:
                # Fault injection: a rival's CAS lands in our
                # read->write window, invalidating the ETag we hold.
                self._rival_cas(signature, spec)
            committed, __, __ = self.backend.manifest_cas(
                signature, document, etag, stats=stats)
            if committed:
                return self.manifest_path(signature)
            if stats is not None:
                stats.add("store_cas_conflicts")
        if stats is not None:
            stats.record_degradation(
                "store",
                "manifest CAS for %s... exhausted %d retries; this "
                "run's merge was lost (next run re-derives)"
                % (signature[:12], storemod.MANIFEST_CAS_RETRIES),
            )
        return self.manifest_path(signature)

    def _rival_cas(self, signature, spec):
        """Land a genuine rival merge between our read and our CAS (the
        ``store.conflict`` fault): read-merge-write of the rival's
        entries, retried a few times so it always commits."""
        entries = self._rival_entries(spec)
        for _attempt in range(8):
            text, etag = self.backend.manifest_get(signature)
            existing = self._decode_manifest(text, signature)
            document = self._merged_document(signature, entries, existing)
            committed, __, __ = self.backend.manifest_cas(
                signature, document, etag)
            if committed:
                return


#: Lockfile-fallback tuning (non-``fcntl`` platforms): how long one
#: waiter retries before it declares the holder dead, and how old an
#: ``.excl`` lockfile must be before it is stolen as stale.
_LOCK_FALLBACK_TIMEOUT = 10.0
_LOCK_FALLBACK_STALE = 30.0


@contextlib.contextmanager
def _file_lock(path, stats=None):
    """An exclusive advisory lock around a read-merge-write cycle.

    With ``fcntl`` available this is a plain ``flock``.  Without it the
    lock does NOT silently become a no-op (that would quietly drop the
    read-merge-write concurrency guarantee): it falls back to an
    ``O_CREAT | O_EXCL`` lockfile with bounded retry, counted in
    ``stats`` as ``manifest_lock_fallbacks`` so the degraded locking
    discipline is visible in ``--stats-json``.  A lockfile older than
    :data:`_LOCK_FALLBACK_STALE` seconds (crashed holder) is stolen;
    a waiter that exhausts :data:`_LOCK_FALLBACK_TIMEOUT` steals too
    rather than wedging — the write itself stays atomic (tmp +
    replace), so the worst case is a lost merge, never corruption.
    """
    if fcntl is not None:
        fd = os.open(path, os.O_CREAT | os.O_RDWR, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            try:
                yield True
            finally:
                fcntl.flock(fd, fcntl.LOCK_UN)
        finally:
            os.close(fd)
        return
    if stats is not None:
        stats.add("manifest_lock_fallbacks")
    excl = path + ".excl"
    deadline = time.monotonic() + _LOCK_FALLBACK_TIMEOUT
    while True:
        try:
            fd = os.open(excl, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
            break
        except FileExistsError:
            try:
                stale = time.time() - os.path.getmtime(excl)
            except OSError:
                continue  # holder released between open and stat: retry
            if stale > _LOCK_FALLBACK_STALE or time.monotonic() > deadline:
                # Crashed holder (or one outliving any sane merge):
                # steal the lock instead of wedging every later writer.
                try:
                    os.remove(excl)
                except OSError:
                    pass
                continue
            time.sleep(0.01)
    try:
        os.close(fd)
        yield True
    finally:
        try:
            os.remove(excl)
        except OSError:
            pass


def touch_entry(path):
    """Refresh an entry's mtime (GC keeps what warm runs actually use);
    best-effort, a vanished or read-only entry is not an error."""
    try:
        os.utime(path, None)
    except OSError:
        pass


def corrupt_bytes(data, mode="truncate"):
    """Return a damaged copy of an in-memory frame (fault injection).

    Modes mirror real failure shapes: "truncate" (full disk / killed
    writer), "garbage" (bit rot over the frame header), "version" (a
    structurally valid entry written by a different parser version --
    checksum intact, so only the version check catches it).
    """
    if mode == "truncate":
        return data[: len(data) // 2]
    if mode == "garbage":
        junk = b"\xde\xad\xbe\xef" * 16
        return junk + data[len(junk):]
    if mode == "version":
        for magic, field in ((SUMMARY_MAGIC, "summary_version"),
                             (RECORD_MAGIC, "key_version")):
            if data[: len(magic)] == magic:
                obj = pickle.loads(data[len(magic) + 32:])
                obj[field] = "0-skewed"
                return pack_frame(magic, obj)
        head, body = _split_unit(memoryview(data)[_FRAME_HEADER:])
        index = pickle.loads(head)
        index["parser_version"] = "0-skewed"
        return _frame_unit(index, body)
    raise ValueError("unknown corruption mode: %r" % mode)


def corrupt_entry(path, mode="truncate"):
    """Damage an on-disk entry in place (see :func:`corrupt_bytes`)."""
    with open(path, "rb") as handle:
        data = handle.read()
    with open(path, "wb") as handle:
        handle.write(corrupt_bytes(data, mode))
    return path
