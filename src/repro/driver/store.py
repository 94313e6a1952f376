"""Artifact-store backends: where cache frames and manifests live.

The driver's two-tier content-addressed cache (tier-1 ``XGCCAST`` AST
frames, tier-2 ``XGCCSUM`` summary packs plus session manifests) keeps
its bytes behind one backend interface, so
:class:`repro.driver.cache.AstCache`,
:class:`repro.driver.cache.SummaryCache`, the incremental session, the
daemon's pinned warm state, and ``--cache-gc`` (:meth:`LocalStore.gc`
and its remote and tiered twins) all speak to storage the same way.
The backend is the only way in: neither cache takes a directory.

- :class:`LocalStore` -- the filesystem layout under one ``--cache-dir``
  root (``root/<key[:2]>/<key>.ast``, ``root/summaries/...``,
  ``root/runs/...``), with manifest writes promoted to ETag
  compare-and-swap held under the per-signature file lock.
- :class:`RemoteStore` -- a client for the ``POST /store`` route of a
  standalone :mod:`repro.driver.report_server`: batched
  ``get``/``put``/``head`` over a keep-alive HTTP connection (JSON
  header line + raw frame bytes), manifest CAS with the current
  document returned on conflict (saving the re-read round trip), and
  server-side GC that honours extra-live pins.
- :class:`TieredStore` -- local write-through overlay over a remote:
  warm reads never block on the network (overlay hits are counted),
  every remote read/write is mirrored locally, and a dead or flaky
  store degrades the tier to local-only (``store_degraded`` /
  ``store_fallbacks`` counters) instead of failing the run.

Keys, frame formats, and checksums are untouched: a backend stores and
returns opaque frame bytes; verification stays in
:mod:`repro.driver.cache` where it always lived.

The wire protocol (docs/STORE.md): each request is one ``POST /store``
whose body is a JSON object on its own line with a ``blobs`` list of
byte lengths, followed by exactly those raw bytes concatenated; each
response body mirrors the shape.  Batches are first-class -- one round
trip moves any number of frames.

Manifest discipline: the fcntl read-merge-write from PR 3 serialized
rival sessions through a shared filesystem lock, which cannot span
machines.  Every backend instead exposes ``manifest_get`` (document +
ETag) and ``manifest_cas`` (write iff the ETag still matches); the
merge loop in :meth:`repro.driver.cache.SummaryCache.store_manifest`
re-reads, re-merges, and retries on conflict, bounded by
:data:`MANIFEST_CAS_RETRIES`.  The ETag is the SHA-256 of the document
bytes, so local and remote backends agree on it.
"""

import hashlib
import json
import os
import threading
import time

#: Wire protocol version; every request and response carries it.
STORE_PROTOCOL = 1

#: Upper bound on manifest compare-and-swap retries.  Each round the
#: store commits exactly one writer (LocalStore serializes CAS under the
#: per-signature lock; the server dispatches every request under one
#: lock), so N contending sessions converge in at most N rounds -- the
#: bound exists to turn a pathological livelock into a loud lost merge,
#: never an infinite loop.
MANIFEST_CAS_RETRIES = 64

#: Frame tiers: cached ASTs, per-root summaries, and run-history
#: documents (repro.reports.history).  The ``run`` tier is a *record*,
#: not a cache -- :meth:`LocalStore.gc` never sweeps it.
_TIER_SUFFIX = {"ast": ".ast", "sum": ".sum", "run": ".run"}


class StoreError(Exception):
    """A backend operation that could not be served (unreachable store,
    protocol violation).  TieredStore catches
    these and degrades to local-only; bare backends let them surface."""


def etag_of(text):
    """The manifest ETag for a document: SHA-256 of its UTF-8 bytes.
    Backend-independent, so a CAS started against one backend commits
    correctly against any other holding the same bytes."""
    if isinstance(text, str):
        text = text.encode("utf-8")
    return hashlib.sha256(text).hexdigest()


def parse_store_url(url):
    """``(host, port)`` from a store URL; accepts ``tcp://h:p``,
    ``http://h:p``, or bare ``h:p``."""
    rest = url
    for scheme in ("tcp://", "http://"):
        if rest.startswith(scheme):
            rest = rest[len(scheme):]
            break
    rest = rest.rstrip("/")
    host, sep, port = rest.rpartition(":")
    if not sep or not port.isdigit():
        raise StoreError("unusable store url: %r" % url)
    return host or "127.0.0.1", int(port)


def encode_message(fields, blobs=()):
    """One store message (docs/STORE.md): a JSON header line whose
    ``blobs`` lists the byte lengths of the raw frames that follow it,
    concatenated.  Requests and replies share the shape."""
    header = dict(fields, protocol=STORE_PROTOCOL,
                  blobs=[len(blob) for blob in blobs])
    return json.dumps(header).encode("utf-8") + b"\n" + b"".join(blobs)


def decode_message(data):
    """``(header, blobs)`` from an :func:`encode_message` body; raises
    ValueError when the header is unreadable or the frames are short."""
    line, sep, rest = data.partition(b"\n")
    header = json.loads(line.decode("utf-8"))
    if not sep or not isinstance(header, dict):
        raise ValueError("store message has no header object")
    blobs, offset = [], 0
    for size in header.get("blobs") or ():
        size = int(size)
        if size < 0 or offset + size > len(rest):
            raise ValueError("store message truncated")
        blobs.append(rest[offset:offset + size])
        offset += size
    return header, blobs


def _write_text(path, text):
    """Replace ``path`` with ``text`` atomically (tmp + rename)."""
    tmp = "%s.tmp.%d" % (path, os.getpid())
    with open(tmp, "w") as handle:
        handle.write(text)
    os.replace(tmp, path)


def _manifest_files(summaries_dir):
    """Sorted manifest paths currently present under a summaries dir."""
    try:
        names = sorted(os.listdir(summaries_dir))
    except OSError:
        return []
    return [
        os.path.join(summaries_dir, name)
        for name in names
        if name.startswith("manifest-") and name.endswith(".json")
    ]


class LocalStore:
    """The filesystem backend: the cache's on-disk layout.

    Tier 1 lives under ``root``, tier 2 and the manifests under
    ``root/summaries``, run history under ``root/runs``.
    """

    #: Batched prefetch buys nothing on a local filesystem.
    prefers_batch = False

    def __init__(self, root, stats=None):
        self.root = root
        self.sum_dir = os.path.join(root, "summaries")
        self.stats = stats
        self._tier_dirs = {"ast": root, "sum": self.sum_dir,
                           "run": os.path.join(root, "runs")}

    def bind_stats(self, stats):
        if self.stats is None:
            self.stats = stats

    def close(self):
        pass

    # -- frames ------------------------------------------------------------

    def local_path(self, tier, key):
        """Where this key lives on disk (whether or not it exists)."""
        return os.path.join(self._tier_dirs[tier], key[:2],
                            key + _TIER_SUFFIX[tier])

    def get_many(self, tier, keys):
        """``{key: frame_bytes}`` for every present key.  A read counts
        as use: each hit's mtime is refreshed so GC's ``mtime >= cutoff``
        keep rule sees warm frames as live."""
        out = {}
        for key in keys:
            path = self.local_path(tier, key)
            try:
                with open(path, "rb") as handle:
                    out[key] = handle.read()
            except OSError:
                continue
            try:
                os.utime(path, None)
            except OSError:
                pass
        return out

    def put_many(self, tier, items):
        """Atomically write frames (tmp + rename, concurrent-writer
        safe)."""
        made = set()  # shard directories created by this call
        for key in sorted(items):
            path = self.local_path(tier, key)
            shard = os.path.dirname(path)
            if shard not in made:
                os.makedirs(shard, exist_ok=True)
                made.add(shard)
            tmp = "%s.tmp.%d" % (path, os.getpid())
            with open(tmp, "wb") as handle:
                handle.write(items[key])
            os.replace(tmp, path)
        return len(items)

    def head_many(self, tier, keys):
        """The subset of ``keys`` present, as a set (no bytes moved)."""
        return {
            key for key in keys if os.path.exists(self.local_path(tier, key))
        }

    def delete_many(self, tier, keys):
        deleted = 0
        for key in keys:
            try:
                os.remove(self.local_path(tier, key))
                deleted += 1
            except OSError:
                pass
        return deleted

    def touch_many(self, tier, keys, ts=None):
        """Refresh mtimes (GC liveness) -- or, with ``ts``, set them
        (tests age entries through this instead of reaching for paths)."""
        times = None if ts is None else (ts, ts)
        for key in keys:
            try:
                os.utime(self.local_path(tier, key), times)
            except OSError:
                pass

    def entry_mtime(self, tier, key):
        """The entry's mtime, or None when absent."""
        try:
            return os.path.getmtime(self.local_path(tier, key))
        except OSError:
            return None

    def list_tier(self, tier):
        """``{key: mtime}`` of every frame in a tier."""
        directory = self._tier_dirs[tier]
        suffix = _TIER_SUFFIX[tier]
        out = {}
        if not os.path.isdir(directory):
            return out
        for sub in sorted(os.listdir(directory)):
            subdir = os.path.join(directory, sub)
            if len(sub) != 2 or not os.path.isdir(subdir):
                continue
            try:
                names = sorted(os.listdir(subdir))
            except OSError:
                continue
            for name in names:
                if not name.endswith(suffix):
                    continue
                try:
                    mtime = os.path.getmtime(os.path.join(subdir, name))
                except OSError:
                    continue
                out[name[: -len(suffix)]] = mtime
        return out

    # -- manifests ---------------------------------------------------------

    def manifest_local_path(self, signature):
        return os.path.join(
            self.sum_dir, "manifest-%s.json" % signature[:32]
        )

    def _read_manifest(self, path):
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except OSError:
            return None, None
        return data.decode("utf-8"), etag_of(data)

    def manifest_get(self, signature):
        """``(document_text, etag)``; ``(None, None)`` when absent."""
        return self._read_manifest(self.manifest_local_path(signature))

    def manifest_head(self, signature):
        """The current ETag, or None when absent."""
        return self.manifest_get(signature)[1]

    def manifest_version(self, signature):
        """A cheap change token for warm-state pinning: the manifest
        file's stat identity (any rival merge moves it)."""
        try:
            st = os.stat(self.manifest_local_path(signature))
        except OSError:
            return None
        return (st.st_mtime_ns, st.st_size, st.st_ino)

    def manifest_cas(self, signature, text, expect_etag, stats=None):
        """Write the document iff the stored ETag still matches.

        Returns ``(committed, etag, current_text)``: on success the new
        ETag and our own text, on conflict the store's current ETag and
        document (the caller re-merges against it and retries).  The
        check-and-write runs under the per-signature file lock, so of
        any number of concurrent CAS attempts exactly one commits.
        """
        from repro.driver.cache import _file_lock

        path = self.manifest_local_path(signature)
        os.makedirs(self.sum_dir, exist_ok=True)
        with _file_lock(path + ".lock", stats=stats or self.stats):
            cur_text, cur_etag = self._read_manifest(path)
            if expect_etag != cur_etag:
                return False, cur_etag, cur_text
            _write_text(path, text)
        return True, etag_of(text), text

    def manifest_put(self, signature, text, stats=None):
        """Unconditional locked manifest write (the overlay mirror path:
        the remote already arbitrated the merge)."""
        from repro.driver.cache import _file_lock

        path = self.manifest_local_path(signature)
        os.makedirs(self.sum_dir, exist_ok=True)
        with _file_lock(path + ".lock", stats=stats or self.stats):
            _write_text(path, text)
        return etag_of(text)

    def manifest_list(self):
        """``{manifest_token: mtime}`` for every stored manifest (the
        token is the filename's truncated-signature part)."""
        out = {}
        for path in _manifest_files(self.sum_dir):
            name = os.path.basename(path)
            try:
                out[name[len("manifest-"):-len(".json")]] = (
                    os.path.getmtime(path)
                )
            except OSError:
                continue
        return out

    def manifest_delete(self, token, stats=None):
        from repro.driver.cache import _file_lock

        path = os.path.join(self.sum_dir, "manifest-%s.json" % token)
        with _file_lock(path + ".lock", stats=stats or self.stats):
            try:
                os.remove(path)
                return True
            except OSError:
                return False

    # -- garbage collection ------------------------------------------------

    def gc(self, cutoff_days=30.0, now=None, stats=None,
           extra_live_sum=(), extra_live_ast=(), _after_scan=None):
        """Sweep stale frames and manifests (the PR 5 semantics, moved
        behind the backend interface).

        Liveness comes from the manifests: every manifest newer than the
        cutoff pins the tier-1 and tier-2 keys it recorded
        (:meth:`repro.driver.cache.SummaryCache.manifest_pins`).  The
        sweep drops (a) manifests older than the cutoff and (b) frames that
        are both unpinned and older than the cutoff -- a frame younger
        than the cutoff is kept even when unreferenced, so plain cache
        users and in-flight sessions are never raced.
        ``extra_live_sum`` / ``extra_live_ast`` are additional pinned
        keys (a live daemon's in-memory warm state, a remote client's
        pins shipped with the ``gc`` request).

        Concurrency: the pinned-key read and the frame sweep run as one
        critical section under every fresh manifest's per-signature
        lock.  A rival session's merge either completes before the sweep
        (its pins are re-read and honoured) or blocks until the sweep is
        done -- and any frame such a late merge pins was just stored or
        warm-loaded, so its refreshed mtime keeps it past the cutoff
        regardless.  ``_after_scan`` is a test-only hook running between
        the stale-manifest drop and the locked section, where the
        pre-fix implementation raced rival merges.

        Returns the eviction counters (callers fold them into stats).
        """
        import contextlib

        from repro.driver.cache import SummaryCache, _file_lock

        now = time.time() if now is None else now
        cutoff = now - float(cutoff_days) * 86400.0
        counters = {
            "gc_manifests_dropped": 0,
            "gc_summary_frames_dropped": 0,
            "gc_ast_frames_dropped": 0,
            "gc_frames_kept": 0,
        }
        stats = stats or self.stats
        for path in _manifest_files(self.sum_dir):
            try:
                mtime = os.path.getmtime(path)
            except OSError:
                continue
            if mtime < cutoff:
                with _file_lock(path + ".lock", stats=stats):
                    try:
                        os.remove(path)
                        counters["gc_manifests_dropped"] += 1
                    except OSError:
                        pass

        if _after_scan is not None:
            _after_scan()

        def sweep(tier, live, counter):
            for key, mtime in self.list_tier(tier).items():
                if key in live or mtime >= cutoff:
                    counters["gc_frames_kept"] += 1
                    continue
                try:
                    os.remove(self.local_path(tier, key))
                    counters[counter] += 1
                except OSError:
                    pass

        live_sum, live_ast = set(extra_live_sum), set(extra_live_ast)
        with contextlib.ExitStack() as held:
            # Re-list and re-read pinned keys under the per-signature
            # locks, immediately before the sweep, holding them through
            # it: a merge that landed since the stale scan is seen, and
            # one that lands after can only pin freshly-touched
            # (mtime-safe) frames.
            for path in _manifest_files(self.sum_dir):
                held.enter_context(_file_lock(path + ".lock", stats=stats))
                try:
                    with open(path) as handle:
                        obj = json.load(handle)
                except (OSError, ValueError):
                    continue
                pinned_sum, pinned_ast = SummaryCache.manifest_pins(obj)
                live_sum |= pinned_sum
                live_ast |= pinned_ast
            sweep("sum", live_sum, "gc_summary_frames_dropped")
            sweep("ast", live_ast, "gc_ast_frames_dropped")
        return counters


class RemoteStore:
    """A client for a standalone report server's ``POST /store`` route
    (docs/STORE.md).

    One keep-alive HTTP connection, reconnected once per request on
    failure; a request that fails twice raises :class:`StoreError` (the
    tiered wrapper turns that into local-only degradation).  All frame
    operations are batched: one round trip per call, however many keys.
    """

    prefers_batch = True

    def __init__(self, url, stats=None, timeout=10.0):
        self.url = url
        self.host, self.port = parse_store_url(url)
        self.stats = stats
        self.timeout = timeout
        self._conn = None
        self._lock = threading.Lock()

    def bind_stats(self, stats):
        if self.stats is None:
            self.stats = stats

    def close(self):
        with self._lock:
            if self._conn is not None:
                self._conn.close()

    # -- wire --------------------------------------------------------------

    def _request(self, op, fields=None, blobs=()):
        """One ``POST /store`` round trip; reconnects and resends once on
        a failed exchange (all ops are idempotent), then raises
        :class:`StoreError`."""
        # Imported here, not at module top: this module loads on every
        # CLI start, and http.client costs ~20 ms to import.
        import http.client

        fields = dict(fields or {}, op=op)
        body = encode_message(fields, blobs)
        with self._lock:
            last_err = None
            for _attempt in (0, 1):
                try:
                    if self._conn is None:
                        self._conn = http.client.HTTPConnection(
                            self.host, self.port, timeout=self.timeout
                        )
                    self._conn.request("POST", "/store", body)
                    response = self._conn.getresponse()
                    data = response.read()
                    if response.status != 200:
                        raise ValueError("HTTP %d" % response.status)
                    reply, reply_blobs = decode_message(data)
                    break
                except (OSError, ValueError, http.client.HTTPException) as err:
                    # A reply cut short (IncompleteRead) is void in its
                    # entirety: the resend fetches the whole batch.
                    # close() leaves the connection to reopen on the
                    # next request.
                    last_err = err
                    self._conn.close()
            else:
                raise StoreError(
                    "store %s unreachable for %r: %r"
                    % (self.url, op, last_err)
                )
        if self.stats is not None:
            self.stats.add("store_round_trips")
            batch = len(fields.get("items") or ())
            if batch:
                self.stats.add("store_batch_keys", batch)
        if not reply.get("ok"):
            raise StoreError(
                "store %s rejected %r: %s" % (self.url, op, reply.get("error"))
            )
        return reply, reply_blobs

    def ping(self):
        reply, __ = self._request("ping")
        return reply

    # -- frames ------------------------------------------------------------

    def local_path(self, tier, key):
        return None

    def get_many(self, tier, keys):
        keys = list(keys)
        if not keys:
            return {}
        reply, blobs = self._request(
            "get", {"items": [{"tier": tier, "key": key} for key in keys]}
        )
        out = {}
        blob_iter = iter(blobs)
        for key, found in zip(keys, reply.get("found") or ()):
            if found:
                out[key] = next(blob_iter)
        return out

    def put_many(self, tier, items):
        ordered = sorted(items.items())
        if not ordered:
            return 0
        self._request(
            "put",
            {"items": [{"tier": tier, "key": key} for key, __ in ordered]},
            [data for __, data in ordered],
        )
        return len(ordered)

    def head_many(self, tier, keys):
        keys = list(keys)
        if not keys:
            return set()
        reply, __ = self._request(
            "head", {"items": [{"tier": tier, "key": key} for key in keys]}
        )
        return {
            key for key, found in zip(keys, reply.get("found") or ())
            if found
        }

    def delete_many(self, tier, keys):
        keys = list(keys)
        if not keys:
            return 0
        reply, __ = self._request(
            "delete",
            {"items": [{"tier": tier, "key": key} for key in keys]},
        )
        return int(reply.get("deleted") or 0)

    def touch_many(self, tier, keys, ts=None):
        keys = list(keys)
        if not keys:
            return
        fields = {"items": [{"tier": tier, "key": key} for key in keys]}
        if ts is not None:
            fields["ts"] = float(ts)
        self._request("touch", fields)

    def entry_mtime(self, tier, key):
        reply, __ = self._request(
            "head", {"items": [{"tier": tier, "key": key}]}
        )
        mtimes = reply.get("mtimes") or [None]
        return mtimes[0]

    def list_tier(self, tier):
        reply, __ = self._request("list", {"tier": tier})
        return {
            str(key): float(mtime)
            for key, mtime in (reply.get("entries") or {}).items()
        }

    # -- manifests ---------------------------------------------------------

    def manifest_local_path(self, signature):
        return None

    def manifest_get(self, signature):
        reply, blobs = self._request(
            "manifest_get", {"signature": signature}
        )
        etag = reply.get("etag")
        if etag is None:
            return None, None
        return blobs[0].decode("utf-8"), etag

    def manifest_head(self, signature):
        reply, __ = self._request(
            "manifest_head", {"signature": signature}
        )
        return reply.get("etag")

    def manifest_version(self, signature):
        return self.manifest_head(signature)

    def manifest_cas(self, signature, text, expect_etag, stats=None):
        reply, blobs = self._request(
            "manifest_cas",
            {"signature": signature, "etag": expect_etag},
            [text.encode("utf-8")],
        )
        if reply.get("committed"):
            return True, reply.get("etag"), text
        current = blobs[0].decode("utf-8") if blobs else None
        return False, reply.get("etag"), current

    def manifest_put(self, signature, text, stats=None):
        reply, __ = self._request(
            "manifest_put", {"signature": signature}, [text.encode("utf-8")]
        )
        return reply.get("etag")

    def manifest_list(self):
        reply, __ = self._request("manifest_list")
        return {
            str(token): float(mtime)
            for token, mtime in (reply.get("manifests") or {}).items()
        }

    def manifest_delete(self, token, stats=None):
        reply, __ = self._request("manifest_delete", {"token": token})
        return bool(reply.get("deleted"))

    # -- garbage collection ------------------------------------------------

    def gc(self, cutoff_days=30.0, now=None, stats=None,
           extra_live_sum=(), extra_live_ast=(), _after_scan=None):
        """Server-side sweep; client pins ship inside the request, so a
        daemon's warm state protects remote frames exactly like local
        ones.  ``_after_scan`` is local-test machinery and does not
        travel."""
        fields = {
            "cutoff_days": float(cutoff_days),
            "extra_live_sum": sorted(extra_live_sum),
            "extra_live_ast": sorted(extra_live_ast),
        }
        if now is not None:
            fields["now"] = float(now)
        reply, __ = self._request("gc", fields)
        return {
            str(name): int(value)
            for name, value in (reply.get("gc") or {}).items()
        }


class TieredStore:
    """A local write-through overlay in front of a remote store.

    Reads are overlay-first (a warm local hit never touches the
    network); remote reads and all writes are written through, so the
    overlay converges to the working set.  Manifests are arbitrated by
    the remote (its CAS is the source of truth) and mirrored locally on
    every committed write, so a later offline run still has warm state.

    Any :class:`StoreError` flips the tier into *degraded* mode: the
    remote is dropped for the rest of the run (``store_degraded`` is
    counted once, each skipped remote operation as a
    ``store_fallbacks``), and every operation keeps working against the
    overlay alone -- an unreachable store can cost warmth, never a run.
    """

    def __init__(self, local, remote, stats=None):
        self.local = local
        self.remote = remote
        self.stats = stats
        self.degraded = False

    @property
    def prefers_batch(self):
        return not self.degraded and self.remote is not None

    def bind_stats(self, stats):
        if self.stats is None:
            self.stats = stats
        for backend in (self.local, self.remote):
            if backend is not None:
                backend.bind_stats(stats)

    def close(self):
        for backend in (self.local, self.remote):
            if backend is not None:
                backend.close()

    def _count(self, name, amount=1):
        if self.stats is not None:
            self.stats.add(name, amount)

    def _degrade(self, err):
        if not self.degraded:
            self.degraded = True
            self._count("store_degraded")
            if self.stats is not None:
                self.stats.record_degradation(
                    "store",
                    "remote store unavailable (%s); continuing local-only"
                    % err,
                )

    def _remote_ok(self):
        if self.remote is None:
            return False
        if self.degraded:
            self._count("store_fallbacks")
            return False
        return True

    def count_overlay_hit(self, amount=1):
        self._count("store_overlay_hits", amount)

    # -- frames ------------------------------------------------------------

    def local_path(self, tier, key):
        if self.local is None:
            return None
        return self.local.local_path(tier, key)

    def get_many(self, tier, keys):
        keys = list(keys)
        out = {}
        if self.local is not None:
            out = self.local.get_many(tier, keys)
            if out:
                self.count_overlay_hit(len(out))
        missing = [key for key in keys if key not in out]
        if missing and self._remote_ok():
            try:
                fetched = self.remote.get_many(tier, missing)
            except StoreError as err:
                self._degrade(err)
                fetched = {}
            if fetched and self.local is not None:
                self.local.put_many(tier, fetched)
            out.update(fetched)
        return out

    def put_many(self, tier, items):
        count = 0
        if self.local is not None:
            count = self.local.put_many(tier, items)
        if self._remote_ok():
            try:
                count = max(count, self.remote.put_many(tier, items))
            except StoreError as err:
                self._degrade(err)
        return count

    def head_many(self, tier, keys):
        keys = list(keys)
        found = set()
        if self.local is not None:
            found = self.local.head_many(tier, keys)
        missing = [key for key in keys if key not in found]
        if missing and self._remote_ok():
            try:
                found |= self.remote.head_many(tier, missing)
            except StoreError as err:
                self._degrade(err)
        return found

    def delete_many(self, tier, keys):
        deleted = 0
        if self.local is not None:
            deleted = self.local.delete_many(tier, keys)
        if self._remote_ok():
            try:
                deleted = max(deleted, self.remote.delete_many(tier, keys))
            except StoreError as err:
                self._degrade(err)
        return deleted

    def touch_many(self, tier, keys, ts=None):
        if self.local is not None:
            self.local.touch_many(tier, keys, ts=ts)
        if self._remote_ok():
            try:
                self.remote.touch_many(tier, keys, ts=ts)
            except StoreError as err:
                self._degrade(err)

    def entry_mtime(self, tier, key):
        if self.local is not None:
            mtime = self.local.entry_mtime(tier, key)
            if mtime is not None:
                return mtime
        if self._remote_ok():
            try:
                return self.remote.entry_mtime(tier, key)
            except StoreError as err:
                self._degrade(err)
        return None

    def list_tier(self, tier):
        out = {}
        if self._remote_ok():
            try:
                out = self.remote.list_tier(tier)
            except StoreError as err:
                self._degrade(err)
        if self.local is not None:
            out.update(self.local.list_tier(tier))
        return out

    # -- manifests ---------------------------------------------------------

    def manifest_local_path(self, signature):
        if self.local is None:
            return None
        return self.local.manifest_local_path(signature)

    def manifest_get(self, signature):
        if self._remote_ok():
            try:
                text, etag = self.remote.manifest_get(signature)
                if text is None and self.local is not None:
                    # Rejoin after offline work: seed the remote with the
                    # overlay's manifest so its state is not lost.  A
                    # rival seeding first simply wins the CAS; we adopt
                    # its document.
                    local_text, __ = self.local.manifest_get(signature)
                    if local_text is not None:
                        ok, new_etag, current = self.remote.manifest_cas(
                            signature, local_text, None
                        )
                        return (
                            (local_text, new_etag) if ok
                            else (current, new_etag)
                        )
                return text, etag
            except StoreError as err:
                self._degrade(err)
        if self.local is not None:
            return self.local.manifest_get(signature)
        return None, None

    def manifest_head(self, signature):
        if self._remote_ok():
            try:
                return self.remote.manifest_head(signature)
            except StoreError as err:
                self._degrade(err)
        if self.local is not None:
            return self.local.manifest_head(signature)
        return None

    def manifest_version(self, signature):
        if self._remote_ok():
            try:
                return self.remote.manifest_version(signature)
            except StoreError as err:
                self._degrade(err)
        if self.local is not None:
            return self.local.manifest_version(signature)
        return None

    def manifest_cas(self, signature, text, expect_etag, stats=None):
        if self._remote_ok():
            try:
                ok, etag, current = self.remote.manifest_cas(
                    signature, text, expect_etag, stats=stats
                )
                if ok and self.local is not None:
                    self.local.manifest_put(signature, text, stats=stats)
                return ok, etag, current
            except StoreError as err:
                self._degrade(err)
        if self.local is not None:
            return self.local.manifest_cas(
                signature, text, expect_etag, stats=stats
            )
        # No storage at all left: accept the write so the merge loop
        # terminates -- a lost manifest costs the next run warmth, which
        # the degradation record already announced.
        return True, etag_of(text), text

    def manifest_put(self, signature, text, stats=None):
        etag = None
        if self.local is not None:
            etag = self.local.manifest_put(signature, text, stats=stats)
        if self._remote_ok():
            try:
                etag = self.remote.manifest_put(signature, text, stats=stats)
            except StoreError as err:
                self._degrade(err)
        return etag if etag is not None else etag_of(text)

    def manifest_list(self):
        out = {}
        if self._remote_ok():
            try:
                out = self.remote.manifest_list()
            except StoreError as err:
                self._degrade(err)
        if self.local is not None:
            out.update(self.local.manifest_list())
        return out

    def manifest_delete(self, token, stats=None):
        deleted = False
        if self.local is not None:
            deleted = self.local.manifest_delete(token, stats=stats)
        if self._remote_ok():
            try:
                deleted = self.remote.manifest_delete(
                    token, stats=stats
                ) or deleted
            except StoreError as err:
                self._degrade(err)
        return deleted

    # -- garbage collection ------------------------------------------------

    def gc(self, cutoff_days=30.0, now=None, stats=None,
           extra_live_sum=(), extra_live_ast=(), _after_scan=None):
        """Sweep both sides: the overlay locally (with the full locked
        pin discipline) and the remote server-side, shipping the same
        extra-live pins.  Counters are summed across tiers."""
        counters = {}
        if self.local is not None:
            counters = dict(self.local.gc(
                cutoff_days=cutoff_days, now=now, stats=stats,
                extra_live_sum=extra_live_sum, extra_live_ast=extra_live_ast,
                _after_scan=_after_scan,
            ))
        if self._remote_ok():
            try:
                remote_counters = self.remote.gc(
                    cutoff_days=cutoff_days, now=now, stats=stats,
                    extra_live_sum=extra_live_sum,
                    extra_live_ast=extra_live_ast,
                )
                for name, value in remote_counters.items():
                    counters[name] = counters.get(name, 0) + value
            except StoreError as err:
                self._degrade(err)
        return counters


def open_store(cache_dir=None, store_url=None, stats=None, timeout=10.0):
    """The backend for a (cache_dir, store_url) configuration.

    - both: a :class:`TieredStore` (local overlay + remote);
    - ``store_url`` only: a remote-backed tier with no overlay (still a
      TieredStore, for the degradation semantics);
    - ``cache_dir`` only: a plain :class:`LocalStore` (the pre-store
      behavior, byte for byte);
    - neither: None (caching disabled).
    """
    if store_url:
        remote = RemoteStore(store_url, stats=stats, timeout=timeout)
        local = (
            LocalStore(root=cache_dir, stats=stats)
            if cache_dir else None
        )
        return TieredStore(local, remote, stats=stats)
    if cache_dir:
        return LocalStore(root=cache_dir, stats=stats)
    return None
