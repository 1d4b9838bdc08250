"""Content-addressed on-disk artifact store.

The pipeline's in-memory cache dies with the process; this module gives it a
durable backing.  Every stage artifact is serialized through its versioned
``to_json`` form and written under a *content address*: the SHA-256 of the
canonical JSON encoding of ``(code version, stage, spec hash, stage key)``.
Two pipelines — in different processes, on different days, behind a CLI, a
batch worker or the HTTP daemon — that ask for the same stage of the same
spec under the same options therefore share one on-disk entry.

Layout::

    <root>/v1/<digest[:2]>/<digest>.json

Each entry is an *envelope* recording the code version, the stage, the spec
name/hash and the artifact document.  Reads validate the envelope: an entry
written by a different code version (or a truncated/corrupted file) is
treated as a miss, never as an error — a stale store degrades to
recomputation, it cannot poison results.

Writes are atomic (temp file + ``os.replace``) so concurrent writers —
process-pool batch workers, server threads, fleet workers — can share a
store without locking; both sides of a race write the same artifact
(timing fields aside), and the last rename wins.

Crash safety (PR 6): a corrupt entry found on read is *quarantined* — moved
to ``v1/quarantine/`` next to a ``*.reason.json`` record — instead of being
silently re-read and re-failed forever; ``stats()`` sweeps orphaned
``*.tmp`` files a killed writer left between ``mkstemp`` and ``os.replace``;
``sweep()`` additionally quarantines stale-code-version entries; and
``fsync=True`` (or ``$REPRO_STORE_FSYNC``) adds a flush-to-platter
durability mode for stores that must survive power loss, not just process
death.  Deterministic fault injection (:mod:`repro.api.faults`) hooks the
read, write and corruption paths so all of this is testable on demand.

The store is the only tier below a pipeline's in-process memory: every
read opens and parses the entry file.  ``peek()`` is the uncounted,
fault-free variant of ``get()`` for callers that must not move the
counters or fire injected faults.

The default location is ``~/.cache/repro`` (or ``$REPRO_STORE``); every API
entry point accepts an explicit path instead.
"""

from __future__ import annotations

import fnmatch
import hashlib
import json
import os
import tempfile
import time
from pathlib import Path
from typing import Optional, Union

#: Version of the artifact-producing code.  Entries written under a
#: different code version are ignored on read (treated as misses), so a
#: store can safely outlive the code that filled it.  Bump whenever the
#: semantics of any stage computation or artifact schema changes.
CODE_VERSION = "repro-5.0"

#: Version of the on-disk layout (the ``v<N>`` directory level).
LAYOUT_VERSION = 1

#: Environment variable overriding the default store location.
STORE_ENV_VAR = "REPRO_STORE"

#: Environment variable switching on fsync durability for every store handle.
FSYNC_ENV_VAR = "REPRO_STORE_FSYNC"

#: Orphaned ``*.tmp`` files older than this many seconds are swept by
#: ``stats()``; younger ones may belong to a live concurrent writer.
TMP_SWEEP_AGE = 3600.0


def default_store_path() -> Path:
    """The default store root: ``$REPRO_STORE`` or ``~/.cache/repro``."""
    env = os.environ.get(STORE_ENV_VAR)
    if env:
        return Path(env).expanduser()
    cache_home = os.environ.get("XDG_CACHE_HOME")
    base = Path(cache_home).expanduser() if cache_home else Path.home() / ".cache"
    return base / "repro"


def _canonical(key: object) -> str:
    """Canonical JSON encoding of a cache key (tuples become lists)."""
    return json.dumps(key, sort_keys=True, separators=(",", ":"), default=_encode)


def _encode(value: object):
    """JSON fallback for the non-JSON atoms appearing in stage keys."""
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    raise TypeError(f"unhashable store-key component: {value!r}")


class ArtifactStore:
    """A content-addressed JSON store for pipeline stage artifacts.

    Parameters
    ----------
    root:
        Directory holding the store (created lazily on first write).
        ``None`` selects :func:`default_store_path`.
    code_version:
        Overrides the code-version stamp (tests use this to pin the
        stale-store behaviour; production code never passes it).
    fsync:
        Durability mode: flush entry bytes (and the containing directory)
        to stable storage before the atomic rename, so a committed write
        survives power loss.  ``None`` consults ``$REPRO_STORE_FSYNC``.
    faults:
        Optional :class:`~repro.api.faults.FaultInjector` driving the
        ``store.read``/``store.write``/``store.corrupt`` injection points
        (``None`` — the default — costs one attribute check per call).
    obs:
        Optional :class:`~repro.obs.Obs` bundle; when set, reads, writes
        and quarantines additionally feed the fleet-aggregatable metrics
        registry (``repro_store_reads_total`` by outcome, ...).  Same
        zero-overhead-when-off discipline as ``faults``; the owning
        pipeline usually attaches this after construction.
    """

    def __init__(
        self,
        root: Union[str, os.PathLike, None] = None,
        code_version: str = CODE_VERSION,
        fsync: Optional[bool] = None,
        faults=None,
        obs=None,
    ):
        self.root = Path(root).expanduser() if root is not None else default_store_path()
        self.code_version = code_version
        if fsync is None:
            fsync = bool(os.environ.get(FSYNC_ENV_VAR))
        self.fsync = fsync
        self.faults = faults
        self.obs = obs
        #: age threshold for the orphaned-tempfile sweep in :meth:`stats`
        self.tmp_sweep_age = TMP_SWEEP_AGE
        #: read/write counters of THIS handle (per-process introspection)
        self.hits = 0
        self.misses = 0
        self.writes = 0
        #: corrupt entries this handle moved to ``v1/quarantine/``
        self.quarantined = 0
        #: orphaned temp files this handle swept
        self.tmp_swept = 0

    # ------------------------------------------------------------------ #
    # Addressing
    # ------------------------------------------------------------------ #

    def digest_of(self, key: object) -> str:
        """Content address of a stage key (code version included)."""
        text = _canonical([self.code_version, key])
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    def path_of(self, digest: str) -> Path:
        return self.root / f"v{LAYOUT_VERSION}" / digest[:2] / f"{digest}.json"

    @property
    def quarantine_dir(self) -> Path:
        return self.root / f"v{LAYOUT_VERSION}" / "quarantine"

    # ------------------------------------------------------------------ #
    # Read / write
    # ------------------------------------------------------------------ #

    def get(self, key: object) -> Optional[dict]:
        """The artifact document stored under ``key``, or ``None``.

        Corrupted files are *quarantined* (moved to ``v1/quarantine/`` with
        a reason record) and read as misses — never as errors, and never
        re-read and re-failed forever.  Injected or real read IO errors are
        plain misses (the file, if any, is left alone).
        """
        path = self.path_of(self.digest_of(key))
        try:
            if self.faults is not None:
                self.faults.raise_io("store.read")
            with open(path, "r", encoding="utf-8") as handle:
                envelope = json.load(handle)
        except json.JSONDecodeError:
            self.quarantine(path, "undecodable JSON")
            self.misses += 1
            if self.obs is not None:
                self.obs.store_reads.inc(outcome="miss")
            return None
        except OSError:
            self.misses += 1
            if self.obs is not None:
                self.obs.store_reads.inc(outcome="miss")
            return None
        if (
            not isinstance(envelope, dict)
            or envelope.get("code_version") != self.code_version
            or "artifact" not in envelope
        ):
            # the digest embeds the code version, so a mismatched envelope
            # at this path is damage or tampering, not a stale entry
            self.quarantine(path, "invalid envelope")
            self.misses += 1
            if self.obs is not None:
                self.obs.store_reads.inc(outcome="miss")
            return None
        self.hits += 1
        if self.obs is not None:
            self.obs.store_reads.inc(outcome="hit")
        return envelope["artifact"]

    def peek(self, key: object) -> Optional[dict]:
        """An *uncounted*, fault-free read of ``key`` (or ``None``).

        Unlike :meth:`get` it never inflates the hit/miss counters, fires
        an injected ``store.read`` fault or quarantines anything: a damaged
        or missing entry simply reads as ``None``.
        """
        try:
            with open(self.path_of(self.digest_of(key)), "r", encoding="utf-8") as handle:
                envelope = json.load(handle)
        except (OSError, json.JSONDecodeError):
            return None
        if (
            not isinstance(envelope, dict)
            or envelope.get("code_version") != self.code_version
            or "artifact" not in envelope
        ):
            return None
        return envelope["artifact"]

    def quarantine(self, path: Path, reason: str) -> bool:
        """Move a damaged entry aside with a ``*.reason.json`` record.

        Returns True when the file was moved.  Failures (already gone, an
        unwritable quarantine directory) are swallowed: quarantine is an
        improvement over the entry rotting in place, never a new error.
        """
        try:
            self.quarantine_dir.mkdir(parents=True, exist_ok=True)
            target = self.quarantine_dir / path.name
            os.replace(path, target)
        except OSError:
            return False
        self.quarantined += 1
        if self.obs is not None:
            self.obs.store_quarantined.inc()
        record = {
            "reason": reason,
            "source": str(path),
            "detected_at": time.time(),
            "code_version": self.code_version,
        }
        try:
            reason_path = self.quarantine_dir / (path.stem + ".reason.json")
            reason_path.write_text(json.dumps(record, indent=2), encoding="utf-8")
        except OSError:
            pass
        return True

    def put(
        self,
        key: object,
        artifact: dict,
        stage: str = "",
        spec_name: str = "",
        spec_hash: str = "",
    ) -> Path:
        """Atomically persist an artifact document under ``key``.

        With ``fsync`` enabled the entry bytes and the containing directory
        are flushed to stable storage around the rename, upgrading the
        atomicity guarantee from crash-safe to power-loss-safe.
        """
        digest = self.digest_of(key)
        path = self.path_of(digest)
        envelope = {
            "code_version": self.code_version,
            "stage": stage,
            "spec": spec_name,
            "spec_hash": spec_hash,
            "artifact": artifact,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        text = json.dumps(envelope, separators=(",", ":"))
        if self.faults is not None:
            self.faults.raise_io("store.write", stage or None)
            if self.faults.corrupts_write(stage or None):
                # land a genuinely truncated entry on disk: the read side's
                # quarantine path is what the injection is meant to exercise
                text = text[: max(1, len(text) // 2)]
        fd, temp_name = tempfile.mkstemp(
            prefix=f".{digest[:12]}-", suffix=".tmp", dir=path.parent
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(text)
                if self.fsync:
                    handle.flush()
                    os.fsync(handle.fileno())
            os.replace(temp_name, path)
            if self.fsync:
                self._fsync_dir(path.parent)
        except BaseException:
            try:
                os.unlink(temp_name)
            except OSError:
                pass
            raise
        self.writes += 1
        if self.obs is not None:
            self.obs.store_writes.inc()
        return path

    @staticmethod
    def _fsync_dir(directory: Path) -> None:
        """Flush a directory entry (rename durability); best effort."""
        try:
            fd = os.open(directory, os.O_RDONLY)
        except OSError:
            return
        try:
            os.fsync(fd)
        except OSError:
            pass
        finally:
            os.close(fd)

    # ------------------------------------------------------------------ #
    # Maintenance / introspection
    # ------------------------------------------------------------------ #

    def _entry_paths(self):
        layout = self.root / f"v{LAYOUT_VERSION}"
        if not layout.is_dir():
            return
        for bucket in sorted(layout.iterdir()):
            # entry buckets are the two-hex-digit digest prefixes; the
            # quarantine directory lives beside them and is not an entry set
            if not bucket.is_dir() or len(bucket.name) != 2:
                continue
            for path in sorted(bucket.glob("*.json")):
                yield path

    def _tmp_paths(self):
        layout = self.root / f"v{LAYOUT_VERSION}"
        if not layout.is_dir():
            return
        for bucket in sorted(layout.iterdir()):
            if not bucket.is_dir() or len(bucket.name) != 2:
                continue
            for path in sorted(bucket.glob("*.tmp")):
                yield path

    def entries(self) -> list[dict]:
        """The envelopes of every readable entry (maintenance view)."""
        result = []
        for path in self._entry_paths():
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    envelope = json.load(handle)
            except (OSError, json.JSONDecodeError):
                continue
            if isinstance(envelope, dict):
                envelope["_path"] = str(path)
                result.append(envelope)
        return result

    def stats(self) -> dict:
        """Entry/byte totals on disk plus this handle's hit/miss counters.

        Also sweeps orphaned ``*.tmp`` files older than ``tmp_sweep_age``
        (a writer killed between ``mkstemp`` and ``os.replace`` leaves one
        behind; a younger file may belong to a live concurrent writer).
        """
        files = 0
        size = 0
        stale = 0
        stages: dict[str, int] = {}
        for path in self._entry_paths():
            try:
                file_size = path.stat().st_size
                with open(path, "r", encoding="utf-8") as handle:
                    envelope = json.load(handle)
            except (OSError, json.JSONDecodeError):
                continue
            files += 1
            size += file_size
            if envelope.get("code_version") != self.code_version:
                stale += 1
                continue
            stage = envelope.get("stage") or "unknown"
            stages[stage] = stages.get(stage, 0) + 1
        tmp_files = 0
        tmp_removed = self._sweep_tmp(self.tmp_sweep_age)
        for _ in self._tmp_paths():
            tmp_files += 1
        quarantined = 0
        if self.quarantine_dir.is_dir():
            quarantined = sum(
                1
                for path in self.quarantine_dir.glob("*.json")
                if not path.name.endswith(".reason.json")
            )
        return {
            "root": str(self.root),
            "code_version": self.code_version,
            "entries": files,
            "stale_entries": stale,
            "bytes": size,
            "per_stage": dict(sorted(stages.items())),
            "tmp_files": tmp_files,
            "tmp_swept": tmp_removed,
            "quarantined_entries": quarantined,
            "session": {
                "hits": self.hits,
                "misses": self.misses,
                "writes": self.writes,
                "quarantined": self.quarantined,
                "tmp_swept": self.tmp_swept,
            },
        }

    def _sweep_tmp(self, older_than: float) -> int:
        """Remove orphaned temp files older than ``older_than`` seconds."""
        removed = 0
        now = time.time()
        for path in list(self._tmp_paths()):
            try:
                if now - path.stat().st_mtime < older_than:
                    continue
                path.unlink()
            except OSError:
                continue
            removed += 1
        self.tmp_swept += removed
        return removed

    def sweep(self, tmp_older_than: float = 0.0) -> dict:
        """Full maintenance pass: orphaned temp files and stale entries.

        Removes every ``*.tmp`` orphan older than ``tmp_older_than``
        seconds (default: all of them — callers invoke ``sweep`` when no
        writer is live) and quarantines entries stamped by a different
        code version (they can never be read again: the digest embeds the
        stamp).  Returns the counts.
        """
        tmp_removed = self._sweep_tmp(tmp_older_than)
        stale_quarantined = 0
        for path in list(self._entry_paths()):
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    envelope = json.load(handle)
            except json.JSONDecodeError:
                if self.quarantine(path, "undecodable JSON"):
                    stale_quarantined += 1
                continue
            except OSError:
                continue
            if (
                not isinstance(envelope, dict)
                or envelope.get("code_version") != self.code_version
            ):
                if self.quarantine(path, "stale code version"):
                    stale_quarantined += 1
        return {
            "tmp_removed": tmp_removed,
            "stale_quarantined": stale_quarantined,
        }

    def probe(self) -> bool:
        """Readiness check: the layout directory exists (or can) and is
        writable.  Never raises — the serve daemon's ``/ready`` leans on it.
        """
        layout = self.root / f"v{LAYOUT_VERSION}"
        try:
            layout.mkdir(parents=True, exist_ok=True)
        except OSError:
            return False
        return os.access(layout, os.W_OK | os.X_OK)

    def clear(self, spec_pattern: Optional[str] = None) -> int:
        """Remove entries; returns the number of files deleted.

        ``spec_pattern`` scopes the removal to entries whose recorded spec
        name matches the glob (entries without a readable envelope only go
        on a full clear).  A full clear also sweeps up ``.tmp`` litter left
        behind by writers that were killed between ``mkstemp`` and
        ``os.replace``.
        """
        removed = 0
        for path in list(self._entry_paths()):
            if spec_pattern is not None:
                try:
                    with open(path, "r", encoding="utf-8") as handle:
                        envelope = json.load(handle)
                    spec_name = envelope.get("spec", "")
                except (OSError, json.JSONDecodeError):
                    continue
                if not fnmatch.fnmatch(spec_name, spec_pattern):
                    continue
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        if spec_pattern is None:
            layout = self.root / f"v{LAYOUT_VERSION}"
            if layout.is_dir():
                for bucket in layout.iterdir():
                    if not bucket.is_dir():
                        continue
                    for path in bucket.iterdir():
                        if path.suffix == ".tmp":
                            try:
                                path.unlink()
                                removed += 1
                            except OSError:
                                pass
            if self.quarantine_dir.is_dir():
                for path in self.quarantine_dir.iterdir():
                    try:
                        path.unlink()
                        if not path.name.endswith(".reason.json"):
                            removed += 1
                    except OSError:
                        pass
        return removed

    def __repr__(self) -> str:
        return f"ArtifactStore({str(self.root)!r}, code_version={self.code_version!r})"


def get_store(
    store: Union["ArtifactStore", str, os.PathLike, None],
    default: bool = False,
) -> Optional[ArtifactStore]:
    """Resolve a store argument: instance, path, or (optionally) the default.

    ``None`` resolves to the default store when ``default=True`` (the CLI and
    the server are durable by default) and to "no store" otherwise (library
    callers opt in explicitly — constructing a plain :class:`Pipeline` never
    touches the filesystem).
    """
    if isinstance(store, ArtifactStore):
        return store
    if store is not None:
        return ArtifactStore(store)
    if default:
        return ArtifactStore()
    return None
