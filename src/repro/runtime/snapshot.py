"""Crash-safe, versioned, checksummed snapshot files.

One snapshot = one JSON envelope on disk::

    {"magic": "repro-snapshot", "version": 1, "kind": "<what>",
     "checksum": "sha256:...", "payload": {...}}

Writes are crash-safe: the envelope is written to ``<path>.tmp``,
flushed and fsync'd, then atomically renamed over ``<path>`` — a crash
at any point leaves either the complete old snapshot or the complete
new one, never a torn file. Reads validate the magic, version, kind,
and payload checksum and raise a precise
:class:`~repro.runtime.errors.SnapshotCorrupted` on any mismatch.

The temp-then-rename protocol is :class:`AtomicWrite`, shared with the
one other durable writer, the mapped index file
(:class:`~repro.storage.mmap_index.MappedIndexWriter`). All filesystem
calls go through a small shim (:class:`RealFilesystem`) so tests can
inject failures deterministically — see
:class:`repro.runtime.faults.FailingFilesystem`.
"""

from __future__ import annotations

import hashlib
import json
import os

from repro.runtime.errors import SnapshotCorrupted, SnapshotEncodingError

__all__ = [
    "AtomicWrite",
    "SNAPSHOT_MAGIC",
    "SNAPSHOT_VERSION",
    "RealFilesystem",
    "canonical_json",
    "read_snapshot",
    "write_snapshot",
]

SNAPSHOT_MAGIC = "repro-snapshot"
SNAPSHOT_VERSION = 1


class RealFilesystem:
    """Default filesystem shim; the fault-injection seam.

    Every operation the durable writers need, as an overridable
    method. :class:`repro.runtime.faults.FailingFilesystem` subclasses
    this to fail deterministically at a chosen call.
    """

    def open(self, path: str, mode: str):
        return open(path, mode, encoding=None if "b" in mode else "utf-8")

    def fsync(self, handle) -> None:
        handle.flush()
        os.fsync(handle.fileno())

    def replace(self, src: str, dst: str) -> None:
        os.replace(src, dst)

    def remove(self, path: str) -> None:
        os.remove(path)

    def exists(self, path: str) -> bool:
        return os.path.exists(path)


REAL_FS = RealFilesystem()


class AtomicWrite:
    """A file written under ``<path>.tmp`` that lands at ``path`` only on
    :meth:`commit`: fsync, close, atomic rename.

    A crash at any point leaves ``path`` as it was. :meth:`discard`, a
    failed commit, or an error inside the ``with`` block removes the
    temp file (best-effort); a clean exit from the block commits.
    """

    def __init__(self, path: str, mode: str = "w", fs: RealFilesystem | None = None):
        self.fs = fs if fs is not None else REAL_FS
        self.path = path
        self.tmp = path + ".tmp"
        self.handle = self.fs.open(self.tmp, mode)

    def commit(self) -> str:
        try:
            self.fs.fsync(self.handle)
            self.handle.close()
            self.fs.replace(self.tmp, self.path)
        except BaseException:
            self.discard()
            raise
        return self.path

    def discard(self) -> None:
        # BaseException paths land here too: a KeyboardInterrupt
        # mid-write (an operator hammering Ctrl-C during a checkpoint
        # flush) must not leak the temp file either.
        self.handle.close()
        try:
            if self.fs.exists(self.tmp):
                self.fs.remove(self.tmp)
        except OSError:
            pass

    def __enter__(self) -> "AtomicWrite":
        return self

    def __exit__(self, exc_type, *_exc) -> None:
        if exc_type is None:
            self.commit()
        else:
            self.discard()


def canonical_json(payload) -> str:
    """Deterministic JSON serialization (the checksum input).

    Raises :class:`SnapshotEncodingError` for values JSON cannot
    represent, instead of silently coercing them.
    """
    try:
        return json.dumps(
            payload, sort_keys=True, separators=(",", ":"), allow_nan=False
        )
    except (TypeError, ValueError) as exc:
        raise SnapshotEncodingError(
            f"payload is not JSON-representable: {exc}"
        ) from exc


def _checksum(body: str) -> str:
    return "sha256:" + hashlib.sha256(body.encode("utf-8")).hexdigest()


def write_snapshot(path: str, payload, *, kind: str, fs: RealFilesystem | None = None) -> None:
    """Atomically persist ``payload`` as a versioned snapshot at ``path``.

    The previous snapshot at ``path`` (if any) survives intact unless
    the final atomic rename succeeds.
    """
    body = canonical_json(payload)
    envelope = {
        "magic": SNAPSHOT_MAGIC,
        "version": SNAPSHOT_VERSION,
        "kind": kind,
        "checksum": _checksum(body),
        "payload": payload,
    }
    # Encode the whole envelope before the temp file exists, so an
    # encoding failure can never leave a partial file behind.
    encoded = json.dumps(envelope, sort_keys=True)
    with AtomicWrite(path, "w", fs) as out:
        out.handle.write(encoded)


def read_snapshot(path: str, *, kind: str, fs: RealFilesystem | None = None):
    """Load and validate a snapshot; returns the payload.

    Raises:
        FileNotFoundError: no snapshot at ``path``.
        SnapshotCorrupted: the file exists but is torn, tampered with,
            of the wrong kind, or from an unknown format version.
    """
    fs = fs if fs is not None else REAL_FS
    handle = fs.open(path, "r")
    try:
        raw = handle.read()
    finally:
        handle.close()
    try:
        envelope = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise SnapshotCorrupted(path, f"not valid JSON ({exc})") from exc
    if not isinstance(envelope, dict):
        raise SnapshotCorrupted(path, "envelope is not a JSON object")
    if envelope.get("magic") != SNAPSHOT_MAGIC:
        raise SnapshotCorrupted(path, "missing snapshot magic (foreign file?)")
    version = envelope.get("version")
    if not isinstance(version, int) or version < 1 or version > SNAPSHOT_VERSION:
        raise SnapshotCorrupted(
            path,
            f"unsupported format version {version!r}"
            f" (this build reads <= {SNAPSHOT_VERSION})",
        )
    if envelope.get("kind") != kind:
        raise SnapshotCorrupted(
            path, f"kind is {envelope.get('kind')!r}, expected {kind!r}"
        )
    if "payload" not in envelope:
        raise SnapshotCorrupted(path, "envelope has no payload")
    payload = envelope["payload"]
    expected = envelope.get("checksum")
    actual = _checksum(canonical_json(payload))
    if expected != actual:
        raise SnapshotCorrupted(
            path, f"checksum mismatch (stored {expected!r}, computed {actual!r})"
        )
    return payload
