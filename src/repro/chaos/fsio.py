"""The I/O seam: every storage-plane filesystem operation goes here.

Three callers route through this module — the connection-record store
(shard objects and manifests), the stream checkpointer (via the store),
the telemetry log, and the pcap writer — so one fault plane can reach
all of them.  With no plane active every function is a thin wrapper
over ``os``/``open`` with **no behavioral difference except durability**:
:func:`publish_bytes` is the crash-consistent publication protocol
(unique temp file, ``fsync`` the contents, atomic ``os.replace``,
``fsync`` the containing directory) that the store previously skipped
the fsyncs of.

Fault application is centralized so consumers never need to know chaos
exists: injected ENOSPC/EIO surface as ordinary :class:`OSError`, torn
writes persist a prefix (callers' CRCs catch them later), lost renames
are detected by the publish-time existence check and surface as EIO,
bit flips corrupt the *returned* bytes (never the disk), and crash
faults kill the process outright.
"""

from __future__ import annotations

import errno
import os
import tempfile
from pathlib import Path
from typing import BinaryIO

from .faults import FaultKind, FaultRule, current_plane

__all__ = [
    "guard",
    "read_bytes",
    "publish_bytes",
    "publish_text",
    "fsync_dir",
    "open_write",
]


def _raise_io(kind: FaultKind, op: str, path: str) -> None:
    if kind is FaultKind.ENOSPC:
        raise OSError(errno.ENOSPC, f"injected ENOSPC during {op}", path)
    if kind is FaultKind.ROOT_DOWN:
        raise OSError(errno.ENOENT, f"injected root_down during {op}", path)
    raise OSError(errno.EIO, f"injected EIO during {op}", path)


def guard(op: str, path: str | Path) -> FaultRule | None:
    """Consult the fault plane for one operation.

    Raises :class:`OSError` for ENOSPC/EIO faults and dies for crash
    faults; data-shaping faults (torn writes, lost renames, bit flips)
    are returned for the caller to apply at the right moment.  Returns
    ``None`` — for free — when no plane is active.
    """
    plane = current_plane()
    if plane is None:
        return None
    rule = plane.check(op, str(path))
    if rule is None:
        return None
    if rule.kind is FaultKind.CRASH:
        plane.crash(op, str(path))
    if rule.kind in (
        FaultKind.ENOSPC,
        FaultKind.EIO,
        FaultKind.ROOT_DOWN,
        FaultKind.FLAKY_ROOT,
    ):
        _raise_io(rule.kind, op, str(path))
    return rule


def read_bytes(path: str | Path) -> bytes:
    """Read a whole file, with read-side faults applied to the result.

    Every shard read reaches the disk, so this is plain ``os`` calls
    sized by one ``fstat``: ``Path.read_bytes`` runs several times
    slower while another thread holds the GIL (a busy service).
    """
    rule = guard("read", path)
    fd = os.open(path, os.O_RDONLY)
    try:
        size = os.fstat(fd).st_size
        data = os.read(fd, size)
        while len(data) < size and (chunk := os.read(fd, size - len(data))):
            data += chunk
    finally:
        os.close(fd)
    if rule is not None and rule.kind is FaultKind.BIT_FLIP:
        data = current_plane().flip_bit(data)
    return data


def fsync_dir(path: str | Path) -> None:
    """Flush a directory's entry table (what makes a rename durable)."""
    try:
        fd = os.open(str(path), os.O_RDONLY)
    except OSError:
        return  # platforms that refuse O_RDONLY on directories
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def publish_bytes(path: Path, data: bytes, tmp_prefix: str = ".pub-") -> None:
    """Crash-consistently materialize ``data`` at ``path``.

    The protocol: write to a uniquely named temp file in the target
    directory, ``fsync`` the file, atomically ``os.replace`` it into
    place, then ``fsync`` the directory so the rename itself survives a
    power cut.  A reader can never observe a partial object; a crash at
    any point leaves at worst a ``.tmp`` file for gc.  After the
    replace the target's existence is re-verified, which converts a
    lost rename (injected, or a genuinely lying filesystem) into an
    :class:`OSError` the caller's error policy can absorb instead of a
    silently missing object.
    """
    rule = guard("publish", path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=tmp_prefix, suffix=".tmp")
    try:
        payload = data
        if rule is not None and rule.kind is FaultKind.TORN_WRITE:
            payload = data[: current_plane().torn_length(len(data))]
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        # A second injection point between write and rename: a crash
        # fault here models the classic torn-publication kill, a
        # lost_rename one the rename that never reached the journal.
        rename_rule = guard("rename", path)
        lost = (rule is not None and rule.kind is FaultKind.LOST_RENAME) or (
            rename_rule is not None and rename_rule.kind is FaultKind.LOST_RENAME
        )
        if not lost:
            os.replace(tmp, path)
            fsync_dir(path.parent)
        else:
            os.unlink(tmp)
        if not path.exists():
            raise OSError(
                errno.EIO, "publication lost: rename did not persist", str(path)
            )
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def publish_text(path: Path, text: str, tmp_prefix: str = ".pub-") -> None:
    """:func:`publish_bytes` for UTF-8 text."""
    publish_bytes(path, text.encode("utf-8"), tmp_prefix=tmp_prefix)


class _FaultStream:
    """A write-through wrapper applying stream faults per ``write``."""

    def __init__(self, stream: BinaryIO, op: str, path: str) -> None:
        self._stream = stream
        self._op = op
        self._path = path

    def write(self, data: bytes) -> int:
        rule = guard(self._op, self._path)
        if rule is not None and rule.kind is FaultKind.TORN_WRITE:
            torn = data[: current_plane().torn_length(len(data))]
            self._stream.write(torn)
            raise OSError(
                errno.EIO, f"injected torn write during {self._op}", self._path
            )
        return self._stream.write(data)

    def __getattr__(self, name: str):
        return getattr(self._stream, name)


def open_write(path: str | Path, op: str = "trace-write") -> BinaryIO:
    """Open ``path`` for binary writing through the fault plane.

    Without an active plane this is exactly ``open(path, "wb")`` — the
    wrapper is only interposed when faults can fire, so the hot path
    costs nothing.
    """
    guard(op + ".open", path)
    stream = open(path, "wb")
    if current_plane() is None:
        return stream
    return _FaultStream(stream, op, str(path))  # type: ignore[return-value]
