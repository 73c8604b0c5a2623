"""Persistent, content-keyed trace cache.

Layered under the experiment runner's in-process memoization: every trace
is keyed by the full tuple that determines it — ``(app, version, n,
iterations, nprocs, seed)`` plus the on-disk format version — so an
interrupted paper-scale run resumes from the cells that already finished,
and a cache populated at one scale can never satisfy another.

Layout (all inside the cache root)::

    <root>/
        barnes-hut__hilbert__n4096_i2_p16_s42_fv2.npt    the packed trace
        barnes-hut__hilbert__n4096_i2_p16_s42_fv2.json   sidecar: the key
        quarantine/                                      damaged entries

The sidecar records the key the entry was stored under; a load verifies it
against the requested key (catching renames, tampering, or stale layouts)
before trusting the trace file.  Any entry that fails to load — truncated,
garbled, wrong format version, key mismatch — is *quarantined* (moved
aside with a reason file) and reported as a miss, so the runner simply
regenerates it; a corrupted cache can slow a run down but never crash it.

Entries are packed mmap bundles (:mod:`repro.trace.io`): a cache hit maps
the file and returns zero-copy views, so pages are faulted in lazily as
the simulators touch them instead of deserializing the whole trace up
front.  Both the trace file (via :func:`repro.trace.io.save_trace`) and
the sidecar are written atomically, so a crash mid-store leaves either no
entry or a complete one.
"""

from __future__ import annotations

import json
import logging
import os
import tempfile
from dataclasses import asdict, dataclass
from pathlib import Path

from ..errors import CacheMismatchError, ConfigError, TraceCorruptError
from ..trace.events import Trace
from ..trace.io import (
    _COMPRESSED_VERSION,
    _FORMAT_VERSION,
    TRACE_SUFFIX,
    load_trace,
    save_trace,
)

__all__ = [
    "CacheKey", "TraceCache", "atomic_write_text", "format_version_for",
    "quarantine_file",
]

log = logging.getLogger("repro.runtime")


@dataclass(frozen=True)
class CacheKey:
    """Everything that determines a trace's content, plus the file format."""

    app: str
    version: str
    n: int
    iterations: int
    nprocs: int
    seed: int
    format_version: int = _FORMAT_VERSION

    def filename(self) -> str:
        return (
            f"{self.app}__{self.version}__n{self.n}_i{self.iterations}"
            f"_p{self.nprocs}_s{self.seed}_fv{self.format_version}{TRACE_SUFFIX}"
        )

    def meta(self) -> dict:
        return asdict(self)


def format_version_for(compression: str) -> int:
    """On-disk format version a store with ``compression`` will produce.

    Compressed stores write chunked v3 bundles; the version is part of the
    cache key (and filename), so an uncompressed and a compressed entry
    for the same trace never collide.
    """
    return _FORMAT_VERSION if compression == "none" else _COMPRESSED_VERSION


def atomic_write_text(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` via temp file + ``os.replace``.

    A crash mid-write leaves either the old content or the new, never a
    torn file.  Shared by the cache sidecars, sweep checkpoints, and the
    service's snapshot/quarantine files.
    """
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".",
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def quarantine_file(
    path: Path, qdir: Path, reason: str, *companions: Path
) -> Path | None:
    """Move damaged ``path`` into ``qdir`` under a free name, with its
    ``companions`` (renamed to the destination's stem), and write
    ``reason`` beside it as ``.reason.txt``.

    Concurrent movers may race: a file already gone is skipped, and only
    a call that moved something writes the reason.  Returns the
    destination, or ``None`` when another mover got there first.
    """
    qdir.mkdir(parents=True, exist_ok=True)
    dest = qdir / path.name
    i = 0
    while dest.exists():
        i += 1
        dest = qdir / f"{path.stem}.{i}{path.suffix}"
    moved = False
    moves = [(path, dest), *((c, dest.with_suffix(c.suffix)) for c in companions)]
    for src, to in moves:
        try:
            os.replace(src, to)
            moved = True
        except FileNotFoundError:
            pass
    if not moved:
        return None
    if reason:
        atomic_write_text(dest.with_suffix(".reason.txt"), reason + "\n")
    return dest


class TraceCache:
    """On-disk trace store keyed by :class:`CacheKey`.

    ``load`` returns ``None`` on a miss *or* on a damaged entry (which it
    quarantines); ``store`` writes atomically.  Hit/miss/quarantine
    counters make behaviour observable in tests and logs.
    """

    def __init__(self, root):
        self.root = Path(root)
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(
                f"cache directory {self.root} is unusable: {exc}"
            ) from exc
        self.hits = 0
        self.misses = 0
        self.quarantined = 0
        #: Filenames known to be written during this object's life (by
        #: this process, or by workers whose tasks it saw finish).
        self.written: set[str] = set()

    @property
    def quarantine_dir(self) -> Path:
        return self.root / "quarantine"

    def path(self, key: CacheKey) -> Path:
        return self.root / key.filename()

    def _sidecar(self, key: CacheKey) -> Path:
        return self.path(key).with_suffix(".json")

    def contains(self, key: CacheKey) -> bool:
        return self.path(key).exists() and self._sidecar(key).exists()

    # ---- store -----------------------------------------------------------
    def store(self, key: CacheKey, trace: Trace, compression: str = "none") -> Path:
        """Atomically persist ``trace`` under ``key``; returns the path.

        ``compression`` selects the on-disk codec (see
        :func:`repro.trace.io.save_trace`); callers storing compressed
        entries should build ``key`` with
        ``format_version=format_version_for(compression)`` so the filename
        and sidecar record the format actually written.
        """
        path = self.path(key)
        save_trace(trace, path, compression=compression)  # atomic write
        atomic_write_text(self._sidecar(key), json.dumps(key.meta(), indent=0))
        self.written.add(key.filename())
        return path

    # ---- load ------------------------------------------------------------
    def load(self, key: CacheKey) -> Trace | None:
        """Return the cached trace, or ``None`` (miss or quarantined entry).

        A hit on a v2 entry is a trace of zero-copy views over the mapped
        file; a v3 entry is a :class:`repro.trace.io.LazyTrace`.
        """
        path = self.path(key)
        if not path.exists():
            self.misses += 1
            return None
        try:
            self._check_sidecar(key)
            trace = load_trace(path)
        except TraceCorruptError as exc:
            self.quarantine(key, reason=str(exc))
            self.misses += 1
            return None
        self.hits += 1
        return trace

    def _check_sidecar(self, key: CacheKey) -> None:
        sidecar = self._sidecar(key)
        if not sidecar.exists():
            raise CacheMismatchError(
                f"cache entry {self.path(key).name} has no sidecar metadata"
                " (interrupted store?)"
            )
        try:
            meta = json.loads(sidecar.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise CacheMismatchError(
                f"cache sidecar {sidecar.name} is unreadable: {exc}"
            ) from exc
        if meta != key.meta():
            raise CacheMismatchError(
                f"cache entry {self.path(key).name} was stored under a"
                f" different key: {meta!r} != {key.meta()!r}"
            )

    # ---- quarantine ------------------------------------------------------
    def quarantine(self, key: CacheKey, reason: str = "") -> Path | None:
        """Move a damaged entry aside so it is regenerated as a miss, not
        retried.  Only a call that moved a file counts a quarantine; a
        late concurrent mover counts nothing and returns ``None``."""
        src = self.path(key)
        dest = quarantine_file(src, self.quarantine_dir, reason, self._sidecar(key))
        if dest is None:
            log.info("cache: %s already quarantined by a concurrent mover",
                     src.name)
            return None
        self.quarantined += 1
        log.warning("cache: quarantined %s (%s)", src.name,
                    reason or "unspecified damage")
        return dest

    def stats(self) -> dict[str, int]:
        """This process's counters.

        Counters are **per-process**: every worker builds its own
        ``TraceCache`` over the shared directory, so hits/misses/
        quarantines observed in a child are invisible here unless the
        caller ships them back explicitly (as the sweep workers do).
        The on-disk state is the only cross-process source of truth.
        """
        return {
            "hits": self.hits,
            "misses": self.misses,
            "quarantined": self.quarantined,
        }
