"""Content-addressed on-disk cache of simulation results: one append-only
log, ``results.log``, per cache directory (records in :mod:`.serialize`).

``put`` appends a cell's record with one ``write`` to the log opened
``O_APPEND`` and fsyncs it before returning, so it is on disk before a
ledger's ``done``; a log not ending in a newline gets one first, so a torn
record cannot swallow the next.  ``get`` reads a record at its offset in
an index that opening builds by hashing each record's bytes, after
indexing what any process appended since.  A torn or bit-rotted record is
never served: opening moves it to ``<root>/quarantine/`` with a warning
and rewrites the log without it (temp file, fsync, ``os.replace``), and
its cell recomputes.
"""

from __future__ import annotations

import hashlib
import os
import warnings
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import ConfigError, ReproError
from ..ssd import SimulationResult
from .serialize import check_record, dump_entry, load_entry
from .spec import RunSpec

LOG_FILENAME = "results.log"
#: Subdirectory (under the cache root) where damaged records are moved.
QUARANTINE_DIR = "quarantine"

Index = Dict[str, Tuple[int, int]]  # cell -> (offset, length) of its record
Damage = List[Tuple[int, bytes, str]]  # (offset, bytes, reason) per record


def make_dir(path) -> Path:
    """``path`` as a directory, created if missing; a path that is, or
    lies under, a regular file is a :class:`ConfigError`."""
    path = Path(path).expanduser()
    try:
        path.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError) as exc:
        raise ConfigError(f"{path} is not a directory") from exc
    return path


def scan(data: bytes, base: int = 0,
         final: bool = True) -> Tuple[Index, Damage, int]:
    """The sound records (by cell) and the damaged ones of ``data``, read
    from byte ``base`` of a log, and the byte after its last complete
    line.  With ``final``, an unterminated last line is a torn record, not
    one still being written."""
    sound: Index = {}
    damaged: Damage = []
    lines = data.split(b"\n")
    tail = lines.pop()
    offset = base
    for line in lines:
        if line:
            try:
                sound[check_record(line)[0]] = (offset, len(line) + 1)
            except ReproError as exc:
                damaged.append((offset, line + b"\n", str(exc)))
        offset += len(line) + 1
    if final and tail:
        damaged.append((offset, tail, "unterminated record (torn write)"))
    return sound, damaged, offset


class ResultCache:
    """Spec-hash -> result store: one append-only log under ``root``."""

    def __init__(self, root):
        self.root = make_dir(root)
        self.path = self.root / LOG_FILENAME
        #: Chaos seam (fault kind ``torn_cache_write``): a float from
        #: ``hook(spec, record)`` appends only that fraction of the record.
        self.torn_write_hook: Optional[Callable] = None
        self._index: Index = {}
        self._end, self._inode = 0, None  # how much of which log is indexed
        damaged = self._scan(final=True)
        if not damaged:
            return
        target = make_dir(self.root / QUARANTINE_DIR)
        for offset, record, reason in damaged:
            name = f"{hashlib.sha256(record).hexdigest()[:16]}.rec"
            (target / name).write_bytes(record)
            warnings.warn(f"quarantined corrupt cache record at byte {offset}"
                          f" of {self.path} as {name} ({reason})",
                          RuntimeWarning, stacklevel=2)
        data = self.path.read_bytes()
        tmp = self.root / f".{LOG_FILENAME}.{os.getpid()}.tmp"
        with open(tmp, "wb") as handle:  # the log without them
            for offset, length in sorted(self._index.values()):
                handle.write(data[offset:offset + length])
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self.path)  # the next scan indexes the new log

    def _scan(self, final: bool = False) -> Damage:
        """Index the records appended since the last scan, or all of them
        when the log was replaced or emptied meanwhile."""
        with open(self.path, "a+b", buffering=0) as log:
            stat = os.fstat(log.fileno())
            if stat.st_ino != self._inode or stat.st_size < self._end:
                self._index, self._end, self._inode = {}, 0, stat.st_ino
            data = os.pread(log.fileno(), stat.st_size - self._end,
                            self._end)
        sound, damaged, self._end = scan(data, self._end, final)
        self._index.update(sound)
        return damaged

    def get(self, spec: RunSpec) -> Optional[SimulationResult]:
        """The cached result for ``spec``, or ``None`` on any kind of miss."""
        cell = spec.content_hash()
        self._scan()  # what another process appended, or a rewritten log
        where = self._index.get(cell)
        if where is None:
            return None
        with open(self.path, "rb", buffering=0) as log:
            record = os.pread(log.fileno(), where[1], where[0])
        try:
            return load_entry(record, expected_spec=spec)
        except (ReproError, ValueError, KeyError, TypeError) as exc:
            del self._index[cell]
            warnings.warn(f"damaged cache record for {spec.label()} ({exc}) "
                          "is quarantined on the next open", RuntimeWarning,
                          stacklevel=2)
            return None

    def put(self, spec: RunSpec, result: SimulationResult) -> None:
        """Append ``spec``'s record; it is fsync'd when this returns."""
        record = dump_entry(spec, result)
        if self.torn_write_hook is not None:
            fraction = self.torn_write_hook(spec, record)
            if fraction is not None:
                record = record[: int(len(record) * fraction)]
        with open(self.path, "a+b", buffering=0) as log:
            size = os.fstat(log.fileno()).st_size
            torn = size > 0 and os.pread(log.fileno(), 1, size - 1) != b"\n"
            log.write(b"\n" * torn + record)  # a torn line ends first
            os.fsync(log.fileno())
            end = log.tell()
        if record.endswith(b"\n"):
            self._index[spec.content_hash()] = (end - len(record),
                                                len(record))

    def verify(self) -> Tuple[int, List[Tuple[str, str]]]:
        """``(ok_count, [(where, reason), ...])`` of the log; read-only."""
        sound, damaged, _ = scan(self.path.read_bytes())
        return len(sound), [(f"byte {offset}", reason)
                            for offset, _, reason in damaged]

    def __len__(self) -> int:
        self._scan()
        return len(self._index)

    def __contains__(self, spec: RunSpec) -> bool:
        self._scan()
        return spec.content_hash() in self._index

    def wipe(self) -> int:
        """Delete every record; returns the number of cells removed."""
        removed = len(self)
        os.truncate(self.path, 0)
        self._index, self._end = {}, 0
        return removed
