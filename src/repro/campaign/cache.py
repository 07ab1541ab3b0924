"""Content-addressed on-disk cache of simulation results, crash-safe.

One JSON file per computed cell, named by the spec's content hash — a
second campaign over an overlapping grid re-runs only the cells it has
never seen.  The store is hardened against the process dying mid-write
and against on-disk corruption:

* **atomic, durable writes** — entries are written to a unique temp file,
  flushed and ``fsync``'d, then ``os.replace``'d into place, and the
  directory entry itself is fsync'd, so a SIGKILL at any instant leaves
  either the old state or the complete new entry, never a torn one;
* **checksummed reads** — every entry embeds a content checksum
  (:func:`~repro.campaign.serialize.entry_checksum`); a corrupt, torn,
  stale, or mismatched entry reads as a *miss*, never as a wrong result;
* **quarantine, not crash** — a damaged entry is moved aside to
  ``<root>/quarantine/`` with a warning so the evidence survives for
  ``python -m repro.campaign verify-ledger`` while the campaign simply
  recomputes the cell.

``torn_write_hook`` is the fault-injection seam used by the chaos tests
(:mod:`repro.faults` kind ``torn_cache_write``): when it returns a
fraction for a write, only that prefix of the entry's bytes lands on disk
— and non-atomically — emulating the torn write a crash mid-``write()``
would produce on a store without the temp-file dance.
"""

from __future__ import annotations

import os
import warnings
from pathlib import Path
from typing import Callable, List, Optional, Tuple

from ..errors import ReproError
from ..ssd import SimulationResult
from .serialize import dump_entry, load_entry
from .spec import RunSpec

#: Subdirectory (under the cache root) where damaged entries are moved.
QUARANTINE_DIR = "quarantine"


def fsync_dir(path: Path) -> None:
    """fsync a directory so a rename into it survives a crash (best
    effort: some platforms/filesystems refuse O_RDONLY dir fsync)."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


class ResultCache:
    """Spec-hash -> result store rooted at a directory."""

    def __init__(self, root):
        self.root = Path(root).expanduser()
        self.root.mkdir(parents=True, exist_ok=True)
        #: Test/chaos seam: ``hook(spec, text) -> Optional[float]``; a
        #: float return tears this write to that fraction of its bytes.
        self.torn_write_hook: Optional[
            Callable[[RunSpec, str], Optional[float]]] = None

    def path_for(self, spec: RunSpec) -> Path:
        return self.root / f"{spec.content_hash()}.json"

    @property
    def quarantine_root(self) -> Path:
        return self.root / QUARANTINE_DIR

    def _quarantine(self, path: Path, reason: str) -> None:
        """Move a damaged entry aside (never raises)."""
        target_dir = self.quarantine_root
        try:
            target_dir.mkdir(parents=True, exist_ok=True)
            os.replace(path, target_dir / path.name)
        except OSError:
            return
        warnings.warn(
            f"quarantined corrupt cache entry {path.name} ({reason}); "
            "the cell will be recomputed",
            RuntimeWarning,
            stacklevel=3,
        )

    def get(self, spec: RunSpec) -> Optional[SimulationResult]:
        """The cached result for ``spec``, or ``None`` on any kind of miss.

        A damaged entry (torn write, checksum mismatch, schema drift) is
        quarantined and reads as a miss — the caller recomputes.
        """
        path = self.path_for(spec)
        try:
            text = path.read_text()
        except OSError:
            return None
        try:
            return load_entry(text, expected_spec=spec)
        except (ReproError, ValueError, KeyError, TypeError) as exc:
            self._quarantine(path, f"{type(exc).__name__}: {exc}")
            return None

    def put(self, spec: RunSpec, result: SimulationResult) -> Path:
        path = self.path_for(spec)
        text = dump_entry(spec, result)
        if self.torn_write_hook is not None:
            fraction = self.torn_write_hook(spec, text)
            if fraction is not None:
                # chaos seam: emulate a torn non-atomic write
                path.write_text(text[: int(len(text) * fraction)])
                return path
        tmp = self.root / f".{spec.content_hash()}.{os.getpid()}.tmp"
        try:
            with open(tmp, "w") as handle:
                handle.write(text)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
        fsync_dir(self.root)
        return path

    def verify(self) -> Tuple[int, List[Tuple[str, str]]]:
        """Scan every entry; returns ``(ok_count, [(name, reason), ...])``.

        Read-only: damaged entries are reported, not quarantined (the
        campaign's own ``get`` path quarantines on demand).
        """
        ok, bad = 0, []
        for path in sorted(self.root.glob("*.json")):
            try:
                load_entry(path.read_text())
            except (ReproError, ValueError, KeyError, TypeError) as exc:
                bad.append((path.name, f"{type(exc).__name__}: {exc}"))
            else:
                ok += 1
        return ok, bad

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*.json"))

    def __contains__(self, spec: RunSpec) -> bool:
        return self.path_for(spec).exists()

    def wipe(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        for path in self.root.glob("*.json"):
            path.unlink()
            removed += 1
        return removed
