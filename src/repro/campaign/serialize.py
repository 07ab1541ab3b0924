"""JSON (de)serialisation of campaign results, and the cache's record.

Python's ``json`` emits ``repr``-precision floats, which round-trip
bit-exactly for every finite float, so a result loaded from JSON compares
equal to the original.  A record of the result log (:mod:`.cache`) is one
line of four tab-separated fields: the cell hash, the result's SHA-256
checksum, the spec's canonical identity (:meth:`RunSpec.identity`, whose
SHA-256 is the cell hash) and the canonical result JSON (whose SHA-256 is
the checksum).  JSON escapes tabs and newlines, so hashing a record's
bytes checks it without parsing it.
"""

from __future__ import annotations

import hashlib
import json
from typing import Optional, Tuple

from ..errors import ConfigError
from ..ssd import SimulationResult
from .spec import RunSpec


def result_to_dict(result: SimulationResult) -> dict:
    return result.to_dict()


def result_from_dict(data: dict) -> SimulationResult:
    return SimulationResult.from_dict(data)


def _sha(data: bytes) -> bytes:
    return hashlib.sha256(data).hexdigest().encode("ascii")


def dump_entry(spec: RunSpec, result: SimulationResult) -> bytes:
    """The newline-terminated record of ``spec`` and its ``result``, each
    encoded once, canonically."""
    identity = spec.identity()
    body = json.dumps(result_to_dict(result), sort_keys=True,
                      separators=(",", ":")).encode("utf-8")
    return b"\t".join((_sha(identity), _sha(body), identity, body)) + b"\n"


def check_record(line: bytes) -> Tuple[str, bytes]:
    """``(cell hash, result JSON)`` of a sound record (trailing newline
    optional); a torn or bit-rotted one raises :class:`ConfigError`."""
    fields = line.rstrip(b"\n").split(b"\t")
    if len(fields) != 4:
        raise ConfigError(f"torn cache record ({len(fields)} of 4 fields)")
    cell, checksum, identity, body = fields
    if _sha(identity) != cell or _sha(body) != checksum:
        raise ConfigError("cache record checksum mismatch (corrupt entry)")
    return cell.decode("ascii"), body


def load_entry(line: bytes,
               expected_spec: Optional[RunSpec] = None) -> SimulationResult:
    """The result of a sound record, optionally checked to belong to
    ``expected_spec``; raises :class:`ConfigError` otherwise."""
    cell, body = check_record(line)
    if expected_spec is not None and cell != expected_spec.content_hash():
        raise ConfigError("cache entry spec does not match its key")
    return result_from_dict(json.loads(body))
