"""Block-I/O trace representation.

A trace is an ordered list of :class:`IORequest` records.  Offsets and
sizes are in bytes; :meth:`IORequest.lpns` rasterises a request onto
16-KiB logical pages for the FTL.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List

from ..errors import TraceError
from ..units import KIB

READ = "R"
WRITE = "W"


@dataclass(frozen=True)
class IORequest:
    """One host I/O."""

    timestamp_us: float
    op: str              # READ or WRITE
    offset_bytes: int
    size_bytes: int

    def __post_init__(self) -> None:
        """Validate at construction so a malformed request is rejected where
        it is built, naming the offending field."""
        if self.op not in (READ, WRITE):
            raise TraceError(f"op must be {READ!r} or {WRITE!r}, got {self.op!r}")
        if not isinstance(self.offset_bytes, int) or self.offset_bytes < 0:
            raise TraceError(
                f"offset_bytes must be an int >= 0, got {self.offset_bytes!r}"
            )
        if not isinstance(self.size_bytes, int) or self.size_bytes <= 0:
            raise TraceError(
                f"size_bytes must be an int > 0, got {self.size_bytes!r}"
            )
        if self.timestamp_us < 0:
            raise TraceError(
                f"timestamp_us must be >= 0, got {self.timestamp_us!r}"
            )

    @property
    def is_read(self) -> bool:
        return self.op == READ

    def lpns(self, page_size: int = 16 * KIB) -> range:
        """Logical page numbers this request touches."""
        first = self.offset_bytes // page_size
        last = (self.offset_bytes + self.size_bytes - 1) // page_size
        return range(first, last + 1)


class Trace:
    """An ordered collection of I/O requests with a name."""

    def __init__(self, requests: Iterable[IORequest], name: str = "trace"):
        self.requests: List[IORequest] = list(requests)
        self.name = name
        for a, b in zip(self.requests, self.requests[1:]):
            if b.timestamp_us < a.timestamp_us:
                raise TraceError("trace timestamps must be non-decreasing")

    def __len__(self) -> int:
        return len(self.requests)

    def __iter__(self) -> Iterator[IORequest]:
        return iter(self.requests)

    def __getitem__(self, idx: int) -> IORequest:
        return self.requests[idx]

    # --- aggregate views -------------------------------------------------------------

    def total_bytes(self) -> int:
        return sum(r.size_bytes for r in self.requests)

    def read_bytes(self) -> int:
        return sum(r.size_bytes for r in self.requests if r.is_read)
