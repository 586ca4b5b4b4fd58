"""Self-describing schemas for TACC_Stats record types.

Each record type (``cpu``, ``mem``, ``ib``, ...) declares its keys once in
the file header as a ``!type`` line, e.g.::

    !cpu user,E,U=cs nice,E,U=cs system,E,U=cs idle,E,U=cs iowait,E,U=cs

Flags follow the original tool's convention: ``E`` marks an *event*
(cumulative counter that only increases, modulo register rollover), ``W=n``
gives the counter width in bits (rollover modulus ``2**n``), and ``U=x``
records the unit.  Keys without ``E`` are gauges.  The parser rebuilds the
schema purely from these lines — the format is self-describing, so readers
never hard-code layouts.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = ["SchemaEntry", "TypeSchema"]


@dataclass(frozen=True)
class SchemaEntry:
    """One column of a record type."""

    key: str
    is_event: bool = False
    unit: str | None = None
    width: int = 64

    def __post_init__(self):
        if not self.key or any(c in self.key for c in " ,!%$"):
            raise ValueError(f"bad schema key {self.key!r}")
        if not 1 <= self.width <= 64:
            raise ValueError(f"bad counter width {self.width}")

    @property
    def modulus(self) -> int:
        """Rollover modulus of the underlying register."""
        return 1 << self.width

    def spec(self) -> str:
        """Render as a ``key[,E][,W=n][,U=x]`` token."""
        parts = [self.key]
        if self.is_event:
            parts.append("E")
        if self.width != 64:
            parts.append(f"W={self.width}")
        if self.unit:
            parts.append(f"U={self.unit}")
        return ",".join(parts)

    @classmethod
    def parse(cls, token: str) -> "SchemaEntry":
        """Inverse of :meth:`spec`; raises ValueError on malformed tokens."""
        parts = token.split(",")
        if not parts or not parts[0]:
            raise ValueError(f"empty schema token {token!r}")
        key = parts[0]
        is_event = False
        unit: str | None = None
        width = 64
        for p in parts[1:]:
            if p == "E":
                is_event = True
            elif p.startswith("W="):
                width = int(p[2:])
            elif p.startswith("U="):
                unit = p[2:]
            else:
                raise ValueError(f"unknown schema flag {p!r} in {token!r}")
        return cls(key=key, is_event=is_event, unit=unit, width=width)


@dataclass(frozen=True)
class TypeSchema:
    """Schema of one record type: a name plus ordered entries.

    Column lookups (:meth:`index_of`, :meth:`column`) are O(1): the key
    index and the header line are built once at construction.  The memos
    are deliberately not dataclass fields so equality/hashing still
    compare only the declared schema (``type_name`` + ``entries``).
    """

    type_name: str
    entries: tuple[SchemaEntry, ...]

    def __post_init__(self):
        if not self.type_name or not self.type_name.isidentifier():
            raise ValueError(f"bad type name {self.type_name!r}")
        if not self.entries:
            raise ValueError(f"type {self.type_name}: no entries")
        keys = [e.key for e in self.entries]
        if len(set(keys)) != len(keys):
            raise ValueError(f"type {self.type_name}: duplicate keys")
        object.__setattr__(
            self, "_index", {e.key: i for i, e in enumerate(self.entries)}
        )
        object.__setattr__(
            self, "_header_line",
            f"!{self.type_name} " + " ".join(e.spec() for e in self.entries))
        #: ``(column, width)`` of every column narrower than 64 bits.
        object.__setattr__(self, "narrow", tuple(
            (i, e.width) for i, e in enumerate(self.entries) if e.width < 64))
        #: ``2**w - 1`` of every column, as uint64: the register masks.
        object.__setattr__(self, "masks", np.array(
            [e.modulus - 1 for e in self.entries], dtype=np.uint64))

    @property
    def n_values(self) -> int:
        return len(self.entries)

    @property
    def keys(self) -> tuple[str, ...]:
        return tuple(e.key for e in self.entries)

    def index_of(self, key: str) -> int:
        """Column position of *key*; raises KeyError for unknown keys."""
        try:
            return self._index[key]
        except KeyError:
            raise KeyError(
                f"type {self.type_name} has no key {key!r}"
            ) from None

    def column(self, key: str) -> tuple[int, int]:
        """(column position, counter width) of *key* in one lookup."""
        col = self.index_of(key)
        return col, self.entries[col].width

    def overflow(self, values) -> int:
        """The ``W=`` of the first column a row of *values* (``u8[R, K]``)
        overflows, or 0: a register holds no more bits than it declares."""
        return next((w for col, w in self.narrow
                     if len(values) and int(values[:, col].max()) >> w), 0)

    def header_line(self) -> str:
        """The ``!type spec spec ...`` header line."""
        return self._header_line

    @classmethod
    @lru_cache(maxsize=1024)
    def parse_header_line(cls, line: str) -> "TypeSchema":
        """Parse a ``!type ...`` line (leading ``!`` required).

        Cached: every file a collector suite writes repeats the same
        header lines, and instances are immutable.
        """
        if not line.startswith("!"):
            raise ValueError(f"schema line must start with '!': {line!r}")
        parts = line[1:].split()
        if len(parts) < 2:
            raise ValueError(f"schema line needs a type and >=1 key: {line!r}")
        return cls(
            type_name=parts[0],
            entries=tuple(SchemaEntry.parse(t) for t in parts[1:]),
        )

    def event_mask(self) -> tuple[bool, ...]:
        """Per-column booleans: True where the column is a counter."""
        return tuple(e.is_event for e in self.entries)
