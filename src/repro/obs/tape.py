"""The event tape: every event of a run as typed columns, recorded once.

An :class:`EventTape` is the run's event stream in storage form.  Each
event is one *row*; the row index is the event's ``seq``.  A
``bytearray`` holds every row's kind code, and each kind keeps its
fields interleaved in one stdlib ``array('q')``.  ``BudgetCharge.remaining``
goes in an ``array('d')``, and string fields (stage names, labels,
charge reasons) are ids into a small string table.  A row costs one
byte of kind code plus eight bytes per field, and no object.

Two encoders read the columns back, both in bounded blocks of
:data:`BLOCK_ROWS` rows so their memory does not grow with the run:

* :meth:`EventTape.digest` — the canonical SHA-256, byte-identical to
  :func:`repro.check.determinism.event_stream_digest` over the same
  events (compact JSON, sorted keys, ``latency_ns`` dropped);
* :meth:`EventTape.write_jsonl` — ``events.jsonl``, byte-identical to
  :func:`repro.obs.export.write_events` over the same events.

Each encoder formats a block kind by kind with one ``%`` template per
kind (derived from the event dataclass, so the field set has a single
definition), then interleaves the per-kind lines back into row order
using the kind column.  The per-row work all runs inside C loops
(``zip``, ``map``, ``str.__mod__``, ``itertools.compress``).

Columns are 64-bit: an integer field outside ``[-2**63, 2**63)`` raises
``OverflowError`` on append, and ``remaining`` is stored as a float.

**Stored form.**  :meth:`EventTape.write` stores the tape as one file:
a JSON header line (format, version, byte order, per-kind row counts,
string table), then the raw kind column, each kind's row array and the
``remaining`` column, written with ``array.tofile``.
:meth:`EventTape.read` maps it back, and refuses (``ValueError``) a
header it does not know, a short column, counts that disagree with the
header, an unknown kind code, a string id outside the table and
trailing bytes.  :meth:`EventTape.read_jsonl` reads a legacy
``events.jsonl`` into the same columns, type-strictly: every line holds
exactly its event's keys, integers are JSON integers, ``remaining`` a
JSON float, strings strings, and ``seq`` the row index.

**Reading rows.**  The checkers read the columns, not event objects:
:meth:`EventTape.columns` gives one kind's fields as columns,
:meth:`EventTape.seqs` its row indices and :meth:`EventTape.select`
the kind codes of the rows of some kinds, in row order.
:meth:`EventTape.events` builds the event objects, for reports and
tests.
"""

from __future__ import annotations

import json
import os
import sys
from array import array
from dataclasses import fields
from itertools import compress
from math import isfinite
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Iterator, Union

from .events import (
    Alloc,
    BudgetCharge,
    CompactionWindow,
    Free,
    Move,
    StageTransition,
    TelemetryEvent,
)

__all__ = [
    "EventTape",
    "BLOCK_ROWS",
    "TAPE_FORMAT",
    "TAPE_VERSION",
    "ALLOC",
    "FREE",
    "MOVE",
    "WINDOW",
    "STAGE",
    "CHARGE",
]

#: Rows encoded per block by :meth:`EventTape.digest` and
#: :meth:`EventTape.write_jsonl` (bounds their working memory).
BLOCK_ROWS = 1024

#: Kind codes, in the order of :data:`_KINDS`.
ALLOC, FREE, MOVE, WINDOW, STAGE, CHARGE = range(6)

#: Event class per kind code.
_KINDS: tuple[type[TelemetryEvent], ...] = (
    Alloc, Free, Move, CompactionWindow, StageTransition, BudgetCharge,
)

#: Per kind code, the fields kept in its interleaved row array
#: (dataclass order; string fields hold string-table ids).  The float
#: field ``remaining`` lives in its own column.  Field types are read
#: from the annotations, which ``repro.obs.events`` keeps as strings.
_ROW_FIELDS: tuple[tuple[str, ...], ...] = tuple(
    tuple(field.name for field in fields(cls)
          if field.name != "seq" and field.type != "float")
    for cls in _KINDS
)

#: Kind name -> kind code.
_CODES = {cls.kind: code for code, cls in enumerate(_KINDS)}

#: Per kind code, every field but ``seq`` of an event object, as a tuple.
_FIELD_GETTERS = tuple(
    attrgetter(*(field.name for field in fields(cls) if field.name != "seq"))
    for cls in _KINDS
)

#: ``bytes.translate`` tables mapping one kind code to 1, the rest to 0.
_MASKS = tuple(bytes(int(code == kind) for code in range(256))
               for kind in range(len(_KINDS)))

#: Per kind code, the row offsets of its string-table ids.
_STRING_OFFSETS = tuple(
    tuple(offset for offset, name in enumerate(row)
          if {field.name: field.type for field in fields(cls)}[name] == "str")
    for cls, row in zip(_KINDS, _ROW_FIELDS)
)

#: Per kind code, ``(name, type)`` of every field but ``seq``, in
#: dataclass order: what a legacy JSONL line must carry.
_FIELD_TYPES = tuple(
    tuple((field.name, {"int": int, "str": str, "float": float}[field.type])
          for field in fields(cls) if field.name != "seq")
    for cls in _KINDS
)

#: Per kind code, the exact key set of its JSONL line.
_KEYS = tuple(frozenset({"kind", "seq", *(name for name, _ in types)})
              for types in _FIELD_TYPES)

#: How type errors name the JSON type a field must have.
_JSON_TYPES = {int: "integer", str: "string", float: "float"}

#: The ``format`` of a stored tape's header, and its version.
TAPE_FORMAT = "repro-event-tape"
TAPE_VERSION = 1

#: Every stored tape starts with these bytes (the header's first key).
_MAGIC = b'{"format": "repro-event-tape", '

_PathLike = Union[str, Path]


def _encoder(cls: type[TelemetryEvent], *, canonical: bool
             ) -> tuple[str, tuple[tuple[str, int], ...]]:
    """One kind's line template and where each of its arguments comes from.

    The template is ``json.dumps`` of the event's dict with sorted keys,
    every value replaced by ``%s``: ``str`` of an int or a finite float
    is exactly what ``json`` writes for it, and string fields are passed
    pre-encoded.  ``canonical`` selects the digest form (compact
    separators, no ``latency_ns``) over the ``events.jsonl`` form.  The
    sources, in template order, are ``(source, row offset)`` pairs with
    source ``"seq"``, ``"float"``, ``"str"`` or ``"int"``.
    """
    names = [field.name for field in fields(cls)
             if not (canonical and field.name == "latency_ns")]
    types = {field.name: field.type for field in fields(cls)}
    record: dict = {"kind": cls.kind}
    for name in names:
        record[name] = f"@{name}@"
    text = json.dumps(record, sort_keys=True,
                      separators=(",", ":") if canonical else None)
    text = text.replace("%", "%%")
    for name in names:
        text = text.replace(json.dumps(f"@{name}@"), "%s")
    row = _ROW_FIELDS[_KINDS.index(cls)]
    sources = tuple(
        ("seq", -1) if name == "seq" else
        ("float", -1) if types[name] == "float" else
        (types[name], row.index(name))
        for name in sorted(names)
    )
    return text + "\n", sources


#: Per kind code: the (canonical, jsonl) encoders.
_ENCODERS = tuple(
    (_encoder(cls, canonical=True), _encoder(cls, canonical=False))
    for cls in _KINDS
)


class EventTape:
    """Columnar store of one run's events (see the module docs)."""

    __slots__ = ("_kinds", "_rows", "_remaining", "_strings", "_string_ids",
                 "_digest")

    def __init__(self) -> None:
        self._kinds = bytearray()
        self._rows = tuple(array("q") for _ in _KINDS)
        self._remaining = array("d")
        #: String table: the JSON encoding of each interned string.
        self._strings: list[str] = []
        self._string_ids: dict[str, int] = {}
        #: ``(row count, hex digest)`` of the last :meth:`digest` call.
        self._digest: tuple[int, str] | None = None

    def __len__(self) -> int:
        return len(self._kinds)

    def _string_id(self, text: str) -> int:
        found = self._string_ids.get(text)
        if found is None:
            found = self._string_ids[text] = len(self._strings)
            self._strings.append(json.dumps(text))
        return found

    def _append(self, code: int, values: tuple) -> None:
        """Append one row of kind ``code``; a rejected value adds nothing."""
        rows = self._rows[code]
        try:
            rows.extend(values)
        except (OverflowError, TypeError):
            # array.extend keeps the values before the bad one: drop them.
            del rows[len(rows) - len(rows) % len(values):]
            raise
        self._kinds.append(code)

    # Per-kind appends (one row each; argument order as the dataclass) ------

    def append_alloc(self, object_id: int, size: int, address: int,
                     latency_ns: int = 0) -> None:
        """Record an :class:`~repro.obs.events.Alloc` row."""
        self._append(ALLOC, (object_id, size, address, latency_ns))

    def append_free(self, object_id: int, size: int, address: int) -> None:
        """Record a :class:`~repro.obs.events.Free` row."""
        self._append(FREE, (object_id, size, address))

    def append_move(self, object_id: int, size: int, old_address: int,
                    new_address: int) -> None:
        """Record a :class:`~repro.obs.events.Move` row."""
        self._append(MOVE, (object_id, size, old_address, new_address))

    def append_window(self, request_size: int, moves: int,
                      moved_words: int) -> None:
        """Record a :class:`~repro.obs.events.CompactionWindow` row."""
        self._append(WINDOW, (request_size, moves, moved_words))

    def append_stage(self, program: str, stage: str, step: int,
                     label: str = "") -> None:
        """Record a :class:`~repro.obs.events.StageTransition` row."""
        self._append(STAGE, (self._string_id(program), self._string_id(stage),
                             step, self._string_id(label)))

    def append_charge(self, reason: str, words: int,
                      remaining: float) -> None:
        """Record a :class:`~repro.obs.events.BudgetCharge` row."""
        self._remaining.append(remaining)
        try:
            self._append(CHARGE, (self._string_id(reason), words))
        except (OverflowError, TypeError):
            self._remaining.pop()
            raise

    def record(self, event: TelemetryEvent) -> None:
        """Record the row of an event object, dispatched on its kind."""
        code = _CODES.get(event.kind)
        if code is None:
            raise ValueError(f"unknown telemetry event kind {event.kind!r}")
        _APPENDERS[code](self, *_FIELD_GETTERS[code](event))

    @classmethod
    def from_events(cls, events: Iterable[TelemetryEvent]) -> "EventTape":
        """A tape holding one row per event, in order.

        Each row's index becomes its ``seq``: the events' own ``seq``
        fields are not read.
        """
        tape = cls()
        for event in events:
            tape.record(event)
        return tape

    # Reading rows ----------------------------------------------------------------

    def counts(self) -> list[int]:
        """The number of rows of each kind, by kind code."""
        return [len(rows) // len(names)
                for rows, names in zip(self._rows, _ROW_FIELDS)]

    def seqs(self, code: int) -> Iterator[int]:
        """The row index (``seq``) of every row of kind ``code``, in order."""
        kinds = self._kinds
        return compress(range(len(kinds)), kinds.translate(_MASKS[code]))

    def select(self, codes: Iterable[int]) -> Iterator[int]:
        """The kind code of every row whose kind is in ``codes``, in order."""
        wanted = set(codes)
        mask = bytes(int(code in wanted) for code in range(256))
        return compress(self._kinds, self._kinds.translate(mask))

    def columns(self, code: int, start: int = 0) -> list[Iterable]:
        """Kind ``code``'s rows as one column per field, in row order.

        Columns follow the event's dataclass field order, ``seq``
        excepted: integer fields are ``array('q')`` copies, string
        fields iterators of decoded strings, and ``BudgetCharge`` ends
        with a copy of its ``remaining`` column.  ``start`` skips that
        kind's first ``start`` rows (a reader folding in only new rows).
        """
        rows = self._rows[code]
        width = len(_ROW_FIELDS[code])
        columns: list[Iterable] = [rows[start * width + offset::width]
                                   for offset in range(width)]
        texts = list(self._string_ids).__getitem__
        for offset in _STRING_OFFSETS[code]:
            columns[offset] = map(texts, columns[offset])
        if code == CHARGE:
            columns.append(self._remaining[start:])
        return columns

    def events(self) -> list[TelemetryEvent]:
        """Every row as an event object, ``seq`` stamped."""
        made = [map(cls, *self.columns(code))
                for code, cls in enumerate(_KINDS)]
        events = [next(made[code]) for code in self._kinds]
        for seq, event in enumerate(events):
            event.seq = seq
        return events

    # Stored form -----------------------------------------------------------------

    def write(self, path: _PathLike) -> Path:
        """Store the tape as one file (parents created; see the module docs)."""
        header = {"format": TAPE_FORMAT, "version": TAPE_VERSION,
                  "byteorder": sys.byteorder, "counts": self.counts(),
                  "strings": list(self._string_ids)}
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        with target.open("wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            handle.write(self._kinds)
            for rows in self._rows:
                rows.tofile(handle)
            self._remaining.tofile(handle)
        return target

    @staticmethod
    def is_stored(path: _PathLike) -> bool:
        """Whether ``path`` starts like a file :meth:`write` stored."""
        with Path(path).open("rb") as handle:
            return handle.read(len(_MAGIC)) == _MAGIC

    @classmethod
    def read(cls, path: _PathLike) -> "EventTape":
        """Read a file :meth:`write` stored; an empty file holds no rows.

        Raises ``ValueError`` naming the file for anything malformed.
        """
        source = Path(path)
        with source.open("rb") as handle:
            first = handle.readline()
            if not first:
                return cls()
            try:
                return cls._read_columns(first, handle)
            except (ValueError, EOFError) as error:
                raise ValueError(f"{source}: {error}") from None

    @classmethod
    def _read_columns(cls, first: bytes, handle) -> "EventTape":
        if not first.startswith(_MAGIC):
            raise ValueError("not a stored event tape")
        header = json.loads(first)
        version = header.get("version")
        if header.get("format") != TAPE_FORMAT or version != TAPE_VERSION:
            raise ValueError(f"tape version {version!r} unsupported "
                             f"(expected {TAPE_VERSION})")
        byteorder = header.get("byteorder")
        if byteorder not in ("little", "big"):
            raise ValueError(f"unknown byte order {byteorder!r}")
        counts = header.get("counts")
        if (type(counts) is not list or len(counts) != len(_KINDS)
                or any(type(n) is not int or n < 0 for n in counts)):
            raise ValueError(f"bad per-kind row counts {counts!r}")
        strings = header.get("strings")
        if (type(strings) is not list
                or any(type(text) is not str for text in strings)
                or len(set(strings)) != len(strings)):
            raise ValueError("bad string table")
        tape = cls()
        columns = [*tape._rows, tape._remaining]
        sizes = [count * len(names) for count, names in zip(counts, _ROW_FIELDS)]
        sizes.append(counts[CHARGE])
        total = sum(counts)
        needed = total + sum(column.itemsize * size
                             for column, size in zip(columns, sizes))
        held = os.fstat(handle.fileno()).st_size - handle.tell()
        if held < needed:
            raise ValueError(f"columns hold {held} of the {needed} bytes "
                             "the header's counts need")
        if held > needed:
            raise ValueError(f"{held - needed} trailing bytes after the "
                             "columns the header's counts describe")
        kinds = handle.read(total)
        if kinds and max(kinds) >= len(_KINDS):
            raise ValueError(f"unknown kind code {max(kinds)}")
        for code, count in enumerate(counts):
            if kinds.count(code) != count:
                raise ValueError(
                    f"kind column has {kinds.count(code)} "
                    f"{_KINDS[code].kind} rows, the header {count}")
        tape._kinds = bytearray(kinds)
        for column, size in zip(columns, sizes):
            column.fromfile(handle, size)
        if byteorder != sys.byteorder:
            for column in columns:
                column.byteswap()
        for code, offsets in enumerate(_STRING_OFFSETS):
            width = len(_ROW_FIELDS[code])
            for offset in offsets:
                ids = tape._rows[code][offset::width]
                if ids and not 0 <= min(ids) <= max(ids) < len(strings):
                    raise ValueError(f"string id outside the table of "
                                     f"{len(strings)}")
        tape._strings = [json.dumps(text) for text in strings]
        tape._string_ids = {text: index for index, text in enumerate(strings)}
        return tape

    @classmethod
    def read_jsonl(cls, path: _PathLike) -> "EventTape":
        """Read a legacy ``events.jsonl`` type-strictly (see the module docs).

        Blank lines are skipped.  Raises ``ValueError`` naming the file
        and line for anything else that is not an event line.
        """
        source = Path(path)
        tape = cls()
        with source.open("rb") as handle:
            for number, raw in enumerate(handle, 1):
                try:
                    line = raw.decode("utf-8")
                    if line.strip():
                        tape._append_record(json.loads(line))
                except (ValueError, OverflowError) as error:
                    raise ValueError(f"{source}, line {number}: {error}") \
                        from None
        return tape

    def _append_record(self, record: object) -> None:
        """Append one parsed JSONL line, checking its shape first."""
        if type(record) is not dict:
            raise ValueError("not a JSON object")
        kind = record.get("kind")
        code = _CODES.get(kind) if type(kind) is str else None
        if code is None:
            raise ValueError(f"unknown event kind {kind!r}")
        if record.keys() != _KEYS[code]:
            raise ValueError(f"{kind} line has keys {sorted(record)}, "
                             f"expected {sorted(_KEYS[code])}")
        for name, expected in _FIELD_TYPES[code] + (("seq", int),):
            if type(record[name]) is not expected:
                raise ValueError(f"{kind} field {name!r} is "
                                 f"{record[name]!r}, not a JSON "
                                 f"{_JSON_TYPES[expected]}")
        if record["seq"] != len(self._kinds):
            raise ValueError(f"seq {record['seq']} is not the row index "
                             f"{len(self._kinds)}")
        _APPENDERS[code](self, *(record[name]
                                 for name, _ in _FIELD_TYPES[code]))

    # Encoders ------------------------------------------------------------------

    def _blocks(self, jsonl: bool) -> Iterator[str]:
        """The rows' JSON lines, :data:`BLOCK_ROWS` rows per string."""
        kinds = self._kinds
        strings = self._strings.__getitem__
        cursors = [0] * len(_KINDS)
        lines: list[Iterator[str]] = [iter(())] * len(_KINDS)
        for start in range(0, len(kinds), BLOCK_ROWS):
            block = kinds[start:start + BLOCK_ROWS]
            for code, encoders in enumerate(_ENCODERS):
                count = block.count(code)
                if not count:
                    continue
                first = cursors[code]
                cursors[code] = first + count
                width = len(_ROW_FIELDS[code])
                span = self._rows[code][first * width:(first + count) * width]
                template, sources = encoders[jsonl]
                columns: list = []
                for source, offset in sources:
                    if source == "seq":
                        columns.append(compress(
                            range(start, start + len(block)),
                            block.translate(_MASKS[code])))
                    elif source == "float":
                        values = self._remaining[first:first + count]
                        columns.append(values if all(map(isfinite, values))
                                       else map(json.dumps, values))
                    elif source == "str":
                        columns.append(map(strings, span[offset::width]))
                    else:
                        columns.append(span[offset::width])
                lines[code] = map(template.__mod__, zip(*columns))
            yield "".join(map(next, map(lines.__getitem__, block)))

    def digest(self) -> str:
        """The canonical SHA-256 hex digest of every row so far.

        Equal to :func:`repro.check.determinism.event_stream_digest` of
        the same events; memoized until the next append.
        """
        if self._digest is not None and self._digest[0] == len(self._kinds):
            return self._digest[1]
        # Imported here: loading OpenSSL adds megabytes of resident memory
        # to every process that imports repro.obs, hashing or not.
        import hashlib

        hasher = hashlib.sha256()
        for text in self._blocks(jsonl=False):
            hasher.update(text.encode())
        self._digest = (len(self._kinds), hasher.hexdigest())
        return self._digest[1]

    def write_jsonl(self, path: _PathLike) -> Path:
        """Write every row as ``events.jsonl`` (parents created).

        The bytes equal :func:`repro.obs.export.write_events` over the
        same events, ``latency_ns`` included.
        """
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        with target.open("w", encoding="utf-8") as handle:
            for text in self._blocks(jsonl=True):
                handle.write(text)
        return target


#: Per kind code, the per-kind append (it takes the fields in dataclass
#: order, ``seq`` excepted, which :data:`_FIELD_GETTERS` reads).
_APPENDERS = (
    EventTape.append_alloc, EventTape.append_free, EventTape.append_move,
    EventTape.append_window, EventTape.append_stage, EventTape.append_charge,
)
