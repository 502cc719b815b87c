"""Undo-style write-ahead log with a length-prefixed binary file format.

Record layout (all integers big-endian):

    u32  record length (bytes after this prefix)
    u64  sequence number (strictly increasing across the whole log)
    u64  transaction id
    u8   kind: 0 = Undo, 1 = Abort, 2 = Commit
    Undo only:
      u32 x 3  planned update-block ref (chain, height, branch)
      u32      snapshot length
      bytes    snapshot: u16 update count, then per update the
               block record's ``AssetUpdate`` without its ``U`` tag:
               u16-prefixed owner_from / owner_to / asset strings
               and u64 amount

An Undo record is written before its update block is appended; the
snapshot holds exactly the updates that block will carry, so rollback
can append the inverse transfers, and recovery can tell whether the
append ever happened by checking for the planned ref.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass
from typing import Iterable, Optional

from .chain import AssetUpdate, BlockRef, _U16

_LENGTH = struct.Struct(">I")    # record length
_HEADER = struct.Struct(">QQB")  # sequence, transaction id, kind
_UNDO = struct.Struct(">IIII")   # planned ref, snapshot length


class WalKind(enum.IntEnum):
    UNDO = 0
    ABORT = 1
    COMMIT = 2


class WalFormatError(Exception):
    pass


def _pack_updates(updates: tuple[AssetUpdate, ...]) -> bytes:
    try:
        count = _U16.pack(len(updates))
    except struct.error:
        raise ValueError(f"{len(updates)} updates do not fit an undo record's 16-bit count") from None
    return count + b"".join([u.fields() for u in updates])


def _unpack_updates(buf: bytes) -> tuple[AssetUpdate, ...]:
    (count,) = _U16.unpack_from(buf, 0)
    off = _U16.size
    updates = []
    for _ in range(count):
        update, off = AssetUpdate.unpack_from(buf, off)
        updates.append(update)
    if off != len(buf):
        raise ValueError(f"{len(buf) - off} bytes after the last update")
    return tuple(updates)


@dataclass(frozen=True, slots=True)
class WalRecord:
    sequence: int
    txn_id: int
    kind: WalKind
    block_ref: Optional[BlockRef] = None       # Undo: planned update-block position
    updates: tuple[AssetUpdate, ...] = ()      # Undo: updates that block will carry

    def to_bytes(self) -> bytes:
        body = _HEADER.pack(self.sequence, self.txn_id, int(self.kind))
        if self.kind is WalKind.UNDO:
            assert self.block_ref is not None
            snapshot = _pack_updates(self.updates)
            body += _UNDO.pack(*self.block_ref, len(snapshot)) + snapshot
        return _LENGTH.pack(len(body)) + body


def _check_end(body: bytes, end: int, index: int) -> None:
    """A record body holds exactly one record: nothing may follow it."""
    if len(body) > end:
        raise WalFormatError(f"record {index}: {len(body) - end} bytes after the record")


def record_from_bytes(body: bytes, index: int) -> WalRecord:
    head = _HEADER.size
    if len(body) < head:
        raise WalFormatError(f"record {index}: truncated header")
    sequence, txn_id, kind_raw = _HEADER.unpack_from(body, 0)
    try:
        kind = WalKind(kind_raw)
    except ValueError:
        raise WalFormatError(f"record {index}: unknown kind {kind_raw}") from None
    if kind is not WalKind.UNDO:
        _check_end(body, head, index)
        return WalRecord(sequence, txn_id, kind)
    start = head + _UNDO.size
    if len(body) < start:
        raise WalFormatError(f"record {index}: truncated undo header")
    chain, height, branch, snap_len = _UNDO.unpack_from(body, head)
    snapshot = body[start : start + snap_len]
    if len(snapshot) != snap_len:
        raise WalFormatError(f"record {index}: truncated snapshot")
    _check_end(body, start + snap_len, index)
    try:
        updates = _unpack_updates(snapshot)
    except struct.error:
        raise WalFormatError(f"record {index}: truncated snapshot") from None
    except ValueError as exc:  # includes UnicodeDecodeError
        raise WalFormatError(f"record {index}: bad snapshot: {exc}") from None
    return WalRecord(sequence, txn_id, kind, BlockRef(chain, height, branch), updates)


class WriteAheadLog:
    """In-memory log; each append is durable at simulation granularity."""

    def __init__(self, records: Iterable[WalRecord] = ()) -> None:
        self.records: list[WalRecord] = list(records)
        self._check_sequences(self.records)

    @staticmethod
    def _check_sequences(records: list[WalRecord]) -> None:
        last = 0
        for i, rec in enumerate(records):
            if rec.sequence <= last:
                raise WalFormatError(f"record {i}: sequence {rec.sequence} not after {last}")
            last = rec.sequence

    def next_sequence(self) -> int:
        return self.records[-1].sequence + 1 if self.records else 1

    def append(self, txn_id: int, kind: WalKind, block_ref: Optional[BlockRef] = None,
               updates: tuple[AssetUpdate, ...] = ()) -> WalRecord:
        rec = WalRecord(self.next_sequence(), txn_id, kind, block_ref, updates)
        self.records.append(rec)
        return rec

    def terminal_for(self, txn_id: int) -> Optional[WalRecord]:
        for rec in self.records:
            if rec.txn_id == txn_id and rec.kind in (WalKind.ABORT, WalKind.COMMIT):
                return rec
        return None

    def to_bytes(self) -> bytes:
        return b"".join(rec.to_bytes() for rec in self.records)

    @classmethod
    def from_bytes(cls, data: bytes) -> "WriteAheadLog":
        records: list[WalRecord] = []
        off = 0
        while off < len(data):
            index = len(records)
            if off + _LENGTH.size > len(data):
                raise WalFormatError(f"record {index}: truncated length prefix")
            (length,) = _LENGTH.unpack_from(data, off)
            off += _LENGTH.size
            body = data[off : off + length]
            if len(body) != length:
                raise WalFormatError(f"record {index}: truncated body")
            off += length
            records.append(record_from_bytes(body, index))
        return cls(records)

    def write(self, path) -> None:
        with open(path, "wb") as fh:
            fh.write(self.to_bytes())

    @classmethod
    def read(cls, path) -> "WriteAheadLog":
        with open(path, "rb") as fh:
            return cls.from_bytes(fh.read())
