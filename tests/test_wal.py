import struct

import pytest
from hypothesis import given, settings, strategies as st

from topocbt.chain import AssetUpdate, BlockRef
from topocbt.wal import WalFormatError, WalKind, WalRecord, WriteAheadLog


def sample_log():
    wal = WriteAheadLog()
    wal.append(1, WalKind.UNDO, BlockRef(1, 3, 0), (AssetUpdate("alice", "bob", "ETH", 10),))
    wal.append(1, WalKind.UNDO, BlockRef(2, 2, 1), (AssetUpdate("bob", "cindy", "BTC", 1),))
    wal.append(1, WalKind.COMMIT)
    wal.append(2, WalKind.UNDO, BlockRef(3, 1, 0), ())
    wal.append(2, WalKind.ABORT)
    return wal


def test_sequences_increase():
    wal = sample_log()
    assert [r.sequence for r in wal.records] == [1, 2, 3, 4, 5]


def test_terminal_lookup():
    wal = sample_log()
    assert wal.terminal_for(1).kind is WalKind.COMMIT
    assert wal.terminal_for(2).kind is WalKind.ABORT
    assert wal.terminal_for(9) is None


def test_binary_round_trip(tmp_path):
    wal = sample_log()
    path = tmp_path / "log.wal"
    wal.write(path)
    loaded = WriteAheadLog.read(path)
    assert loaded.records == wal.records


def test_undo_snapshot_survives_round_trip():
    wal = sample_log()
    loaded = WriteAheadLog.from_bytes(wal.to_bytes())
    rec = loaded.records[0]
    assert rec.block_ref == BlockRef(1, 3, 0)
    assert rec.updates == (AssetUpdate("alice", "bob", "ETH", 10),)


def test_an_undo_snapshot_is_its_updates_as_block_records_without_their_tag():
    updates = (AssetUpdate("alice", "bob", "ETH", 10), AssetUpdate("b\u00e9", "cindy", "BTC", 2**64 - 1))
    record = WalRecord(1, 7, WalKind.UNDO, BlockRef(2, 3, 1), updates).to_bytes()
    snapshot = struct.pack(">H", len(updates)) + b"".join(u.to_bytes()[1:] for u in updates)
    # u32 length, u64 sequence, u64 txn id, u8 kind, u32 x 3 planned ref, u32 snapshot length
    assert struct.unpack_from(">I", record, 33) == (len(snapshot),) and record[37:] == snapshot


def test_out_of_order_sequence_rejected():
    good = sample_log().to_bytes()
    # swap the first two records on the wire
    (len0,) = struct.unpack_from(">I", good, 0)
    first = good[: 4 + len0]
    (len1,) = struct.unpack_from(">I", good, 4 + len0)
    second = good[4 + len0 : 8 + len0 + len1]
    rest = good[8 + len0 + len1 :]
    swapped = second + first + rest
    with pytest.raises(WalFormatError, match="record 1: sequence"):
        WriteAheadLog.from_bytes(swapped)


def test_truncated_record_rejected():
    data = sample_log().to_bytes()
    with pytest.raises(WalFormatError, match="truncated"):
        WriteAheadLog.from_bytes(data[:-3])


def test_unknown_kind_rejected():
    rec = WalRecord(1, 1, WalKind.COMMIT)
    raw = bytearray(rec.to_bytes())
    raw[4 + 16] = 7  # kind byte
    with pytest.raises(WalFormatError, match="unknown kind"):
        WriteAheadLog.from_bytes(bytes(raw))


def undo_record(snapshot: bytes, sequence: int = 1) -> bytes:
    body = struct.pack(">QQB", sequence, 1, int(WalKind.UNDO))
    body += struct.pack(">IIII", 1, 3, 0, len(snapshot)) + snapshot
    return struct.pack(">I", len(body)) + body


def update_bytes(frm: bytes, to: bytes, asset: bytes, amount: int) -> bytes:
    return b"".join(struct.pack(">H", len(s)) + s for s in (frm, to, asset)) + struct.pack(">Q", amount)


def test_truncated_undo_header_rejected():
    body = struct.pack(">QQB", 1, 1, int(WalKind.UNDO)) + b"\x00" * 4
    with pytest.raises(WalFormatError, match="record 0: truncated undo header"):
        WriteAheadLog.from_bytes(struct.pack(">I", len(body)) + body)


@pytest.mark.parametrize(
    "snapshot, message",
    [
        (b"", "truncated snapshot"),
        (struct.pack(">H", 2) + update_bytes(b"a", b"b", b"X", 1), "truncated snapshot"),
        (struct.pack(">H", 1) + struct.pack(">H", 9) + b"ab", "runs past the end"),
        (struct.pack(">H", 1) + update_bytes(b"\xff", b"b", b"X", 1), "utf-8"),
        (struct.pack(">H", 1) + update_bytes(b"a", b"b", b"X", 0), "amount must be positive"),
        (struct.pack(">H", 0) + b"\x00", "1 bytes after the last update"),
    ],
    ids=["empty", "count-past-end", "string-past-end", "bad-utf8", "zero-amount", "trailing-bytes"],
)
def test_malformed_snapshot_names_its_record(snapshot, message):
    data = undo_record(struct.pack(">H", 0), sequence=1) + undo_record(snapshot, sequence=2)
    with pytest.raises(WalFormatError, match=f"record 1: .*{message}"):
        WriteAheadLog.from_bytes(data)


@pytest.mark.parametrize(
    "record, extra",
    [
        (WalRecord(2, 1, WalKind.ABORT).to_bytes(), b"\x00"),
        (WalRecord(2, 1, WalKind.COMMIT).to_bytes(), b"\x01\x02"),
        (undo_record(struct.pack(">H", 0), sequence=2), b"\x00\x00\x00"),
    ],
    ids=["abort", "commit", "undo-after-snapshot"],
)
def test_bytes_after_the_record_rejected(record, extra):
    body = record[4:] + extra
    data = WalRecord(1, 1, WalKind.COMMIT).to_bytes() + struct.pack(">I", len(body)) + body
    with pytest.raises(WalFormatError, match=f"^record 1: {len(extra)} bytes after the record$"):
        WriteAheadLog.from_bytes(data)


def test_constructor_checks_sequences():
    with pytest.raises(WalFormatError):
        WriteAheadLog([WalRecord(2, 1, WalKind.COMMIT), WalRecord(1, 1, WalKind.ABORT)])


names = st.text(alphabet="abcdefXYZ", min_size=1, max_size=6)


@given(
    st.lists(
        st.tuples(names, names, names, st.integers(1, 10**6),
                  st.integers(1, 9), st.integers(0, 50), st.integers(0, 3)),
        min_size=1, max_size=8,
    )
)
@settings(max_examples=50, deadline=None)
def test_round_trip_random_logs(entries):
    wal = WriteAheadLog()
    for frm, to, asset, amount, chain, height, branch in entries:
        wal.append(1, WalKind.UNDO, BlockRef(chain, height, branch),
                   (AssetUpdate(frm, to, asset, amount),))
    assert WriteAheadLog.from_bytes(wal.to_bytes()).records == wal.records


updates = st.tuples(names, names, names, st.integers(1, 2**64 - 1)).map(lambda t: AssetUpdate(*t))
records = st.one_of(
    st.tuples(st.just(WalKind.UNDO), st.builds(BlockRef, st.integers(1, 9), st.integers(0, 50),
                                               st.integers(0, 3)),
              st.lists(updates, max_size=3).map(tuple)),
    st.tuples(st.sampled_from([WalKind.ABORT, WalKind.COMMIT]), st.none(), st.just(())),
)
# (record, offset into its body, bytes removed there, bytes put there);
# the record index and the offset wrap around
mutations = st.tuples(st.integers(0, 7), st.integers(0, 200), st.integers(0, 3), st.binary(max_size=3))


@given(st.lists(records, min_size=1, max_size=6), st.lists(mutations, min_size=1, max_size=4),
       st.booleans())
@settings(max_examples=300, deadline=None)
def test_mutated_log_is_rejected_or_round_trips(entries, edits, fix_lengths):
    wal = WriteAheadLog()
    for kind, ref, ups in entries:
        wal.append(1, kind, ref, ups)
    bodies = [bytearray(rec.to_bytes()[4:]) for rec in wal.records]
    prefixes = [len(body) for body in bodies]
    for which, offset, removed, inserted in edits:
        body = bodies[which % len(bodies)]
        at = offset % (len(body) + 1)
        body[at : at + removed] = inserted
    data = b"".join(
        struct.pack(">I", len(body) if fix_lengths else prefix) + bytes(body)
        for body, prefix in zip(bodies, prefixes)
    )
    try:
        loaded = WriteAheadLog.from_bytes(data)
    except WalFormatError:
        return
    assert loaded.to_bytes() == data


def test_update_count_fits_the_undo_record_field():
    # an undo snapshot counts its updates as '>H'
    update = AssetUpdate("a", "b", "X", 1)
    wal = WriteAheadLog()
    wal.append(1, WalKind.UNDO, BlockRef(1, 1), (update,) * (2**16 - 1))
    assert len(WriteAheadLog.from_bytes(wal.to_bytes()).records[0].updates) == 2**16 - 1
    wal.append(1, WalKind.UNDO, BlockRef(1, 2), (update,) * 2**16)
    with pytest.raises(ValueError, match="^65536 updates do not fit an undo record's 16-bit count$"):
        wal.to_bytes()
