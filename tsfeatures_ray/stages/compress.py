"""Per-series block compression: delta-of-delta timestamps + Gorilla XOR
values (Pelkonen et al., "Gorilla: A Fast, Scalable, In-Memory Time
Series Database", VLDB 2015 -- public algorithm, re-implemented from the
paper's bit layout).

Block format (tsfr1):
  header:  magic 'TSFR1' | n:uint32 | first_ts:int64 | first_val:float64
  ts:      delta_1 raw 64b (if n>1), then delta-of-delta per point:
           '0'                      D == 0
           '10'  + 7  bits          D in [-63, 64]
           '110' + 9  bits          D in [-255, 256]
           '1110'+ 12 bits          D in [-2047, 2048]
           '1111'+ 64 bits          otherwise (microsecond-scale deltas
                                    need more than the paper's 32 bits)
  values:  Gorilla XOR: '0' if xor==0; else '1' then either
           '0' + meaningful bits within the previous leading/length
           window, or '1' + 5b leading + 6b (meaningful-1) + bits.

The codec is exercised by the compression stage (rollup blocks, one per
(key, tier)) -- the round-trip identity is a pytest gate (BASELINE.md).

Scale note: encode runs in ``compress_rollup``'s partition function
(``BlockCodec``), decode wherever blocks are read back, over per-series
blocks (thousands of points each); the bit loop is Python but touches
only rollup-sized data (orders of magnitude below the raw input), so it
never sits on the full-data path.
"""

from __future__ import annotations

import struct

import numpy as np
import pyarrow as pa

import ray

from . import segments as sg
from .derive import by_partition

_MAGIC = b"TSFR1"


class _BitWriter:
    __slots__ = ("buf", "acc", "nbits")

    def __init__(self):
        self.buf = bytearray()
        self.acc = 0
        self.nbits = 0

    def write(self, value: int, bits: int):
        self.acc = (self.acc << bits) | (value & ((1 << bits) - 1))
        self.nbits += bits
        while self.nbits >= 8:
            self.nbits -= 8
            self.buf.append((self.acc >> self.nbits) & 0xFF)
        self.acc &= (1 << self.nbits) - 1

    def finish(self) -> bytes:
        if self.nbits:
            self.buf.append((self.acc << (8 - self.nbits)) & 0xFF)
            self.acc, self.nbits = 0, 0
        return bytes(self.buf)


class _BitReader:
    __slots__ = ("data", "pos")

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0  # bit position

    def read(self, bits: int) -> int:
        out = 0
        remaining = bits
        while remaining > 0:
            byte = self.data[self.pos >> 3]
            avail = 8 - (self.pos & 7)
            take = min(avail, remaining)
            shift = avail - take
            out = (out << take) | ((byte >> shift) & ((1 << take) - 1))
            self.pos += take
            remaining -= take
        return out


_DOD_RANGES = (
    (63, 64, "10", 7),
    (255, 256, "110", 9),
    (2047, 2048, "1110", 12),
)


def _pack_fields(vals: np.ndarray, bits: np.ndarray) -> bytes:
    """Pack a sequence of (value, bit-width) fields MSB-first into bytes
    in ONE vectorized pass: expand every field to its bit positions via
    repeat/offset arithmetic, then np.packbits. Identical output to the
    sequential _BitWriter."""
    if len(vals) == 0:
        return b""
    vals = vals.astype(np.uint64)
    bits = bits.astype(np.int64)
    offsets = np.concatenate([[0], np.cumsum(bits)])
    total = int(offsets[-1])
    field_idx = np.repeat(np.arange(len(vals)), bits)
    bit_in_field = np.arange(total, dtype=np.int64) - offsets[field_idx]
    shift = (bits[field_idx] - 1 - bit_in_field).astype(np.uint64)
    out_bits = ((vals[field_idx] >> shift) & np.uint64(1)).astype(np.uint8)
    return np.packbits(out_bits).tobytes()


def _encode_block_sequential(ts: np.ndarray, values: np.ndarray) -> bytes:
    """Sequential bit-writer encoder: byte-identical to the vectorized
    path, faster for SMALL blocks where numpy's fixed per-call overhead
    exceeds a short Python loop (rollup blocks average tens of points)."""
    n = len(ts)
    head = _MAGIC + struct.pack("<I", n)
    if n == 0:
        return head
    head += struct.pack("<q", int(ts[0])) + struct.pack("<d", float(values[0]))
    w = _BitWriter()
    if n > 1:
        deltas = np.diff(ts)
        w.write(int(deltas[0]) & ((1 << 64) - 1), 64)
        for D in np.diff(deltas).tolist():
            if D == 0:
                w.write(0, 1)
                continue
            for lo, hi, prefix, bits in _DOD_RANGES:
                if -lo <= D <= hi:
                    w.write(int(prefix, 2), len(prefix))
                    w.write(D + lo, bits)
                    break
            else:
                w.write(0b1111, 4)
                w.write(D & ((1 << 64) - 1), 64)
    bits_v = values.view(np.uint64)
    prev = int(bits_v[0])
    prev_lead, prev_trail = -1, -1
    for cur in bits_v[1:].tolist():
        xor = prev ^ cur
        if xor == 0:
            w.write(0, 1)
        else:
            w.write(1, 1)
            lead = 64 - xor.bit_length()
            if lead > 31:
                lead = 31
            trail = (xor & -xor).bit_length() - 1
            if prev_lead >= 0 and lead >= prev_lead and trail >= prev_trail:
                w.write(0, 1)
                w.write(xor >> prev_trail, 64 - prev_lead - prev_trail)
            else:
                mbits = 64 - lead - trail
                w.write(1, 1)
                w.write(lead, 5)
                w.write(mbits - 1, 6)
                w.write(xor >> trail, mbits)
                prev_lead, prev_trail = lead, trail
        prev = cur
    return head + w.finish()


def encode_block(ts: np.ndarray, values: np.ndarray) -> bytes:
    """Compress parallel (int64 timestamps, float64 values) arrays.

    Bit layout is fixed (round-trip identity pytest-pinned). Small
    blocks use the sequential writer; large blocks build vectorized
    (value, width) field arrays -- timestamp delta-of-deltas fully
    vectorized, Gorilla control decisions in a light loop over CHANGED
    values only -- packed in one pass (_pack_fields). Both paths are
    verified byte-identical."""
    ts = np.asarray(ts, dtype=np.int64)
    values = np.asarray(values, dtype=np.float64)
    n = len(ts)
    if n != len(values):
        raise ValueError("ts/values length mismatch")
    if n < 256:
        return _encode_block_sequential(ts, values)
    head = _MAGIC + struct.pack("<I", n)
    if n == 0:
        return head
    head += struct.pack("<q", int(ts[0])) + struct.pack("<d", float(values[0]))
    fvals: list[np.ndarray] = []
    fbits: list[np.ndarray] = []
    # --- timestamps: classify every dod vectorized, emit merged
    # (prefix<<payload | payload) fields; the 64-bit escape keeps prefix
    # and payload as two fields (68 bits would overflow uint64) ---
    if n > 1:
        deltas = np.diff(ts)
        fvals.append(np.array([np.int64(deltas[0])]).astype(np.uint64))
        fbits.append(np.array([64]))
        dods = np.diff(deltas)
        if len(dods):
            m = len(dods)
            v = np.zeros((m, 2), dtype=np.uint64)
            b = np.zeros((m, 2), dtype=np.int64)
            b[:, 0] = 1  # default: single '0' bit, value 0 (dod == 0)
            done = dods == 0
            for lo, hi, prefix, pbits in _DOD_RANGES:
                sel = ~done & (dods >= -lo) & (dods <= hi)
                pfx = int(prefix, 2)
                v[sel, 0] = (
                    (np.uint64(pfx) << np.uint64(pbits))
                    | (dods[sel] + lo).astype(np.uint64)
                )
                b[sel, 0] = len(prefix) + pbits
                done |= sel
            esc = ~done
            v[esc, 0] = 0b1111
            b[esc, 0] = 4
            v[esc, 1] = dods[esc].astype(np.uint64)
            b[esc, 1] = 64
            keep = b.reshape(-1) > 0
            fvals.append(v.reshape(-1)[keep])
            fbits.append(b.reshape(-1)[keep])
    # --- values (Gorilla XOR): lead/trail vectorized; the sequential
    # control-window chain loops only over points whose value CHANGED ---
    bits_v = values.view(np.uint64)
    xors = bits_v[:-1] ^ bits_v[1:]
    ctrl = np.zeros(n - 1, dtype=np.uint64)  # '0' single bit when xor==0
    cbits = np.ones(n - 1, dtype=np.int64)
    changed = np.flatnonzero(xors)
    if len(changed):
        xs = xors[changed]

        def popcount(a: np.ndarray) -> np.ndarray:
            return (
                np.unpackbits(a.view(np.uint8)).reshape(len(a), 64).sum(axis=1)
            ).astype(np.int64)

        # exact leading-zero count: smear all bits below the msb, then
        # 64 - popcount (no float log2 -- it rounds near powers of two)
        y = xs.copy()
        for s in (1, 2, 4, 8, 16, 32):
            y |= y >> np.uint64(s)
        leads = np.minimum(64 - popcount(y), 31)
        trails = popcount((xs & (~xs + np.uint64(1))) - np.uint64(1))
        # control-window chain: plain-int loop over CHANGED points only
        # (appends; numpy-scalar ops here would cost more than they save)
        pv0: list[int] = []
        pb0: list[int] = []
        pv1: list[int] = []
        pb1: list[int] = []
        prev_lead, prev_trail = -1, -1
        for lead, trail, xor in zip(leads.tolist(), trails.tolist(), xs.tolist()):
            if prev_lead >= 0 and lead >= prev_lead and trail >= prev_trail:
                # '1''0' control, then the window payload as its OWN
                # field (mbits can be 64 -- a merged field would overflow)
                pv0.append(0b10)
                pb0.append(2)
                pv1.append(xor >> prev_trail)
                pb1.append(64 - prev_lead - prev_trail)
            else:
                mbits = 64 - lead - trail
                # '1''1' + 5b lead + 6b mbits-1 as one field, payload next
                pv0.append((0b11 << 11) | (lead << 6) | (mbits - 1))
                pb0.append(13)
                pv1.append(xor >> trail)
                pb1.append(mbits)
                prev_lead, prev_trail = lead, trail
        payload_v = np.column_stack(
            [np.array(pv0, dtype=np.uint64), np.array(pv1, dtype=np.uint64)]
        )
        payload_b = np.column_stack(
            [np.array(pb0, dtype=np.int64), np.array(pb1, dtype=np.int64)]
        )
        # splice: replace the single '0' control of changed points with
        # their payload fields
        all_v = np.zeros((n - 1, 3), dtype=np.uint64)
        all_b = np.zeros((n - 1, 3), dtype=np.int64)
        all_b[:, 0] = cbits
        all_v[:, 0] = ctrl
        all_v[changed, 0] = payload_v[:, 0]
        all_b[changed, 0] = payload_b[:, 0]
        all_v[changed, 1] = payload_v[:, 1]
        all_b[changed, 1] = payload_b[:, 1]
        keep = all_b.reshape(-1) > 0
        fvals.append(all_v.reshape(-1)[keep])
        fbits.append(all_b.reshape(-1)[keep])
    elif n > 1:
        fvals.append(ctrl)
        fbits.append(cbits)
    if not fvals:
        return head
    return head + _pack_fields(np.concatenate(fvals), np.concatenate(fbits))


def decode_block(data: bytes) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of encode_block (exact round-trip, including NaN bits)."""
    if data[:5] != _MAGIC:
        raise ValueError("bad magic")
    (n,) = struct.unpack_from("<I", data, 5)
    ts = np.empty(n, dtype=np.int64)
    vals = np.empty(n, dtype=np.float64)
    if n == 0:
        return ts, vals
    (t0,) = struct.unpack_from("<q", data, 9)
    (v0,) = struct.unpack_from("<d", data, 17)
    ts[0] = t0
    vals[0] = v0
    r = _BitReader(data[25:])
    # --- timestamps ---
    if n > 1:
        delta = r.read(64)
        if delta >= 1 << 63:
            delta -= 1 << 64
        ts[1] = ts[0] + delta
        for i in range(2, n):
            if r.read(1) == 0:  # '0'
                D = 0
            elif r.read(1) == 0:  # '10'
                D = r.read(7) - 63
            elif r.read(1) == 0:  # '110'
                D = r.read(9) - 255
            elif r.read(1) == 0:  # '1110'
                D = r.read(12) - 2047
            else:  # '1111'
                D = r.read(64)
                if D >= 1 << 63:
                    D -= 1 << 64
            delta += D
            ts[i] = ts[i - 1] + delta
    # --- values ---
    bits_v = vals.view(np.uint64)
    prev = int(bits_v[0])
    lead, trail, mbits = 0, 0, 0
    for i in range(1, n):
        if r.read(1) == 0:
            bits_v[i] = prev
        else:
            if r.read(1) == 0:
                xor = r.read(mbits) << trail
            else:
                lead = r.read(5)
                mbits = r.read(6) + 1
                trail = 64 - lead - mbits
                xor = r.read(mbits) << trail
            prev ^= xor
            bits_v[i] = prev
    return ts, vals


# ---------------------------------------------------------------------------
# Ray stage: compress rollup series into per-(key, tier) binary blocks
# ---------------------------------------------------------------------------

class BlockCodec:
    """One compressed block per (key, tier) of rollup rows (metric picked
    at construction): the partition function of ``compress_rollup``,
    Arrow table in, Arrow table out (key, tier, n_points, start_ts_us,
    block), rows by (key, tier)."""

    def __init__(self, key: str = "conv_id", metric: str = "token_len_sum"):
        self.key = key
        self.metric = metric

    def __call__(self, t: pa.Table) -> pa.Table:
        order = np.lexsort((sg.ticks(t["bucket_us"]), sg.codes(t["tier"]), sg.codes(t[self.key])))
        ts_all = sg.ticks(t["bucket_us"])[order]
        vals_all = sg.floats(t[self.metric])[order]
        starts = np.flatnonzero(sg.changes(sg.codes(t[self.key])[order],
                                           sg.codes(t["tier"])[order]))
        ends = np.r_[starts[1:], len(order)]
        blocks = [encode_block(ts_all[s0:e0], vals_all[s0:e0]) for s0, e0 in zip(starts, ends)]
        return pa.Table.from_arrays(
            [sg.take(t[self.key], order[starts]), sg.take(t["tier"], order[starts]),
             pa.array(ends - starts, type=pa.int64()), pa.array(ts_all[starts]),
             pa.array(blocks, type=pa.binary())],
            names=[self.key, "tier", "n_points", "start_ts_us", "block"],
        )


def compress_rollup(
    rollup_ds: "ray.data.Dataset",
    key: str = "conv_id",
    metric: str = "token_len_sum",
    num_parts: int | None = None,
    pre_partitioned: bool = False,
) -> "ray.data.Dataset":
    """Rollup Dataset -> one Gorilla block per (key, tier), through one
    ``by_partition`` exchange on ``key``. A materialized rollup that is
    already partitioned on ``key`` (an exchange's own output) runs no
    sort: ``by_partition`` sees that from its blocks. ``pre_partitioned``
    is ignored; it is accepted until the benchmark's callers stop
    passing it."""
    codec = BlockCodec(key=key, metric=metric)

    def encode_partition(t: pa.Table) -> pa.Table:
        return codec(t)

    return by_partition(rollup_ds, key, encode_partition, num_parts=num_parts,
                        batch_format="pyarrow")
