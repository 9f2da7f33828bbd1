"""Persistent, content-addressed solve store (disk layer under the cache).

The in-memory :class:`~repro.fastpath.cache.SolveCache` dies with the
process; this module persists the two expensive products of the solver
pipeline — :class:`~repro.fastpath.compiled.CompiledChip` array tables and
converged :class:`~repro.atm.chip_sim.ChipSteadyState` fixed points — plus
the characterization transcripts of :mod:`repro.core.fleet`, as versioned,
checksummed records in an append-only data file with a flat index.

Keys are content addresses.  A compiled record is keyed by the chip's
``"solver-v2"`` sha256 fingerprint (a hash of the packed bytes of every
physical parameter the solver reads); a state record extends that with
the assignment row and the warm-start seed; a characterization record is
keyed by ``"char-v2"``, a hash of the packed probe-visible physics plus
the RNG recipe.  Because the key *is* the physics, staleness is
impossible by construction: any change to an input produces a different
key and therefore a miss — there is no invalidation protocol to get
wrong, and records never need a timestamp.  Bumping a key version
leaves the old records unread; ``prune(max_bytes=...)`` evicts them
oldest-first.

Layout (two files under one directory):

* ``store.idx`` — 16-byte header (magic + format version) followed by
  fixed 56-byte entries: key (32 bytes), record kind, crc32, offset and
  length into the data file.  The index is rewritten never, appended
  always; the *last* entry for a key wins at open time.
* ``store.dat`` — 16-byte header followed by raw record payloads, each
  8-byte aligned so numpy arrays can be viewed zero-copy straight off the
  read-only mmap (``--jobs N`` workers all map the same physical pages).

Crash and corruption discipline: writes append payload first, index entry
second, so a torn write leaves only unreferenced data bytes.  Every read
re-checks bounds (catches truncation) and crc32 (catches bit flips); a
failed check counts into ``corrupt_entries`` and reads as a miss — the
caller recomputes, never crashes, and never sees bad physics.  An index
whose header does not match this format version is treated as an empty,
read-only store (again counted as corrupt), so downgrades cannot
misinterpret records.
"""

from __future__ import annotations

import hashlib
import mmap
import os
import struct
import zlib
from pathlib import Path

from ..errors import ConfigurationError

#: On-disk format version (bumped on any layout change; a mismatched
#: store reads as empty rather than being misinterpreted).
STORE_FORMAT_VERSION = 1

#: Record kinds.
KIND_COMPILED = 1  #: CompiledChip array tables, keyed by solver fingerprint
KIND_STATE = 2  #: converged ChipSteadyState, keyed by (fingerprint, row, warm)
KIND_CHAR = 3  #: characterization transcript, keyed by probe-visible physics

KIND_NAMES = {KIND_COMPILED: "compiled", KIND_STATE: "state", KIND_CHAR: "char"}

_IDX_MAGIC = b"RPROSIDX"
_DAT_MAGIC = b"RPROSDAT"
_HEADER = struct.Struct("<8sII")  # magic, version, reserved
_ENTRY = struct.Struct("<32sBxxxIQQ")  # key, kind, crc32, offset, length
_HEADER_SIZE = _HEADER.size  # 16
_ENTRY_SIZE = _ENTRY.size  # 56

#: Counter keys of :meth:`SolveStore.stats` (the mergeable-partial shape).
STAT_KEYS = (
    "hits",
    "misses",
    "writes",
    "corrupt_entries",
    "compiled_hits",
    "compiled_misses",
    "state_hits",
    "state_misses",
    "char_hits",
    "char_misses",
)


def _pad8(n: int) -> int:
    return (8 - n % 8) % 8


class SolveStore:
    """Append-only content-addressed record store (see module docstring).

    ``writable=False`` opens read-only — pool workers use this so N
    processes share the same mmap'd pages and none of them can race a
    write.  A read-only open of a missing directory is a valid empty
    store (every get misses), so cold worker starts never fail.
    """

    def __init__(self, root: str | Path, *, writable: bool = True):
        self.root = Path(root)
        self.writable = bool(writable)
        self.usable = True
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.corrupt_entries = 0
        self.kind_hits = {kind: 0 for kind in KIND_NAMES}
        self.kind_misses = {kind: 0 for kind in KIND_NAMES}
        self._index: dict[tuple[int, bytes], tuple[int, int, int]] = {}
        self._mm: mmap.mmap | None = None
        self._mapped_size = 0
        self._dat_size = 0
        self._idx_handle = None
        self._dat_handle = None
        if self.writable:
            self.root.mkdir(parents=True, exist_ok=True)
        self._open()

    # -- open / load ---------------------------------------------------------

    @property
    def idx_path(self) -> Path:
        return self.root / "store.idx"

    @property
    def dat_path(self) -> Path:
        return self.root / "store.dat"

    def _open(self) -> None:
        idx_exists = self.idx_path.exists()
        dat_exists = self.dat_path.exists()
        if self.writable and not (idx_exists and dat_exists):
            self.idx_path.write_bytes(
                _HEADER.pack(_IDX_MAGIC, STORE_FORMAT_VERSION, 0)
            )
            self.dat_path.write_bytes(
                _HEADER.pack(_DAT_MAGIC, STORE_FORMAT_VERSION, 0)
            )
            idx_exists = dat_exists = True
        if not (idx_exists and dat_exists):
            # Read-only view of a store nobody has written yet: empty.
            self.usable = False
            return
        idx_bytes = self.idx_path.read_bytes()
        self._dat_size = self.dat_path.stat().st_size
        with self.dat_path.open("rb") as handle:
            dat_header = handle.read(_HEADER_SIZE)
        if not self._check_header(idx_bytes, _IDX_MAGIC) or not self._check_header(
            dat_header, _DAT_MAGIC
        ):
            # Foreign or future format: never guess at record layout.
            self.usable = False
            self.corrupt_entries += 1
            return
        body = idx_bytes[_HEADER_SIZE:]
        tail = len(body) % _ENTRY_SIZE
        if tail:
            # Torn final index append (crash mid-write): drop the tail.
            self.corrupt_entries += 1
            body = body[: len(body) - tail]
        for pos in range(0, len(body), _ENTRY_SIZE):
            key, kind, crc, offset, length = _ENTRY.unpack_from(body, pos)
            self._index[(kind, key)] = (offset, length, crc)

    @staticmethod
    def _check_header(header: bytes, magic: bytes) -> bool:
        if len(header) < _HEADER_SIZE:
            return False
        got_magic, version, _reserved = _HEADER.unpack_from(header)
        return got_magic == magic and version == STORE_FORMAT_VERSION

    def _data_view(self, end: int) -> mmap.mmap | None:
        """Read-only mmap of the data file covering at least ``end`` bytes."""
        if self._mm is None or end > self._mapped_size:
            self._release_map()
            size = self.dat_path.stat().st_size if self.dat_path.exists() else 0
            if end > size:
                return None
            with self.dat_path.open("rb") as handle:
                self._mm = mmap.mmap(
                    handle.fileno(), size, access=mmap.ACCESS_READ
                )
            self._mapped_size = size
        return self._mm

    def _release_map(self) -> None:
        """Drop the current mapping.

        Zero-copy readers may still hold views into it (a fleet chunk
        keeps its store-served records and compiled tables until its
        solve); ``mmap.close`` then refuses (exported pointers), and the
        mapping is unmapped when the last view is released.
        """
        if self._mm is not None:
            try:
                self._mm.close()
            except BufferError:
                pass
            self._mm = None
        self._mapped_size = 0

    # -- read / write --------------------------------------------------------

    def _load(self, kind: int, key: bytes) -> memoryview | None:
        """Checked payload view, counting corruption but not hits/misses."""
        entry = self._index.get((kind, key))
        if entry is None:
            return None
        offset, length, crc = entry
        mm = self._data_view(offset + length)
        if mm is not None and offset >= _HEADER_SIZE:
            candidate = memoryview(mm)[offset : offset + length]
            if zlib.crc32(candidate) == crc:
                return candidate
        # Truncated data file or flipped bits: forget the entry so the
        # cost is paid once, and fall back to recompute.
        self.corrupt_entries += 1
        del self._index[(kind, key)]
        return None

    def get(self, kind: int, key: bytes) -> memoryview | None:
        """Payload bytes for ``(kind, key)``, or ``None`` (counted as a miss).

        The returned memoryview aliases the read-only mmap — callers may
        build numpy views on it zero-copy, and must not assume it stays
        valid across :meth:`prune` or :meth:`close`.  A caller whose
        decoder then refuses the payload calls :meth:`reject`.
        """
        view = self._load(kind, key)
        if view is None:
            self.misses += 1
            self.kind_misses[kind] += 1
            return None
        self.hits += 1
        self.kind_hits[kind] += 1
        return view

    def reject(self, kind: int, key: bytes) -> None:
        """Recount the :meth:`get` that just found ``(kind, key)`` as a miss.

        For a record whose decoder refused it (layout or shape mismatch):
        the caller recomputes, so the read served nothing.  The entry is
        forgotten, as a failed checksum's is, so the next read misses at
        once unless the recomputed record is written back.
        """
        self.hits -= 1
        self.kind_hits[kind] -= 1
        self.misses += 1
        self.kind_misses[kind] += 1
        self._index.pop((kind, key), None)

    def contains(self, kind: int, key: bytes) -> bool:
        """Index membership without touching counters (no payload check)."""
        return (kind, key) in self._index

    def put(self, kind: int, key: bytes, payload: bytes) -> bool:
        """Append one record; returns ``False`` when the store drops it.

        Writes are dropped (not errors) on read-only or unusable stores:
        persistence is an optimization, so a worker that cannot write must
        behave exactly like one with no store at all.
        """
        if not self.writable or not self.usable:
            return False
        if kind not in KIND_NAMES:
            raise ConfigurationError(f"unknown record kind {kind}")
        if len(key) != 32:
            raise ConfigurationError("record keys must be 32-byte digests")
        if self._dat_handle is None:
            self._dat_handle = self.dat_path.open("ab")
            self._idx_handle = self.idx_path.open("ab")
        pad = _pad8(self._dat_size)
        if pad:
            self._dat_handle.write(b"\x00" * pad)
            self._dat_size += pad
        offset = self._dat_size
        self._dat_handle.write(payload)
        self._dat_handle.flush()
        self._dat_size += len(payload)
        crc = zlib.crc32(payload)
        self._idx_handle.write(_ENTRY.pack(key, kind, crc, offset, len(payload)))
        self._idx_handle.flush()
        self._index[(kind, key)] = (offset, len(payload), crc)
        self.writes += 1
        return True

    # -- stats / maintenance -------------------------------------------------

    def __len__(self) -> int:
        return len(self._index)

    def stats(self) -> dict[str, int]:
        """Counter snapshot in the mergeable-partial shape.

        The :data:`STAT_KEYS` counters plus an ``entries`` size (not a
        counter — excluded from merges), so pool workers can ship their
        store activity home as :func:`diff_stats` deltas.
        """
        out = {
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "corrupt_entries": self.corrupt_entries,
        }
        for kind, name in KIND_NAMES.items():
            out[f"{name}_hits"] = self.kind_hits[kind]
            out[f"{name}_misses"] = self.kind_misses[kind]
        out["entries"] = len(self._index)
        return out

    def merge_stats(self, delta: dict[str, int]) -> None:
        """Fold a worker's :func:`diff_stats` delta into this store's counters."""
        self.hits += int(delta.get("hits", 0))
        self.misses += int(delta.get("misses", 0))
        self.writes += int(delta.get("writes", 0))
        self.corrupt_entries += int(delta.get("corrupt_entries", 0))
        for kind, name in KIND_NAMES.items():
            self.kind_hits[kind] += int(delta.get(f"{name}_hits", 0))
            self.kind_misses[kind] += int(delta.get(f"{name}_misses", 0))

    def verify(self) -> dict:
        """Walk every indexed record, re-checking bounds and checksums.

        Returns a deterministic report dict (rendered by
        ``repro store verify``); corrupt records found here are counted
        into ``corrupt_entries`` and dropped from the live index, exactly
        as a read would have done.
        """
        per_kind = {name: 0 for name in KIND_NAMES.values()}
        corrupt = 0
        referenced = 0
        for (kind, key) in list(self._index):
            _offset, length, _crc = self._index[(kind, key)]
            if self._load(kind, key) is None:
                corrupt += 1
            else:
                per_kind[KIND_NAMES[kind]] += 1
                referenced += length
        data_bytes = self.dat_path.stat().st_size if self.dat_path.exists() else 0
        return {
            "path": str(self.root),
            "format_version": STORE_FORMAT_VERSION,
            "usable": self.usable,
            "entries": len(self._index),
            "entries_by_kind": per_kind,
            "corrupt": corrupt + (0 if self.usable else 1),
            "data_bytes": data_bytes,
            # Superseded records and torn-write tails: reclaimable by prune.
            "unreferenced_bytes": max(0, data_bytes - _HEADER_SIZE - referenced),
        }

    def prune(self, max_bytes: int | None = None) -> dict:
        """Compact the store: drop corrupt, superseded and torn records.

        Live records are rewritten in their original append order into
        fresh files which atomically replace the old ones.  With
        ``max_bytes``, oldest records are dropped first until the data
        file fits the budget.  Returns a report dict.
        """
        if not self.writable:
            raise ConfigurationError("cannot prune a read-only store")
        if max_bytes is not None and max_bytes < _HEADER_SIZE:
            raise ConfigurationError(
                f"max_bytes must be >= {_HEADER_SIZE}, got {max_bytes}"
            )
        live: list[tuple[int, bytes, bytes]] = []  # (kind, key, payload)
        for (kind, key) in sorted(
            self._index, key=lambda item: self._index[item][0]
        ):
            view = self._load(kind, key)
            if view is not None:
                live.append((kind, key, bytes(view)))
        if max_bytes is not None:
            while live:
                total = _HEADER_SIZE + sum(
                    len(payload) + _pad8(len(payload)) for _, _, payload in live
                )
                if total <= max_bytes:
                    break
                live.pop(0)
        kept = len(live)
        self.close()
        tmp_idx = self.idx_path.with_suffix(".idx.tmp")
        tmp_dat = self.dat_path.with_suffix(".dat.tmp")
        with tmp_dat.open("wb") as dat, tmp_idx.open("wb") as idx:
            dat.write(_HEADER.pack(_DAT_MAGIC, STORE_FORMAT_VERSION, 0))
            idx.write(_HEADER.pack(_IDX_MAGIC, STORE_FORMAT_VERSION, 0))
            offset = _HEADER_SIZE
            for kind, key, payload in live:
                pad = _pad8(offset)
                if pad:
                    dat.write(b"\x00" * pad)
                    offset += pad
                dat.write(payload)
                idx.write(
                    _ENTRY.pack(key, kind, zlib.crc32(payload), offset, len(payload))
                )
                offset += len(payload)
        os.replace(tmp_dat, self.dat_path)
        os.replace(tmp_idx, self.idx_path)
        self.usable = True
        self._index.clear()
        self._open()
        return {
            "path": str(self.root),
            "kept": kept,
            "entries": len(self._index),
            "data_bytes": self.dat_path.stat().st_size,
        }

    def close(self) -> None:
        """Release the mmap and append handles (records stay on disk).

        Views already handed out stay valid (:meth:`_release_map`); this
        store object stops handing out new ones.
        """
        self._release_map()
        for handle in (self._idx_handle, self._dat_handle):
            if handle is not None:
                handle.close()
        self._idx_handle = self._dat_handle = None


def diff_stats(after: dict[str, int], before: dict[str, int]) -> dict[str, int]:
    """Counter delta between two :meth:`SolveStore.stats` snapshots.

    Pool workers bracket each chunk with snapshots and ship the delta, so
    a long-lived worker process never double-counts across chunks.
    """
    return {key: after[key] - before.get(key, 0) for key in STAT_KEYS}


# -- record keys ------------------------------------------------------------


def compiled_key(fingerprint: str) -> bytes:
    """Store key of a compiled record: the solver fingerprint itself."""
    return bytes.fromhex(fingerprint)


def state_key(fingerprint: str, row: tuple, warm_start) -> bytes:
    """Content address of one converged solve.

    Covers everything that determines the fixed point *and* its iteration
    trajectory: the chip fingerprint, the solver-visible fields of each
    assignment (mode, reduction, cap, workload activity — nothing else
    reaches the arithmetic), and the warm-start frequency vector.  Warm
    and cold solves of the same row agree only within the solver
    tolerance, not bitwise, so the warm seed must key separately for the
    stored state to be byte-identical to a live solve.
    """
    digest = hashlib.sha256()
    digest.update(b"state-v1\n")
    digest.update(fingerprint.encode("ascii"))
    for assignment in row:
        cap = assignment.freq_cap_mhz
        digest.update(
            (
                f"\n{assignment.mode.value}:{assignment.reduction_steps}:"
                f"{'none' if cap is None else float(cap).hex()}:"
                f"{float(assignment.workload.activity).hex()}"
            ).encode("ascii")
        )
    if warm_start is None:
        digest.update(b"\ncold")
    else:
        for freq in warm_start.freqs_mhz:
            digest.update(b"\nw" + float(freq).hex().encode("ascii"))
    return digest.digest()


# -- record payload codecs ---------------------------------------------------

_STATE_PREFIX = struct.Struct("<IIdddI4x")  # layout, n, power, vdd, temp, iters
_STATE_LAYOUT = 1
_COMPILED_PREFIX = struct.Struct("<IIII6d")  # layout, n_cores, max_codes, pad
_COMPILED_LAYOUT = 1


def encode_state(state) -> bytes:
    """Serialize a :class:`ChipSteadyState` (assignments travel in the key)."""
    n = len(state.freqs_mhz)
    return _STATE_PREFIX.pack(
        _STATE_LAYOUT,
        n,
        state.chip_power_w,
        state.vdd,
        state.temperature_c,
        state.iterations,
    ) + struct.pack(f"<{n}d", *state.freqs_mhz)


def decode_state(payload, row):
    """Rebuild a :class:`ChipSteadyState`, reattaching the caller's row.

    Returns ``None`` on a layout-version or shape mismatch (the caller
    falls back to a live solve, same as any other miss).
    """
    from ..atm.chip_sim import ChipSteadyState

    if len(payload) < _STATE_PREFIX.size:
        return None
    layout, n, power, vdd, temperature, iterations = _STATE_PREFIX.unpack_from(
        payload
    )
    if layout != _STATE_LAYOUT or n != len(row):
        return None
    if len(payload) != _STATE_PREFIX.size + 8 * n:
        return None
    freqs = struct.unpack_from(f"<{n}d", payload, _STATE_PREFIX.size)
    return ChipSteadyState(
        freqs_mhz=tuple(float(f) for f in freqs),
        chip_power_w=float(power),
        vdd=float(vdd),
        temperature_c=float(temperature),
        iterations=int(iterations),
        assignments=tuple(row),
    )


#: Per-core float arrays of a compiled record, in payload order.
_COMPILED_ARRAYS = (
    "base_delay_ps",
    "v_threshold",
    "alpha",
    "nominal_alpha_factor",
    "temp_coeff",
    "leakage_w",
    "ceff_w_per_ghz",
    "leakage_temp_coeff",
)


def encode_compiled(compiled) -> bytes:
    """Serialize a :class:`CompiledChip`'s array tables.

    Scalars and arrays are written as raw little-endian float64/int64, in
    a fixed order, 8-byte aligned — the exact bytes of the in-memory
    arrays, so a decoded table is bitwise identical to a fresh compile.
    """
    chunks = [
        _COMPILED_PREFIX.pack(
            _COMPILED_LAYOUT,
            compiled.n_cores,
            compiled.insert_table_ps.shape[1],
            0,
            compiled.slack_ps,
            compiled.vrm_voltage,
            compiled.pdn_resistance_ohm,
            compiled.uncore_power_w,
            compiled.ambient_c,
            compiled.thermal_resistance,
        )
    ]
    for name in _COMPILED_ARRAYS:
        chunks.append(getattr(compiled, name).astype("<f8", copy=False).tobytes())
    chunks.append(compiled.preset_code.astype("<i8", copy=False).tobytes())
    chunks.append(compiled.insert_table_ps.astype("<f8", copy=False).tobytes())
    return b"".join(chunks)


def decode_compiled(payload) -> dict | None:
    """Zero-copy view of a compiled record's tables.

    Returns scalars plus read-only numpy arrays aliasing ``payload`` (the
    store's mmap — shared physical pages across worker processes), or
    ``None`` on a layout mismatch.  The solver never mutates a
    :class:`CompiledChip`'s arrays, so read-only views are safe.
    """
    import numpy as np

    if len(payload) < _COMPILED_PREFIX.size:
        return None
    (layout, n_cores, max_codes, _pad, slack, vrm, pdn, uncore, ambient,
     resistance) = _COMPILED_PREFIX.unpack_from(payload)
    expected = (
        _COMPILED_PREFIX.size
        + 8 * n_cores * (len(_COMPILED_ARRAYS) + 1)
        + 8 * n_cores * max_codes
    )
    if layout != _COMPILED_LAYOUT or len(payload) != expected:
        return None
    out = {
        "n_cores": int(n_cores),
        "slack_ps": float(slack),
        "vrm_voltage": float(vrm),
        "pdn_resistance_ohm": float(pdn),
        "uncore_power_w": float(uncore),
        "ambient_c": float(ambient),
        "thermal_resistance": float(resistance),
    }
    offset = _COMPILED_PREFIX.size
    for name in _COMPILED_ARRAYS:
        out[name] = np.frombuffer(payload, "<f8", count=n_cores, offset=offset)
        offset += 8 * n_cores
    out["preset_code"] = np.frombuffer(payload, "<i8", count=n_cores, offset=offset)
    offset += 8 * n_cores
    out["insert_table_ps"] = np.frombuffer(
        payload, "<f8", count=n_cores * max_codes, offset=offset
    ).reshape(n_cores, max_codes)
    return out


# -- process-wide configuration ---------------------------------------------

# Like the solve cache, the active store is process-local mutable state;
# pool workers never inherit it through a closure — they reconfigure from
# an explicit path argument (see configure_worker_store).
_ACTIVE_STORE: SolveStore | None = None


def get_store() -> SolveStore | None:
    """The process-wide persistent store, or ``None`` when disabled."""
    return _ACTIVE_STORE


def configure_store(root: str | Path, *, writable: bool = True) -> SolveStore:
    """Open (creating if writable) and install the process-wide store."""
    global _ACTIVE_STORE
    if _ACTIVE_STORE is not None:
        if Path(root) == _ACTIVE_STORE.root and writable == _ACTIVE_STORE.writable:
            return _ACTIVE_STORE
        _ACTIVE_STORE.close()
    _ACTIVE_STORE = SolveStore(root, writable=writable)
    return _ACTIVE_STORE


def reset_store() -> None:
    """Close and uninstall the process-wide store (tests, CLI teardown)."""
    global _ACTIVE_STORE
    if _ACTIVE_STORE is not None:
        _ACTIVE_STORE.close()
    _ACTIVE_STORE = None


def configure_worker_store(root: str | None) -> SolveStore | None:
    """Synchronize a pool worker's store to the parent run's configuration.

    Called at the top of every worker chunk with the parent's store path
    (or ``None``).  Workers always open read-only: N processes sharing
    one mmap must not race appends, and a worker that cannot serve a
    record simply recomputes — behaviour, and therefore artifacts, cannot
    depend on which process solved a chip.
    """
    if root is None:
        reset_store()
        return None
    return configure_store(root, writable=False)
