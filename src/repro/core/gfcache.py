"""Green's-function bank cache: the in-process analog of Stash/OSDF.

The paper's single biggest engineering lever is computing the expensive
Phase-B Green's-function archive *once* and amortizing it across
thousands of Phase-C waveform jobs via the OSG's Stash/OSDF cache
("recycling them is crucial"; the >1 GB ``.mseed`` archive is staged to
every C job from cache, not recomputed). This module gives the library
the same lever for in-process execution:

* a **content-addressed key** derived from exactly the inputs that
  determine a bank — fault geometry, station network, and the GF model
  parameters — so two configurations that would produce the same bank
  share one cache entry and any change invalidates it;
* a two-level :class:`GFCache` — an in-memory LRU over
  :class:`~repro.seismo.greens.GreensFunctionBank` objects backed by an
  optional on-disk ``.npz`` store (the OSDF-origin analog; point it at a
  shared directory to reuse banks across processes and runs);
* :func:`publish_shared_bank` / :func:`attach_shared_bank` — zero-copy
  sharing of the large bank arrays across worker processes through
  ``multiprocessing.shared_memory``, so a process pool synthesizing
  Phase-C chunks reads one physical copy instead of rebuilding
  O(n_stations x n_subfaults) arrays per worker per chunk.

:class:`repro.core.local.LocalRunner` and the VDC layer
(:mod:`repro.vdc.storage`, :mod:`repro.vdc.prefetch`) both route through
this one implementation.
"""

from __future__ import annotations

import hashlib
import io
import os
import zipfile
from collections import OrderedDict
from collections.abc import Callable
from dataclasses import dataclass, field
from multiprocessing import shared_memory
from pathlib import Path

import numpy as np

from repro import obs
from repro.errors import CacheError, IntegrityError, ReproError
from repro.integrity import (
    quarantine_artifact,
    read_verified,
    sha256_bytes,
    write_digest,
)
from repro.seismo.geometry import FaultGeometry
from repro.seismo.greens import (
    DEFAULT_RAKE_DEG,
    GreensFunctionBank,
    compute_gf_bank_for_method,
)
from repro.seismo.kinematics import DEFAULT_SHEAR_VELOCITY_KMS
from repro.seismo.stations import StationNetwork

__all__ = [
    "gf_bank_key",
    "GFCacheStats",
    "GFCache",
    "SharedBankHandle",
    "publish_shared_bank",
    "attach_shared_bank",
    "detach_shared_banks",
]

#: Environment variable naming a default on-disk store directory.
CACHE_DIR_ENV = "REPRO_GF_CACHE_DIR"


def gf_bank_key(
    geometry: FaultGeometry,
    network: StationNetwork,
    gf_method: str = "point",
    rake_deg: float = DEFAULT_RAKE_DEG,
    shear_velocity_kms: float = DEFAULT_SHEAR_VELOCITY_KMS,
    min_distance_km: float = 1.0,
    dtype: str = "float64",
) -> str:
    """Content-addressed cache key of a GF bank.

    The key hashes every input that flows into
    :func:`~repro.seismo.greens.compute_gf_bank_for_method` (either flavour):
    the full subfault table, the ordered station list, the scalar model
    parameters, and the bank dtype. Any change to any of them — a
    different mesh, one moved station, another rake, a float32 bank —
    yields a different key, which is the cache-invalidation rule (and
    what makes a float32 run unable to silently hit a float64 entry).
    """
    h = hashlib.sha256()
    h.update(b"gfbank-v1\x1f")
    h.update(geometry.name.encode("utf-8") + b"\x1f")
    h.update(np.int64([geometry.n_strike, geometry.n_dip]).tobytes())
    for arr in (
        geometry.lon,
        geometry.lat,
        geometry.depth_km,
        geometry.strike_deg,
        geometry.dip_deg,
        geometry.length_km,
        geometry.width_km,
    ):
        h.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
    h.update(("\x1f".join(network.names)).encode("utf-8") + b"\x1f")
    h.update(np.ascontiguousarray(network.lons, dtype=np.float64).tobytes())
    h.update(np.ascontiguousarray(network.lats, dtype=np.float64).tobytes())
    h.update(
        np.float64(
            [rake_deg, shear_velocity_kms, min_distance_km]
        ).tobytes()
    )
    h.update(str(gf_method).encode("utf-8") + b"\x1f")
    h.update(str(np.dtype(dtype)).encode("utf-8"))
    return h.hexdigest()


@dataclass
class GFCacheStats:
    """Hit/miss counters of one :class:`GFCache` (mutable, cumulative)."""

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    #: Disk entries that failed digest verification or parsing and were
    #: quarantined (each such lookup also counts as a miss — the
    #: degraded-mode contract: corruption becomes a recompute).
    integrity_failures: int = 0

    @property
    def hits(self) -> int:
        """All hits, either level."""
        return self.memory_hits + self.disk_hits

    @property
    def lookups(self) -> int:
        """Total lookups."""
        return self.hits + self.misses


def _observe_lookup(cache: str, outcome: str, bank) -> None:
    """Emit one cache lookup into the obs registry (no-op when disabled)."""
    if not obs.enabled():
        return
    obs.counter_add(
        "repro_cache_lookups_total", 1, {"cache": cache, "outcome": outcome}
    )
    if bank is not None:
        obs.counter_add(
            "repro_cache_bytes_total",
            bank.statics.nbytes + bank.travel_time_s.nbytes,
            {"cache": cache, "event": "hit"},
        )


class GFCache:
    """Two-level (memory LRU + disk ``.npz``) Green's-function bank cache.

    Parameters
    ----------
    cache_dir:
        Directory of the on-disk store. ``None`` reads the
        ``REPRO_GF_CACHE_DIR`` environment variable; when that is unset
        too, the cache is memory-only (still amortizes within a
        process).
    max_memory_entries:
        LRU capacity. Banks evicted from memory survive on disk when a
        ``cache_dir`` is configured.
    verify_digests:
        Verify each disk entry's sha256 sidecar on load (default). A
        failed check — or an entry that cannot be parsed at all — is
        quarantined (moved into ``cache_dir/quarantine/``, never
        deleted) and treated as a miss, so corruption degrades to a
        recompute. ``False`` skips only the hash comparison (the
        ``bench-resilience`` baseline arm); parse failures still
        quarantine.
    """

    def __init__(
        self,
        cache_dir: str | Path | None = None,
        max_memory_entries: int = 8,
        verify_digests: bool = True,
    ) -> None:
        if max_memory_entries < 1:
            raise CacheError(
                f"max_memory_entries must be >= 1, got {max_memory_entries}"
            )
        if cache_dir is None:
            env = os.environ.get(CACHE_DIR_ENV, "").strip()
            cache_dir = env or None
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.max_memory_entries = int(max_memory_entries)
        self.verify_digests = bool(verify_digests)
        self._memory: OrderedDict[str, GreensFunctionBank] = OrderedDict()
        self.stats = GFCacheStats()
        #: Paths of quarantined artifacts, in quarantine order.
        self.quarantined: list[Path] = []

    # -- paths ---------------------------------------------------------------

    def disk_path(self, key: str) -> Path | None:
        """On-disk location of a key, or ``None`` for memory-only caches."""
        if self.cache_dir is None:
            return None
        return self.cache_dir / f"gf_{key}.npz"

    # -- primitive get/put ---------------------------------------------------

    def get(self, key: str) -> GreensFunctionBank | None:
        """Look a key up (memory first, then disk); ``None`` on miss.

        A disk entry that fails its digest check or cannot be parsed
        (truncated/bit-flipped ``.npz``) is quarantined and reported as
        a miss — the caller recomputes and re-stores, so a corrupted
        cache entry never surfaces as a wrong answer or a raw
        ``zipfile.BadZipFile``.
        """
        bank = self._memory.get(key)
        if bank is not None:
            self._memory.move_to_end(key)
            self.stats.memory_hits += 1
            _observe_lookup("gf", "memory_hit", bank)
            return bank
        path = self.disk_path(key)
        if path is not None and path.exists():
            try:
                bank = self._load_disk(path)
            except IntegrityError as exc:
                self._quarantine(path, exc)
            else:
                self._remember(key, bank)
                self.stats.disk_hits += 1
                _observe_lookup("gf", "disk_hit", bank)
                return bank
        self.stats.misses += 1
        _observe_lookup("gf", "miss", None)
        return None

    def _load_disk(self, path: Path) -> GreensFunctionBank:
        """Digest-verified parse of one disk entry.

        Every failure mode — sidecar mismatch, zip/npz damage, missing
        arrays, values the bank validation rejects — surfaces as one
        typed :class:`~repro.errors.IntegrityError`.
        """
        data = read_verified(path, verify=self.verify_digests)
        try:
            with np.load(io.BytesIO(data), allow_pickle=False) as npz:
                return GreensFunctionBank(
                    statics=npz["statics"],
                    travel_time_s=npz["travel_time_s"],
                    station_names=tuple(str(n) for n in npz["station_names"]),
                    fault_name=str(npz["fault_name"]),
                )
        except (zipfile.BadZipFile, ValueError, KeyError, EOFError, OSError,
                ReproError) as exc:
            raise IntegrityError(f"corrupt GF bank {path.name}: {exc}") from exc

    def _quarantine(self, path: Path, exc: IntegrityError) -> None:
        self.stats.integrity_failures += 1
        obs.counter_add(
            "repro_cache_integrity_failures_total", 1, {"cache": "gf"}
        )
        self.quarantined.append(quarantine_artifact(path, reason=str(exc)))

    def put(self, key: str, bank: GreensFunctionBank) -> None:
        """Insert a bank under a key in both levels."""
        if not key:
            raise CacheError("cache key must be non-empty")
        self._remember(key, bank)
        self.ensure_on_disk(key)
        self.stats.stores += 1
        if obs.enabled():
            obs.counter_add("repro_cache_stores_total", 1, {"cache": "gf"})
            obs.counter_add(
                "repro_cache_bytes_total",
                bank.statics.nbytes + bank.travel_time_s.nbytes,
                {"cache": "gf", "event": "store"},
            )

    def _remember(self, key: str, bank: GreensFunctionBank) -> None:
        self._memory[key] = bank
        self._memory.move_to_end(key)
        while len(self._memory) > self.max_memory_entries:
            self._memory.popitem(last=False)
            self.stats.evictions += 1

    def ensure_on_disk(self, key: str) -> Path | None:
        """Materialize a memory-resident bank into the disk store.

        This is what a Stash/OSDF *prefetch* amounts to in-process:
        making the product durable and shareable ahead of demand.
        Returns the written (or existing) path, or ``None`` when the
        cache has no disk store or the key is unknown.
        """
        path = self.disk_path(key)
        if path is None:
            return None
        if path.exists():
            return path
        bank = self._memory.get(key)
        if bank is None:
            return None
        tmp = path.with_suffix(".tmp.npz")
        try:
            bank.save(tmp)
            digest = sha256_bytes(tmp.read_bytes())
            os.replace(tmp, path)  # atomic against concurrent readers
            write_digest(path, digest)
        except OSError as exc:
            raise CacheError(
                f"cannot write GF bank to cache_dir {self.cache_dir}: {exc}"
            ) from exc
        return path

    def contains(self, key: str, on_disk: bool = False) -> bool:
        """Membership test that does not touch the hit/miss counters."""
        if not on_disk and key in self._memory:
            return True
        path = self.disk_path(key)
        return path is not None and path.exists()

    # -- the main entry point ------------------------------------------------

    def get_or_compute(
        self,
        geometry: FaultGeometry,
        network: StationNetwork,
        gf_method: str = "point",
        rake_deg: float = DEFAULT_RAKE_DEG,
        shear_velocity_kms: float = DEFAULT_SHEAR_VELOCITY_KMS,
        min_distance_km: float = 1.0,
        dtype: str = "float64",
        compute: Callable[[], GreensFunctionBank] | None = None,
    ) -> GreensFunctionBank:
        """Return the bank for these inputs, computing it at most once.

        A miss runs :func:`~repro.seismo.greens.compute_gf_bank_for_method`,
        or ``compute`` when given (tests use it); the result is stored
        under the content-addressed key of the inputs. ``dtype`` is part
        of that key, so float32 and float64 banks of the same physics
        occupy distinct entries.
        """
        key = gf_bank_key(
            geometry,
            network,
            gf_method=gf_method,
            rake_deg=rake_deg,
            shear_velocity_kms=shear_velocity_kms,
            min_distance_km=min_distance_km,
            dtype=dtype,
        )
        bank = self.get(key)
        if bank is not None:
            return bank
        if compute is not None:
            bank = compute()
        else:
            bank = compute_gf_bank_for_method(
                geometry,
                network,
                gf_method=gf_method,
                rake_deg=rake_deg,
                shear_velocity_kms=shear_velocity_kms,
                min_distance_km=min_distance_km,
                dtype=dtype,
            )
        self.put(key, bank)
        return bank

    # -- maintenance ---------------------------------------------------------

    def clear(self, disk: bool = False) -> None:
        """Drop the memory level; with ``disk=True`` also the disk store.

        Digest sidecars go with their artifacts; the quarantine
        directory is never touched (evidence outlives cache resets).
        """
        self._memory.clear()
        if disk and self.cache_dir is not None and self.cache_dir.exists():
            for path in self.cache_dir.glob("gf_*.npz"):
                path.unlink()
            for path in self.cache_dir.glob("gf_*.npz.sha256"):
                path.unlink()

    def memory_keys(self) -> list[str]:
        """Keys currently resident in memory, LRU-oldest first."""
        return list(self._memory)

    def disk_keys(self) -> list[str]:
        """Keys present in the disk store."""
        if self.cache_dir is None or not self.cache_dir.exists():
            return []
        return sorted(
            p.name[len("gf_") : -len(".npz")]
            for p in self.cache_dir.glob("gf_*.npz")
        )


# -- shared-memory bank sharing ---------------------------------------------


@dataclass(frozen=True)
class SharedBankHandle:
    """Picklable descriptor of a bank published into shared memory.

    Small enough to travel in every pool task; workers attach the named
    segments once and cache the attachment for the life of the process.
    """

    key: str
    statics_name: str
    travel_name: str
    statics_shape: tuple[int, int, int]
    travel_shape: tuple[int, int]
    dtype: str
    station_names: tuple[str, ...]
    fault_name: str


def publish_shared_bank(
    bank: GreensFunctionBank, key: str
) -> tuple[SharedBankHandle, list[shared_memory.SharedMemory]]:
    """Copy a bank's arrays into shared-memory segments.

    Returns the picklable handle plus the segment objects; the caller
    owns the segments and must ``close()``/``unlink()`` them when the
    pool is done (:class:`repro.core.local.LocalRunner` does this).
    """
    segments: list[shared_memory.SharedMemory] = []

    def _publish(arr: np.ndarray) -> shared_memory.SharedMemory:
        src = np.ascontiguousarray(arr)
        shm = shared_memory.SharedMemory(create=True, size=max(1, src.nbytes))
        dst = np.ndarray(src.shape, dtype=src.dtype, buffer=shm.buf)
        dst[...] = src
        segments.append(shm)
        return shm

    if bank.statics.dtype != bank.travel_time_s.dtype:
        raise CacheError(
            "statics and travel times must share a dtype to be published, "
            f"got {bank.statics.dtype} / {bank.travel_time_s.dtype}"
        )
    statics_shm = _publish(bank.statics)
    travel_shm = _publish(bank.travel_time_s)
    handle = SharedBankHandle(
        key=key,
        statics_name=statics_shm.name,
        travel_name=travel_shm.name,
        statics_shape=tuple(bank.statics.shape),  # type: ignore[arg-type]
        travel_shape=tuple(bank.travel_time_s.shape),  # type: ignore[arg-type]
        dtype=str(bank.statics.dtype),
        station_names=tuple(bank.station_names),
        fault_name=bank.fault_name,
    )
    return handle, segments


#: Worker-side attachment cache: handle key -> (bank, segments). Kept for
#: the life of the worker process so each bank is mapped exactly once.
_ATTACHED: dict[str, tuple[GreensFunctionBank, list[shared_memory.SharedMemory]]] = {}


def attach_shared_bank(handle: SharedBankHandle) -> GreensFunctionBank:
    """Map a published bank in this process (idempotent per key).

    The returned bank's arrays are **read-only views** over the shared
    segments — concurrent readers cannot corrupt them, and no copy of
    the O(n_stations x n_subfaults) data is made.
    """
    cached = _ATTACHED.get(handle.key)
    if cached is not None:
        return cached[0]
    try:
        statics_shm = shared_memory.SharedMemory(name=handle.statics_name)
        travel_shm = shared_memory.SharedMemory(name=handle.travel_name)
    except FileNotFoundError as exc:
        raise CacheError(
            f"shared GF bank {handle.key[:12]} is gone (segments unlinked?)"
        ) from exc
    dtype = np.dtype(handle.dtype)
    statics = np.ndarray(handle.statics_shape, dtype=dtype, buffer=statics_shm.buf)
    travel = np.ndarray(handle.travel_shape, dtype=dtype, buffer=travel_shm.buf)
    statics.flags.writeable = False
    travel.flags.writeable = False
    bank = GreensFunctionBank(
        statics=statics,
        travel_time_s=travel,
        station_names=handle.station_names,
        fault_name=handle.fault_name,
    )
    _ATTACHED[handle.key] = (bank, [statics_shm, travel_shm])
    return bank


def detach_shared_banks() -> None:
    """Drop this process's attachments (close segments, keep them linked)."""
    for _, segments in _ATTACHED.values():
        for shm in segments:
            try:
                shm.close()
            except OSError:  # pragma: no cover - platform-dependent teardown
                pass
    _ATTACHED.clear()
