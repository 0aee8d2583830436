"""Crash-consistent checkpoints for local FDW runs.

The local analogue of a rescue DAG: :class:`RunCheckpoint` keeps a
per-chunk progress manifest inside the run's archive directory so an
interrupted :meth:`~repro.core.local.LocalRunner.run` can be re-invoked
with ``resume=True`` and skip every chunk whose products already landed
on disk. Because Phase A keys its RNG per catalog *index* and Phase C is
a pure function of the rupture chunk, regenerating only the missing
chunks yields byte-identical products to an uninterrupted run.

Crash consistency comes from two rules:

* every write is *temp-then-rename* (``os.replace`` after an fsync), so
  a file either has its complete new content or its old one;
* products are written **before** the manifest records their chunk as
  done, so a crash between the two merely re-executes one chunk on
  resume (idempotent — the rewrite replaces identical bytes).

Integrity (PR 8): the manifest and every chunk file carry a sha256
sidecar (:mod:`repro.integrity`) written with the same atomicity.
Resume verifies before trusting: a tampered/truncated manifest is
quarantined into ``<archive_dir>/_quarantine/`` and the run starts
fresh; a damaged chunk file is quarantined and its chunk silently
re-executed (:meth:`RunCheckpoint.try_load_a_chunk` /
:meth:`~RunCheckpoint.try_load_c_chunk`) — corruption degrades to
recompute, never a wrong archive. A C chunk's rows record the sha256
of each waveform product, so a damaged product re-executes its chunk
the same way.

Layout under ``<archive_dir>/_checkpoint/``::

    manifest.json       # version, config digest, chunk counts, done sets
    manifest.json.sha256
    A_00000.pkl         # pickled rupture list of one Phase-A chunk
    A_00000.pkl.sha256
    C_00000.pkl         # (rupture_id, pgd, mw, filename, sha256) rows of one C chunk
    waveforms/<id>.npz  # per-rupture waveform products of done C chunks

The directory is removed by :meth:`RunCheckpoint.finalize` once the
archive has been assembled.
"""

from __future__ import annotations

import hashlib
import json
import pickle
import shutil
from pathlib import Path

from repro.errors import CheckpointError, IntegrityError
from repro.core.config import FdwConfig
from repro.integrity import (
    atomic_write_bytes,
    quarantine_artifact,
    read_verified,
    sha256_bytes,
    write_digest,
)
from repro.seismo.mudpy_io import ProductArchive
from repro.seismo.ruptures import Rupture

__all__ = ["RunCheckpoint", "config_digest", "atomic_write_bytes"]

#: Rows of one Phase-C chunk: (rupture_id, max PGD, target Mw, product
#: path). Only a run that archives nothing has ``None`` paths, and it
#: keeps no checkpoint.
CRow = tuple[str, float, float, "str | None"]


def config_digest(config: FdwConfig) -> str:
    """Content digest of a configuration.

    ``FdwConfig`` is a frozen dataclass, so its ``repr`` enumerates every
    field deterministically; hashing it pins a checkpoint to the exact
    configuration that produced it.
    """
    return hashlib.sha256(repr(config).encode()).hexdigest()


def _product_digest(path: Path) -> str:
    """sha256 of a waveform product on disk."""
    return sha256_bytes(path.read_bytes())


class RunCheckpoint:
    """Chunk-granular progress manifest for one local run.

    Parameters
    ----------
    archive_dir:
        The run's archive directory; the checkpoint lives in its
        ``_checkpoint/`` subdirectory.
    config:
        The run's configuration; its digest must match on resume.
    n_a_chunks, n_c_chunks:
        The run's chunk plan; must match on resume (a chunk-size change
        would misalign the done sets).
    resume:
        ``True`` loads an existing manifest (validating it); ``False``
        discards any stale checkpoint and starts fresh.
    """

    DIRNAME = "_checkpoint"
    QUARANTINE_DIRNAME = "_quarantine"
    VERSION = 2

    def __init__(
        self,
        archive_dir: str | Path,
        config: FdwConfig,
        n_a_chunks: int,
        n_c_chunks: int,
        resume: bool = False,
    ) -> None:
        self.archive_dir = Path(archive_dir)
        self.dir = self.archive_dir / self.DIRNAME
        self.manifest_path = self.dir / "manifest.json"
        self.waveforms_dir = self.dir / "waveforms"
        self.quarantine_dir = self.archive_dir / self.QUARANTINE_DIRNAME
        self.digest = config_digest(config)
        self.n_chunks = {"A": n_a_chunks, "C": n_c_chunks}
        self.done: dict[str, set[int]] = {"A": set(), "C": set()}
        #: Paths of quarantined checkpoint artifacts, in order.
        self.quarantined: list[Path] = []
        if resume and self.manifest_path.exists() and self._try_load():
            return
        if self.dir.exists():
            shutil.rmtree(self.dir)
        self.waveforms_dir.mkdir(parents=True)
        self._flush()

    # -- manifest ----------------------------------------------------------

    def _quarantine(self, path: Path, reason: str) -> None:
        self.quarantined.append(
            quarantine_artifact(
                path, quarantine_dir=self.quarantine_dir, reason=reason
            )
        )

    def _try_load(self) -> bool:
        """Verified manifest load for a resume.

        Returns ``False`` — after quarantining the damaged manifest —
        when the manifest fails its digest check or is unparseable, so
        the resume degrades to a fresh run instead of crashing. A
        *valid* manifest that belongs to a different configuration or
        chunk plan still raises :class:`CheckpointError`: that is a
        user mistake, not corruption.
        """
        try:
            manifest = json.loads(
                read_verified(self.manifest_path).decode("utf-8")
            )
        except (IntegrityError, ValueError) as exc:
            self._quarantine(
                self.manifest_path, f"unreadable checkpoint manifest: {exc}"
            )
            return False
        self._validate(manifest)
        return True

    def _validate(self, manifest: dict) -> None:
        if manifest.get("version") != self.VERSION:
            raise CheckpointError(
                f"checkpoint version {manifest.get('version')} != {self.VERSION}"
            )
        if manifest.get("config_digest") != self.digest:
            raise CheckpointError(
                "checkpoint belongs to a different configuration "
                f"(digest {manifest.get('config_digest')!r} != {self.digest!r})"
            )
        for phase in ("A", "C"):
            if manifest.get(f"n_{phase.lower()}_chunks") != self.n_chunks[phase]:
                raise CheckpointError(
                    f"checkpoint chunk plan changed for phase {phase}: "
                    f"{manifest.get(f'n_{phase.lower()}_chunks')} != {self.n_chunks[phase]}"
                )
            done = set(manifest.get(f"done_{phase.lower()}", []))
            bad = [i for i in done if not (0 <= i < self.n_chunks[phase])]
            if bad:
                raise CheckpointError(f"done indices out of range for {phase}: {bad}")
            self.done[phase] = done
        self.waveforms_dir.mkdir(parents=True, exist_ok=True)

    def _write_artifact(self, path: Path, data: bytes) -> None:
        """Atomic write plus the sha256 sidecar resume will verify."""
        atomic_write_bytes(path, data)
        write_digest(path, sha256_bytes(data))

    def _flush(self) -> None:
        manifest = {
            "version": self.VERSION,
            "config_digest": self.digest,
            "n_a_chunks": self.n_chunks["A"],
            "n_c_chunks": self.n_chunks["C"],
            "done_a": sorted(self.done["A"]),
            "done_c": sorted(self.done["C"]),
        }
        self._write_artifact(
            self.manifest_path,
            json.dumps(manifest, indent=2, sort_keys=True).encode(),
        )

    # -- queries -----------------------------------------------------------

    def is_done(self, phase: str, index: int) -> bool:
        """Whether one chunk's products are durably recorded."""
        return index in self.done[phase]

    def n_done(self, phase: str) -> int:
        """Completed chunks of one phase."""
        return len(self.done[phase])

    def _chunk_path(self, phase: str, index: int) -> Path:
        return self.dir / f"{phase}_{index:05d}.pkl"

    # -- Phase A -----------------------------------------------------------

    def store_a_chunk(self, index: int, ruptures: list[Rupture]) -> None:
        """Persist one Phase-A chunk, then mark it done."""
        self._write_artifact(
            self._chunk_path("A", index),
            pickle.dumps(ruptures, protocol=pickle.HIGHEST_PROTOCOL),
        )
        self.done["A"].add(index)
        self._flush()

    def _read_chunk(self, phase: str, index: int) -> object:
        """Digest-verified unpickle of one chunk file.

        Every corruption mode — sidecar mismatch, truncation, a pickle
        stream that no longer parses — surfaces as one typed
        :class:`~repro.errors.IntegrityError`.
        """
        path = self._chunk_path(phase, index)
        data = read_verified(path)
        try:
            return pickle.loads(data)
        except Exception as exc:  # pickle's failure surface is open-ended
            raise IntegrityError(
                f"corrupt checkpoint chunk {path.name}: {exc}"
            ) from exc

    def _discard_chunk(self, phase: str, index: int, exc: IntegrityError) -> None:
        """Quarantine a damaged chunk and un-mark it done (→ re-execute)."""
        self._quarantine(self._chunk_path(phase, index), str(exc))
        self.done[phase].discard(index)
        self._flush()

    def load_a_chunk(self, index: int) -> list[Rupture]:
        """Reload one completed Phase-A chunk (digest-verified)."""
        if not self.is_done("A", index):
            raise CheckpointError(f"A chunk {index} is not checkpointed")
        return self._read_chunk("A", index)  # type: ignore[return-value]

    def try_load_a_chunk(self, index: int) -> list[Rupture] | None:
        """Degraded-mode reload: ``None`` (after quarantining, with the
        chunk un-marked done) when the checkpointed chunk is corrupt."""
        try:
            return self.load_a_chunk(index)
        except IntegrityError as exc:
            self._discard_chunk("A", index, exc)
            return None

    # -- Phase C -----------------------------------------------------------

    def store_c_chunk(self, index: int, rows: list[CRow]) -> None:
        """Persist one Phase-C chunk's rows, then mark it done.

        Call only after the chunk's waveform ``.npz`` products are on
        disk in :attr:`waveforms_dir` (product-before-manifest ordering):
        each row records its product's bare filename (so the checkpoint
        stays relocatable) and sha256, which :meth:`load_c_chunk` checks.

        Raises
        ------
        CheckpointError
            If a row names no product or its product is not on disk.
        """
        normalized = []
        for rid, pgd, mw, path in rows:
            if path is None or not Path(path).is_file():
                raise CheckpointError(
                    f"C chunk {index}: waveform product of {rid} is not on disk: {path}"
                )
            normalized.append((rid, pgd, mw, Path(path).name, _product_digest(Path(path))))
        self._write_artifact(
            self._chunk_path("C", index),
            pickle.dumps(normalized, protocol=pickle.HIGHEST_PROTOCOL),
        )
        self.done["C"].add(index)
        self._flush()

    def load_c_chunk(self, index: int) -> list[CRow]:
        """Reload one completed Phase-C chunk (absolute waveform paths).

        Raises
        ------
        CheckpointError
            If the chunk is not done or a recorded product is missing.
        IntegrityError
            If the chunk file or a product fails its sha256 check.
        """
        if not self.is_done("C", index):
            raise CheckpointError(f"C chunk {index} is not checkpointed")
        rows = self._read_chunk("C", index)
        out: list[CRow] = []
        for rid, pgd, mw, name, digest in rows:  # type: ignore[union-attr]
            path = self.waveforms_dir / name
            if not path.exists():
                raise CheckpointError(
                    f"C chunk {index}: checkpointed waveform missing: {path}"
                )
            if _product_digest(path) != digest:
                raise IntegrityError(
                    f"C chunk {index}: checkpointed waveform {name} does "
                    "not match its recorded sha256"
                )
            out.append((rid, pgd, mw, str(path)))
        return out

    def try_load_c_chunk(self, index: int) -> list[CRow] | None:
        """Degraded-mode reload of a Phase-C chunk (see
        :meth:`try_load_a_chunk`)."""
        try:
            return self.load_c_chunk(index)
        except IntegrityError as exc:
            self._discard_chunk("C", index, exc)
            return None

    # -- archive assembly --------------------------------------------------

    def reset_archive(self) -> None:
        """Remove a partial archive so reassembly is idempotent.

        Only the archive's own manifest, journal and product
        subdirectories are touched; the checkpoint directory survives.
        The journal goes too: an interrupted rebuild leaves one behind,
        and replaying it into the fresh archive would make the rebuild's
        first add a duplicate.
        """
        for kind in ("waveforms", "ruptures"):
            shutil.rmtree(self.archive_dir / kind, ignore_errors=True)
        for name in (ProductArchive.MANIFEST, ProductArchive.JOURNAL):
            (self.archive_dir / name).unlink(missing_ok=True)

    def finalize(self) -> None:
        """Delete the checkpoint after the archive is fully assembled."""
        shutil.rmtree(self.dir, ignore_errors=True)
