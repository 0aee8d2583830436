"""MudPy-style file formats and product archives.

MudPy's "rigid" folder structure (the paper's words) revolves around a
few plain-text and binary artifacts:

* ``.rupt`` — a whitespace table with one row per subfault of a rupture
  (position, geometry, slip, kinematics),
* the recyclable distance-matrix ``.npy`` pair (see
  :mod:`repro.seismo.distance`),
* GF archives (``.mseed`` in MudPy; a compressed ``.npz`` bank here),
* per-rupture waveform files.

This module implements the ``.rupt`` format plus a *product archive*: a
directory with a JSON manifest that congregates and labels the thousands
of output files a workflow produces ("After simulation, thousands of
files are congregated, labeled, and archived on OSG storage capacity").
Each add appends one line to a journal; the manifest is written once,
when the archive closes, so archiving n files costs O(n).
"""

from __future__ import annotations

import errno
import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.errors import ArchiveError, IntegrityError, RuptureError
from repro.integrity import atomic_write_bytes, sha256_bytes
from repro.seismo.geometry import FaultGeometry
from repro.seismo.ruptures import Rupture

__all__ = [
    "write_rupt",
    "read_rupt",
    "ProductArchive",
]

_RUPT_COLUMNS = (
    "subfault lon lat depth_km strike_deg dip_deg length_km width_km "
    "slip_m rise_s onset_s"
).split()


#: One ``.rupt`` row; ``%`` formatting of Python scalars gives the same
#: bytes as f-string formatting of the NumPy scalars, several times faster.
_RUPT_ROW = "%d %.5f %.5f %.3f %.2f %.2f %.3f %.3f %.6f %.4f %.4f"


def write_rupt(
    rupture: Rupture, geometry: FaultGeometry, path: str | Path
) -> Path:
    """Write a rupture as a MudPy-style ``.rupt`` whitespace table."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    cols = geometry.subset(rupture.subfault_indices)
    columns = (
        rupture.subfault_indices,
        *(cols[c] for c in _RUPT_COLUMNS[1:8]),  # lon .. width_km
        rupture.slip_m,
        rupture.rise_time_s,
        rupture.onset_time_s,
    )
    rows = zip(*(np.asarray(c).tolist() for c in columns))
    lines = [
        f"# rupt {rupture.rupture_id} target_mw={rupture.target_mw:.4f} "
        f"actual_mw={rupture.actual_mw:.4f} hypo={rupture.hypocenter_index}",
        "# " + " ".join(_RUPT_COLUMNS),
        *(_RUPT_ROW % row for row in rows),
    ]
    path.write_text("\n".join(lines) + "\n")
    return path


def read_rupt(path: str | Path) -> Rupture:
    """Read a rupture written by :func:`write_rupt`.

    Geometry columns are not re-validated against a mesh here; the
    subfault indices tie the rupture back to its fault model.
    """
    path = Path(path)
    if not path.exists():
        raise RuptureError(f"rupt file not found: {path}")
    lines = path.read_text().splitlines()
    if not lines or not lines[0].startswith("# rupt "):
        raise RuptureError(f"{path}: missing '# rupt' header")
    header = lines[0].split()
    rupture_id = header[2]
    fields = dict(item.split("=", 1) for item in header[3:] if "=" in item)
    try:
        target_mw = float(fields["target_mw"])
        actual_mw = float(fields["actual_mw"])
        hypo = int(fields["hypo"])
    except (KeyError, ValueError) as exc:
        raise RuptureError(f"{path}: malformed header fields: {exc}") from exc

    rows = []
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != len(_RUPT_COLUMNS):
            raise RuptureError(
                f"{path}:{lineno}: expected {len(_RUPT_COLUMNS)} columns, got {len(parts)}"
            )
        rows.append([float(p) for p in parts])
    if not rows:
        raise RuptureError(f"{path}: no subfault rows")
    table = np.array(rows)
    return Rupture(
        rupture_id=rupture_id,
        target_mw=target_mw,
        actual_mw=actual_mw,
        subfault_indices=table[:, 0].astype(int),
        slip_m=table[:, 8],
        rise_time_s=table[:, 9],
        onset_time_s=table[:, 10],
        hypocenter_index=hypo,
    )


def _journal_line(entry: dict) -> str:
    """One self-checking journal line: the sha256 of the entry's
    canonical JSON, a space, that JSON, a newline."""
    canon = json.dumps(entry, sort_keys=True, separators=(",", ":"))
    return f"{sha256_bytes(canon.encode())} {canon}\n"


def _parse_journal_line(line: bytes) -> dict | None:
    """The entry a journal line records, or ``None`` if it fails its check."""
    digest, _, canon = line.partition(b" ")
    if digest.decode("ascii", "replace") != sha256_bytes(canon):
        return None
    try:
        return json.loads(canon)
    except ValueError:
        return None


def _move(source: Path, dest: Path, data: bytes) -> None:
    """Rename ``source`` onto ``dest``; copy plus unlink across devices."""
    try:
        os.replace(source, dest)
    except OSError as exc:
        if exc.errno != errno.EXDEV:
            raise
        dest.write_bytes(data)
        source.unlink()


@dataclass
class ProductArchive:
    """A labeled directory of simulation products with a JSON manifest.

    The archive groups files by *kind* (``ruptures``, ``gflists``,
    ``waveforms``...), records per-file metadata (rupture id, magnitude,
    station count) and the sha256 of every product, and can be reopened
    for discovery — this is the labeled-and-archived output store of FDW
    runs and the unit the VDC catalog ingests (DESIGN.md Fig-7 story).

    Adding a product costs the same however many the archive holds: the
    entry goes to an in-memory index and one self-checking line is
    appended to ``manifest.journal``. :meth:`close` writes
    ``manifest.json`` once, atomically, and deletes the journal. An
    archive that was never closed (a crash mid-run) reopens from its
    manifest plus the journal's intact prefix.
    """

    root: Path
    name: str = "fdw_products"

    MANIFEST = "manifest.json"
    JOURNAL = "manifest.journal"

    def __post_init__(self) -> None:
        self.root = Path(self.root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._manifest_path = self.root / self.MANIFEST
        self._journal_path = self.root / self.JOURNAL
        if self._manifest_path.exists():
            self._manifest = self._load_manifest()
            if self._manifest.get("archive") != self.name:
                # Reopening with a different label is almost always an
                # accident; keep the stored name authoritative.
                self.name = self._manifest.get("archive", self.name)
        else:
            self._manifest = {"archive": self.name, "entries": []}
            self._write_manifest()
        self._index = {(e["kind"], e["label"]): e for e in self._manifest["entries"]}
        # A leftover journal means the last writer never closed: its
        # adds may be missing from the manifest, and close() must
        # write them and retire the journal.
        self._dirty = self._journal_path.exists()
        if self._dirty:
            self._replay_journal()

    def _load_manifest(self) -> dict:
        path = self._manifest_path
        try:
            manifest = json.loads(path.read_bytes())
        except (OSError, ValueError) as exc:
            raise ArchiveError(f"unreadable archive manifest {path}: {exc}") from exc
        entries = manifest.get("entries") if isinstance(manifest, dict) else None
        if not isinstance(entries, list) or not all(
            isinstance(e, dict) and {"kind", "label", "path"} <= e.keys()
            for e in entries
        ):
            raise ArchiveError(f"malformed archive manifest {path}: bad entries list")
        return manifest

    def _replay_journal(self) -> None:
        """Apply the journal's entries the manifest does not hold yet.

        An unterminated last line, or a last line that fails its check,
        is a torn append: it is dropped and cut from the file, so later
        appends start on a line of their own. A bad line before the last
        is corruption, not a crash, and raises :class:`ArchiveError`.
        """
        data = self._journal_path.read_bytes()
        *lines, torn = data.split(b"\n")
        kept = 0
        for lineno, line in enumerate(lines, start=1):
            entry = _parse_journal_line(line)
            if entry is None:
                if lineno < len(lines) or torn:
                    raise ArchiveError(
                        f"{self._journal_path}:{lineno}: journal line fails its check"
                    )
                break
            kept += len(line) + 1
            if (entry["kind"], entry["label"]) not in self._index:
                self._append(entry)
        if kept < len(data):
            os.truncate(self._journal_path, kept)

    def _write_manifest(self) -> None:
        atomic_write_bytes(
            self._manifest_path,
            json.dumps(self._manifest, indent=2, sort_keys=True).encode(),
        )

    def _append(self, entry: dict) -> None:
        self._manifest["entries"].append(entry)
        self._index[(entry["kind"], entry["label"])] = entry

    # -- writing -----------------------------------------------------------

    def add_file(
        self,
        source: str | Path,
        kind: str,
        label: str,
        metadata: dict | None = None,
        move: bool = False,
    ) -> Path:
        """Congregate ``source`` into the archive under ``kind/``.

        Parameters
        ----------
        source:
            Existing file to copy (or move) into the archive.
        kind:
            Product category; becomes a subdirectory.
        label:
            Unique label within the kind (used as the stored filename
            stem, suffix preserved).
        move:
            Move (rename) instead of copy, for large intermediates.
        """
        source = Path(source)
        if not source.is_file():
            raise ArchiveError(f"source file not found: {source}")
        if (kind, label) in self._index:
            raise ArchiveError(f"duplicate archive entry {kind}/{label}")
        dest_dir = self.root / kind
        dest = dest_dir / (label + source.suffix)
        try:
            dest_dir.mkdir(parents=True, exist_ok=True)
            data = source.read_bytes()
            if move:
                _move(source, dest, data)
            else:
                dest.write_bytes(data)
            entry = {
                "kind": kind,
                "label": label,
                "path": str(dest.relative_to(self.root)),
                "bytes": len(data),
                "sha256": sha256_bytes(data),
                "metadata": metadata or {},
            }
            # The product is in place before its journal line, so a
            # journaled entry always names an existing file. The journal
            # is opened per add: an archive never closed holds no handle.
            with open(self._journal_path, "a", encoding="ascii") as fh:
                fh.write(_journal_line(entry))
        except OSError as exc:
            raise ArchiveError(f"cannot archive {source} as {kind}/{label}: {exc}") from exc
        self._append(entry)
        self._dirty = True
        return dest

    def close(self) -> None:
        """Write ``manifest.json`` atomically and delete the journal.

        Safe to call more than once; does nothing when nothing was added
        since the last close.
        """
        if not self._dirty:
            return
        self._write_manifest()
        self._journal_path.unlink(missing_ok=True)
        self._dirty = False

    def __enter__(self) -> "ProductArchive":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- discovery -----------------------------------------------------------

    @property
    def entries(self) -> list[dict]:
        """Manifest entries (copies; mutate via the API only)."""
        return [dict(e) for e in self._manifest["entries"]]

    def kinds(self) -> list[str]:
        """Sorted distinct product kinds present."""
        return sorted({e["kind"] for e in self._manifest["entries"]})

    def find(self, kind: str | None = None, **metadata: object) -> list[dict]:
        """Entries matching a kind and/or exact metadata values."""
        out = []
        for e in self._manifest["entries"]:
            if kind is not None and e["kind"] != kind:
                continue
            if all(e["metadata"].get(k) == v for k, v in metadata.items()):
                out.append(dict(e))
        return out

    def path_of(self, kind: str, label: str) -> Path:
        """Absolute path of an archived file."""
        entry = self._index.get((kind, label))
        if entry is None:
            raise ArchiveError(f"no archive entry {kind}/{label}")
        return self.root / entry["path"]

    def total_bytes(self) -> int:
        """Total archived payload size."""
        return sum(e["bytes"] for e in self._manifest["entries"])

    def verify(self) -> None:
        """Re-hash every product against the sha256 its entry records.

        Raises :class:`~repro.errors.IntegrityError` naming the first
        entry whose file is unreadable, carries no digest, or hashes to
        a different value.
        """
        for e in self._manifest["entries"]:
            path = self.root / e["path"]
            name = f"{e['kind']}/{e['label']}"
            try:
                data = path.read_bytes()
            except OSError as exc:
                raise IntegrityError(f"archive product {name} unreadable: {exc}") from exc
            recorded = e.get("sha256")
            if recorded is None:
                raise IntegrityError(f"archive product {name} has no recorded sha256")
            if sha256_bytes(data) != recorded:
                raise IntegrityError(
                    f"archive product {name} fails its digest check: {path} "
                    f"({len(data)} bytes, manifest records {e.get('bytes')})"
                )
