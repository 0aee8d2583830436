"""Tests for repro.seismo.mudpy_io."""

import errno
import hashlib
import json
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ArchiveError, IntegrityError, RuptureError
from repro.seismo.mudpy_io import ProductArchive, read_rupt, write_rupt
from repro.seismo.ruptures import Rupture

#: sha256 of :func:`_golden_rupture` written on ``small_geometry``; pins
#: the ``.rupt`` bytes across writer rewrites.
RUPT_GOLDEN_SHA256 = "f8da0305165712366848dd1ac44fcd4a94d39d519ad25bdbacd08fe7a002cba0"


def _golden_rupture():
    """A fixed seeded rupture built from plain draws, so the digest
    depends on the writer and the mesh, not on the slip generator."""
    rng = np.random.default_rng(7)
    n = 24
    return Rupture(
        rupture_id="golden.000000",
        target_mw=8.1,
        actual_mw=8.0987654,
        subfault_indices=np.sort(rng.choice(60, size=n, replace=False)),
        slip_m=rng.uniform(0.0, 12.0, n),
        rise_time_s=rng.uniform(1.0, 20.0, n),
        onset_time_s=rng.uniform(0.0, 90.0, n),
        hypocenter_index=5,
    )


def test_rupt_roundtrip(tmp_path, sample_rupture, small_geometry):
    path = write_rupt(sample_rupture, small_geometry, tmp_path / "r.rupt")
    back = read_rupt(path)
    assert back.rupture_id == sample_rupture.rupture_id
    assert back.target_mw == pytest.approx(sample_rupture.target_mw, abs=1e-4)
    assert back.hypocenter_index == sample_rupture.hypocenter_index
    np.testing.assert_array_equal(back.subfault_indices, sample_rupture.subfault_indices)
    np.testing.assert_allclose(back.slip_m, sample_rupture.slip_m, atol=1e-6)
    np.testing.assert_allclose(back.rise_time_s, sample_rupture.rise_time_s, atol=1e-4)


def test_rupt_golden_digest(tmp_path, small_geometry):
    path = write_rupt(_golden_rupture(), small_geometry, tmp_path / "r.rupt")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == RUPT_GOLDEN_SHA256


def test_rupt_missing_file(tmp_path):
    with pytest.raises(RuptureError):
        read_rupt(tmp_path / "missing.rupt")


def test_rupt_bad_header(tmp_path):
    path = tmp_path / "bad.rupt"
    path.write_text("not a rupt file\n")
    with pytest.raises(RuptureError):
        read_rupt(path)


def test_rupt_bad_column_count(tmp_path):
    path = tmp_path / "bad.rupt"
    path.write_text(
        "# rupt x target_mw=8.0 actual_mw=8.0 hypo=0\n1 2 3\n"
    )
    with pytest.raises(RuptureError):
        read_rupt(path)


def test_rupt_no_rows(tmp_path):
    path = tmp_path / "empty.rupt"
    path.write_text("# rupt x target_mw=8.0 actual_mw=8.0 hypo=0\n")
    with pytest.raises(RuptureError):
        read_rupt(path)


def _touch(tmp_path, name, content=b"data"):
    p = tmp_path / name
    p.write_bytes(content)
    return p


def test_archive_add_and_find(tmp_path):
    archive = ProductArchive(tmp_path / "arch")
    src = _touch(tmp_path, "w1.npz", b"x" * 100)
    dest = archive.add_file(src, kind="waveforms", label="r0", metadata={"mw": 8.1})
    assert dest.exists()
    assert archive.kinds() == ["waveforms"]
    found = archive.find(kind="waveforms", mw=8.1)
    assert len(found) == 1
    assert found[0]["bytes"] == 100


def test_archive_duplicate_label_rejected(tmp_path):
    archive = ProductArchive(tmp_path / "arch")
    src = _touch(tmp_path, "a.txt")
    archive.add_file(src, kind="k", label="x")
    with pytest.raises(ArchiveError):
        archive.add_file(src, kind="k", label="x")


def test_archive_missing_source_rejected(tmp_path):
    archive = ProductArchive(tmp_path / "arch")
    with pytest.raises(ArchiveError):
        archive.add_file(tmp_path / "nope.bin", kind="k", label="x")


def test_archive_move_deletes_source(tmp_path):
    archive = ProductArchive(tmp_path / "arch")
    src = _touch(tmp_path, "m.bin")
    archive.add_file(src, kind="k", label="moved", move=True)
    assert not src.exists()


def test_archive_persistence(tmp_path):
    root = tmp_path / "arch"
    archive = ProductArchive(root)
    archive.add_file(_touch(tmp_path, "a.bin", b"12345"), kind="k", label="a")
    reopened = ProductArchive(root)
    assert reopened.total_bytes() == 5
    assert reopened.path_of("k", "a").read_bytes() == b"12345"


def test_archive_path_of_unknown(tmp_path):
    archive = ProductArchive(tmp_path / "arch")
    with pytest.raises(ArchiveError):
        archive.path_of("k", "missing")


def test_archive_find_by_metadata_subset(tmp_path):
    archive = ProductArchive(tmp_path / "arch")
    archive.add_file(_touch(tmp_path, "a.bin"), kind="wf", label="a", metadata={"mw": 8.0})
    archive.add_file(_touch(tmp_path, "b.bin"), kind="wf", label="b", metadata={"mw": 9.0})
    assert len(archive.find(kind="wf")) == 2
    assert [e["label"] for e in archive.find(kind="wf", mw=9.0)] == ["b"]


# -- journal, close, reopen ---------------------------------------------------


def _add_n(archive, tmp_path, n, start=0):
    for i in range(start, start + n):
        archive.add_file(
            _touch(tmp_path, f"p{i}.bin", bytes([i % 256]) * (i + 1)),
            kind="k",
            label=f"e{i:03d}",
            metadata={"i": i},
            move=True,
        )


def test_archive_manifest_written_once_at_close(tmp_path):
    root = tmp_path / "arch"
    archive = ProductArchive(root, name="run")
    stub = (root / ProductArchive.MANIFEST).read_bytes()
    _add_n(archive, tmp_path, 3)
    # Adds go to the journal; the manifest stays the construction stub.
    assert (root / ProductArchive.MANIFEST).read_bytes() == stub
    assert len((root / ProductArchive.JOURNAL).read_text().splitlines()) == 3
    archive.close()
    assert not (root / ProductArchive.JOURNAL).exists()
    text = (root / ProductArchive.MANIFEST).read_text()
    doc = json.loads(text)
    assert text == json.dumps(doc, indent=2, sort_keys=True)
    assert [e["label"] for e in doc["entries"]] == ["e000", "e001", "e002"]
    for e in doc["entries"]:
        data = (root / e["path"]).read_bytes()
        assert e["sha256"] == hashlib.sha256(data).hexdigest()
        assert e["bytes"] == len(data)


def test_archive_close_is_idempotent_and_context_managed(tmp_path):
    root = tmp_path / "arch"
    with ProductArchive(root) as archive:
        _add_n(archive, tmp_path, 2)
    manifest = (root / ProductArchive.MANIFEST).read_bytes()
    archive.close()
    archive.close()
    assert (root / ProductArchive.MANIFEST).read_bytes() == manifest
    assert ProductArchive(root).entries == archive.entries


def test_archive_reopen_replays_journal_and_keeps_duplicate_check(tmp_path):
    root = tmp_path / "arch"
    first = ProductArchive(root)
    _add_n(first, tmp_path, 2)
    first.close()
    _add_n(first, tmp_path, 2, start=2)  # never closed: a crash
    reopened = ProductArchive(root)
    assert [e["label"] for e in reopened.entries] == ["e000", "e001", "e002", "e003"]
    with pytest.raises(ArchiveError, match="duplicate"):
        reopened.add_file(_touch(tmp_path, "x.bin"), kind="k", label="e003")
    reopened.close()
    assert not (root / ProductArchive.JOURNAL).exists()
    assert len(ProductArchive(root).entries) == 4


def test_archive_move_renames(tmp_path):
    archive = ProductArchive(tmp_path / "arch")
    src = _touch(tmp_path, "m.bin", b"payload")
    inode = src.stat().st_ino
    dest = archive.add_file(src, kind="k", label="m", move=True)
    assert dest.stat().st_ino == inode
    assert not src.exists()


def test_archive_move_across_devices_copies(tmp_path, monkeypatch):
    archive = ProductArchive(tmp_path / "arch")
    src = _touch(tmp_path, "m.bin", b"payload")

    def cross_device(a, b):
        raise OSError(errno.EXDEV, "Invalid cross-device link")

    monkeypatch.setattr(os, "replace", cross_device)
    dest = archive.add_file(src, kind="k", label="m", move=True)
    assert dest.read_bytes() == b"payload"
    assert not src.exists()


def test_archive_move_failure_is_typed(tmp_path, monkeypatch):
    archive = ProductArchive(tmp_path / "arch")
    src = _touch(tmp_path, "m.bin")

    def denied(a, b):
        raise PermissionError(errno.EACCES, "Permission denied")

    monkeypatch.setattr(os, "replace", denied)
    with pytest.raises(ArchiveError, match="k/m") as info:
        archive.add_file(src, kind="k", label="m", move=True)
    assert isinstance(info.value.__cause__, PermissionError)
    assert archive.entries == []


def test_archive_torn_manifest_raises_typed_error(tmp_path):
    root = tmp_path / "arch"
    with ProductArchive(root) as archive:
        _add_n(archive, tmp_path, 2)
    manifest = root / ProductArchive.MANIFEST
    manifest.write_bytes(manifest.read_bytes()[:-40])
    with pytest.raises(ArchiveError, match="manifest.json") as info:
        ProductArchive(root)
    assert isinstance(info.value.__cause__, json.JSONDecodeError)


def test_archive_malformed_manifest_raises_typed_error(tmp_path):
    root = tmp_path / "arch"
    root.mkdir()
    (root / ProductArchive.MANIFEST).write_text('{"archive": "x", "entries": [{}]}')
    with pytest.raises(ArchiveError, match="entries"):
        ProductArchive(root)


def test_archive_torn_journal_tail_dropped_and_cut(tmp_path):
    root = tmp_path / "arch"
    _add_n(ProductArchive(root), tmp_path, 3)
    journal = root / ProductArchive.JOURNAL
    journal.write_bytes(journal.read_bytes()[:-25])
    reopened = ProductArchive(root)
    assert [e["label"] for e in reopened.entries] == ["e000", "e001"]
    # The torn fragment was cut, so a later append starts a clean line.
    _add_n(reopened, tmp_path, 1, start=5)
    assert [e["label"] for e in ProductArchive(root).entries] == ["e000", "e001", "e005"]


def test_archive_corrupt_journal_line_before_tail_raises(tmp_path):
    root = tmp_path / "arch"
    _add_n(ProductArchive(root), tmp_path, 3)
    journal = root / ProductArchive.JOURNAL
    lines = journal.read_bytes().split(b"\n")
    lines[0] = lines[0].replace(b'"bytes":1', b'"bytes":7')
    journal.write_bytes(b"\n".join(lines))
    with pytest.raises(ArchiveError, match="manifest.journal:1"):
        ProductArchive(root)


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    n=st.integers(min_value=0, max_value=8),
    close_after=st.integers(min_value=0, max_value=8),
    cut=st.integers(min_value=0, max_value=400),
)
def test_archive_crash_recovers_journal_prefix(tmp_path_factory, n, close_after, cut):
    """A crash after the n-th add reopens to exactly the first n entries,
    or n-1 when the crash also tore the journal's last line."""
    work = tmp_path_factory.mktemp("crash")
    root = work / "arch"
    archive = ProductArchive(root)
    for i in range(n):
        if i == close_after:
            archive.close()
        _add_n(archive, work, 1, start=i)
    journal = root / ProductArchive.JOURNAL
    expected = [f"e{i:03d}" for i in range(n)]
    if cut and journal.exists():
        data = journal.read_bytes()
        last = len(data.rstrip(b"\n").split(b"\n")[-1]) + 1
        journal.write_bytes(data[: len(data) - min(cut, last)])
        expected = expected[:-1]
    assert [e["label"] for e in ProductArchive(root).entries] == expected


def test_archive_verify_detects_truncated_product(tmp_path):
    root = tmp_path / "arch"
    with ProductArchive(root) as archive:
        _add_n(archive, tmp_path, 3)
    archive.verify()
    victim = archive.path_of("k", "e001")
    victim.write_bytes(victim.read_bytes()[:-1])
    with pytest.raises(IntegrityError, match="k/e001"):
        ProductArchive(root).verify()
