"""Per-add cost of the product archive (the ``archive-scale`` group).

FDW ends every run by congregating, labeling and archiving thousands of
products. :meth:`repro.seismo.mudpy_io.ProductArchive.add_file` must
cost the same however many entries the archive already holds: an add
is a rename, a sha256 and one journal line, and the manifest is written
once at :meth:`~repro.seismo.mudpy_io.ProductArchive.close`. An archive
that rewrote its manifest per add would cost O(n) per add, O(n^2) per
run — about 35 minutes of manifest I/O at the paper's 16k-waveform
scale.

The group archives 1k and 16k 1 KB products (both scaled by
``FDW_BENCH_SCALE``) and asserts that the per-add cost at the large
size stays within 2x of the small size; the measured per-add costs,
their ratio and the close time go into ``extra_info``.

Run: ``PYTHONPATH=src python -m pytest benchmarks/bench_archive_scale.py
-q --benchmark-only``.
"""

from __future__ import annotations

import itertools
import statistics
import time

import pytest
from _common import bench_scale

from repro.seismo.mudpy_io import ProductArchive

#: Entry counts at full scale: a small run and the paper's 16k waveforms.
SMALL, LARGE = 1000, 16000
#: Payload of one staged product.
PRODUCT_BYTES = 1024


def entries(n: int) -> int:
    return max(100, int(round(n * bench_scale())))


def stage(work, n):
    """``n`` distinct product files to move into a fresh archive."""
    work.mkdir(parents=True)
    sources = []
    for i in range(n):
        path = work / f"w{i:06d}.npz"
        path.write_bytes(i.to_bytes(4, "little") * (PRODUCT_BYTES // 4))
        sources.append(path)
    return (work / "archive", sources), {}


def archive_all(root, sources):
    """Add every source (moved), close; returns (add seconds, close seconds)."""
    archive = ProductArchive(root)
    start = time.perf_counter()
    for i, path in enumerate(sources):
        archive.add_file(
            path, kind="waveforms", label=path.stem, metadata={"i": i}, move=True
        )
    added = time.perf_counter()
    archive.close()
    assert len(archive.entries) == len(sources)
    return added - start, time.perf_counter() - added


def per_add_us(tmp_path, tag, n, rounds):
    """Median per-add microseconds over ``rounds`` fresh archives."""
    samples = []
    for r in range(rounds):
        (root, sources), _ = stage(tmp_path / f"{tag}{r}", n)
        add_s, _close_s = archive_all(root, sources)
        samples.append(add_s / n * 1e6)
    return statistics.median(samples)


@pytest.mark.benchmark(group="archive-scale")
def test_archive_add_small(benchmark, tmp_path):
    """Small arm: one archive of 1k products, add + close."""
    n = entries(SMALL)
    fresh = itertools.count()
    benchmark.pedantic(
        archive_all,
        setup=lambda: stage(tmp_path / f"r{next(fresh)}", n),
        rounds=3,
    )
    benchmark.extra_info["entries"] = n


@pytest.mark.benchmark(group="archive-scale")
def test_archive_add_large_per_add_flat(benchmark, tmp_path):
    """Large arm + acceptance: per-add cost at 16k within 2x of 1k.

    The small arm is measured inline (median of three archives) so the
    assertion holds inside one test run; the large archive goes through
    the ``benchmark`` fixture into the CI artifact.
    """
    n_small, n_large = entries(SMALL), entries(LARGE)
    small_us = per_add_us(tmp_path, "small", n_small, rounds=3)
    add_s, close_s = benchmark.pedantic(
        archive_all, setup=lambda: stage(tmp_path / "large", n_large), rounds=1
    )
    large_us = add_s / n_large * 1e6
    ratio = large_us / small_us
    benchmark.extra_info.update(
        entries_small=n_small,
        entries_large=n_large,
        per_add_us_small=round(small_us, 2),
        per_add_us_large=round(large_us, 2),
        per_add_ratio=round(ratio, 3),
        close_ms_large=round(close_s * 1e3, 2),
    )
    assert ratio < 2.0
