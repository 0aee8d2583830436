"""Per-layer spans for the traced run, recorded from outside the program.

:class:`Probes` wraps the public entry points of each layer — a class
method, or a module attribute at the call site where a module imported
the name directly — so that every call records one complete span on a
:class:`repro.obs.Tracer`. The wrappers are installed only for a traced
unit and restored afterwards; the program itself carries no extra
instrumentation, and untraced units run the original functions.

A layer is a module; its spans carry the module name as category and
the function name as span name. Spans nest by time containment on a
single track (the benchmark is one thread), which is also how Chrome
trace viewers rebuild the tree. :func:`span_table` turns the flat event
list into per-span totals and self times (duration minus the part its
children cover).
"""

from __future__ import annotations

import functools
import os
from collections import defaultdict
from collections.abc import Callable, Iterable

from repro.bursting.simulator import BurstingSimulator
from repro.condor.events import UserLog
from repro.core import gfcache as gfcache_module
from repro.core import local as local_module
from repro.core import submit_osg as submit_osg_module
from repro.core.gfcache import GFCache
from repro.core.local import LocalRunner
from repro.obs.trace import PH_COMPLETE, Event, Tracer
from repro.osg import pool as pool_module
from repro.osg.pool import OSPoolSimulator
from repro.seismo import klcache as klcache_module
from repro.seismo.klcache import KLCache
from repro.seismo.mudpy_io import ProductArchive
from repro.seismo.ruptures import RuptureGenerator
from repro.seismo.waveforms import WaveformSet, WaveformSynthesizer
from repro.service import service as service_module
from repro.service.runner import BurstingRunner
from repro.vdc.portal import Portal
from repro.wf import replay as replay_module

__all__ = ["ROOT_LAYER", "TRACK", "Probes", "SpanStats", "span_table"]

#: Category of the benchmark's own spans (the per-unit root).
ROOT_LAYER = "perfbench"
#: The one track every span is recorded on.
TRACK = "bench"


def _count_synth_ops(probes: "Probes", args, kwargs, result) -> None:
    # Multiply-adds of the contraction, computed from shapes: per
    # rupture, n_stations x 3 components x n_patch x n_samples.
    ruptures = args[1] if len(args) > 1 else kwargs["ruptures"]
    for rupture, ws in zip(ruptures, result):
        probes.counts["synth_ops"] += (
            ws.n_stations * 3 * rupture.n_subfaults * ws.n_samples
        )


def _count_encoded_bytes(probes: "Probes", args, kwargs, result) -> None:
    probes.counts["encode_bytes"] += os.path.getsize(result)


def _stat_manifest(probes: "Probes", args, kwargs, result) -> None:
    # Every add rewrites the whole manifest, so its size after the add
    # is the number of manifest bytes that add wrote.
    archive = args[0]
    size = os.path.getsize(archive.root / archive.MANIFEST)
    probes.counts["manifest_bytes"] += size
    probes.final_manifest[str(archive.root)] = size


def _count_records(probes: "Probes", args, kwargs, result) -> None:
    probes.counts["pool_records"] += len(result.records)


#: (layer, owner, attribute, after-hook). The owner is a class whose
#: method every caller reaches, or the module whose namespace a caller
#: looks a directly imported name up in.
_PROBES: tuple[tuple[str, object, str, Callable | None], ...] = (
    # FDW local runs
    ("core.local", LocalRunner, "run", None),
    ("seismo.ruptures", RuptureGenerator, "generate", None),
    ("seismo.klcache", KLCache, "get", None),
    ("core.gfcache", GFCache, "get", None),
    ("integrity", gfcache_module, "read_verified", None),
    ("integrity", klcache_module, "read_verified", None),
    ("seismo.waveforms", WaveformSynthesizer, "synthesize_batch", _count_synth_ops),
    ("seismo.waveforms", WaveformSet, "save", _count_encoded_bytes),
    ("seismo.mudpy_io", ProductArchive, "add_file", _stat_manifest),
    ("seismo.mudpy_io", local_module, "write_rupt", None),
    # WfFormat replay
    ("wf.replay", replay_module, "replay_instance", None),
    ("wf.replay", replay_module, "metrics_to_batch_trace", None),
    ("wf.generate", replay_module, "partition_instance", None),
    ("wf.importer", replay_module, "import_instance", None),
    # pool DES, shared by the replay and the portal backends
    ("osg.pool", OSPoolSimulator, "submit_dagman", None),
    ("osg.pool", OSPoolSimulator, "run", _count_records),
    ("osg.negotiator", pool_module, "negotiate_vectorized", None),
    ("osg.negotiator", service_module, "negotiate", None),
    # portal service path
    ("service", BurstingRunner, "execute", None),
    ("core.submit_osg", submit_osg_module, "run_fdw_batch", None),
    ("core.workflow", submit_osg_module, "build_fdw_dag", None),
    ("condor.events", UserLog, "render", None),
    ("bursting.simulator", BurstingSimulator, "run", None),
    ("vdc.portal", Portal, "deposit_products", None),
)


class Probes:
    """Context manager that wraps every layer entry point for one unit.

    Counters the spans cannot carry (computed multiply-adds, encoded
    bytes, manifest bytes, pool records) accumulate in :attr:`counts`.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.counts: defaultdict[str, float] = defaultdict(float)
        #: Archive root -> manifest size after its latest add.
        self.final_manifest: dict[str, int] = {}
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Probes":
        for layer, owner, attr, after in _PROBES:
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(layer, attr, original, after))
        return self

    def __exit__(self, *exc_info: object) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, layer: str, name: str, fn, after):
        tracer = self.tracer
        clock = tracer.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(self, args, kwargs, result)
                return result
            finally:
                tracer.complete(name, t0, clock() - t0, category=layer, track=TRACK)

        return wrapper


class SpanStats:
    """Totals of one (layer, span name) pair within a trace."""

    __slots__ = ("durations", "self_s")

    def __init__(self) -> None:
        self.durations: list[float] = []
        self.self_s = 0.0

    @property
    def total_s(self) -> float:
        return sum(self.durations)

    @property
    def calls(self) -> int:
        return len(self.durations)


def span_table(events: Iterable[Event]) -> dict[tuple[str, str], SpanStats]:
    """Per-(layer, span) durations and self times of complete events.

    Parents are found by time containment: events are visited in start
    order (longest first on ties) with a stack of open spans, and each
    span's duration is charged against the innermost open span that
    still contains its start.
    """
    spans = sorted(
        (e for e in events if e.phase == PH_COMPLETE),
        key=lambda e: (e.ts, -e.dur),
    )
    child_s = [0.0] * len(spans)
    stack: list[tuple[float, int]] = []
    for i, ev in enumerate(spans):
        while stack and stack[-1][0] <= ev.ts:
            stack.pop()
        if stack:
            child_s[stack[-1][1]] += ev.dur
        stack.append((ev.ts + ev.dur, i))
    table: dict[tuple[str, str], SpanStats] = defaultdict(SpanStats)
    for ev, children in zip(spans, child_s):
        stats = table[(ev.category, ev.name)]
        stats.durations.append(ev.dur)
        stats.self_s += ev.dur - children
    return dict(table)
