"""Measure one workload: set-up, timed units, checks, metrics.

Untraced runs (``--trace 0``) report the end-to-end metrics. Traced
runs (``--trace 1``) interleave untraced and traced units, report the
per-layer split of the traced ones, and write a Chrome trace plus a
per-layer self-time table next to the result.
"""

from __future__ import annotations

import json
import resource
import shutil
import statistics
import time
from collections.abc import Callable
from pathlib import Path

from repro.errors import ReproError
from repro.obs.export import chrome_trace, render_summary, validate_chrome_trace
from repro.obs.stats import percentile
from repro.obs.trace import Tracer

import checks
from calibrate import SpeedSampler
from layers import ROOT_LAYER, Probes, span_table
from workloads import Unit, Workload, make_workload

__all__ = ["run_workload", "layer_metrics", "tail_percentile"]

#: Set-up repetitions per run (``setup_s`` is their median) ...
SETUP_REPS = 3
#: ... extended while the repetitions together take less than this, so
#: a set-up of a few milliseconds still gets a steady median.
SETUP_MIN_TOTAL_S = 0.5
SETUP_MAX_REPS = 200
#: Units of wall-clock metrics, which are reported calibrated.
_TIME_UNITS = frozenset({"s", "ms", "ns"})


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, root: Path
) -> dict:
    """Run one workload and return its result record.

    The record holds the metrics the command prints, the input sizes,
    the per-sample timings, the values compared with the reference, and
    every check failure.
    """
    work = root / ".perfbench_work" / f"{name}-seed{seed}-trace{int(trace)}"
    out = root / ".perfbench_out" / name / f"seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    out.mkdir(parents=True, exist_ok=True)
    try:
        return _measure(make_workload(name, seed, root), seconds, trace, work, out)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _measure(wl: Workload, seconds: float, trace: bool, work: Path, out: Path) -> dict:
    setup_raw, setup_scale = _setup(wl, work, reps=1 if trace else SETUP_REPS)

    reference = checks.load_reference()
    at_reference_seed = wl.seed == reference["seed"]
    failures: list[str] = []
    n_checks = n_failed_checks = 0
    untraced: list[Unit] = []
    traced: list[tuple[Unit, Tracer, Probes]] = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        if trace and len(traced) < len(untraced):
            tracer = Tracer()
            wl.tracer = tracer
            with Probes(tracer) as probes:
                unit = wl.unit(work)
            wl.tracer = None
            traced.append((unit, tracer, probes))
        else:
            unit = wl.unit(work)
            untraced.append(unit)
        unit_failures = wl.check(unit, work)
        if at_reference_seed:
            stored = reference["workloads"].get(wl.name)
            unit_failures += (
                checks.check_reference(unit.reference, stored, wl.rel_tol)
                if stored is not None
                else [f"no reference values stored for {wl.name}"]
            )
        n_checks += 1
        if unit_failures:
            n_failed_checks += 1
            failures += unit_failures
        elapsed = time.perf_counter() - start
        done = len(untraced) >= 1 and (not trace or len(traced) >= 1)
        if done and elapsed + (time.perf_counter() - t0) > seconds:
            break

    walls = [u.wall_s * u.scale for u in untraced]
    samples = {
        "setup_s": [t * setup_scale for t in setup_raw],
        "wall_s": walls,
        "raw_setup_s": setup_raw,
        "raw_wall_s": [u.wall_s for u in untraced],
        "speed_scale": [u.scale for u in untraced],
    }
    if trace:
        per_unit = [
            layer_metrics(tracer, probes, unit) for unit, tracer, probes in traced
        ]
        metrics = {
            key: (statistics.median(m[key][0] for m in per_unit), per_unit[0][key][1])
            for key in per_unit[0]
        }
        traced_walls = [u.wall_s * u.scale for u, _, _ in traced]
        samples["traced_wall_s"] = traced_walls
        metrics["obs.trace_overhead_frac"] = (
            statistics.median(traced_walls) / statistics.median(walls) - 1.0,
            "frac",
        )
        trace_failures = _export_trace(traced[-1][1], per_unit[-1], out)
        n_checks += 1
        if trace_failures:
            n_failed_checks += 1
            failures += trace_failures
    else:
        metrics = {
            "setup_s": (statistics.median(samples["setup_s"]), "s"),
            "wall_s": (statistics.median(walls), "s"),
            "waveforms_per_s": (_median_rate(untraced, lambda u: u.waveforms), "1/s"),
            "jobs_per_s": (_median_rate(untraced, lambda u: u.jobs), "1/s"),
            "submissions_per_s": (
                _median_rate(untraced, lambda u: u.submissions),
                "1/s",
            ),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "MB",
            ),
        }
    units = untraced + [u for u, _, _ in traced]
    attempted = sum(u.attempted for u in units) + n_checks
    failed = sum(u.failed for u in units) + n_failed_checks
    record = {
        "workload": wl.name,
        "seed": wl.seed,
        "trace": trace,
        "inputs": wl.inputs(),
        "units": len(units),
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "failures": failures,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "samples": samples,
        "reference_values": units[0].reference,
    }
    (out / "result.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return record


def _setup(wl: Workload, work: Path, reps: int) -> tuple[list[float], float]:
    """Time the set-up in fresh directories; the last one stays in use.

    Returns the measured times and the calibration scale of the whole
    block (a set-up of a few milliseconds is repeated many times).
    """
    times: list[float] = []
    previous: Path | None = None
    with SpeedSampler() as speed:
        while (
            len(times) < reps
            or (len(times) < SETUP_MAX_REPS and sum(times) < SETUP_MIN_TOTAL_S)
        ):
            target = work / f"setup-{len(times):03d}"
            spent = speed.spent_s
            t0 = time.perf_counter()
            wl.setup(target)
            times.append(time.perf_counter() - t0 - (speed.spent_s - spent))
            if previous is not None:
                shutil.rmtree(previous, ignore_errors=True)
            previous = target
    return times, speed.scale


def _median_rate(units: list[Unit], count: Callable[[Unit], int]) -> float:
    return statistics.median(count(u) / (u.wall_s * u.scale) for u in units)


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(p, value)`` (nearest rank), or ``None`` when fewer than
    eleven samples leave no such percentile.
    """
    n = len(values)
    if n < 11:
        return None
    p = (100 * (n - 10)) // n
    return p, percentile(values, p)


def layer_metrics(tracer: Tracer, probes: Probes, unit: Unit) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced unit: ``name -> (value, unit)``."""
    table = span_table(tracer.events)

    def total(layer: str, name: str) -> float:
        stats = table.get((layer, name))
        return stats.total_s if stats else 0.0

    def calls(layer: str, name: str) -> int:
        stats = table.get((layer, name))
        return stats.calls if stats else 0

    def pct_ms(layer: str, name: str, p: float) -> float:
        stats = table.get((layer, name))
        return percentile(stats.durations, p) * 1e3 if stats else 0.0

    def self_s(layer: str) -> float:
        return sum(s.self_s for (cat, _), s in table.items() if cat == layer)

    counts = probes.counts
    synth_s = total("seismo.waveforms", "synthesize_batch")
    final_manifest = sum(probes.final_manifest.values())
    root = next(s for (cat, _), s in table.items() if cat == ROOT_LAYER)
    st = unit.stats
    executions = st.get("executions", 0)
    metrics = {
        "seismo.waveforms.synth_s": (synth_s, "s"),
        "seismo.waveforms.synth_ops": (counts["synth_ops"], "MAC_computed"),
        "seismo.waveforms.synth_ns_per_op": (
            synth_s / counts["synth_ops"] * 1e9 if counts["synth_ops"] else 0.0,
            "ns",
        ),
        "seismo.waveforms.encode_s": (total("seismo.waveforms", "save"), "s"),
        "seismo.waveforms.encode_bytes": (counts["encode_bytes"], "B"),
        "seismo.mudpy_io.archive_add_s": (total("seismo.mudpy_io", "add_file"), "s"),
        "seismo.mudpy_io.archive_add_p50_ms": (
            pct_ms("seismo.mudpy_io", "add_file", 50),
            "ms",
        ),
        "seismo.mudpy_io.archive_add_p99_ms": (
            pct_ms("seismo.mudpy_io", "add_file", 99),
            "ms",
        ),
        "seismo.mudpy_io.archive_manifest_bytes": (counts["manifest_bytes"], "B"),
        "seismo.mudpy_io.manifest_write_amplification": (
            counts["manifest_bytes"] / final_manifest if final_manifest else 0.0,
            "ratio",
        ),
        "seismo.mudpy_io.write_rupt_s": (total("seismo.mudpy_io", "write_rupt"), "s"),
        "seismo.ruptures.rupture_s": (total("seismo.ruptures", "generate"), "s"),
        "seismo.klcache.hit_ratio": (st.get("kl_hit_ratio", 0.0), "ratio"),
        "core.gfcache.load_s": (total("core.gfcache", "get"), "s"),
        "core.gfcache.hit_ratio": (st.get("gf_hit_ratio", 0.0), "ratio"),
        "integrity.read_verified_s": (total("integrity", "read_verified"), "s"),
        "core.local.self_s": (self_s("core.local"), "s"),
        "wf.generate.partition_s": (total("wf.generate", "partition_instance"), "s"),
        "wf.importer.import_s": (total("wf.importer", "import_instance"), "s"),
        "osg.pool.run_s": (total("osg.pool", "run"), "s"),
        "osg.pool.records": (counts["pool_records"], "count"),
        "osg.negotiator.calls": (
            calls("osg.negotiator", "negotiate_vectorized")
            + calls("osg.negotiator", "negotiate"),
            "count",
        ),
        "osg.negotiator.negotiate_s": (
            total("osg.negotiator", "negotiate_vectorized")
            + total("osg.negotiator", "negotiate"),
            "s",
        ),
        "core.workflow.build_dag_s": (total("core.workflow", "build_fdw_dag"), "s"),
        "condor.events.render_s": (total("condor.events", "render"), "s"),
        "bursting.simulator.run_s": (total("bursting.simulator", "run"), "s"),
        "service.execute_s": (total("service", "execute"), "s"),
        "service.execute_p50_ms": (pct_ms("service", "execute", 50), "ms"),
        "service.execute_p90_ms": (pct_ms("service", "execute", 90), "ms"),
        "service.self_s": (self_s("service"), "s"),
        "service.executions": (executions, "count"),
        "service.coalesced": (st.get("coalesced", 0), "count"),
        "service.useful_exec_ratio": (
            st["distinct_executed"] / executions if executions else 0.0,
            "ratio",
        ),
        "service.wait_p50_s": (st.get("wait_p50_s", 0.0), "s_virtual"),
        "service.wait_p99_s": (st.get("wait_p99_s", 0.0), "s_virtual"),
        "vdc.portal.deposit_s": (total("vdc.portal", "deposit_products"), "s"),
        "obs.layer_coverage_frac": (1.0 - root.self_s / root.total_s, "frac"),
    }
    # Span times are measured seconds; report them calibrated like the
    # end-to-end times (virtual seconds and counts stay as they are).
    return {
        key: (value * unit.scale if u in _TIME_UNITS else value, u)
        for key, (value, u) in metrics.items()
    }


def _export_trace(tracer: Tracer, metrics: dict, out: Path) -> list[str]:
    """Write the Chrome trace, the self-time table and the summary.

    Returns a failure if the exported trace does not validate or render.
    """
    doc = chrome_trace(tracer)
    try:
        validate_chrome_trace(doc)
        summary = render_summary(doc)
    except ReproError as exc:
        return [f"exported trace is invalid: {exc}"]
    (out / "trace.json").write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
    (out / "summary.txt").write_text(summary + "\n")
    (out / "layers.txt").write_text(self_time_table(tracer) + "\n")
    if metrics["obs.layer_coverage_frac"][0] < 0.9:
        return [
            "layer spans cover only "
            f"{metrics['obs.layer_coverage_frac'][0]:.1%} of the traced wall time"
        ]
    return []


def self_time_table(tracer: Tracer) -> str:
    """Per-layer table: calls, total and self seconds, share of the unit."""
    table = span_table(tracer.events)
    root_s = sum(s.total_s for (cat, _), s in table.items() if cat == ROOT_LAYER)
    rows = sorted(table.items(), key=lambda kv: -kv[1].self_s)
    lines = [f"{'layer':<20} {'span':<24} {'calls':>7} {'total_s':>10} {'self_s':>10} {'self%':>7}"]
    for (layer, name), s in rows:
        lines.append(
            f"{layer:<20} {name:<24} {s.calls:>7d} {s.total_s:>10.4f} "
            f"{s.self_s:>10.4f} {100.0 * s.self_s / root_s:>6.1f}%"
        )
    return "\n".join(lines)
