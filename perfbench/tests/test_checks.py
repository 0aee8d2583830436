"""The benchmark's own checks reject perturbed outputs.

Every output check is exercised twice: on an output it must accept and
on the same output with one defect planted (a dropped manifest entry, a
PGD off by more than the tolerance, a changed replay makespan, a lost
ticket). A tiny FDW workload drives the real extraction path end to end,
and ``test_reference_seed_reproduces`` reruns each workload at the
reference seed against ``reference.json``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import harness
from layers import span_table
from repro.obs.trace import Tracer
from workloads import WORKLOADS, FdwWorkload, make_workload

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


# -- pure checks ---------------------------------------------------------------


def _fdw_output(n: int = 3):
    labels = [f"r{i}" for i in range(n)]
    entries = [{"kind": "waveforms", "label": x} for x in labels] + [
        {"kind": "ruptures", "label": x} for x in labels
    ]
    pgd = {x: 0.1 * (i + 1) for i, x in enumerate(labels)}
    return entries, pgd


def test_fdw_check_accepts_consistent_output():
    entries, pgd = _fdw_output()
    assert checks.check_fdw_products(3, entries, pgd, dict(pgd), list(pgd)) == []


def test_fdw_check_rejects_dropped_manifest_entry():
    entries, pgd = _fdw_output()
    dropped = [e for e in entries if e != {"kind": "waveforms", "label": "r1"}]
    failures = checks.check_fdw_products(3, dropped, pgd, dict(pgd), list(pgd))
    assert any("manifest holds 5 entries" in f for f in failures)


def test_fdw_check_rejects_reloaded_pgd_mismatch():
    entries, pgd = _fdw_output()
    reloaded = dict(pgd, r2=pgd["r2"] * (1 + 1e-12))
    failures = checks.check_fdw_products(3, entries, pgd, reloaded, list(pgd))
    assert any("reloaded PGD" in f for f in failures)


def test_fdw_check_rejects_unreadable_product():
    entries, pgd = _fdw_output()
    reloaded = {k: v for k, v in pgd.items() if k != "r0"}
    failures = checks.check_fdw_products(3, entries, pgd, reloaded, list(pgd))
    assert any("did not reload" in f for f in failures)


def test_reference_check_pgd_tolerance():
    ref = {"pgd_m": {"a": 1.0, "b": 2.0}}
    within = {"pgd_m": {"a": 1.0 + 5e-10, "b": 2.0}}
    beyond = {"pgd_m": {"a": 1.0 + 2e-9, "b": 2.0}}
    assert checks.check_reference(within, ref, rel_tol=1e-9) == []
    assert checks.check_reference(beyond, ref, rel_tol=1e-9)


def test_reference_check_rejects_changed_makespan_and_counts():
    ref = {"records": 20324, "makespan_s": 17238.71026539076}
    assert checks.check_reference(dict(ref), ref, rel_tol=0.0) == []
    moved = dict(ref, makespan_s=17238.71026539076 * (1 + 1e-12))
    assert checks.check_reference(moved, ref, rel_tol=0.0)
    assert checks.check_reference(dict(ref, records=20323), ref, rel_tol=0.0)
    assert checks.check_reference({"records": 20324}, ref, rel_tol=0.0)


def test_replay_check():
    expected = {"p0": {"a", "b"}, "p1": {"c"}}
    assert checks.check_replay(expected, {"p0": {"a", "b"}, "p1": {"c"}}, 3, []) == []
    assert checks.check_replay(expected, {"p0": {"a"}, "p1": {"c"}}, 3, [])
    assert checks.check_replay(expected, {"p0": {"a", "b"}, "p1": {"c"}}, 4, [])
    assert checks.check_replay(
        expected, {"p0": {"a", "b"}, "p1": {"c"}}, 3, ["p1.dag.rescue001"]
    )


def _tickets():
    # Two executions of scenario "x" (the second after the first
    # finished) and one of "y"; two tickets coalesced.
    return [
        ("t0", "x", "run-0", False),
        ("t1", "x", "run-0", True),
        ("t2", "y", "run-1", False),
        ("t3", "x", "run-2", False),
        ("t4", "y", "run-1", True),
    ]


def test_portal_check_accepts_consistent_session():
    assert checks.check_portal(5, _tickets(), n_executed=3, n_coalesced=2) == []


def test_portal_check_rejects_lost_ticket():
    lost = _tickets()[:-1]
    failures = checks.check_portal(5, lost, n_executed=3, n_coalesced=2)
    assert any("4 of 5 tickets resolved" in f for f in failures)


def test_portal_check_rejects_run_shared_across_scenarios():
    mixed = _tickets()
    mixed[1] = ("t1", "y", "run-0", True)
    assert checks.check_portal(5, mixed, n_executed=3, n_coalesced=2)


def test_portal_check_rejects_bad_accounting():
    assert checks.check_portal(5, _tickets(), n_executed=3, n_coalesced=1)


# -- span accounting -------------------------------------------------------------


def test_span_table_self_times():
    clock = iter([0.0, 1.0, 3.0, 4.0, 6.0, 10.0]).__next__
    tracer = Tracer(clock=clock)
    with tracer.span("root", category="perfbench"):
        with tracer.span("a", category="x"):
            pass
        with tracer.span("b", category="y"):
            pass
    table = span_table(tracer.events)
    assert table[("perfbench", "root")].self_s == pytest.approx(6.0)
    assert table[("x", "a")].self_s == pytest.approx(2.0)
    assert table[("y", "b")].total_s == pytest.approx(2.0)


def test_tail_percentile():
    assert harness.tail_percentile(list(range(10))) is None
    p, value = harness.tail_percentile([float(i) for i in range(100)])
    assert p == 90 and value == 89.0


# -- a tiny FDW workload through the real extraction path -------------------------


class TinyFdw(FdwWorkload):
    name = "tiny-fdw"
    n_waveforms = 4
    n_stations = 3


@pytest.fixture()
def tiny(tmp_path):
    wl = TinyFdw(seed=5, root=ROOT)
    wl.setup(tmp_path / "setup")
    return wl


def test_tiny_fdw_passes_its_checks(tiny, tmp_path):
    unit = tiny.unit(tmp_path)
    assert unit.stats == {"gf_hit_ratio": 1.0, "kl_hit_ratio": 1.0}
    assert tiny.check(unit, tmp_path) == []


def test_tiny_fdw_rejects_dropped_manifest_entry(tiny, tmp_path):
    unit = tiny.unit(tmp_path)
    manifest = unit.output.archive_root / "manifest.json"
    doc = json.loads(manifest.read_text())
    doc["entries"].pop()
    manifest.write_text(json.dumps(doc))
    assert any("manifest holds" in f for f in tiny.check(unit, tmp_path))


def test_tiny_fdw_rejects_corrupt_product(tiny, tmp_path):
    unit = tiny.unit(tmp_path)
    root = unit.output.archive_root
    victim = next((root / "waveforms").glob("*.npz"))
    victim.write_bytes(victim.read_bytes()[:100])
    assert any("does not reload" in f for f in tiny.check(unit, tmp_path))


def _measure_tiny(tmp_path, trace: bool) -> dict:
    (tmp_path / "work").mkdir()
    (tmp_path / "out").mkdir()
    return harness._measure(
        TinyFdw(seed=5, root=ROOT), 0.0, trace, tmp_path / "work", tmp_path / "out"
    )


def test_untraced_run_reports_every_end_to_end_metric(tmp_path):
    record = _measure_tiny(tmp_path, trace=False)
    assert record["correct"] and record["failed"] == 0
    names = [m["name"] for m in BENCHMARK["end_to_end"]]
    assert sorted(record["metrics"]) == sorted(names)
    for m in BENCHMARK["end_to_end"]:
        assert record["metrics"][m["name"]]["unit"] == m["unit"]
        assert record["metrics"][m["name"]]["value"] > 0


def test_traced_run_reports_every_layer_metric_and_a_valid_trace(tmp_path):
    record = _measure_tiny(tmp_path, trace=True)
    assert record["correct"], record["failures"]
    assert sorted(record["metrics"]) == sorted(m["name"] for m in BENCHMARK["per_layer"])
    for m in BENCHMARK["per_layer"]:
        assert record["metrics"][m["name"]]["unit"] == m["unit"]
    assert record["metrics"]["obs.layer_coverage_frac"]["value"] >= 0.9
    assert record["metrics"]["seismo.waveforms.synth_ops"]["value"] > 0
    trace = tmp_path / "out" / "trace.json"
    summary = subprocess.run(
        [sys.executable, "-m", "repro.cli", "obs", "summary", str(trace)],
        capture_output=True, text=True, check=True,
        env={"PYTHONPATH": str(ROOT / "src")},
    )
    assert "synthesize_batch" in summary.stdout
    assert "add_file" in (tmp_path / "out" / "layers.txt").read_text()


# -- the registered benchmark --------------------------------------------------------


def test_benchmark_json_registers_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    for w in BENCHMARK["workloads"]:
        assert w["why"] == WORKLOADS[w["name"]].why


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_reference_seed_reproduces(name, tmp_path):
    reference = checks.load_reference()
    wl = make_workload(name, reference["seed"], ROOT)
    wl.setup(tmp_path / "setup")
    unit = wl.unit(tmp_path)
    assert wl.check(unit, tmp_path) == []
    assert checks.check_reference(
        unit.reference, reference["workloads"][name], wl.rel_tol
    ) == []
