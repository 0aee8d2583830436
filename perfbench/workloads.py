"""The benchmark's four seeded workloads.

Every input is generated here from the ``--seed`` argument: the FDW
configurations, the scaled-up WfFormat instance and the portal's tenant
and scenario stream. The program receives only those generated inputs,
through its public API.

A workload has three steps:

* :meth:`Workload.setup` — the one-off preparation a user pays before
  the timed work (cache fill, instance generation, stream generation);
  it is timed separately as ``setup_s``.
* :meth:`Workload.unit` — one timed execution (an archived local run, a
  partitioned replay, a portal session). Only the call into the program
  is timed; the output checks run afterwards.
* :meth:`Workload.check` — the output checks of :mod:`checks` that hold
  for every seed. The harness adds the comparison of :attr:`Unit.reference`
  with ``reference.json`` at the reference seed.
"""

from __future__ import annotations

import asyncio
import math
import shutil
import time
import zipfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.config import FdwConfig
from repro.core.gfcache import GFCache
from repro.core.local import LocalRunner
from repro.errors import ReproError
from repro.obs.trace import Tracer
from repro.rng import derive_seed
from repro.seismo.fakequakes import FakeQuakes, FakeQuakesParameters
from repro.seismo.klcache import KLCache
from repro.seismo.mudpy_io import ProductArchive, read_rupt
from repro.seismo.waveforms import WaveformSet
from repro.service.runner import BurstingRunner
from repro.service.service import PortalService, ServiceQuota
from repro.vdc.portal import Portal
from repro.wf import replay as replay_module
from repro.wf.generate import generate_instance
from repro.wf.schema import load_instance

import checks
from calibrate import SpeedSampler
from layers import ROOT_LAYER, TRACK

__all__ = ["Unit", "Workload", "WORKLOADS", "make_workload"]

#: The WfFormat instance the replay workload scales up.
FDW64_TEMPLATE = Path("examples") / "fdw64_wfformat.json"


@dataclass
class Unit:
    """What one timed execution produced."""

    wall_s: float
    #: Throughput numerators (see README: what each counts per workload).
    waveforms: int
    jobs: int
    submissions: int
    #: Operations attempted and failed or refused (chunks, tasks, tickets).
    attempted: int
    failed: int
    #: Values compared with ``reference.json`` at the reference seed.
    reference: dict = field(default_factory=dict)
    #: Per-layer figures read from the program's own counters.
    stats: dict = field(default_factory=dict)
    #: The program's outputs, kept until :meth:`Workload.check` runs.
    output: object = field(default=None, repr=False)
    #: Calibrated seconds per measured second (see :mod:`calibrate`).
    scale: float = 1.0


class Workload:
    """Base class: a seeded input, a set-up step and a timed unit."""

    name: str = ""
    why: str = ""
    #: Relative tolerance for floats compared with the reference.
    rel_tol: float = 0.0

    def __init__(self, seed: int, root: Path) -> None:
        self.seed = seed
        self.root = root
        #: Set by the harness for a traced unit; ``None`` runs untraced.
        self.tracer: Tracer | None = None

    def inputs(self) -> dict:
        """Sizes of the generated inputs, recorded beside the metrics."""
        raise NotImplementedError

    def setup(self, work: Path) -> None:
        raise NotImplementedError

    def unit(self, work: Path) -> Unit:
        raise NotImplementedError

    def _timed(self, call):
        """Run ``call()``; return ``(result, seconds, calibration scale)``.

        The seconds exclude the calibration samples taken while the call
        ran (see :mod:`calibrate`). In a traced unit the call is the
        root span every layer span nests under, so its self time is what
        no layer covers.
        """
        with SpeedSampler() as speed:
            t0 = time.perf_counter()
            if self.tracer is None:
                result = call()
            else:
                with self.tracer.span(
                    f"unit:{self.name}", category=ROOT_LAYER, track=TRACK
                ):
                    result = call()
            wall = time.perf_counter() - t0 - speed.spent_s
        return result, wall, speed.scale

    def check(self, unit: Unit, work: Path) -> list[str]:
        raise NotImplementedError


# -- local FDW runs -----------------------------------------------------------


class FdwWorkload(Workload):
    """An archived :meth:`LocalRunner.run` with warm GF and K-L caches."""

    rel_tol = 1e-9
    n_waveforms = 0
    n_stations = 0

    def __init__(self, seed: int, root: Path) -> None:
        super().__init__(seed, root)
        self.config = FdwConfig(
            n_waveforms=self.n_waveforms,
            n_stations=self.n_stations,
            mesh=(30, 15),
            seed=seed,
            name=self.name,
        )
        self._caches: tuple[Path, Path] | None = None
        self._n_units = 0

    def inputs(self) -> dict:
        c = self.config
        return {
            "waveforms": c.n_waveforms,
            "stations": c.n_stations,
            "subfaults": c.n_subfaults,
            "chunk_a": c.chunk_a,
            "chunk_c": c.chunk_c,
            "gf_dtype": c.gf_dtype,
        }

    def setup(self, work: Path) -> None:
        """Fill the GF and K-L disk caches for this config's catalog.

        Runs Phases A and B through the same cache-routed FakeQuakes
        session the local runner builds, which computes and stores the
        GF bank and every rupture's K-L basis — the paper's "recycle"
        mode. Phase C is not needed to fill a cache and is left out.
        """
        c = self.config
        gf_dir, kl_dir = work / "gf", work / "kl"
        fq = FakeQuakes.from_parameters(
            FakeQuakesParameters(
                n_ruptures=c.n_waveforms,
                n_stations=c.n_stations,
                mw_range=c.mw_range,
                mesh=c.mesh,
                gf_dtype=c.gf_dtype,
                seed=c.seed,
            ),
            gf_cache=GFCache(gf_dir),
            kl_cache=KLCache(cache_dir=kl_dir),
        )
        fq.phase_a_distances()
        fq.phase_a_ruptures()
        fq.phase_b_greens_functions()
        self._caches = (gf_dir, kl_dir)

    def unit(self, work: Path) -> Unit:
        gf_cache = GFCache(self._caches[0])
        kl_cache = KLCache(cache_dir=self._caches[1])
        archive_dir = work / f"archive-{self._n_units:03d}"
        self._n_units += 1
        runner = LocalRunner(gf_cache=gf_cache, kl_cache=kl_cache)
        result, wall, scale = self._timed(
            lambda: runner.run(self.config, archive_dir=archive_dir)
        )
        runner.close()
        c = self.config
        n_chunks = math.ceil(c.n_waveforms / c.chunk_a) + math.ceil(
            c.n_waveforms / c.chunk_c
        )
        executed = sum(result.chunks_executed.values())
        return Unit(
            wall_s=wall,
            scale=scale,
            waveforms=result.n_waveform_sets,
            jobs=executed,
            submissions=1,
            attempted=n_chunks,
            failed=n_chunks - executed + sum(result.chunk_retries.values()),
            reference={"pgd_m": dict(result.pgd_by_rupture)},
            stats={
                "gf_hit_ratio": _ratio(gf_cache.stats.hits, gf_cache.stats.lookups),
                "kl_hit_ratio": _ratio(kl_cache.stats.hits, kl_cache.stats.lookups),
            },
            output=result,
        )

    def check(self, unit: Unit, work: Path) -> list[str]:
        result = unit.output
        root = result.archive_root
        failures: list[str] = []
        try:
            entries = ProductArchive(root).entries
        except (ReproError, OSError, ValueError) as exc:
            return [f"archive does not reopen: {exc}"]
        reloaded_pgd: dict[str, float] = {}
        reloaded_ruptures: list[str] = []
        for e in entries:
            path = root / e["path"]
            try:
                if e["kind"] == "waveforms":
                    ws = WaveformSet.load(path)
                    if ws.rupture_id == e["label"]:
                        reloaded_pgd[e["label"]] = float(ws.pgd_m().max())
                elif e["kind"] == "ruptures":
                    if read_rupt(path).rupture_id == e["label"]:
                        reloaded_ruptures.append(e["label"])
            # A damaged .npz still escapes WaveformSet.load as a raw
            # zipfile.BadZipFile, not a ReproError.
            except (ReproError, OSError, ValueError, KeyError, EOFError,
                    zipfile.BadZipFile) as exc:
                failures.append(f"{e['kind']}/{e['label']} does not reload: {exc}")
        failures += checks.check_fdw_products(
            self.config.n_waveforms,
            entries,
            result.pgd_by_rupture,
            reloaded_pgd,
            reloaded_ruptures,
        )
        # A timed run that recomputed a bank or a K-L basis measured the
        # wrong thing: the set-up is meant to leave both caches warm.
        for cache in ("gf", "kl"):
            if unit.stats[f"{cache}_hit_ratio"] != 1.0:
                failures.append(f"{cache} cache missed after set-up")
        shutil.rmtree(root, ignore_errors=True)
        unit.output = None
        return failures


class FdwFull(FdwWorkload):
    name = "fdw-full"
    why = (
        "full Chilean input (121 stations, 30x15 mesh): Phase-C synthesis "
        "and encoding dominate while the archive stays small"
    )
    n_waveforms = 128
    n_stations = 121


class FdwSmall(FdwWorkload):
    name = "fdw-small"
    why = (
        "small input (2 stations): synthesis is cheap, so the product "
        "archive and its manifest rewrites do most of the work"
    )
    n_waveforms = 256
    n_stations = 2


# -- partitioned replay -------------------------------------------------------


class Replay4Dag(Workload):
    name = "replay-4dag"
    why = (
        "WfChef scale-up of the FDW pattern replayed on the pool DES across "
        "4 concurrent DAGMans: partitioning and fair-share, no seismo code"
    )
    n_tasks = 14000
    n_dagmans = 4

    def __init__(self, seed: int, root: Path) -> None:
        super().__init__(seed, root)
        self.instance = None

    def inputs(self) -> dict:
        return {
            "tasks": self.n_tasks,
            "dagmans": self.n_dagmans,
            "template": FDW64_TEMPLATE.as_posix(),
            "runtime_mode": "model",
        }

    def setup(self, work: Path) -> None:
        source = load_instance(self.root / FDW64_TEMPLATE)
        self.instance = generate_instance(source, self.n_tasks, self.seed)

    def unit(self, work: Path) -> Unit:
        # Looked up on the module at call time so a traced unit sees
        # the probe.
        result, wall, scale = self._timed(
            lambda: replay_module.replay_instance(
                self.instance,
                n_dagmans=self.n_dagmans,
                seed=self.seed,
                runtime="model",
            )
        )
        records = result.metrics.records
        completed: dict[str, set[str]] = {}
        for r in records:
            if r.success:
                completed.setdefault(r.dagman, set()).add(r.node_name)
        n_done = sum(len(nodes) for nodes in completed.values())
        return Unit(
            wall_s=wall,
            scale=scale,
            waveforms=sum(1 for r in records if r.success and r.phase == "C"),
            jobs=len(records),
            submissions=result.n_dagmans,
            attempted=self.n_tasks,
            failed=self.n_tasks - n_done,
            reference={
                "records": len(records),
                "makespan_s": result.makespan_s,
                "jobs_by_dagman": {
                    name: s.n_jobs for name, s in result.metrics.dagmans.items()
                },
            },
            output=(result, completed),
        )

    def check(self, unit: Unit, work: Path) -> list[str]:
        result, completed = unit.output
        expected = {
            wf.name: set(wf.dag.node_names) for wf in result.workflows
        }
        rescues = [p.name for p in work.rglob("*.rescue*")]
        unit.output = None
        return checks.check_replay(expected, completed, self.n_tasks, rescues)


# -- bursting portal ----------------------------------------------------------


class PortalBurst(Workload):
    name = "portal-burst"
    why = (
        "128 submissions from 8 tenants over 16 scenarios on the bursting "
        "backend: service, coalescing, DAG build, pool DES and VDC deposit"
    )
    n_tenants = 8
    n_submissions = 128
    n_distinct = 16
    n_waveforms = 1024
    n_workers = 2

    def __init__(self, seed: int, root: Path) -> None:
        super().__init__(seed, root)
        self.configs: list[FdwConfig] = []
        self.stream: list[tuple[str, int]] = []

    def inputs(self) -> dict:
        return {
            "submissions": self.n_submissions,
            "tenants": self.n_tenants,
            "distinct_scenarios": self.n_distinct,
            "waveforms_per_scenario": self.n_waveforms,
            "workers": self.n_workers,
            "backend": BurstingRunner.name,
        }

    def setup(self, work: Path) -> None:
        """Generate the scenarios and the submission stream.

        Tenant ``k`` submits with weight 1/(k+1) and scenario ``j`` is
        drawn with weight 1/(j+1) (zipf-like on both axes). The client
        paces its arrivals at a steady rate: it yields to the event loop
        once after each submission, so completions interleave with
        arrivals and identical requests that arrive after their twin
        finished run again.
        """
        self.configs = [
            FdwConfig(
                n_waveforms=self.n_waveforms,
                name=f"scenario-{j:02d}",
                seed=derive_seed(self.seed, "perfbench-scenario", j) % (2**31),
            )
            for j in range(self.n_distinct)
        ]
        rng = np.random.default_rng(derive_seed(self.seed, "perfbench-stream"))
        tenant_w = 1.0 / (1.0 + np.arange(self.n_tenants))
        scenario_w = 1.0 / (1.0 + np.arange(self.n_distinct))
        tenants = rng.choice(
            self.n_tenants, self.n_submissions, p=tenant_w / tenant_w.sum()
        )
        scenarios = rng.choice(
            self.n_distinct, self.n_submissions, p=scenario_w / scenario_w.sum()
        )
        self.stream = [
            (f"tenant-{int(t):02d}", int(s)) for t, s in zip(tenants, scenarios)
        ]

    async def _session(self, runner: "_CountingRunner"):
        quota = ServiceQuota(
            max_pending_per_tenant=self.n_submissions,
            max_queue_depth=self.n_submissions,
        )
        service = PortalService(
            Portal(), runner, n_workers=self.n_workers, quota=quota
        )
        tickets = []
        async with service:
            for tenant, scenario in self.stream:
                ticket = await service.submit(
                    tenant, self.configs[scenario], seed=self.seed
                )
                tickets.append((ticket, scenario))
                await asyncio.sleep(0)
            resolved = []
            for ticket, scenario in tickets:
                try:
                    resolved.append((await ticket, scenario))
                except ReproError:
                    pass  # a lost ticket; the portal check reports it
        return service, resolved

    def _run_session(self, runner: "_CountingRunner"):
        if self.tracer is None:
            return asyncio.run(self._session(runner))
        # The service layer's own time: the dispatcher, admission and
        # the event loop around every execution it places.
        with self.tracer.span("session", category="service", track=TRACK):
            return asyncio.run(self._session(runner))

    def unit(self, work: Path) -> Unit:
        runner = _CountingRunner(BurstingRunner())
        (service, resolved), wall, scale = self._timed(
            lambda: self._run_session(runner)
        )
        stats = service.stats
        digests = [c.content_digest() for c in self.configs]
        executed = {
            r.run_id: scenario for r, scenario in resolved if not r.coalesced
        }
        return Unit(
            wall_s=wall,
            scale=scale,
            waveforms=len(executed) * self.n_waveforms,
            jobs=runner.n_jobs,
            submissions=len(resolved),
            attempted=self.n_submissions,
            failed=self.n_submissions - len(resolved),
            reference={
                "executions": stats.n_executed,
                "coalesced": stats.n_coalesced,
                "job_records": runner.n_jobs,
            },
            stats={
                "executions": stats.n_executed,
                "coalesced": stats.n_coalesced,
                "distinct_executed": len(set(executed.values())),
                "wait_p50_s": stats.wait_percentile(50),
                "wait_p99_s": stats.wait_percentile(99),
            },
            output=(
                [
                    (r.ticket_id, digests[scenario], r.run_id, r.coalesced)
                    for r, scenario in resolved
                ],
                stats.n_executed,
                stats.n_coalesced,
            ),
        )

    def check(self, unit: Unit, work: Path) -> list[str]:
        tickets, n_executed, n_coalesced = unit.output
        unit.output = None
        return checks.check_portal(self.n_submissions, tickets, n_executed, n_coalesced)


class _CountingRunner:
    """A :class:`~repro.service.runner.Runner` that forwards to another
    and counts the simulated jobs its executions completed."""

    def __init__(self, inner: BurstingRunner) -> None:
        self.inner = inner
        self.name = inner.name
        self.n_jobs = 0

    def execute(self, config: FdwConfig, seed: int):
        outcome = self.inner.execute(config, seed)
        self.n_jobs += outcome.n_jobs
        return outcome


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (FdwFull, FdwSmall, Replay4Dag, PortalBurst)
}


def make_workload(name: str, seed: int, root: Path) -> Workload:
    return WORKLOADS[name](seed, root)
