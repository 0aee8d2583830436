"""Single-machine FDW execution (the paper's AWS control).

The paper's baseline runs "an automated version of MudPy's FakeQuakes on
a single host" — an AWS instance with 4 CPUs. :class:`LocalRunner`
plays that role two ways:

* :meth:`LocalRunner.run` executes the *real* seismic kernels of
  :mod:`repro.seismo` through the same phase/chunk structure the OSG
  jobs use and returns the actual products. This is feasible at
  example/test scale.
* :func:`estimate_sequential_runtime_s` predicts what the full-scale
  workload would take on the single host by summing the calibrated
  per-job costs — this is the control number the
  ``bench_single_machine_vs_osg`` benchmark compares against (the
  56.8 % headline).

A chunk is defined once and runs the same way wherever it lands, as an
FDW job does on the control host or an OSPool slot. Both phases go
through one chunk loop: reload checkpointed chunks, then run the rest
in the parent when the runner has one worker or at most one chunk is
pending, otherwise as one pool future per chunk; every chunk passes
the same retry wrapper and the same per-phase completion hook. Every
Phase-C product is spooled to one directory (the checkpoint's waveform
store, or ``<archive>/_spool``) before the parent archives it.

The pool shares one Green's-function bank across all workers through
:mod:`repro.core.gfcache`: the parent computes (or cache-loads) the
bank once, publishes its arrays into ``multiprocessing`` shared-memory
segments, and ships workers only a small picklable
:class:`~repro.core.gfcache.SharedBankHandle` plus the pre-generated
rupture chunk. Workers never rebuild geometry, distances, ruptures, or
the bank — the in-process equivalent of every Phase-C job pulling the
Phase-B archive from the Stash/OSDF cache instead of recomputing it.
"""

from __future__ import annotations

import time
import weakref
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import dataclass, field
from multiprocessing import resource_tracker
from pathlib import Path

from repro import obs
from repro.errors import ConfigError
from repro.resilience import RetryPolicy, retry_call
from repro.core.checkpoint import CRow, RunCheckpoint
from repro.core.config import FdwConfig
from repro.core.gfcache import (
    GFCache,
    SharedBankHandle,
    attach_shared_bank,
    gf_bank_key,
    publish_shared_bank,
)
from repro.core.phases import chunk_bounds, plan_phases
from repro.osg.runtimes import RuntimeModel
from repro.rng import RngFactory
from repro.seismo.fakequakes import FakeQuakes, FakeQuakesParameters
from repro.seismo.greens import GreensFunctionBank
from repro.seismo.klcache import KLCache
from repro.seismo.mudpy_io import ProductArchive, write_rupt
from repro.seismo.ruptures import Rupture
from repro.seismo.waveforms import GnssNoiseModel, WaveformSynthesizer

__all__ = ["LocalRunResult", "LocalRunner", "estimate_sequential_runtime_s"]


@dataclass(frozen=True)
class LocalRunResult:
    """Products and timings of one local FDW run.

    ``chunks_executed``/``chunks_skipped`` count A/C chunks actually
    computed vs restored from a checkpoint — the manifest accounting
    that lets recovery tests assert no completed work was redone.
    """

    config: FdwConfig
    n_waveform_sets: int
    phase_seconds: dict[str, float]
    archive_root: Path | None = None
    pgd_by_rupture: dict[str, float] = field(default_factory=dict)
    chunks_executed: dict[str, int] = field(default_factory=dict)
    chunks_skipped: dict[str, int] = field(default_factory=dict)
    #: Chunk re-attempts absorbed by the retry wrapper, per phase.
    chunk_retries: dict[str, int] = field(default_factory=dict)
    #: Deterministic backoff seconds those retries accounted (not slept).
    retry_backoff_s: float = 0.0

    @property
    def total_seconds(self) -> float:
        """Wall time across all phases."""
        return sum(self.phase_seconds.values())


def _fakequakes_for(
    config: FdwConfig,
    gf_cache: GFCache | None = None,
    kl_cache: KLCache | None = None,
) -> FakeQuakes:
    params = FakeQuakesParameters(
        n_ruptures=config.n_waveforms,
        n_stations=config.n_stations,
        mw_range=config.mw_range,
        mesh=config.mesh,
        gf_dtype=config.gf_dtype,
        seed=config.seed,
    )
    return FakeQuakes.from_parameters(params, gf_cache=gf_cache, kl_cache=kl_cache)


#: Pool task for one Phase-A chunk: (parameters, start, count, K-L dir).
_AChunkTask = tuple[FakeQuakesParameters, int, int, "str | None"]

#: Worker-side Phase-A session cache: (parameters, K-L dir) -> FakeQuakes.
#: Kept for the life of the worker process so geometry, distance
#: matrices, the rupture generator and its K-L basis cache are built
#: once per worker, not once per chunk (the Phase-A analog of the
#: cached shared-bank attachment below).
_A_SESSIONS: dict[tuple[FakeQuakesParameters, str | None], FakeQuakes] = {}


def _run_a_chunk(task: _AChunkTask) -> list[Rupture]:
    """Worker: generate one Phase-A rupture chunk.

    Safe to fan out because :meth:`FakeQuakes.phase_a_ruptures` derives
    an independent RNG from each rupture's *catalog index* — chunk
    [start, start+count) produces the identical ruptures in any process,
    so the pooled catalog is bit-identical to the sequential one. Each
    worker keeps its session for the life of the process, with a K-L
    cache over ``kl_dir`` (the runner's disk store) — a basis
    eigendecomposed by *any* worker is a disk hit for every other
    worker and every later run of the same configuration.
    """
    params, start, count, kl_dir = task
    fq = _A_SESSIONS.get((params, kl_dir))
    if fq is None:
        fq = FakeQuakes.from_parameters(params, kl_cache=KLCache(cache_dir=kl_dir))
        fq.phase_a_distances()
        _A_SESSIONS[(params, kl_dir)] = fq
    return fq.phase_a_ruptures(start, count)


def _synthesize_chunk(
    bank: GreensFunctionBank,
    params: FakeQuakesParameters,
    ruptures: list[Rupture],
    spool_dir: str | None,
) -> list[CRow]:
    """Synthesize one C chunk against ``bank``.

    Runs the batched synthesis kernel and spools each product to
    ``spool_dir`` when the run archives. Returns one row per rupture:
    ``(rupture_id, max PGD, target Mw, spooled path or None)``. The
    parent calls this with its own bank; pool workers reach it through
    :func:`_synthesize_chunk_shared`.
    """
    noise = GnssNoiseModel() if params.with_noise else None
    synth = WaveformSynthesizer(bank, dt_s=params.dt_s, noise=noise)
    rngs = (
        [RngFactory(params.seed).generator("noise", r.rupture_id) for r in ruptures]
        if params.with_noise
        else None
    )
    rows: list[CRow] = []
    for ws in synth.synthesize_batch(ruptures, rngs=rngs):
        path: str | None = None
        if spool_dir is not None:
            path = str(Path(spool_dir) / f"{ws.rupture_id}.npz")
            ws.save(path)
        rows.append(
            (
                ws.rupture_id,
                float(ws.pgd_m().max()),
                float(ws.metadata.get("target_mw", 0.0)),
                path,
            )
        )
    return rows


#: Pool task: (shared-bank handle, parameters, rupture chunk, spool dir).
_CChunkTask = tuple[SharedBankHandle, FakeQuakesParameters, list[Rupture], str | None]


def _synthesize_chunk_shared(task: _CChunkTask) -> list[CRow]:
    """Worker: synthesize one C chunk against the shared GF bank.

    Attaching is idempotent per worker process: the segments are mapped
    once and reused for every subsequent chunk.
    """
    handle, params, ruptures, spool_dir = task
    return _synthesize_chunk(attach_shared_bank(handle), params, ruptures, spool_dir)


def _release_state(state: dict) -> None:
    """Tear down a runner's pool and unlink its shared-memory segments."""
    pool = state.get("pool")
    if pool is not None:
        pool.shutdown(wait=True, cancel_futures=True)
        state["pool"] = None
    for shm in state.get("segments", ()):
        try:
            shm.close()
            shm.unlink()
        except (FileNotFoundError, OSError):  # pragma: no cover - double free
            pass
    state["segments"] = []


class LocalRunner:
    """Run an FDW configuration on this machine with real kernels.

    Parameters
    ----------
    n_workers:
        1 (default) mirrors MudPy's native sequential behaviour: every
        chunk runs in the parent. >1 fans each phase's pending chunks
        out over a persistent process pool (A workers cache their
        Phase-A session, C workers read one shared-memory copy of the
        GF bank; see module docstring) whenever more than one chunk is
        pending. Every placement is bit-identical to sequential.
    gf_cache:
        The :class:`~repro.core.gfcache.GFCache` Phase B routes
        through. ``None`` builds a private cache (which still honours
        ``REPRO_GF_CACHE_DIR``); pass a shared instance to reuse banks
        across runners.
    kl_cache:
        The :class:`~repro.seismo.klcache.KLCache` the *parent-side*
        Phase A routes through (sequential runs and the single-chunk
        fall-through). ``None`` builds a private cache
        (which still honours ``REPRO_KL_CACHE_DIR``). Pool workers
        always build their own per-process caches.

    The pool and the published shared-memory segments persist across
    :meth:`run` calls — repeated runs of the same configuration skip
    Phase B entirely and re-dispatch against the already-published
    bank. Call :meth:`close` (or use the runner as a context manager)
    to release them; a finalizer also releases on garbage collection.
    """

    def __init__(
        self,
        n_workers: int = 1,
        gf_cache: GFCache | None = None,
        kl_cache: KLCache | None = None,
        retry_policy: RetryPolicy | None = None,
    ) -> None:
        if n_workers < 1:
            raise ConfigError(f"n_workers must be >= 1, got {n_workers}")
        self.n_workers = n_workers
        self.gf_cache = gf_cache if gf_cache is not None else GFCache()
        self.kl_cache = kl_cache if kl_cache is not None else KLCache()
        #: Backoff applied to retryable chunk failures (injected flakes);
        #: schedules derive from the run config's seed, so they are as
        #: reproducible as the catalog itself.
        self.retry_policy = retry_policy or RetryPolicy()
        self._published: dict[str, SharedBankHandle] = {}
        self._state: dict = {"pool": None, "segments": []}
        self._finalizer = weakref.finalize(self, _release_state, self._state)

    # -- pool / shared-bank lifecycle ----------------------------------------

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._state["pool"] is None:
            # Start the shared-memory resource tracker before forking:
            # workers forked without one lazily spawn their own, which
            # double-books the bank segments and warns at worker exit.
            resource_tracker.ensure_running()
            self._state["pool"] = ProcessPoolExecutor(max_workers=self.n_workers)
        return self._state["pool"]

    def _shared_handle(self, fq: FakeQuakes) -> SharedBankHandle:
        """Publish ``fq``'s bank once per content key; reuse the handle
        afterwards."""
        key = gf_bank_key(
            fq.geometry,
            fq.network,
            gf_method=fq.params.gf_method,
            dtype=fq.params.gf_dtype,
        )
        handle = self._published.get(key)
        if handle is None:
            handle, segments = publish_shared_bank(fq.phase_b_greens_functions(), key)
            self._published[key] = handle
            self._state["segments"].extend(segments)
        return handle

    def close(self) -> None:
        """Shut the pool down and unlink the shared-memory segments."""
        self._published.clear()
        self._finalizer()

    def __enter__(self) -> "LocalRunner":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- execution ------------------------------------------------------------

    def run(
        self,
        config: FdwConfig,
        archive_dir: str | Path | None = None,
        *,
        checkpoint: bool = False,
        resume: bool = False,
        faults: "object | None" = None,
    ) -> LocalRunResult:
        """Execute all three phases; optionally archive the products.

        With ``checkpoint=True`` (implied by ``resume=True``) the run
        keeps a chunk-granular :class:`~repro.core.checkpoint.RunCheckpoint`
        under ``archive_dir`` and assembles the product archive only once
        every chunk is done. ``resume=True`` reloads a previous run's
        checkpoint and skips its completed chunks; because Phase A keys
        its RNG per catalog index and Phase C is a pure function of the
        rupture chunk, a resumed run's archive is byte-identical to an
        uninterrupted run's. ``faults`` takes a
        :class:`~repro.faults.FaultPlan` whose ``chunk_completed`` hook
        is called after each executed (and checkpointed) chunk — the
        crash-injection point for recovery tests — and whose
        ``chunk_attempt`` hook fires before each attempt: retryable
        :class:`~repro.faults.TransientFault` flakes are absorbed by
        the runner's :attr:`retry_policy` (re-executing just the flaked
        chunk, with seed-derived backoff accounted in the result), so a
        flaky run's archive is byte-identical to a clean run's. A
        checkpointed chunk that fails its integrity check on resume is
        quarantined and transparently re-executed.
        """
        if (checkpoint or resume) and archive_dir is None:
            raise ConfigError("checkpoint/resume requires an archive_dir")
        fq = _fakequakes_for(config, gf_cache=self.gf_cache, kl_cache=self.kl_cache)
        timings: dict[str, float] = {}
        executed = {"A": 0, "C": 0}
        skipped = {"A": 0, "C": 0}
        a_chunks = chunk_bounds(config.n_waveforms, config.chunk_a)
        c_chunks = chunk_bounds(config.n_waveforms, config.chunk_c)
        ckpt: RunCheckpoint | None = None
        if checkpoint or resume:
            ckpt = RunCheckpoint(
                Path(archive_dir),  # type: ignore[arg-type]
                config,
                n_a_chunks=len(a_chunks),
                n_c_chunks=len(c_chunks),
                resume=resume,
            )
        # Checkpointed runs assemble the archive only after every chunk
        # is durable, so a crash never leaves a partial manifest behind.
        archive = (
            ProductArchive(Path(archive_dir), name=config.name)
            if archive_dir is not None and ckpt is None
            else None
        )
        # Every Phase-C product lands in one spool, wherever its chunk
        # ran; only the parent adds it to the archive (the archive index
        # is not multiprocess-safe).
        spool: Path | None = None
        if ckpt is not None:
            spool = ckpt.waveforms_dir
        elif archive is not None:
            spool = archive.root / "_spool"
            spool.mkdir(parents=True, exist_ok=True)
        spool_dir = str(spool) if spool is not None else None

        def end_phase(name: str, t0: float, args: dict | None = None) -> None:
            # Phase spans carry wall time; ``ts`` is the perf_counter
            # origin the tracer's default clock also uses, so runner
            # spans line up with any surrounding obs.span() blocks.
            timings[name] = time.perf_counter() - t0
            obs.complete(f"phase:{name}", ts=t0, dur=timings[name],
                         category="local", track="runner", args=args)

        retries = {"A": 0, "C": 0}
        backoff_s = [0.0]
        attempt_hook = (
            getattr(faults, "chunk_attempt", None) if faults is not None else None
        )

        def attempted(phase, index, fn, resubmit):
            """One chunk's execution, retry-wrapped when a fault plan
            can inject flakes. Without a plan the call is direct."""
            if attempt_hook is None:
                return fn()

            def once():
                attempt_hook(phase, index)
                return fn()

            def on_retry(_attempt, _exc, delay):
                retries[phase] += 1
                backoff_s[0] += delay
                if obs.enabled():
                    obs.counter_add(
                        "repro_local_chunk_retries_total", 1, {"phase": phase}
                    )
                    obs.counter_add(
                        "repro_local_retry_backoff_seconds_total", delay
                    )
                resubmit()

            outcome = retry_call(
                once,
                policy=self.retry_policy,
                seed=config.seed,
                keys=("chunk", phase, index),
                on_retry=on_retry,
            )
            return outcome.value

        def run_phase(phase, n_chunks, load, here, worker, tasks, done) -> list:
            """The one chunk loop both phases share.

            Reloads checkpointed chunks with ``load``, then runs the rest
            in the parent (``here(index)``) when there is no pool or at
            most one chunk is pending, otherwise as one ``worker``
            future per chunk over ``tasks(pending)``. Every chunk goes
            through :func:`attempted` — a flaked pool chunk is
            resubmitted on its own — and finishes with ``done(index,
            result)``.
            """
            t0 = time.perf_counter()
            results: list = [None] * n_chunks
            pending: list[int] = []
            for i in range(n_chunks):
                restored = load(i) if ckpt is not None and ckpt.is_done(phase, i) else None
                if restored is None:
                    pending.append(i)
                    continue
                results[i] = restored
                skipped[phase] += 1
                obs.counter_add(
                    "repro_local_chunks_total", 1,
                    {"phase": phase, "outcome": "skipped"},
                )
            futures: dict[int, Future] = {}
            if self.n_workers == 1 or len(pending) <= 1:
                submit, result = (lambda i: None), here
            else:
                pool = self._ensure_pool()
                by_index = tasks(pending)

                def submit(i: int) -> None:
                    futures[i] = pool.submit(worker, by_index[i])

                def result(i: int):
                    return futures[i].result()

                for i in pending:
                    submit(i)
            try:
                for i in pending:
                    results[i] = attempted(
                        phase, i, lambda i=i: result(i), lambda i=i: submit(i)
                    )
                    done(i, results[i])
                    executed[phase] += 1
                    obs.counter_add(
                        "repro_local_chunks_total", 1,
                        {"phase": phase, "outcome": "executed"},
                    )
                    if faults is not None:
                        faults.chunk_completed(phase)
            finally:
                # A chunk that raised leaves no queued work behind.
                for future in futures.values():
                    future.cancel()
            end_phase(phase, t0, {"executed": executed[phase], "skipped": skipped[phase]})
            return results

        t0 = time.perf_counter()
        fq.phase_a_distances()
        end_phase("dist", t0)

        def a_tasks(pending: list[int]) -> dict[int, _AChunkTask]:
            # Per-index RNG keying makes chunks process-independent, so
            # the pooled catalog is bit-identical to the parent's. Workers
            # share the runner's disk K-L store when one is configured.
            kl_dir = self.kl_cache.cache_dir
            return {
                i: (fq.params, *a_chunks[i], str(kl_dir) if kl_dir is not None else None)
                for i in pending
            }

        def a_done(index: int, chunk: list[Rupture]) -> None:
            if ckpt is not None:
                ckpt.store_a_chunk(index, chunk)

        chunks_a = run_phase(
            "A",
            len(a_chunks),
            lambda i: ckpt.try_load_a_chunk(i),
            lambda i: fq.phase_a_ruptures(*a_chunks[i]),
            _run_a_chunk,
            a_tasks,
            a_done,
        )
        ruptures: list[Rupture] = [r for chunk in chunks_a for r in chunk]

        t0 = time.perf_counter()
        fq.phase_b_greens_functions()
        end_phase("B", t0)

        def c_ruptures(index: int) -> list[Rupture]:
            start, count = c_chunks[index]
            return ruptures[start : start + count]

        def c_tasks(pending: list[int]) -> dict[int, _CChunkTask]:
            handle = self._shared_handle(fq)
            return {i: (handle, fq.params, c_ruptures(i), spool_dir) for i in pending}

        def c_done(index: int, rows: list[CRow]) -> None:
            if ckpt is not None:
                ckpt.store_c_chunk(index, rows)
            elif archive is not None:
                for rupture_id, _pgd_max, target_mw, path in rows:
                    archive.add_file(
                        Path(path),  # type: ignore[arg-type]
                        kind="waveforms",
                        label=rupture_id,
                        metadata={"mw": round(target_mw, 3)},
                        move=True,
                    )

        rows_by_chunk: list[list[CRow]] = run_phase(
            "C",
            len(c_chunks),
            lambda i: ckpt.try_load_c_chunk(i),
            lambda i: _synthesize_chunk(
                fq.phase_b_greens_functions(), fq.params, c_ruptures(i), spool_dir
            ),
            _synthesize_chunk_shared,
            c_tasks,
            c_done,
        )
        if archive is not None:
            try:
                spool.rmdir()  # type: ignore[union-attr]
            except OSError:  # pragma: no cover - stray spool files
                pass
        pgd = {rid: pgd_max for rows in rows_by_chunk for rid, pgd_max, _mw, _p in rows}
        n_sets = sum(len(rows) for rows in rows_by_chunk)

        if ckpt is not None:
            # All chunks durable: rebuild the archive from the checkpoint
            # in canonical order (waveforms in catalog order, then
            # ruptures) so the manifest matches an uninterrupted run's
            # byte for byte, then retire the checkpoint.
            ckpt.reset_archive()
            archive = ProductArchive(Path(archive_dir), name=config.name)  # type: ignore[arg-type]
            for chunk_rows in rows_by_chunk:
                for rupture_id, _pgd_max, target_mw, path in chunk_rows:
                    archive.add_file(
                        Path(path),  # type: ignore[arg-type]
                        kind="waveforms",
                        label=rupture_id,
                        metadata={"mw": round(target_mw, 3)},
                        move=False,
                    )
        if archive is not None:
            for rupture in ruptures:
                tmp = archive.root / f"_tmp_{rupture.rupture_id}.rupt"
                write_rupt(rupture, fq.geometry, tmp)
                archive.add_file(
                    tmp,
                    kind="ruptures",
                    label=rupture.rupture_id,
                    metadata={"mw": round(rupture.actual_mw, 3)},
                    move=True,
                )
            archive.close()
        if ckpt is not None:
            ckpt.finalize()

        return LocalRunResult(
            config=config,
            n_waveform_sets=n_sets,
            phase_seconds=timings,
            archive_root=archive.root if archive is not None else None,
            pgd_by_rupture=pgd,
            chunks_executed=executed,
            chunks_skipped=skipped,
            chunk_retries=retries,
            retry_backoff_s=backoff_s[0],
        )


def estimate_sequential_runtime_s(
    config: FdwConfig,
    runtime: RuntimeModel | None = None,
    n_cpus: int = 4,
) -> float:
    """Predicted single-host runtime of the full workload in seconds.

    The control machine is the paper's AWS instance (4 Xeon 8175M CPUs)
    running "an automated version of MudPy's FakeQuakes". Two facts
    calibrate the estimate:

    * the paper measured that host's per-chunk costs when deriving the
      bursting constants — 287 s per rupture job's quantity (16
      ruptures) and 144 s per waveform job's quantity (2 waveforms at
      121 stations) — so per-item costs on the host are 287/16 s per
      rupture and 72 s per full-input waveform (scaled by station
      count);
    * MudPy natively incorporates MPI ("MudPy already incorporates MPI
      and has some parallelism", §2), so the sequential host spreads
      the phase work over its ``n_cpus`` cores.

    GF and distance-matrix costs use the OSG runtime model's means
    (those phases run once and are equally parallelized).
    """
    from repro.bursting.cloud import RUPTURE_CLOUD_SECONDS, WAVEFORM_CLOUD_SECONDS

    if n_cpus < 1:
        raise ConfigError(f"n_cpus must be >= 1, got {n_cpus}")
    n_stations = getattr(config, "n_stations", None)
    if n_stations is None or n_stations <= 0:
        raise ConfigError(
            f"config.n_stations must be > 0 to scale the per-waveform cost, "
            f"got {n_stations}"
        )
    runtime = runtime or RuntimeModel()
    per_rupture = RUPTURE_CLOUD_SECONDS / 16.0
    per_waveform = (WAVEFORM_CLOUD_SECONDS / 2.0) * (n_stations / 121.0)
    plan = plan_phases(config)
    total = config.n_waveforms * (per_rupture + per_waveform)
    total += runtime.mean_seconds(plan.b_job.payload)  # type: ignore[arg-type]
    total += runtime.dist_base_s  # the host builds the matrices once
    return total / n_cpus
