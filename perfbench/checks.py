"""Output checks every benchmark run must pass.

Each check is a pure function over plain data (entry lists, PGD maps,
ticket tuples) and returns a list of failure messages; an empty list
means the output is correct. The workloads extract that data from the
program's outputs, so the tests in ``tests/`` can hand the same
functions a deliberately perturbed output and watch it be rejected.

Two kinds of check:

* invariants that hold for every seed (manifest size, product reloads,
  exactly-once task coverage, ticket accounting), and
* a comparison against ``reference.json``, the values measured at the
  reference seed: PGDs within a relative tolerance, DES and service
  counts exactly.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterable, Mapping
from pathlib import Path

__all__ = [
    "REFERENCE_PATH",
    "load_reference",
    "check_fdw_products",
    "check_replay",
    "check_portal",
    "check_reference",
]

REFERENCE_PATH = Path(__file__).with_name("reference.json")


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    """The stored reference values, keyed by workload name."""
    return json.loads(path.read_text())


def check_fdw_products(
    n_waveforms: int,
    entries: Iterable[Mapping],
    returned_pgd: Mapping[str, float],
    reloaded_pgd: Mapping[str, float],
    reloaded_ruptures: Iterable[str],
) -> list[str]:
    """An archived FDW run: 2n entries, every product reloads, PGDs agree.

    ``entries`` is the reopened archive manifest; ``returned_pgd`` the
    run's ``pgd_by_rupture``; ``reloaded_pgd`` the max PGD of every
    waveform product read back from disk; ``reloaded_ruptures`` the ids
    of the ``.rupt`` products that parsed.
    """
    failures: list[str] = []
    entries = list(entries)
    if len(entries) != 2 * n_waveforms:
        failures.append(
            f"manifest holds {len(entries)} entries, expected {2 * n_waveforms}"
        )
    by_kind: dict[str, set[str]] = {}
    for e in entries:
        by_kind.setdefault(e["kind"], set()).add(e["label"])
    waveforms = by_kind.get("waveforms", set())
    ruptures = by_kind.get("ruptures", set())
    if waveforms != set(returned_pgd):
        failures.append(
            f"manifest lists {len(waveforms)} waveform products for "
            f"{len(returned_pgd)} returned waveform sets"
        )
    if ruptures != waveforms:
        failures.append("rupture products do not pair with waveform products")
    unreadable = sorted(waveforms - set(reloaded_pgd))
    if unreadable:
        failures.append(f"{len(unreadable)} waveform product(s) did not reload")
    unparsed = sorted(ruptures - set(reloaded_ruptures))
    if unparsed:
        failures.append(f"{len(unparsed)} rupture product(s) did not reload")
    mismatched = [
        label
        for label, pgd in reloaded_pgd.items()
        if returned_pgd.get(label) != pgd
    ]
    if mismatched:
        failures.append(
            f"{len(mismatched)} reloaded PGD(s) differ from the returned PGD, "
            f"first {sorted(mismatched)[0]}"
        )
    return failures


def check_replay(
    expected_nodes: Mapping[str, set[str]],
    completed_nodes: Mapping[str, set[str]],
    n_tasks: int,
    rescue_files: Iterable[str],
) -> list[str]:
    """A partitioned replay: every DAGMan finishes, tasks are covered.

    ``expected_nodes`` maps each DAGMan to its DAG's node names,
    ``completed_nodes`` to the nodes with a successful job record.
    """
    failures: list[str] = []
    for dagman, nodes in expected_nodes.items():
        done = completed_nodes.get(dagman, set())
        if done != nodes:
            failures.append(
                f"DAGMan {dagman} finished {len(done & nodes)} of "
                f"{len(nodes)} nodes"
            )
    extra = sorted(set(completed_nodes) - set(expected_nodes))
    if extra:
        failures.append(f"records from unknown DAGMan(s) {extra}")
    covered = sum(len(nodes) for nodes in expected_nodes.values())
    if covered != n_tasks:
        failures.append(f"partitions cover {covered} tasks, expected {n_tasks}")
    rescues = sorted(rescue_files)
    if rescues:
        failures.append(f"rescue file(s) written: {rescues}")
    return failures


def check_portal(
    n_submissions: int,
    tickets: Iterable[tuple[str, str, str, bool]],
    n_executed: int,
    n_coalesced: int,
) -> list[str]:
    """A portal session: every ticket resolves, coalescing is consistent.

    ``tickets`` holds one ``(ticket_id, content_digest, run_id,
    coalesced)`` tuple per *resolved* ticket; a lost or failed ticket is
    simply absent.
    """
    failures: list[str] = []
    tickets = list(tickets)
    if len(tickets) != n_submissions:
        failures.append(
            f"{len(tickets)} of {n_submissions} tickets resolved"
        )
    if n_executed + n_coalesced != n_submissions:
        failures.append(
            f"executions ({n_executed}) + coalesced ({n_coalesced}) != "
            f"submissions ({n_submissions})"
        )
    digest_of_run: dict[str, str] = {}
    for _ticket, digest, run_id, _coalesced in tickets:
        if digest_of_run.setdefault(run_id, digest) != digest:
            failures.append(f"run {run_id} serves two different scenarios")
    owners = {run for _t, _d, run, coalesced in tickets if not coalesced}
    if len(owners) != n_executed:
        failures.append(
            f"{len(owners)} distinct runs own a ticket, expected "
            f"{n_executed} executions"
        )
    orphans = [t for t, _d, run, coalesced in tickets if coalesced and run not in owners]
    if orphans:
        failures.append(f"coalesced ticket(s) without an owning run: {orphans[:3]}")
    return failures


def check_reference(
    observed: Mapping[str, object],
    reference: Mapping[str, object],
    rel_tol: float,
) -> list[str]:
    """Compare observed values with the stored reference.

    Floats (and the values of float maps such as per-rupture PGDs) must
    agree within ``rel_tol``; integers and strings must match exactly.
    A key present in only one side is a failure.
    """
    failures: list[str] = []
    for key in sorted(set(observed) | set(reference)):
        if key not in observed or key not in reference:
            failures.append(f"reference key {key!r} missing on one side")
            continue
        want, got = reference[key], observed[key]
        if isinstance(want, Mapping):
            if not isinstance(got, Mapping) or set(got) != set(want):
                failures.append(f"{key}: keys differ from the reference")
                continue
            bad = [
                k for k in want if not _agrees(got[k], want[k], rel_tol)
            ]
            if bad:
                failures.append(
                    f"{key}: {len(bad)} value(s) off the reference, first "
                    f"{sorted(bad)[0]}: {got[sorted(bad)[0]]!r} vs "
                    f"{want[sorted(bad)[0]]!r}"
                )
        elif not _agrees(got, want, rel_tol):
            failures.append(f"{key}: {got!r} vs reference {want!r}")
    return failures


def _agrees(got: object, want: object, rel_tol: float) -> bool:
    if isinstance(want, float) or isinstance(got, float):
        try:
            return math.isclose(float(got), float(want), rel_tol=rel_tol, abs_tol=0.0)
        except (TypeError, ValueError):
            return False
    return got == want
