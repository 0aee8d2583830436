"""The DAGMan engine: dependency-driven job release with throttles.

DAGMan's job is simple but load-bearing for the paper's results: it only
submits a node once all its parents completed, it throttles how many
idle jobs it keeps in the schedd queue (``DAGMAN_MAX_JOBS_IDLE``), and
it submits in periodic batches rather than all at once. Those throttles
are one of the mechanisms behind the partitioned-DAGMan behaviour in
Figs 3-4 (each concurrent DAGMan keeps its own idle window, but the pool
drains all windows from a shared capacity).

The engine is time-free: the pool simulator (or any driver) repeatedly
calls :meth:`pull_submissions` and reports results with
:meth:`on_node_result`.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass

from repro.errors import DagError
from repro.condor.dagfile import DagDescription

__all__ = ["NodeStatus", "DagmanOptions", "DagmanEngine"]


class NodeStatus(enum.Enum):
    """Lifecycle of a DAG node inside the engine."""

    WAITING = "waiting"  # parents not yet done
    READY = "ready"  # eligible, not yet submitted
    SUBMITTED = "submitted"  # handed to the schedd
    DONE = "done"
    FAILED = "failed"  # terminal failure (retries exhausted)


@dataclass(frozen=True)
class DagmanOptions:
    """Engine throttles.

    Attributes
    ----------
    max_idle:
        Maximum jobs the engine keeps idle in the queue at once (0
        disables the cap). HTCondor's modern default is 1000; the FDW
        runs with 500, fitted to the paper's wait-time statistics (see
        DESIGN.md).
    submit_batch:
        Maximum submissions per :meth:`pull_submissions` call, modelling
        DAGMan's per-cycle submit rate.
    """

    max_idle: int = 500
    submit_batch: int = 200

    def __post_init__(self) -> None:
        if self.max_idle < 0:
            raise DagError(f"max_idle must be >= 0, got {self.max_idle}")
        if self.submit_batch < 1:
            raise DagError(f"submit_batch must be >= 1, got {self.submit_batch}")


class DagmanEngine:
    """Executable state of one DAGMan instance.

    Parameters
    ----------
    dag:
        The validated workflow structure.
    options:
        Throttling configuration.
    """

    def __init__(self, dag: DagDescription, options: DagmanOptions | None = None) -> None:
        dag.validate()
        self.dag = dag
        self.options = options or DagmanOptions()
        self._status: dict[str, NodeStatus] = {}
        self._remaining_parents: dict[str, int] = {}
        self._retries_left: dict[str, int] = {}
        # A deque: at million-root scale, pull_submissions slicing a
        # list left-shifts every remaining name each cycle (quadratic).
        self._ready_fifo: deque[str] = deque()
        self._n_done = 0
        self._n_failed = 0
        for name in dag.node_names:
            n_parents = len(dag.parents(name))
            self._remaining_parents[name] = n_parents
            self._retries_left[name] = dag.node(name).retries
            if n_parents == 0:
                self._status[name] = NodeStatus.READY
                self._ready_fifo.append(name)
            else:
                self._status[name] = NodeStatus.WAITING

    # -- queries ------------------------------------------------------------

    def status(self, name: str) -> NodeStatus:
        """Status of one node."""
        try:
            return self._status[name]
        except KeyError:
            raise DagError(f"unknown DAG node {name!r}") from None

    def counts(self) -> dict[NodeStatus, int]:
        """Node counts per status."""
        out = {status: 0 for status in NodeStatus}
        for status in self._status.values():
            out[status] += 1
        return out

    @property
    def is_complete(self) -> bool:
        """True when every node is DONE."""
        return self._n_done == len(self._status)

    @property
    def has_failed(self) -> bool:
        """True when any node failed terminally.

        Like real DAGMan, in-flight work may continue, but the DAG can
        no longer complete.
        """
        return self._n_failed > 0

    @property
    def n_ready(self) -> int:
        """Nodes currently eligible for submission."""
        return len(self._ready_fifo)

    def retries_left(self, name: str) -> int:
        """Remaining DAG-level retries for a node."""
        self.status(name)  # validates the name
        return self._retries_left[name]

    # -- driving ------------------------------------------------------------

    def pull_submissions(self, current_idle: int) -> list[str]:
        """Names to submit this cycle, FIFO within the throttles.

        Parameters
        ----------
        current_idle:
            How many of this DAGMan's jobs are currently idle in the
            schedd queue; used to honour ``max_idle``.
        """
        if current_idle < 0:
            raise DagError(f"current_idle must be >= 0, got {current_idle}")
        budget = self.options.submit_batch
        if self.options.max_idle:
            budget = min(budget, max(0, self.options.max_idle - current_idle))
        n = min(budget, len(self._ready_fifo))
        popleft = self._ready_fifo.popleft
        batch = [popleft() for _ in range(n)]
        for name in batch:
            self._status[name] = NodeStatus.SUBMITTED
        return batch

    def mark_done(self, name: str) -> list[str]:
        """Fast-forward a node to DONE without submitting it.

        Used by rescue-DAG application (:mod:`repro.condor.rescue`) to
        skip work a previous attempt already completed. Only WAITING or
        READY nodes can be fast-forwarded, and — as with a real
        completion — children become READY when their last parent is
        done; the newly ready names are returned.
        """
        status = self.status(name)
        if status not in (NodeStatus.WAITING, NodeStatus.READY):
            raise DagError(
                f"cannot fast-forward node {name!r} from state {status.value}"
            )
        if status is NodeStatus.READY:
            self._ready_fifo.remove(name)
        self._status[name] = NodeStatus.SUBMITTED  # legal path to DONE
        return self.on_node_result(name, success=True)

    def on_node_result(self, name: str, success: bool) -> list[str]:
        """Report a node's terminal job result.

        On success, children whose parents are now all done become
        READY (their names are returned). On failure, the node is
        re-queued while retries remain, else marked FAILED.
        """
        if self.status(name) is not NodeStatus.SUBMITTED:
            raise DagError(
                f"node {name!r} reported result while {self.status(name).value}"
            )
        if not success:
            if self._retries_left[name] > 0:
                self._retries_left[name] -= 1
                self._status[name] = NodeStatus.READY
                self._ready_fifo.append(name)
                return [name]
            self._status[name] = NodeStatus.FAILED
            self._n_failed += 1
            return []
        self._status[name] = NodeStatus.DONE
        self._n_done += 1
        newly_ready: list[str] = []
        for child in self.dag.children(name):
            self._remaining_parents[child] -= 1
            if self._remaining_parents[child] < 0:
                raise DagError(f"parent accounting underflow on {child!r}")
            if self._remaining_parents[child] == 0 and self._status[child] is NodeStatus.WAITING:
                self._status[child] = NodeStatus.READY
                self._ready_fifo.append(child)
                newly_ready.append(child)
        return newly_ready
