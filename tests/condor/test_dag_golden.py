"""Golden digests of the ``.dag`` files written for generated workloads.

``DagDescription.write`` emits PARENT lines in adjacency order: nodes in
insertion order, then each node's children in the order their edges
were added. Replays, rescue files and the WfFormat round trip all rest
on that order, so these digests pin the exact bytes written for WfChef
scale-ups of the FDW64 example and their concurrent-DAGMan partitions.
The values were recorded with the earlier graph-library-backed
``DagDescription`` and must not change with its internals.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from repro.condor.dagfile import DagDescription
from repro.wf import generate_instance, import_instance, load_instance, partition_instance

EXAMPLE = Path(__file__).resolve().parents[2] / "examples" / "fdw64_wfformat.json"

#: (tasks, seed, partitions) -> sha256 over the generated instance's
#: ``.dag`` bytes followed by each partition's, in partition order.
GOLDEN = {
    (120, 0, 2): (
        "18eef171698f3ba3bb3ae73ffd9194df"
        "645df2d17d369cb194ad63c95d2c89b7"
    ),
    (300, 1, 3): (
        "987c87ef4bd477d29b6e96fe2714303c"
        "75bf3fa66a4584dc249d00177ec4cea6"
    ),
    (700, 2, 4): (
        "edb97cffde8e3a4fc9cb05f8558eabcb"
        "b5bcc9de1b77cbd024258dfe42509413"
    ),
}


def _dag_bytes(instance, directory: Path) -> bytes:
    path = import_instance(instance).dag.write(directory / instance.name)
    return path.read_bytes()


@pytest.mark.parametrize(("n_tasks", "seed", "k"), sorted(GOLDEN))
def test_generated_and_partitioned_dag_bytes_match_golden(tmp_path, n_tasks, seed, k):
    instance = generate_instance(load_instance(EXAMPLE), n_tasks, seed)
    parts = partition_instance(instance, k, seed)
    digest = hashlib.sha256()
    for inst in (instance, *parts):
        digest.update(_dag_bytes(inst, tmp_path))
    assert digest.hexdigest() == GOLDEN[(n_tasks, seed, k)]


def test_read_then_write_reproduces_dag_bytes(tmp_path):
    instance = generate_instance(load_instance(EXAMPLE), 300, 1)
    first = import_instance(instance).dag.write(tmp_path / "first")
    again = DagDescription.read(first).write(tmp_path / "again")
    assert again.read_bytes() == first.read_bytes()
