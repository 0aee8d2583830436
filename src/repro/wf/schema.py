"""WfFormat-compatible workflow instances (WfCommons interchange).

WfCommons (Coleman et al., 2021) defines a common JSON format —
*WfFormat* — for workflow instances: tasks with runtimes, parent/child
edges, input/output files with sizes, and the machines they ran on.
This module is our validated in-memory model of that format plus strict
JSON load/dump, so any simulator in this repository can consume (and
produce) instances interchangeably with WfCommons tooling.

The on-disk layout follows WfFormat 1.4::

    {
      "name": "...", "description": "...", "schemaVersion": "1.4",
      "wms": {"name": "...", "version": "..."},
      "workflow": {
        "makespanInSeconds": 1234.5,
        "machines": [{"nodeName": "...", "cpu": {"count": 4, "speed": 2400}}],
        "tasks": [
          {"name": "...", "category": "...", "type": "compute",
           "runtimeInSeconds": 150.0,
           "parents": [...], "children": [...],
           "files": [{"name": "...", "sizeInBytes": 1048576, "link": "input"}],
           "cores": 4, "memoryInBytes": 8589934592,
           "command": {"program": "...", "arguments": [...]}}
        ]
      }
    }

Two documented extensions carry what the FDW round-trip needs and plain
WfFormat has no slot for: a per-task ``"retries"`` count plus an FDW
``"payload"`` (phase / nItems / nStations), and an instance-level
``"attributes"`` object (e.g. the DAGMan ``max_idle`` throttle and the
pool seed). Both are omitted from the JSON when empty, so exported
instances stay readable by WfCommons parsers, and unknown keys in
*loaded* documents are ignored, so real downloaded WfCommons traces
parse. Known keys are validated strictly: wrong types, negative sizes
or runtimes, dangling parent/child references, asymmetric edges, and
cycles all raise :class:`~repro.errors.WfFormatError`.

File sizes are kept in **bytes** (ints in typical WfFormat documents,
floats allowed); because 1 MB = 2**20 bytes is a power of two, the
MB<->bytes conversions used by the importer/exporter are exact in
binary floating point, which is what makes the export→import→replay
round trip bit-identical.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path

from repro.condor.dagfile import topological_order
from repro.errors import WfFormatError

__all__ = [
    "SCHEMA_VERSION",
    "WfFile",
    "WfMachine",
    "WfPayload",
    "WfTask",
    "WfInstance",
    "load_instance",
    "loads_instance",
    "dump_instance",
    "dumps_instance",
]

#: WfFormat schema version this module reads and writes.
SCHEMA_VERSION = "1.4"

_LINKS = ("input", "output")
_WHITESPACE = re.compile(r"\s")


@dataclass(frozen=True)
class WfFile:
    """One file a task reads (``link="input"``) or writes (``"output"``)."""

    name: str
    size_bytes: float
    link: str = "input"

    def __post_init__(self) -> None:
        if not self.name:
            raise WfFormatError("file name must be non-empty")
        if self.size_bytes < 0:
            raise WfFormatError(f"file {self.name!r}: negative size {self.size_bytes}")
        if self.link not in _LINKS:
            raise WfFormatError(f"file {self.name!r}: link must be one of {_LINKS}")

    @property
    def size_mb(self) -> float:
        """Size in MB (exact: 2**20 divides binary floats exactly)."""
        return self.size_bytes / 1048576.0


@dataclass(frozen=True)
class WfMachine:
    """A machine specification (informational; the pool model is capacity-based)."""

    name: str
    cpu_cores: int = 1
    cpu_speed_mhz: int | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise WfFormatError("machine name must be non-empty")
        if self.cpu_cores < 1:
            raise WfFormatError(f"machine {self.name!r}: cpu_cores must be >= 1")


@dataclass(frozen=True)
class WfPayload:
    """FDW payload extension: what the task computes (phase semantics).

    Present on instances exported from FDW runs; absent on generic
    WfCommons traces. The importer turns it back into a
    :class:`~repro.condor.jobs.JobPayload` so the calibrated runtime
    model and the phase-aware bursting policies keep working.
    """

    phase: str
    n_items: int = 1
    n_stations: int = 1

    def __post_init__(self) -> None:
        if not self.phase:
            raise WfFormatError("payload phase must be non-empty")
        if self.n_items < 1 or self.n_stations < 1:
            raise WfFormatError("payload sizes must be >= 1")


@dataclass(frozen=True)
class WfTask:
    """One task of a workflow instance."""

    name: str
    category: str
    runtime_s: float
    parents: tuple[str, ...] = ()
    children: tuple[str, ...] = ()
    files: tuple[WfFile, ...] = ()
    cores: int = 1
    memory_mb: int | None = None
    retries: int = 0
    program: str | None = None
    arguments: tuple[str, ...] = ()
    payload: WfPayload | None = None

    def __post_init__(self) -> None:
        if not self.name or _WHITESPACE.search(self.name):
            raise WfFormatError(f"bad task name {self.name!r}")
        if not self.category:
            raise WfFormatError(f"task {self.name!r}: category must be non-empty")
        if self.runtime_s < 0:
            raise WfFormatError(f"task {self.name!r}: negative runtime {self.runtime_s}")
        if self.cores < 1:
            raise WfFormatError(f"task {self.name!r}: cores must be >= 1")
        if self.memory_mb is not None and self.memory_mb < 1:
            raise WfFormatError(f"task {self.name!r}: memory_mb must be >= 1")
        if self.retries < 0:
            raise WfFormatError(f"task {self.name!r}: retries must be >= 0")

    def input_files(self) -> tuple[WfFile, ...]:
        """The task's staged inputs."""
        return tuple(f for f in self.files if f.link == "input")


@dataclass(frozen=True)
class WfInstance:
    """A validated workflow instance: tasks, edges, files, machines."""

    name: str
    tasks: tuple[WfTask, ...]
    description: str = ""
    schema_version: str = SCHEMA_VERSION
    wms_name: str = "repro-osg-sim"
    wms_version: str = "1.0"
    makespan_s: float | None = None
    machines: tuple[WfMachine, ...] = ()
    attributes: dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name:
            raise WfFormatError("instance name must be non-empty")
        if not self.tasks:
            raise WfFormatError(f"instance {self.name!r} has no tasks")
        if self.makespan_s is not None and self.makespan_s < 0:
            raise WfFormatError(f"instance {self.name!r}: negative makespan")
        names = [t.name for t in self.tasks]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise WfFormatError(f"instance {self.name!r}: duplicate tasks {dupes}")
        by_name = {t.name: t for t in self.tasks}
        # Membership goes against per-task sets, not the parents/children
        # tuples: a wide fan-in (the FDW's all-to-all B stage) would make
        # tuple scans quadratic in the edge count at million-task scale.
        parent_sets = {t.name: frozenset(t.parents) for t in self.tasks}
        child_sets = {t.name: frozenset(t.children) for t in self.tasks}
        for task in self.tasks:
            for ref in (*task.parents, *task.children):
                if ref not in by_name:
                    raise WfFormatError(
                        f"task {task.name!r} references unknown task {ref!r}"
                    )
            for parent in task.parents:
                if task.name not in child_sets[parent]:
                    raise WfFormatError(
                        f"asymmetric edge: {task.name!r} lists parent {parent!r} "
                        f"but {parent!r} does not list it as a child"
                    )
            for child in task.children:
                if task.name not in parent_sets[child]:
                    raise WfFormatError(
                        f"asymmetric edge: {task.name!r} lists child {child!r} "
                        f"but {child!r} does not list it as a parent"
                    )
        self._check_acyclic()

    def _check_acyclic(self) -> None:
        """Raise :class:`WfFormatError` if the edges contain a cycle."""
        order = topological_order({t.name: t.children for t in self.tasks})
        if len(order) != len(self.tasks):
            stuck = sorted({t.name for t in self.tasks}.difference(order))
            raise WfFormatError(
                f"instance {self.name!r} contains a cycle (involving {stuck[:5]})"
            )

    # -- queries ------------------------------------------------------------

    @property
    def n_tasks(self) -> int:
        """Tasks in the instance."""
        return len(self.tasks)

    def task(self, name: str) -> WfTask:
        """Task by name."""
        for t in self.tasks:
            if t.name == name:
                return t
        raise WfFormatError(f"unknown task {name!r}")

    def n_edges(self) -> int:
        """Parent->child edge count."""
        return sum(len(t.parents) for t in self.tasks)

    def categories(self) -> list[str]:
        """Distinct task categories, sorted."""
        return sorted({t.category for t in self.tasks})

    def levels(self) -> dict[str, int]:
        """Longest-path depth of every task (roots are level 0)."""
        by_name = {t.name: t for t in self.tasks}
        level: dict[str, int] = {}
        for name in topological_order({t.name: t.children for t in self.tasks}):
            level[name] = max((level[p] + 1 for p in by_name[name].parents), default=0)
        return level


# -- JSON load/dump ----------------------------------------------------------


def _num(value: object, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise WfFormatError(f"{where}: expected a number, got {value!r}")
    return float(value)


def _str(value: object, where: str) -> str:
    if not isinstance(value, str):
        raise WfFormatError(f"{where}: expected a string, got {value!r}")
    return value


def _str_list(value: object, where: str) -> tuple[str, ...]:
    if not isinstance(value, list) or any(not isinstance(v, str) for v in value):
        raise WfFormatError(f"{where}: expected a list of strings, got {value!r}")
    return tuple(value)


def _parse_file(raw: object, where: str) -> WfFile:
    if not isinstance(raw, dict):
        raise WfFormatError(f"{where}: file entry must be an object, got {raw!r}")
    if "sizeInBytes" in raw:
        size = _num(raw["sizeInBytes"], f"{where}.sizeInBytes")
    elif "size" in raw:  # WfFormat <= 1.3
        size = _num(raw["size"], f"{where}.size")
    else:
        raise WfFormatError(f"{where}: file entry missing sizeInBytes")
    return WfFile(
        name=_str(raw.get("name", ""), f"{where}.name"),
        size_bytes=size,
        link=_str(raw.get("link", "input"), f"{where}.link"),
    )


def _parse_task(raw: object, where: str) -> WfTask:
    if not isinstance(raw, dict):
        raise WfFormatError(f"{where}: task must be an object, got {raw!r}")
    name = _str(raw.get("name", ""), f"{where}.name")
    if "runtimeInSeconds" in raw:
        runtime = _num(raw["runtimeInSeconds"], f"{where}.runtimeInSeconds")
    elif "runtime" in raw:  # WfFormat <= 1.3
        runtime = _num(raw["runtime"], f"{where}.runtime")
    else:
        raise WfFormatError(f"{where} ({name!r}): missing runtimeInSeconds")
    memory_mb: int | None = None
    if raw.get("memoryInBytes") is not None:
        memory_mb = int(_num(raw["memoryInBytes"], f"{where}.memoryInBytes") / 1048576.0)
    program: str | None = None
    arguments: tuple[str, ...] = ()
    command = raw.get("command")
    if command is not None:
        if not isinstance(command, dict):
            raise WfFormatError(f"{where}.command: expected an object")
        if command.get("program") is not None:
            program = _str(command["program"], f"{where}.command.program")
        if "arguments" in command:
            arguments = _str_list(command["arguments"], f"{where}.command.arguments")
    payload: WfPayload | None = None
    raw_payload = raw.get("payload")
    if raw_payload is not None:
        if not isinstance(raw_payload, dict):
            raise WfFormatError(f"{where}.payload: expected an object")
        payload = WfPayload(
            phase=_str(raw_payload.get("phase", ""), f"{where}.payload.phase"),
            n_items=int(_num(raw_payload.get("nItems", 1), f"{where}.payload.nItems")),
            n_stations=int(
                _num(raw_payload.get("nStations", 1), f"{where}.payload.nStations")
            ),
        )
    return WfTask(
        name=name,
        category=_str(raw.get("category", name), f"{where}.category"),
        runtime_s=runtime,
        parents=_str_list(raw.get("parents", []), f"{where}.parents"),
        children=_str_list(raw.get("children", []), f"{where}.children"),
        files=tuple(
            _parse_file(f, f"{where}.files[{i}]")
            for i, f in enumerate(raw.get("files", []))
        ),
        cores=int(_num(raw.get("cores", 1), f"{where}.cores")),
        memory_mb=memory_mb,
        retries=int(_num(raw.get("retries", 0), f"{where}.retries")),
        program=program,
        arguments=arguments,
        payload=payload,
    )


def _parse_machine(raw: object, where: str) -> WfMachine:
    if not isinstance(raw, dict):
        raise WfFormatError(f"{where}: machine must be an object, got {raw!r}")
    cpu = raw.get("cpu", {})
    if not isinstance(cpu, dict):
        raise WfFormatError(f"{where}.cpu: expected an object")
    cores = cpu.get("count", cpu.get("coreCount", 1))
    speed = cpu.get("speed", cpu.get("speedInMHz"))
    return WfMachine(
        name=_str(raw.get("nodeName", raw.get("name", "")), f"{where}.nodeName"),
        cpu_cores=int(_num(cores, f"{where}.cpu.count")),
        cpu_speed_mhz=None if speed is None else int(_num(speed, f"{where}.cpu.speed")),
    )


def loads_instance(text: str, source: str = "<string>") -> WfInstance:
    """Parse a WfFormat JSON document from a string."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise WfFormatError(f"{source}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise WfFormatError(f"{source}: top level must be an object")
    workflow = doc.get("workflow")
    if not isinstance(workflow, dict):
        raise WfFormatError(f"{source}: missing 'workflow' object")
    raw_tasks = workflow.get("tasks")
    if not isinstance(raw_tasks, list):
        raise WfFormatError(f"{source}: workflow.tasks must be a list")
    tasks = [_parse_task(t, f"{source}: tasks[{i}]") for i, t in enumerate(raw_tasks)]
    # Tolerate instances that only declare one edge direction (some
    # generators emit parents only): derive the missing side.
    tasks = _symmetrize(tasks)
    wms = doc.get("wms", {})
    if not isinstance(wms, dict):
        raise WfFormatError(f"{source}: wms must be an object")
    makespan = workflow.get("makespanInSeconds", workflow.get("makespan"))
    attributes = doc.get("attributes", {})
    if not isinstance(attributes, dict):
        raise WfFormatError(f"{source}: attributes must be an object")
    return WfInstance(
        name=_str(doc.get("name", "workflow"), f"{source}: name"),
        description=_str(doc.get("description", ""), f"{source}: description"),
        schema_version=_str(
            doc.get("schemaVersion", SCHEMA_VERSION), f"{source}: schemaVersion"
        ),
        wms_name=_str(wms.get("name", "unknown"), f"{source}: wms.name"),
        wms_version=_str(wms.get("version", "0"), f"{source}: wms.version"),
        makespan_s=None if makespan is None else _num(makespan, f"{source}: makespan"),
        machines=tuple(
            _parse_machine(m, f"{source}: machines[{i}]")
            for i, m in enumerate(workflow.get("machines", []))
        ),
        tasks=tuple(tasks),
        attributes=dict(attributes),
    )


def _symmetrize(tasks: list[WfTask]) -> list[WfTask]:
    """Fill in missing parent/child back-references (tolerant load)."""
    parents: dict[str, set[str]] = {t.name: set(t.parents) for t in tasks}
    children: dict[str, set[str]] = {t.name: set(t.children) for t in tasks}
    for t in tasks:
        for p in t.parents:
            if p in children:
                children[p].add(t.name)
        for c in t.children:
            if c in parents:
                parents[c].add(t.name)
    out = []
    for t in tasks:
        want_parents = tuple(sorted(parents[t.name]))
        want_children = tuple(sorted(children[t.name]))
        if t.parents != want_parents or t.children != want_children:
            t = WfTask(
                name=t.name,
                category=t.category,
                runtime_s=t.runtime_s,
                parents=want_parents,
                children=want_children,
                files=t.files,
                cores=t.cores,
                memory_mb=t.memory_mb,
                retries=t.retries,
                program=t.program,
                arguments=t.arguments,
                payload=t.payload,
            )
        out.append(t)
    return out


def load_instance(path: str | Path) -> WfInstance:
    """Load and validate a WfFormat JSON file."""
    path = Path(path)
    if not path.exists():
        raise WfFormatError(f"instance file not found: {path}")
    return loads_instance(path.read_text(), source=str(path))


def _size_json(size_bytes: float) -> int | float:
    return int(size_bytes) if float(size_bytes).is_integer() else size_bytes


def _task_json(task: WfTask) -> dict:
    out: dict = {
        "name": task.name,
        "category": task.category,
        "type": "compute",
        "runtimeInSeconds": task.runtime_s,
        "parents": list(task.parents),
        "children": list(task.children),
        "files": [
            {"name": f.name, "sizeInBytes": _size_json(f.size_bytes), "link": f.link}
            for f in task.files
        ],
        "cores": task.cores,
    }
    if task.memory_mb is not None:
        out["memoryInBytes"] = task.memory_mb * 1048576
    if task.program is not None or task.arguments:
        out["command"] = {"program": task.program, "arguments": list(task.arguments)}
    if task.retries:
        out["retries"] = task.retries
    if task.payload is not None:
        out["payload"] = {
            "phase": task.payload.phase,
            "nItems": task.payload.n_items,
            "nStations": task.payload.n_stations,
        }
    return out


def dumps_instance(instance: WfInstance) -> str:
    """Render an instance as canonical WfFormat JSON text.

    The rendering is deterministic (stable key and task order, no
    timestamps), so identical instances produce byte-identical
    documents — the basis of the CI round-trip diff.
    """
    workflow: dict = {}
    if instance.makespan_s is not None:
        workflow["makespanInSeconds"] = instance.makespan_s
    if instance.machines:
        workflow["machines"] = [
            {
                "nodeName": m.name,
                "cpu": {"count": m.cpu_cores}
                | ({} if m.cpu_speed_mhz is None else {"speed": m.cpu_speed_mhz}),
            }
            for m in instance.machines
        ]
    workflow["tasks"] = [_task_json(t) for t in instance.tasks]
    doc: dict = {
        "name": instance.name,
        "description": instance.description,
        "schemaVersion": instance.schema_version,
        "wms": {"name": instance.wms_name, "version": instance.wms_version},
        "workflow": workflow,
    }
    if instance.attributes:
        doc["attributes"] = instance.attributes
    return json.dumps(doc, indent=2) + "\n"


def dump_instance(instance: WfInstance, path: str | Path) -> Path:
    """Write an instance to a WfFormat JSON file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(dumps_instance(instance))
    return path
