"""End-to-end FDW benchmark: four seeded workloads, checked outputs.

Run one workload::

    python3 perfbench/run.py --workload fdw-full --seed 0 --seconds 10 --trace 0

or every workload, one process each, with a table of all metrics::

    python3 perfbench/run.py --workload all --seed 0 --seconds 10 --trace 0

Run from the repository root. The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a traced run with ``--trace 1``. The command exits 1 when an
output check fails and 2 when the program source is missing. Results,
traces and self-time tables are written under ``.perfbench_out/``.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("fdw-full", "fdw-small", "replay-4dag", "portal-burst")


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _fmt(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def _run_one(args: argparse.Namespace) -> int:
    # Single-threaded BLAS: the load is one process on one core, so the
    # figures do not depend on what runs on the machine's other cores.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: program source not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from harness import run_workload, tail_percentile

    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)
    print(
        f"perfbench {record['workload']} seed {record['seed']}: "
        f"{record['units']} unit(s), trace {'on' if record['trace'] else 'off'}"
    )
    print(f"inputs: {json.dumps(record['inputs'], sort_keys=True)}")
    for name, m in record["metrics"].items():
        line = f"  {name:<46} {_fmt(m['value']):>14} {m['unit']}"
        samples = record["samples"].get(name)
        if samples is not None:
            tail = tail_percentile(samples)
            line += (
                f"   (median of n={len(samples)}"
                + (f", p{tail[0]}={tail[1]:.6g}" if tail else ", no percentile has 10 samples beyond")
                + ")"
            )
        print(line)
    raw = record["samples"]["raw_wall_s"]
    print(
        f"  measured wall seconds per unit {[round(w, 3) for w in raw]}, "
        f"calibration scale {[round(x, 3) for x in record['samples']['speed_scale']]}"
    )
    print(
        f"  {'failed_frac':<46} {_fmt(record['failed_frac']):>14} "
        f"({record['failed']} of {record['attempted']} operations and checks)"
    )
    for failure in record["failures"]:
        print(f"CHECK FAILED: {failure}")
    print(
        json.dumps(
            {
                "correct": record["correct"],
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": record["metrics"],
            }
        )
    )
    return 0 if record["correct"] else 1


def _run_all(args: argparse.Namespace) -> int:
    """Every workload in its own process (peak RSS is per process)."""
    rows: list[tuple[str, str, float, str]] = []
    merged: dict[str, dict] = {}
    correct, attempted, failed, status = True, 0, 0, 0
    for name in WORKLOAD_NAMES:
        cmd = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        print(proc.stdout, end="")
        lines = proc.stdout.strip().splitlines()
        if proc.returncode == 2 or not lines:
            return proc.returncode or 1
        status = max(status, proc.returncode)
        result = json.loads(lines[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, m in result["metrics"].items():
            rows.append((name, metric, m["value"], m["unit"]))
            merged[f"{name}/{metric}"] = m
    print()
    print(f"{'workload':<14} {'metric':<46} {'value':>14} unit")
    for name, metric, value, unit in rows:
        print(f"{name:<14} {metric:<46} {_fmt(value):>14} {unit}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": merged}))
    return status


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    return _run_all(args) if args.workload == "all" else _run_one(args)


if __name__ == "__main__":
    sys.exit(main())
