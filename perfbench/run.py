"""Benchmark entry point: one workload, one run, one JSON line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  The library is imported from ``src/`` of the
checkout this file sits in; without it the run exits with code 2 and prints
no result.  With ``--trace 0`` the last line of standard output carries the
workload's end-to-end metrics, with ``--trace 1`` the per-layer metrics of
``BENCHMARK.json`` (spans go to ``.perfbench_out/``).  Checks that fail are
listed on standard error and make ``correct`` false.
"""

import os
import sys
import time


def _process_age() -> float:
    """Seconds since this process started, from ``/proc`` (0 without it)."""
    try:
        with open("/proc/self/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return max(time.clock_gettime(time.CLOCK_BOOTTIME) - started, 0.0)
    except (OSError, ValueError, IndexError):
        return 0.0


_AGE_AT_IMPORT = _process_age()
_IMPORTED_AT = time.perf_counter()

import argparse  # noqa: E402  (set-up time is measured from before these imports)
import json  # noqa: E402
import shutil  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "src")


def _import_library():
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    sys.path.insert(0, ROOT)
    sys.path.insert(0, SOURCE)
    try:
        import repro
    except ImportError as error:
        print(f"cannot import the library from {SOURCE}: {error}", file=sys.stderr)
        sys.exit(2)
    if not os.path.abspath(repro.__file__).startswith(SOURCE + os.sep):
        print(f"repro was imported from {repro.__file__}, not {SOURCE}", file=sys.stderr)
        sys.exit(2)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_library()

    from perfbench import tracing
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    out_root = os.path.join(ROOT, ".perfbench_out")
    scratch = os.path.join(out_root, f"{args.workload}-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    if args.trace:
        tracing.install(scratch)
    try:
        outcome = WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace), scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if args.trace:
        path = os.path.join(out_root, f"trace-{args.workload}-seed{args.seed}.jsonl")
        tracing.TRACER.write(path)
        print(f"spans written to {os.path.relpath(path, ROOT)}", file=sys.stderr)
        units = {entry["name"]: entry["unit"] for entry in _declared("per_layer")}
        values = outcome.layers
    else:
        units = {entry["name"]: entry["unit"] for entry in _declared("end_to_end")}
        values = dict(outcome.metrics)
        values["setup_s"] = _AGE_AT_IMPORT + (outcome.setup_end - _IMPORTED_AT)
    missing = [name for name in units if name not in values]
    if missing:
        outcome.problems.append(f"metrics not measured: {', '.join(missing)}")
    for problem in outcome.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    result = {
        "correct": not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items() if name in values},
    }
    print(json.dumps(result))
    return 0


def _declared(kind: str) -> list:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)[kind]


if __name__ == "__main__":
    sys.exit(main())
