"""Benchmark entry point: one workload, one seed, one JSON result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload schedule_sweep --seed 1 --seconds 10 --trace 0

Every workload runs in fresh interpreters started with a fixed
``PYTHONHASHSEED`` and one BLAS/OpenMP thread.  ``setup_s`` is the median,
over three fresh interpreters, of the time from starting the interpreter
to the first timed cell (imports plus warm-up).  The last line printed is
``{"correct", "attempted", "failed", "metrics"}``: with ``--trace 0`` the
end-to-end metrics, with ``--trace 1`` the per-layer ones (see
``perfbench/README.md``).  The line before it lists the work counts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(HERE, ".state")

sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

#: Fresh interpreters timed for ``setup_s`` besides the measuring one.
SETUP_PROBES = 2
#: Seconds the child processes of one run may take together.
CHILD_TIMEOUT_S = 150

#: Units of the metrics whose name does not tell them.
UNITS = {
    "wall_ref": "ref", "runs_per_s": "1/s", "runs_per_ref": "1/ref",
    "peak_rss_mb": "MB",
}


def _env() -> dict:
    env = dict(os.environ)
    # Byte-code is cached (as for a user's repeated runs) under the
    # benchmark's state directory, whatever the caller's environment says.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update({
        "PYTHONPYCACHEPREFIX": os.path.join(STATE, "pycache"),
        "PYTHONPATH": SRC,
        "PYTHONHASHSEED": "0",
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    })
    return env


def _child(args: argparse.Namespace, mode: str, deadline: float) -> tuple[float, dict]:
    """Run ``worker.py`` in a fresh interpreter; return (seconds from
    start to its set-up being done, its JSON result)."""
    command = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--mode", mode, "--state", STATE,
    ]
    started = time.monotonic()
    proc = subprocess.run(
        command, cwd=ROOT, env=_env(), stdout=subprocess.PIPE,
        timeout=max(1.0, deadline - started),
        text=True, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {mode} exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result["ready"] - started, result


def _source_digest() -> str:
    """Identifies the program and the benchmark: a digest of the Python
    files under ``src`` and ``perfbench``."""
    digest = hashlib.sha256()
    for top in (SRC, HERE):
        for folder, dirs, files in os.walk(top):
            dirs[:] = sorted(d for d in dirs if not d.startswith((".", "__")))
            for name in sorted(files):
                if name.endswith(".py"):
                    path = os.path.join(folder, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as handle:
                        digest.update(handle.read())
    return digest.hexdigest()[:16]


def _check_work(workload: str, seed: int, work: dict) -> bool:
    """Work counts are exact per program and seed: compare with the
    counts an earlier run of the same program and seed recorded."""
    os.makedirs(STATE, exist_ok=True)
    path = os.path.join(STATE, f"work-{workload}-{seed}-{_source_digest()}.json")
    if os.path.exists(path):
        with open(path) as handle:
            recorded = json.load(handle)
        if recorded != work:
            print(f"work counts {work} differ from an earlier run's {recorded}",
                  file=sys.stderr)
        return recorded == work
    with open(path, "w") as handle:
        json.dump(work, handle)
    return True


def unit_of(name: str) -> str:
    """A metric's unit, from its name."""
    if name in UNITS:
        return UNITS[name]
    for suffix, unit in (("_s", "s"), ("_frac", "frac"), ("_bytes", "bytes"),
                         ("_mean", "reps")):
        if name.endswith(suffix):
            return unit
    for infix, unit in (("ns_per_", "ns"), ("us_per_", "us")):
        if infix in name:
            return unit
    return "count"


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no program to benchmark: {SRC}/repro is missing", file=sys.stderr)
        return 2
    deadline = time.monotonic() + CHILD_TIMEOUT_S

    setups = [_child(args, "setup", deadline)[0] for _ in range(SETUP_PROBES)]
    setup, result = _child(args, "run", deadline)
    setups.append(setup)

    units = result["units"]
    wall = statistics.median(u["wall_s"] for u in units)
    wall_ref = statistics.median(u["wall_s"] / u["ref_s"] for u in units)
    ref = statistics.median(u["ref_s"] for u in units)
    work = result["work"]
    attempted = len(units) * result["cells"]
    failed = sum(u["failed"] for u in units)
    correct = result["correct"] and _check_work(args.workload, args.seed, work)
    print("units: " + json.dumps(units), file=sys.stderr)  # every unit's timings
    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    for failure in result["failures"]:
        print(f"cell failed: {failure}", file=sys.stderr)

    if args.trace:
        values = dict(result["layers"] or {})
        # Host seconds swing by up to a quarter between runs on a shared
        # VM, so the raw rates ride along here instead of being gated.
        values["wall_s"] = wall
        values["runs_per_s"] = work["runs"] / wall
        values["host.ref_s"] = ref
        values["host.steal_frac"] = result["steal_frac"]
        values.update({f"work.{k}": float(v) for k, v in work.items()})
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_ref": wall_ref,
            "runs_per_ref": work["runs"] / wall_ref,
            "ok_frac": (attempted - failed) / attempted,
            "peak_rss_mb": result["peak_rss_mb"],
        }
    print("work: " + json.dumps(work, sort_keys=True))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit_of(name)}
            for name, value in sorted(values.items())
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
