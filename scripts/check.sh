#!/usr/bin/env bash
# Contributor smoke check: install, tests, a quick suite pass, one example.
# Usage: bash scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== install (editable) =="
# PEP 517 editable install where the toolchain supports it; minimal /
# offline images without wheel fall back to the legacy path.
if ! python3 -m pip install -e . --quiet 2>/dev/null; then
    echo "(pip editable install unavailable; falling back to setup.py develop)"
    python3 setup.py develop >/dev/null
fi

echo "== engine-dispatch lint =="
# Experiment drivers must go through engine dispatch — constructing an
# engine or calling a fused kernel directly bypasses the fallback rules
# and the checkpoint fingerprint derivation.
if grep -rnE "(SlotSimulator|run_batch|run_compiled_batch)\(" src/repro/experiments/; then
    echo "error: direct engine construction under src/repro/experiments/;"
    echo "build a RunSpec and run it through repro.experiments.harness.run_grid."
    exit 1
fi
# Drivers run repetitions only through the harness's run_grid: a hand
# loop over execute()/execute_batch() skips batching, --jobs, --resume
# and the default fault model.
if grep -rnE "\bexecute(_batch)?\(" src/repro/experiments/ \
        --exclude=harness.py; then
    echo "error: execute()/execute_batch() called outside harness.py;"
    echo "describe the runs as harness Cells and call run_grid instead."
    exit 1
fi

echo "== bare-print lint =="
# Library code reports through telemetry, logging or return values; bare
# print() belongs only to the CLI and the report renderer.  AST-based so
# docstring examples don't false-positive.
python3 - <<'PYEOF'
import ast, pathlib, sys

ALLOWED = {"src/repro/cli.py", "src/repro/analysis/reporting.py"}
bad = []
for path in sorted(pathlib.Path("src/repro").rglob("*.py")):
    rel = path.as_posix()
    if rel in ALLOWED:
        continue
    tree = ast.parse(path.read_text(), filename=rel)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "print"
        ):
            bad.append(f"{rel}:{node.lineno}")
if bad:
    print("error: bare print() in library code (use telemetry or return")
    print("values; printing belongs to cli.py / analysis/reporting.py):")
    for loc in bad:
        print(f"  {loc}")
    sys.exit(1)
PYEOF

echo "== unit/integration/property tests =="
# The coverage floor (fail_under) is checked into pyproject.toml under
# [tool.coverage.report]; the gate runs wherever pytest-cov is installed
# (always in CI via the dev extras) and degrades to a plain test run on
# minimal images.
if python3 -c "import pytest_cov" >/dev/null 2>&1; then
    python3 -m pytest tests/ -q --cov=repro --cov-report=term
else
    echo "(pytest-cov unavailable; running without the coverage gate)"
    python3 -m pytest tests/ -q
fi

echo "== quick experiment wiring check =="
python3 -m repro suite --scale quick \
    --only fig1_clocks,fig4_sublinear_schedule,thm51_wakeup \
    --out /tmp/repro-check

echo "== crash-safe resume check =="
python3 -m repro run thm51_wakeup --jobs 2 --task-timeout 300 --max-retries 2 \
    --resume /tmp/repro-check/resume --ks 16,32 --reps 2 >/dev/null
python3 -m repro run thm51_wakeup --jobs 2 --task-timeout 300 --max-retries 2 \
    --resume /tmp/repro-check/resume --ks 16,32 --reps 2 | grep -q "resumed="

echo "== quickstart example =="
python3 examples/quickstart.py

echo "All checks passed."
