"""Every registered experiment runs, and every global flag reaches its runs.

Two contracts over the whole registry rather than one driver at a time:

* each experiment completes at the quick suite's overrides with a
  non-empty report (what ``repro suite --scale quick`` runs);
* the run-level flags take effect in every driver that simulates: a
  default fault model (``--noise``) changes the channel, ``--jobs`` never
  changes a report, and a ``--resume`` rerun folds every journaled run
  from the journal and executes none anew.
"""

from __future__ import annotations

import pytest

from repro.experiments import EXPERIMENTS, run_experiment
from repro.experiments.executor import parallelism_available
from repro.experiments.suite import suite_overrides
from repro.telemetry import registry as telemetry

QUICK = suite_overrides("quick")


@pytest.mark.parametrize("experiment_id", sorted(EXPERIMENTS))
def test_quick_scale_report(experiment_id):
    report = run_experiment(experiment_id, **QUICK.get(experiment_id, {}))
    assert report.text.strip()
    assert report.experiment_id == experiment_id


#: Small configurations of every driver that simulates runs (the figure
#: drivers fig1/fig2/fig4 only evaluate closed forms).  ext_throughput and
#: adaptive_anatomy run traced specs, which are never journaled.
SMALL = {
    "table1_latency": {"ks": (8, 16), "reps": 1},
    "table1_energy": {"ks": (8, 16), "reps": 1},
    "table1_cd_row": {"ks": (8, 16), "reps": 1},
    "fig3_lower_bound_instance": {"k": 64, "reps": 1},
    "thm51_wakeup": {"ks": (8, 16), "reps": 1},
    "thm52_suniform": {"ks": (8, 16), "reps": 1, "large_ks": (32,)},
    "sep_known_unknown": {"ks": (8, 16), "reps": 1, "include_adaptive": False},
    "baseline_compare": {"k": 16, "reps": 2},
    "ablation_constants": {"k": 16, "reps": 2},
    "estimate_robustness": {"k": 16, "reps": 2},
    "static_constants": {"ks": (8, 16), "reps": 1},
    "whp_validation": {"k": 16, "runs": 8},
    "lemma_validation": {"k": 16, "reps": 2},
    "adaptive_anatomy": {"k": 12, "batch": 4, "gap": 40},
    "adaptive_adversary_check": {"k": 12, "reps": 1},
    "ext_global_clock": {"ks": (8, 16), "reps": 1},
    "ext_jamming": {"k": 16, "reps": 2},
    "ext_throughput": {"k": 12, "batch": 4, "gap": 40},
    "ext_wakeup_variants": {"k": 16, "reps": 2},
    "ext_adversary_search": {"k": 16, "budget": 4, "eval_reps": 2},
    "ext_tradeoff": {"k": 16, "reps": 2},
    "ext_aloha_instability": {"k": 40, "drain_cap": 2_000},
    "traffic_phase": {
        "stations": 4, "lams": (0.1,), "horizon": 400, "reps": 2, "window": 64,
    },
    "robustness": {"k": 8, "fault_rates": (0.0, 0.1), "reps": 1},
}

SIMULATING = sorted(SMALL)


def test_small_configs_cover_every_simulating_driver():
    closed_form = {"fig1_clocks", "fig2_probability_schedule", "fig4_sublinear_schedule"}
    assert set(SMALL) == set(EXPERIMENTS) - closed_form


@pytest.mark.parametrize("experiment_id", SIMULATING)
def test_noise_reaches_the_runs(experiment_id):
    clean = run_experiment(experiment_id, **SMALL[experiment_id])
    telemetry.reset()
    telemetry.enable()
    try:
        noisy = run_experiment(experiment_id, noise=0.5, **SMALL[experiment_id])
        faulted_runs = telemetry.snapshot()["counters"].get("fault.runs", 0)
    finally:
        telemetry.disable()
        telemetry.reset()
    assert faulted_runs > 0 or noisy.rows != clean.rows


@pytest.mark.skipif(not parallelism_available(), reason="fork start method unavailable")
@pytest.mark.parametrize("experiment_id", SIMULATING)
def test_jobs_do_not_change_the_report(experiment_id):
    serial = run_experiment(experiment_id, jobs=1, **SMALL[experiment_id])
    forked = run_experiment(experiment_id, jobs=2, **SMALL[experiment_id])
    assert forked.text == serial.text


@pytest.mark.parametrize("experiment_id", SIMULATING)
def test_resume_reruns_nothing(experiment_id, tmp_path):
    first = run_experiment(experiment_id, resume_dir=str(tmp_path), **SMALL[experiment_id])
    again = run_experiment(experiment_id, resume_dir=str(tmp_path), **SMALL[experiment_id])
    assert again.text == first.text
    assert again.timings["runs_journaled"] == 0
    assert again.timings["runs_resumed"] == (
        first.timings["runs_journaled"] + first.timings["runs_resumed"]
    )
    traced = experiment_id in ("ext_throughput", "adaptive_anatomy")
    assert (first.timings["runs_journaled"] == 0) == traced
