"""Tests for the CLI and CSV export."""

from __future__ import annotations

import csv
import io
from collections.abc import Sequence
from typing import Optional

import pytest

from repro.cli import _convert, _parse_overrides, main
from repro.experiments.export import rows_to_csv, write_report_csv
from repro.experiments.harness import ExperimentReport


class TestCoerce:
    """Override strings convert to the driver parameter's annotation."""

    def test_int_float_bool_string(self):
        assert _convert("42", int) == 42
        assert _convert("2.5", float) == 2.5
        assert type(_convert("2", float)) is float
        assert _convert("true", bool) is True
        assert _convert("False", bool) is False
        assert _convert("hello", str) == "hello"
        assert _convert("7", Optional[int]) == 7
        assert _convert("none", Optional[int]) is None
        with pytest.raises(ValueError):
            _convert("yes please", bool)

    def test_tuples(self):
        assert _convert("32,64,128", Sequence[int]) == (32, 64, 128)
        assert _convert("0.1,0.5", Sequence[float]) == (0.1, 0.5)
        assert _convert("aloha,beb", Sequence[str]) == ("aloha", "beb")

    def test_scalar_for_sequence_is_one_tuple(self):
        assert _convert("16", Sequence[int]) == (16,)
        assert _convert("0.4", Sequence[float]) == (0.4,)


class TestParseOverrides:
    def test_pairs(self):
        assert _parse_overrides(
            "table1_latency", ["--reps", "3", "--ks", "8,16"]
        ) == {"reps": 3, "ks": (8, 16)}

    def test_dash_to_underscore(self):
        assert _parse_overrides(
            "table1_latency", ["--include-adaptive", "false"]
        ) == {"include_adaptive": False}

    def test_odd_pairs_rejected(self):
        with pytest.raises(SystemExit):
            _parse_overrides("table1_latency", ["--reps"])

    def test_bad_option_rejected(self):
        with pytest.raises(SystemExit):
            _parse_overrides("table1_latency", ["reps", "3"])

    def test_unknown_key_lists_accepted_keys(self):
        with pytest.raises(SystemExit) as exc:
            _parse_overrides("thm51_wakeup", ["--kss", "16"])
        message = str(exc.value)
        assert "--kss" in message
        for accepted in ("--ks", "--q", "--reps", "--seed"):
            assert accepted in message

    def test_malformed_value_rejected(self):
        with pytest.raises(SystemExit, match="--reps"):
            _parse_overrides("thm51_wakeup", ["--reps", "two"])

    @pytest.mark.parametrize("experiment", ["table1_latency", "thm51_wakeup"])
    def test_scalar_sweep_runs_end_to_end(self, experiment, capsys):
        assert main(["run", experiment, "--ks", "16", "--reps", "1"]) == 0
        out = capsys.readouterr().out
        assert f"== {experiment}" in out
        assert "(a single k admits no scaling fit)" in out


class TestMain:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "thm51_wakeup" in out
        assert "table1_latency" in out

    def test_run_small_experiment(self, capsys):
        code = main(["run", "fig1_clocks"])
        assert code == 0
        assert "fig1_clocks" in capsys.readouterr().out

    def test_run_with_overrides_and_csv(self, capsys, tmp_path):
        code = main(
            ["run", "fig4_sublinear_schedule", "--csv", str(tmp_path),
             "--b", "2", "--segments", "2"]
        )
        assert code == 0
        csv_file = tmp_path / "fig4_sublinear_schedule.csv"
        assert csv_file.exists()
        rows = list(csv.DictReader(io.StringIO(csv_file.read_text())))
        assert rows and "u1_p" in rows[0]

    def test_unknown_experiment(self, capsys):
        assert main(["run", "nonsense"]) == 2


class TestCsvExport:
    def test_rows_to_csv_union_of_keys(self):
        text = rows_to_csv([{"a": 1}, {"a": 2, "b": 3}])
        rows = list(csv.DictReader(io.StringIO(text)))
        assert rows[0] == {"a": "1", "b": ""}
        assert rows[1] == {"a": "2", "b": "3"}

    def test_empty(self):
        assert rows_to_csv([]) == ""

    def test_write_report_csv(self, tmp_path):
        report = ExperimentReport("x", "t", rows=[{"k": 1, "v": 2.5}])
        path = write_report_csv(report, tmp_path / "sub")
        assert path.read_text().startswith("k,v")
