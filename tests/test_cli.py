"""Command-line behavior: exit codes, file outputs, determinism."""

from __future__ import annotations

import json

import pytest

from daflow.cli import (
    EXIT_CHECK_FAILURE,
    EXIT_HYPOTHESIS,
    EXIT_OK,
    EXIT_USAGE,
    main,
)


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def zero_cell_target(tmp_path):
    return write_json(
        tmp_path / "zero.json", {"nx": 2, "ny": 2, "w": [[1.0, 1.0], [0.0, 0.0]]}
    )


class TestGen:
    def test_writes_target_and_reports(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        assert main(["gen", "--nx", "4", "--ny", "5", "--seed", "1", "--out", str(out)]) == EXIT_OK
        captured = capsys.readouterr().out
        assert "strictly_positive=true" in captured
        obj = json.loads(out.read_text())
        assert obj["nx"] == 4 and obj["ny"] == 5
        assert len(obj["w"]) == 4 and len(obj["w"][0]) == 5

    def test_byte_identical_on_repeat(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["gen", "--nx", "3", "--ny", "3", "--seed", "7", "--out", str(a)])
        main(["gen", "--nx", "3", "--ny", "3", "--seed", "7", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_invalid_dims_exit_usage(self, tmp_path):
        out = tmp_path / "t.json"
        assert main(["gen", "--nx", "0", "--ny", "3", "--seed", "1", "--out", str(out)]) == EXIT_USAGE
        assert not out.exists()


class TestRun:
    def test_converged_run_exits_zero_and_writes_csv(self, tmp_path, capsys):
        prefix = str(tmp_path / "r")
        code = main(["run", "--gen", "4,4,2", "--p0", "uniform", "--out-prefix", prefix])
        assert code == EXIT_OK
        assert "stop_reason=Converged" in capsys.readouterr().out
        lines = (tmp_path / "r.trace.csv").read_text().strip().split("\n")
        assert lines[0] == "t,d_to_target,tv_to_target,d_step,lemma1_residual,renorm_drift"
        # monotone divergence column
        ds = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(b <= a + 1e-12 for a, b in zip(ds, ds[1:]))

    def test_json_format(self, tmp_path):
        prefix = str(tmp_path / "r")
        main(["run", "--gen", "3,3,5", "--out-prefix", prefix, "--format", "json"])
        obj = json.loads((tmp_path / "r.trace.json").read_text())
        assert obj["stop_reason"] == "Converged"

    def test_max_iters_exits_check_failure(self, tmp_path):
        code = main(["run", "--gen", "6,6,3", "--p0", "random:44", "--max-steps", "2", "--eps", "1e-14"])
        assert code == EXIT_CHECK_FAILURE

    def test_run_outputs_are_deterministic(self, tmp_path):
        p1, p2 = str(tmp_path / "x"), str(tmp_path / "y")
        main(["run", "--gen", "4,4,2", "--out-prefix", p1])
        main(["run", "--gen", "4,4,2", "--out-prefix", p2])
        assert (tmp_path / "x.trace.csv").read_bytes() == (tmp_path / "y.trace.csv").read_bytes()

    def test_infinite_initial_divergence_exits_hypothesis(self, zero_cell_target, capsys):
        code = main(["run", "--target", zero_cell_target, "--p0", "uniform"])
        assert code == EXIT_HYPOTHESIS
        captured = capsys.readouterr()
        assert "final_d=inf" in captured.out
        assert "nan" not in captured.out.lower()
        assert "hypothesis" in captured.err

    def test_nonpositive_target_exits_hypothesis(self, zero_cell_target, tmp_path):
        # p0 supported inside the target's support: divergence finite, but
        # iteration toward a zero-cell target is refused
        p0 = write_json(
            tmp_path / "p0.json", {"nx": 2, "ny": 2, "w": [[0.6, 0.4], [0.0, 0.0]]}
        )
        code = main(["run", "--target", zero_cell_target, "--p0", f"file:{p0}"])
        assert code == EXIT_HYPOTHESIS

    def test_usage_errors(self, tmp_path, zero_cell_target):
        assert main(["run"]) == EXIT_USAGE
        assert main(["run", "--gen", "2,2"]) == EXIT_USAGE
        assert main(["run", "--gen", "2,2,1", "--target", zero_cell_target]) == EXIT_USAGE
        assert main(["run", "--gen", "2,2,1", "--p0", "degenerate:9,9"]) == EXIT_USAGE
        assert main(["run", "--gen", "2,2,1", "--p0", "nonsense"]) == EXIT_USAGE
        assert main(["run", "--target", str(tmp_path / "missing.json")]) == EXIT_USAGE
        assert main(["run", "--gen", "2,2,1", "--retain", "sometimes"]) == EXIT_USAGE
        assert main(["nonsense-command"]) == EXIT_USAGE

    def test_p0_file_dimension_mismatch_is_usage_error(self, tmp_path):
        p0 = write_json(
            tmp_path / "p0.json", {"nx": 2, "ny": 2, "w": [[0.25, 0.25], [0.25, 0.25]]}
        )
        assert main(["run", "--gen", "3,3,1", "--p0", f"file:{p0}"]) == EXIT_USAGE

    def test_degenerate_p0_accepted(self):
        assert main(["run", "--gen", "3,4,8", "--p0", "degenerate:1,2"]) == EXIT_OK


class TestVerify:
    def test_full_sweep_on_random_target(self, tmp_path, capsys):
        prefix = str(tmp_path / "v")
        code = main(["verify", "--gen", "5,5,3", "--out-prefix", prefix])
        assert code == EXIT_OK
        assert "failures=0" in capsys.readouterr().out
        doc = json.loads((tmp_path / "v.verify.json").read_text())
        assert doc["summary"]["failures"] == 0
        assert doc["summary"]["checks_run"] == len(doc["reports"])
        names = {r["name"] for r in doc["reports"]}
        assert {"Lemma1", "Lemma2Even", "Lemma2Odd", "Lemma3", "Cauchy", "LSC",
                "DetailedBalance", "Reconstruction"} <= names

    def test_single_check_instance(self, capsys):
        code = main(["verify", "--gen", "4,4,6", "--checks", "lemma1", "--t", "3"])
        assert code == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["reports"]) == 1
        assert doc["reports"][0]["name"] == "Lemma1"
        assert doc["reports"][0]["t"] == 3

    def test_stdout_report_when_no_prefix(self, capsys):
        code = main(["verify", "--gen", "3,3,9", "--checks", "balance,reconstruction"])
        assert code == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert {r["name"] for r in doc["reports"]} == {"DetailedBalance", "Reconstruction"}

    def test_retention_gap_is_config_error(self):
        code = main(["verify", "--gen", "4,4,2", "--retain", "none", "--checks", "lemma3"])
        assert code == EXIT_USAGE

    def test_unknown_check_is_usage_error(self):
        assert main(["verify", "--gen", "4,4,2", "--checks", "lemma9"]) == EXIT_USAGE

    @pytest.mark.parametrize(
        "selection",
        [
            ["--checks", "lemma9"],
            ["--checks", "lemma1,lemma2", "--t", "2"],
            ["--checks", "cauchy", "--t", "2"],
            ["--checks", "balance", "--t", "2"],
            ["--checks", "lemma3", "--t", "2"],
        ],
    )
    def test_bad_selection_refused_before_run(self, monkeypatch, capsys, selection):
        def no_run(*args, **kwargs):
            raise AssertionError("the trace was built before the selection was checked")

        monkeypatch.setattr("daflow.cli.run", no_run)
        assert main(["verify", "--gen", "4,4,2", *selection]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: ")

    def test_zero_cell_target_exits_hypothesis(self, zero_cell_target):
        assert main(["verify", "--target", zero_cell_target]) == EXIT_HYPOTHESIS


class TestSample:
    def test_consistency_within_bounds(self, tmp_path, capsys):
        prefix = str(tmp_path / "s")
        code = main([
            "sample", "--gen", "2,2,9", "--replicas", "20000",
            "--times", "0,2,8", "--seed", "5", "--out-prefix", prefix,
        ])
        assert code == EXIT_OK
        assert "all_within_bound=true" in capsys.readouterr().out
        doc = json.loads((tmp_path / "s.consistency.json").read_text())
        assert doc["all_within_bound"] is True
        assert [e["t"] for e in doc["times"]] == [0, 2, 8]

    def test_draws_csv_export(self, tmp_path):
        draws_path = tmp_path / "draws.csv"
        code = main([
            "sample", "--gen", "2,2,9", "--replicas", "50", "--times", "0,2",
            "--seed", "5", "--draws-out", str(draws_path),
        ])
        assert code == EXIT_OK
        lines = draws_path.read_text().strip().split("\n")
        assert lines[0] == "replica,t,x,y"
        assert len(lines) == 1 + 50 * 3

    def test_budget_flag_enforced(self):
        code = main([
            "sample", "--gen", "2,2,1", "--replicas", "1000",
            "--times", "0,2", "--budget", "100",
        ])
        assert code == EXIT_USAGE

    def test_env_budget_caps(self, monkeypatch):
        monkeypatch.setenv("DA_ENTROPY_BUDGET", "100")
        code = main(["sample", "--gen", "2,2,1", "--replicas", "1000", "--times", "0,2"])
        assert code == EXIT_USAGE

    def test_single_replica_report_never_asserts(self, capsys):
        # bound 5*sqrt(nx*ny/1) exceeds the maximum possible distance
        code = main(["sample", "--gen", "2,2,1", "--replicas", "1", "--times", "0,2"])
        assert code == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["all_within_bound"] is True

    def test_half_steps_must_cover_times(self):
        code = main([
            "sample", "--gen", "2,2,1", "--replicas", "10",
            "--times", "0,8", "--half-steps", "4",
        ])
        assert code == EXIT_USAGE

    def test_zero_cell_target_exits_hypothesis(self, zero_cell_target):
        code = main(["sample", "--target", zero_cell_target, "--replicas", "10", "--times", "0"])
        assert code == EXIT_HYPOTHESIS
