"""Command-line behavior: exit codes, file outputs, determinism."""

from __future__ import annotations

import json
import os
import tracemalloc

import numpy as np
import pytest

import daflow.cli as cli
from daflow.cli import (
    EXIT_CHECK_FAILURE,
    EXIT_HYPOTHESIS,
    EXIT_OK,
    EXIT_USAGE,
    MAX_STEPS_DEFAULT,
    VERIFY_EPS_DEFAULT,
    build_parser,
    main,
)
from daflow.diagnostics import (
    DEFAULT_CHECKS,
    SWEEP_NEEDS_HISTORY,
    balance_check,
    cauchy_check,
    lemma1_check,
    lemma2_check,
    lemma3_check,
    lsc_gap,
    reconstruction_check,
    report_to_json_dict,
    summarize,
    validate_instance,
    verification_chunks,
    verification_table,
)
from daflow.dist import Axis, JointDensity, load_joint, make_target, random_positive_target
from daflow.engine import RetainPolicy, run, trace_to_csv, trace_to_json
from daflow.errors import DistributionError, StateNotRetained
from daflow.sampler import DRAWS_CSV_BLOCK_ROWS, draws_to_csv, run_chains


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def no_run(*args, **kwargs):
    raise AssertionError("the trace was built before the request was checked")


@pytest.fixture(scope="module")
def long_trace():
    """`run --gen 1,5,3 --p0 random:4 --eps 1e-300 --max-steps 100000`'s trace."""
    p0 = random_positive_target(1, 5, seed=4).joint
    return run(p0, random_positive_target(1, 5, seed=3), max_half_steps=100_000, eps=1e-300)


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

    @pytest.mark.parametrize("message", ["Unable to allocate 74.5 GiB for an array with shape (100000, 100000)", ""])
    def test_out_of_memory_is_a_configuration_error(self, tmp_path, monkeypatch, capsys, message):
        class Generator:
            def gamma(self, *args, **kwargs):
                raise MemoryError(message)

        monkeypatch.setattr(np.random, "default_rng", lambda seed: Generator())
        out = tmp_path / "t.json"
        argv = ["gen", "--nx", "100000", "--ny", "100000", "--seed", "1", "--out", str(out)]
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: out of memory: {message}\n" if message else "error: out of memory\n")
        assert not out.exists()

    def test_writes_the_draw_without_deriving_a_target(self, tmp_path, monkeypatch, capsys):
        want = random_positive_target(6, 4, seed=2).joint

        def no_target(*args, **kwargs):
            raise AssertionError("gen derived a Target it never reads")

        monkeypatch.setattr("daflow.dist.Target", no_target)
        out = tmp_path / "t.json"
        assert main(["gen", "--nx", "6", "--ny", "4", "--seed", "2", "--out", str(out)]) == EXIT_OK
        assert load_joint(str(out)).w.tobytes() == want.w.tobytes()
        assert capsys.readouterr().out == (
            f"wrote {out} nx=6 ny=4 min_entry={want.min_entry!r} strictly_positive=true\n"
        )


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

    @pytest.mark.parametrize("nx, ny", [(True, True), (True, 1), (1, True)])
    def test_boolean_dimensions_are_usage_errors(self, tmp_path, capsys, nx, ny):
        bad = write_json(tmp_path / "bool.json", {"nx": nx, "ny": ny, "w": [[1.0]]})
        for argv in (["run", "--target", bad], ["run", "--gen", "1,1,1", "--p0", f"file:{bad}"]):
            capsys.readouterr()
            assert main(argv) == EXIT_USAGE
            assert capsys.readouterr().err == f"error: nx and ny must be positive integers, got {nx!r}, {ny!r}\n"

    def test_p0_file_dimension_mismatch_is_usage_error(self, tmp_path):
        p0 = write_json(
            tmp_path / "p0.json", {"nx": 2, "ny": 2, "w": [[0.25, 0.25], [0.25, 0.25]]}
        )
        assert main(["run", "--gen", "3,3,1", "--p0", f"file:{p0}"]) == EXIT_USAGE

    def test_overflowing_weights_are_usage_errors(self, tmp_path, capsys):
        bad = write_json(tmp_path / "ovf.json", {"nx": 2, "ny": 2, "w": [[1e308, 1e308], [1, 1]]})
        for argv in (["run", "--target", bad], ["run", "--gen", "2,2,1", "--p0", f"file:{bad}"]):
            capsys.readouterr()
            assert main(argv) == EXIT_USAGE
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1
            assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["gen", "--nx", "2", "--ny", "2", "--seed", "-5"], "seed must be nonnegative, got -5"),
            (["run", "--gen", "3,3,-1"], "seed must be nonnegative, got -1"),
            (["run", "--gen", "3,3,1", "--p0", "random:-1"], "seed must be nonnegative, got -1"),
            (
                ["run", "--gen", "10,10,1,0.001"],
                "every 10x10 draw at concentration 0.001 in 1048576 variates had a zero cell",
            ),
            # gamma draws whose total overflows a float
            (
                ["gen", "--nx", "2", "--ny", "2", "--seed", "1", "--conc", "1e308"],
                "a 2x2 draw at concentration 1e+308 has a total too large to represent",
            ),
            (["run", "--gen", "2,2,1,1e308"], "a 2x2 draw at concentration 1e+308 has a total too large to represent"),
            (
                ["run", "--gen", "100,100,1,1e305"],
                "a 100x100 draw at concentration 1e+305 has a total too large to represent",
            ),
            (["verify", "--gen", "3,3,1,1e308"], "a 3x3 draw at concentration 1e+308 has a total too large to represent"),
            (["sample", "--gen", "2,2,1,1e308"], "a 2x2 draw at concentration 1e+308 has a total too large to represent"),
            (["run", "--gen", "2,2,1", "--eps", "inf"], "eps must be a positive real, got inf"),
            (["verify", "--gen", "2,2,1", "--eps", "nan"], "eps must be a positive real, got nan"),
            (["run", "--gen", "2,2,1", "--eps", "0"], "eps must be a positive real, got 0.0"),
        ],
    )
    def test_unusable_target_requests_are_usage_errors(self, tmp_path, capsys, argv, message):
        out = tmp_path / "out"
        argv = argv + (["--out", str(out)] if argv[0] == "gen" else ["--out-prefix", str(out)])
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"nx": 1, "ny": 2, "w": [[1' + "0" * 400 + ", 1]]}", "the w field holds a number too large to represent"),
            ("[" * 100_000, "{path} nests its JSON too deeply to read"),
            ('{"nx": 1, "ny": 2, "w": [[true, true]]}', "the w field holds an entry that is not a JSON number"),
            ('{"nx": 1, "ny": 2, "w": [["0.5", "0.5"]]}', "the w field holds an entry that is not a JSON number"),
        ],
        ids=["integer-beyond-float", "nested-100000", "booleans", "numeric-strings"],
    )
    def test_hostile_density_files_are_usage_errors(self, tmp_path, capsys, text, message):
        path = tmp_path / "hostile.json"
        path.write_text(text)
        for argv in (["run", "--target", str(path)], ["run", "--gen", "1,2,1", "--p0", f"file:{path}"]):
            assert main(argv) == EXIT_USAGE
            captured = capsys.readouterr()
            assert captured.err == f"error: {message.format(path=path)}\n"
            assert captured.out == ""

    def test_one_cell_refusal_keeps_its_message(self, capsys):
        assert main(["run", "--gen", "1,1,1,1e-300"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err == "error: every 1x1 draw at concentration 1e-300 in 1048576 variates had a zero cell\n"
        assert captured.out == ""

    def test_subnormal_target_cell_gives_a_finite_start(self, tmp_path, capsys):
        # the 6x6 target at concentration 0.002, seed 1, has a cell of 1.4e-314;
        # D(uniform || target) is finite, and the nearly reducible target
        # does not converge within 50 half-steps
        prefix = str(tmp_path / "r")
        assert main(["run", "--gen", "6,6,1,0.002", "--max-steps", "50", "--out-prefix", prefix]) == EXIT_CHECK_FAILURE
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.startswith("stop_reason=MaxIters half_steps=50 ")
        rows = (tmp_path / "r.trace.csv").read_text().splitlines()
        assert rows[1].split(",")[1] == "243.87363224714622"

    @pytest.mark.parametrize("fmt, whole", [("csv", trace_to_csv), ("json", trace_to_json)])
    def test_trace_is_written_a_chunk_at_a_time(self, long_trace, tmp_path, monkeypatch, fmt, whole):
        # 100,001 records: 6.4 MB of CSV or 18.6 MB of JSON, written 1,024
        # records (65 or 190 kB) at a time
        monkeypatch.setattr(cli, "run", lambda *args, **kwargs: long_trace)
        prefix = str(tmp_path / "long")
        tracemalloc.start()
        try:
            code = main(["run", "--gen", "1,5,3", "--format", fmt, "--out-prefix", prefix])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == EXIT_CHECK_FAILURE
        text = (tmp_path / f"long.trace.{fmt}").read_text()
        assert text == whole(long_trace)
        # a few chunks and the list of retained times, not the whole text
        assert peak < len(text) / 4

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

    @pytest.mark.parametrize(
        "selection",
        [
            ["--checks", "lemma1"],
            ["--checks", "lemma2"],
            ["--checks", "lemma3"],
            ["--checks", "cauchy"],
            ["--checks", "lsc"],
            ["--checks", "all"],
            ["--checks", "lemma1", "--t", "0"],
            ["--checks", "lemma2", "--t", "1", "--n", "1"],
            ["--checks", "lemma3", "--t", "1", "--n", "2"],
            ["--checks", "lsc", "--t", "1", "--n", "2"],
        ],
    )
    def test_retain_none_gap_refused_before_run(self, monkeypatch, capsys, selection):
        monkeypatch.setattr("daflow.cli.run", no_run)
        assert main(["verify", "--gen", "4,4,2", "--retain", "none", *selection]) == EXIT_USAGE
        assert "--retain none" in capsys.readouterr().err

    @pytest.mark.parametrize("check", DEFAULT_CHECKS)
    def test_retain_none_refuses_exactly_the_sweeps_that_read_history(self, capsys, check):
        # the CLI's refusal and verification_table's read the one tuple
        needs_history = check in SWEEP_NEEDS_HISTORY
        code = main(["verify", "--gen", "4,4,2", "--retain", "none", "--checks", check])
        assert (code == EXIT_USAGE) == needs_history
        assert ("--retain none" in capsys.readouterr().err) == needs_history
        p0 = JointDensity(np.full((4, 4), 1 / 16))
        trace = run(p0, random_positive_target(4, 4, 2), MAX_STEPS_DEFAULT, VERIFY_EPS_DEFAULT, RetainPolicy.none())
        if needs_history:
            with pytest.raises(StateNotRetained):
                verification_table(trace, (check,))
        else:
            assert code == EXIT_OK
            assert [r.name for block in verification_table(trace, (check,)) for r in block.reports()]

    @pytest.mark.parametrize(
        "selection, message",
        [
            (["--checks", "lemma1", "--n", "3"], "--n needs --t: it sets the step count of the single check instance"),
            (["--n", "3"], "--n needs --t: it sets the step count of the single check instance"),
            (["--checks", "lemma1", "--t", "3", "--n", "5"], "lemma1 checks one half-step; it does not take --n"),
        ],
        ids=["lemma1-without-t", "sweep-without-t", "lemma1-at-t"],
    )
    def test_unused_n_refused_before_run(self, monkeypatch, capsys, selection, message):
        monkeypatch.setattr("daflow.cli.run", no_run)
        assert main(["verify", "--gen", "4,4,1", *selection]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_repeated_check_refused_before_run(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr("daflow.cli.run", no_run)
        prefix = str(tmp_path / "rep")
        argv = ["verify", "--gen", "4,4,1", "--checks", "balance,balance", "--out-prefix", prefix]
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: checks ['balance'] are listed more than once\n"
        assert os.listdir(tmp_path) == []

    def test_missing_state_message_stays_short_on_a_long_trace(self, capsys):
        # the 1x5 target stalls above eps, so all 2,000 half-steps run and
        # every seventh is retained
        argv = ["verify", "--gen", "1,5,3", "--p0", "random:4", "--eps", "1e-16", "--max-steps", "2000",
                "--retain", "thin:7", "--checks", "lemma3", "--t", "7", "--n", "3"]
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: state at t=10 was not retained (287 retained times in 0..2000)\n"

    @pytest.mark.parametrize(
        "selection, message",
        [
            (["--retain", "thin:7", "--checks", "lemma2", "--t", "2", "--n", "3"],
             "lemma2 reads the state at t=2, which --retain thin:7 does not keep"),
            (["--retain", "thin:2", "--checks", "lemma2", "--t", "2", "--n", "3"],
             "lemma2 reads the state at t=3, which --retain thin:2 does not keep"),
            (["--retain", "thin:7", "--checks", "lemma1", "--t", "1"],
             "lemma1 reads the state at t=1, which --retain thin:7 does not keep"),
            (["--retain", "none", "--checks", "lemma3", "--t", "1", "--n", "2"],
             "lemma3 reads the state at t=1, which --retain none does not keep"),
        ],
    )
    def test_earlier_state_the_policy_drops_refused_before_run(self, monkeypatch, capsys, selection, message):
        monkeypatch.setattr("daflow.cli.run", no_run)
        argv = ["verify", "--gen", "1,5,3", "--p0", "random:4", "--eps", "1e-16", "--max-steps", "2000", *selection]
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_instance_past_max_steps_refused_before_run(self, monkeypatch, capsys):
        monkeypatch.setattr("daflow.cli.run", no_run)
        argv = ["verify", "--gen", "1,5,3", "--p0", "random:4", "--eps", "1e-16", "--max-steps", "2000",
                "--checks", "lemma3", "--t", "1", "--n", "5000"]
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: lemma3 reads the state at t=5001, past --max-steps 2000\n"

    @pytest.mark.parametrize(
        "check, t, n, message",
        [
            ("lemma1", -1, None, "lemma1_check needs t >= 0, got -1"),
            ("lemma2", 0, 3, "lemma2_check needs t >= 1 and n >= 1, got t=0, n=3"),
            ("lemma2", 2, 0, "lemma2_check needs t >= 1 and n >= 1, got t=2, n=0"),
            ("lemma2", 2, -3, "lemma2_check needs t >= 1 and n >= 1, got t=2, n=-3"),
            ("lemma3", 0, 3, "lemma3_check needs t >= 1 and n >= 0, got t=0, n=3"),
            ("lemma3", 1, -1, "lemma3_check needs t >= 1 and n >= 0, got t=1, n=-1"),
            ("lsc", 2, -2, "lsc horizon must be >= 0, got -2"),
            ("lsc", -1, None, "lsc_gap needs t >= 0, got -1"),
        ],
    )
    def test_instance_outside_the_domain_refused_before_run(self, monkeypatch, capsys, check, t, n, message):
        # the message the check itself raises once the trace exists
        with pytest.raises(DistributionError) as raised:
            validate_instance(check, t, n)
        assert str(raised.value) == message
        monkeypatch.setattr("daflow.cli.run", no_run)
        selection = ["--checks", check, "--t", str(t), *([] if n is None else ["--n", str(n)])]
        assert main(["verify", "--gen", "4,4,1", *selection]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "check, t, n", [("lemma1", 0, None), ("lemma2", 1, 1), ("lemma3", 1, 0), ("lsc", 1, 0), ("lsc", 1, None)]
    )
    def test_instance_at_the_domain_edge_runs(self, capsys, check, t, n):
        selection = ["--checks", check, "--t", str(t), *([] if n is None else ["--n", str(n)])]
        assert main(["verify", "--gen", "4,4,1", *selection]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)["reports"][0]
        assert report["t"] == t and report["pass"]

    @pytest.mark.parametrize(
        "check, t, n", [("lemma1", 3, None), ("lemma2", 2, 3), ("lemma3", 2, 3), ("lsc", 2, 3), ("lsc", 2, None)]
    )
    def test_pinned_instance_reports_the_library_check(self, capsys, check, t, n):
        selection = ["--checks", check, "--t", str(t), *([] if n is None else ["--n", str(n)])]
        assert main(["verify", "--gen", "5,5,3", *selection]) == EXIT_OK
        p0 = JointDensity(np.full((5, 5), 1 / 25))
        trace = run(p0, random_positive_target(5, 5, 3), MAX_STEPS_DEFAULT, VERIFY_EPS_DEFAULT, RetainPolicy.all())
        # without --n, lsc's horizon is the steps left to the final state
        want = {
            "lemma1": lambda: lemma1_check(trace, t),
            "lemma2": lambda: lemma2_check(trace, t, n),
            "lemma3": lambda: lemma3_check(trace, t, n),
            "lsc": lambda: lsc_gap(trace, t, trace.last_t - t if n is None else n),
        }[check]()
        doc = {"reports": [report_to_json_dict(want)], "summary": summarize([want])}
        assert capsys.readouterr().out == json.dumps(doc, indent=1) + "\n"

    @pytest.mark.parametrize("check", ["lemma3", "lsc"])
    def test_final_time_instance_runs_under_retain_none(self, capsys, check):
        p0 = JointDensity(np.full((4, 4), 1 / 16))
        trace = run(p0, random_positive_target(4, 4, 2), MAX_STEPS_DEFAULT, VERIFY_EPS_DEFAULT, RetainPolicy.none())
        code = main([
            "verify", "--gen", "4,4,2", "--retain", "none",
            "--checks", check, "--t", str(trace.last_t), "--n", "0",
        ])
        assert code == EXIT_OK
        assert json.loads(capsys.readouterr().out)["reports"][0]["t"] == trace.last_t

    def test_reports_are_summarized_once(self, monkeypatch):
        import daflow.diagnostics

        # the reports each fold passes on
        calls = []
        original = daflow.diagnostics._summarized

        def counted(blocks, summary):
            calls.append(0)
            for block in original(blocks, summary):
                calls[-1] += len(block)
                yield block

        monkeypatch.setattr(daflow.diagnostics, "_summarized", counted)
        assert main(["verify", "--gen", "3,3,9", "--checks", "balance,reconstruction"]) == EXIT_OK
        assert calls == [3]

    def test_zero_cell_target_exits_hypothesis(self, zero_cell_target):
        assert main(["verify", "--target", zero_cell_target]) == EXIT_HYPOTHESIS

    @pytest.mark.parametrize("prefixed", [True, False])
    def test_a_family_that_raises_leaves_no_output(self, monkeypatch, tmp_path, capsys, prefixed):
        import daflow.diagnostics

        # lemma3 finds a single iterate time on a 6x1 grid, and the sweep is
        # refused before lemma1 runs or any divergence is evaluated
        called = []
        for name in ("_to_target", "_lemma1_block"):
            monkeypatch.setattr(daflow.diagnostics, name, lambda *args, name=name: called.append(name))
        prefix = ["--out-prefix", str(tmp_path / "v")] if prefixed else []
        argv = ["verify", "--gen", "6,1,3", "--checks", "lemma1,lemma3", "--eps", "1e-300", "--max-steps", "8"]
        assert main([*argv, *prefix]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: lemma3 needs two retained times with t >= 1\n"
        assert os.listdir(tmp_path) == []
        assert called == []

    def test_pinned_lsc_past_the_final_state_is_not_retained(self, capsys):
        # the run stops at t=34; the default horizon, the steps left to the
        # final state, is then 0, not negative
        assert main(["verify", "--gen", "3,3,1", "--checks", "lsc", "--t", "500"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: state at t=500 was not retained (35 retained times in 0..34)\n"

    @pytest.mark.parametrize("prefixed", [True, False])
    @pytest.mark.parametrize(
        "check, message",
        [
            ("lemma1", "lemma1 needs a retained consecutive pair"),
            ("lemma2", "lemma2 found no runnable (t, n) instance"),
            ("lsc", "lsc needs a retained time t >= 1 before the final state"),
        ],
    )
    def test_empty_sweep_grid_leaves_no_output(self, monkeypatch, tmp_path, capsys, check, message, prefixed):
        # the run stops at t=29, so thin:1000 keeps only t=0 and t=29
        monkeypatch.chdir(tmp_path)
        prefix = ["--out-prefix", "v"] if prefixed else []
        argv = ["verify", "--gen", "4,4,1", "--eps", "1e-12", "--retain", "thin:1000", "--checks", check]
        assert main([*argv, *prefix]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
        assert os.listdir(tmp_path) == []

    def test_all_checks_write_the_per_pair_reports(self, tmp_path):
        n = 8
        i = np.arange(n)
        w = np.exp(-0.9 * np.abs(i[:, None] - i[None, :]))
        path = write_json(tmp_path / "band.json", {"nx": n, "ny": n, "w": (w / w.sum()).tolist()})
        prefix = str(tmp_path / "band")
        code = main([
            "verify", "--target", path, "--p0", "degenerate:0,7", "--checks", "all",
            "--eps", "1e-15", "--max-steps", "400", "--out-prefix", prefix,
        ])
        assert code == EXIT_OK

        target = make_target(load_joint(path))
        p0 = np.zeros((n, n))
        p0[0, 7] = 1.0
        trace = run(JointDensity(p0), target, 400, 1e-15, RetainPolicy.all())
        last = trace.last_t
        iterates = list(range(1, last + 1))
        reports = [lemma1_check(trace, t) for t in range(last)]
        reports += [lemma2_check(trace, t, k) for t in (1, 2, 3) for k in range(1, 9) if t + k <= last]
        reports += [lemma3_check(trace, t, k - t) for t in iterates for k in iterates if k > t]
        reports += [
            cauchy_check(trace),
            lsc_gap(trace, 1, last - 1),
            balance_check(target, Axis.X),
            balance_check(target, Axis.Y),
            reconstruction_check(target),
        ]
        doc = {"reports": [report_to_json_dict(r) for r in reports], "summary": summarize(reports)}
        assert (tmp_path / "band.verify.json").read_text() == json.dumps(doc, indent=1) + "\n"

    @pytest.mark.parametrize("checks, iterates", [("balance,reconstruction", False), ("lemma1,balance", True)])
    def test_only_a_selection_that_reads_the_iterates_takes_half_steps(self, monkeypatch, capsys, checks, iterates):
        import daflow.engine

        calls = []
        composed = daflow.engine._composed
        monkeypatch.setattr(daflow.engine, "_composed", lambda *args: calls.append(args) or composed(*args))
        assert main(["verify", "--gen", "5,5,3", "--checks", checks]) == EXIT_OK
        assert bool(calls) == iterates

    @pytest.mark.parametrize("checks", ["balance", "reconstruction", "balance,reconstruction", "reconstruction,balance"])
    def test_target_only_report_is_the_full_trace_report(self, capsys, checks):
        assert main(["verify", "--gen", "5,5,3", "--checks", checks]) == EXIT_OK
        p0 = JointDensity(np.full((5, 5), 1 / 25))
        trace = run(p0, random_positive_target(5, 5, 3), MAX_STEPS_DEFAULT, VERIFY_EPS_DEFAULT, RetainPolicy.all())
        blocks = verification_table(trace, tuple(checks.split(",")))
        assert capsys.readouterr().out == "".join(verification_chunks(blocks, {}))

    @pytest.mark.parametrize("checks", ["balance", "reconstruction", "balance,reconstruction"])
    @pytest.mark.parametrize(
        "inputs, code",
        [
            (["--gen", "4,4,1", "--eps", "0"], EXIT_USAGE),
            (["--gen", "4,4,1", "--eps", "nan"], EXIT_USAGE),
            (["--gen", "4,4,1", "--max-steps", "0"], EXIT_USAGE),
            (["--gen", "4,4,1", "--p0", "file:other.json"], EXIT_USAGE),
            # tools/output_digest.py's 3x3 target: an infinite start from
            # uniform, a finite one from its positive corner
            (["--target", "zero.json"], EXIT_HYPOTHESIS),
            (["--target", "zero.json", "--p0", "degenerate:0,0"], EXIT_HYPOTHESIS),
        ],
        ids=["eps-0", "eps-nan", "max-steps-0", "p0-shape", "zero-uniform", "zero-degenerate"],
    )
    def test_target_only_selection_refuses_the_start_as_a_run_does(
        self, monkeypatch, tmp_path, capsys, checks, inputs, code
    ):
        monkeypatch.chdir(tmp_path)
        write_json(tmp_path / "other.json", {"nx": 2, "ny": 2, "w": [[0.25, 0.25], [0.25, 0.25]]})
        write_json(tmp_path / "zero.json", {"nx": 3, "ny": 3, "w": [[1, 0, 1], [1, 0, 1], [0, 0, 0]]})
        outcomes = []
        for selection in ("lemma1", checks):
            outcomes.append((main(["verify", *inputs, "--checks", selection]), capsys.readouterr()))
        (want_code, want), (got_code, got) = outcomes
        assert want_code == got_code == code
        assert got.out == want.out == ""
        assert got.err == want.err


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

    @pytest.mark.parametrize("replicas", [DRAWS_CSV_BLOCK_ROWS - 1, DRAWS_CSV_BLOCK_ROWS, DRAWS_CSV_BLOCK_ROWS + 1])
    def test_streamed_draws_equal_draws_to_csv(self, tmp_path, capsys, replicas):
        draws_path = tmp_path / "draws.csv"
        code = main([
            "sample", "--gen", "2,3,9", "--replicas", str(replicas), "--times", "0",
            "--seed", "5", "--draws-out", str(draws_path),
        ])
        assert code == EXIT_OK
        target = random_positive_target(2, 3, 9)
        p0 = JointDensity(np.full((2, 3), 1.0 / 6))
        expected = draws_to_csv(run_chains(target, p0, replicas=replicas, half_steps=0, seed=5))
        assert draws_path.read_bytes() == expected.encode("utf-8")
        assert sorted(os.listdir(tmp_path)) == ["draws.csv"]

    def test_seed_beyond_64_bits_runs(self, capsys):
        code = main(["sample", "--gen", "2,2,1", "--replicas", "100", "--times", "0,2",
                     "--seed", str(2**64)])
        assert code == EXIT_OK
        assert json.loads(capsys.readouterr().out)["seed"] == 2**64

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

    @pytest.mark.parametrize("steps", [["--times", "0"], ["--times", "0", "--half-steps", "0"]])
    def test_zero_step_request_counts_one_step(self, monkeypatch, capsys, steps):
        monkeypatch.setattr("daflow.cli.run", no_run)
        code = main(["sample", "--gen", "2,2,1", "--replicas", "10", *steps, "--budget", "5"])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == "error: replicas = 10 exceeds budget 5\n"

    def test_zero_step_request_within_budget_runs(self, capsys):
        code = main(["sample", "--gen", "2,2,1", "--replicas", "5", "--times", "0", "--budget", "5"])
        assert code == EXIT_OK
        assert json.loads(capsys.readouterr().out)["replicas"] == 5

    def test_single_replica_report_never_asserts(self, capsys):
        # bound 5*sqrt(nx*ny/1) exceeds the maximum possible distance
        code = main(["sample", "--gen", "2,2,1", "--replicas", "1", "--times", "0,2"])
        assert code == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["all_within_bound"] is True

    @pytest.mark.parametrize(
        "request_args, env_budget",
        [
            (["--replicas", "1000", "--budget", "100"], None),
            (["--replicas", "1000"], "100"),
            (["--replicas", "10"], "lots"),
            (["--replicas", "0"], None),
            (["--replicas", "10", "--seed", "-1"], None),
        ],
    )
    def test_bad_request_refused_before_run(self, monkeypatch, capsys, request_args, env_budget):
        monkeypatch.setattr("daflow.cli.run", no_run)
        if env_budget is not None:
            monkeypatch.setenv("DA_ENTROPY_BUDGET", env_budget)
        code = main(["sample", "--gen", "2,2,1", "--times", "0,2", *request_args])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: ")

    def test_half_steps_must_cover_times(self):
        code = main([
            "sample", "--gen", "2,2,1", "--replicas", "10",
            "--times", "0,8", "--half-steps", "4",
        ])
        assert code == EXIT_USAGE

    def test_zero_cell_target_exits_hypothesis(self, zero_cell_target):
        code = main(["sample", "--target", zero_cell_target, "--replicas", "10", "--times", "0"])
        assert code == EXIT_HYPOTHESIS

    @pytest.mark.parametrize("flag", [["--eps", "5"], ["--max-steps", "1"], ["--retain", "none"]])
    def test_run_flags_are_unrecognized(self, monkeypatch, capsys, flag):
        # the exact trace is always run to every sampled time; no flag bends it
        monkeypatch.setattr("daflow.cli.run", no_run)
        code = main(["sample", "--gen", "3,3,9", "--replicas", "20", "--times", "0,2", *flag])
        assert code == EXIT_USAGE
        assert f"error: unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["run", "--gen", "3,3,x"], "--gen wants numeric nx,ny,seed[,conc], got '3,3,x'"),
        (["run", "--gen", "3,3,1", "--p0", "degenerate:1"], "--p0 degenerate wants degenerate:i,j, got 'degenerate:1'"),
        (["run", "--gen", "3,3,1", "--p0", "random:x"], "--p0 random wants random:seed, got 'random:x'"),
        (["run", "--gen", "3,3,1", "--retain", "thin:"], "--retain thin wants thin:k, got 'thin:'"),
        (["verify", "--gen", "3,3,1", "--checks", ",,"], "--checks wants a comma-separated list or 'all'"),
        (["sample", "--gen", "2,2,1", "--times", "a"], "--times wants comma-separated integers, got 'a'"),
        (["sample", "--gen", "2,2,1", "--times", "-1"], "--times wants nonnegative integers, got '-1'"),
    ],
    ids=["gen-numeric", "p0-degenerate", "p0-random", "retain-thin", "checks-empty", "times-integers", "times-negative"],
)
def test_malformed_flag_values_refused_before_run(monkeypatch, capsys, argv, message):
    monkeypatch.setattr("daflow.cli.run", no_run)
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {message}\n"


def test_parser_is_built_once_and_reused_unchanged(capsys):
    outputs = []
    for _ in range(2):
        assert main(["run", "--help"]) == EXIT_OK
        assert main(["sample", "--help"]) == EXIT_OK
        assert main(["verify", "--gen", "3,3,1", "--bogus"]) == EXIT_USAGE
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1]
    assert "--max-steps" in outputs[0].out and "unrecognized arguments: --bogus" in outputs[0].err
    assert build_parser.cache_info().misses == 1


@pytest.mark.parametrize(
    "argv, written",
    [
        (["gen", "--nx", "3", "--ny", "3", "--seed", "1", "--out", "{d}/t.json"], "t.json"),
        (["run", "--gen", "3,3,1", "--out-prefix", "{d}/r"], "r.trace.csv"),
        (
            ["sample", "--gen", "2,2,1", "--replicas", "10", "--times", "0,2", "--draws-out", "{d}/draws.csv"],
            "draws.csv",
        ),
    ],
)
def test_write_into_missing_directory_names_the_destination(tmp_path, capsys, argv, written):
    missing = tmp_path / "missing"
    errors = []
    for _ in range(2):
        assert main([a.format(d=missing) for a in argv]) == EXIT_USAGE
        errors.append(capsys.readouterr().err)
    # the same message on every run, naming the file asked for, not a temp file
    assert errors == [f"error: [Errno 2] No such file or directory: '{missing / written}'\n"] * 2
    assert os.listdir(tmp_path) == []
