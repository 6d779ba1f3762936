import json

import numpy as np
import pytest

from valvehealth import tinynn
from valvehealth.cli import main
from valvehealth.waveform import (DegradationState, FaultCondition, TransientTrace,
                                  ValveParams, read_trace_csv, synth_transient,
                                  write_trace_csv)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def workdir(tmp_path_factory, trained_fault, trained_rul):
    """Model files plus a small dataset shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    tinynn.save(trained_fault[0], root / "fault.pmnn")
    tinynn.save(trained_rul[0], root / "rul.pmnn")
    return root


class TestSimulate:
    def test_single_actuation(self, capsys, tmp_path):
        out = tmp_path / "trace.csv"
        code, _, _ = run_cli(capsys, "simulate", "--fault", "good",
                             "--cycles", "1", "--seed", "7", "--out", str(out))
        assert code == 0
        trace = read_trace_csv(out)
        assert trace.samples.size == 165

    def test_single_actuation_honours_fs(self, capsys, tmp_path):
        out = tmp_path / "trace.csv"
        code, _, _ = run_cli(capsys, "simulate", "--fs", "10000", "--cycles", "1",
                             "--out", str(out))
        assert code == 0
        trace = read_trace_csv(out)
        assert trace.samples.size == 1650
        times_ms = np.arange(trace.samples.size) * 1000.0 / trace.sample_rate
        assert np.allclose(np.diff(times_ms), 0.1)

    @pytest.mark.parametrize("cycles", ["1", "3"])
    @pytest.mark.parametrize("severity", ["1.5", "-0.1"])
    def test_severity_out_of_range(self, capsys, tmp_path, cycles, severity):
        out = tmp_path / "trace.csv"
        code, _, err = run_cli(capsys, "simulate", "--severity", severity,
                               "--cycles", cycles, "--out", str(out))
        assert code == 1
        assert "--severity" in err
        assert not out.exists()

    def test_under_voltage_plateau(self, capsys, tmp_path):
        out = tmp_path / "uv.csv"
        code, _, _ = run_cli(capsys, "simulate", "--fault", "under_voltage",
                             "--voltage", "12", "--out", str(out))
        assert code == 0
        trace = read_trace_csv(out)
        assert trace.samples.max() == pytest.approx(125.0, abs=0.1)

    def test_voltage_rejected_unless_under_voltage(self, capsys, tmp_path):
        out = tmp_path / "trace.csv"
        code, _, err = run_cli(capsys, "simulate", "--fault", "good", "--voltage", "10",
                               "--out", str(out))
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1
        assert "applied_voltage" in err
        assert not out.exists()

    def test_bogus_fault_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["simulate", "--fault", "bogus", "--out", str(tmp_path / "x.csv")])
        assert err.value.code == 2

    def test_multi_cycle(self, capsys, tmp_path):
        out = tmp_path / "multi.csv"
        code, _, _ = run_cli(capsys, "simulate", "--cycles", "3", "--fop", "1",
                             "--seed", "1", "--out", str(out))
        assert code == 0
        assert read_trace_csv(out).samples.size == 60 + 3 * 1000

    def test_io_error_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--out", "/nonexistent/dir/x.csv")
        assert code == 1
        assert "error:" in err


class TestExtract:
    def test_good_trace_one_row(self, capsys, tmp_path):
        trace = tmp_path / "t.csv"
        features = tmp_path / "f.csv"
        run_cli(capsys, "simulate", "--fault", "good", "--seed", "2",
                "--noise", "1.0", "--out", str(trace))
        code, out, err = run_cli(capsys, "extract", "--in", str(trace),
                                 "--out", str(features))
        assert code == 0
        assert err == ""
        lines = features.read_text().strip().splitlines()
        assert lines[0] == "zero_index,di_dt,auc"
        assert len(lines) == 2
        z, di_dt, auc = lines[1].split(",")
        assert float(di_dt) > 0 and float(auc) > 0

    def test_flat_trace_zero_rows(self, capsys, tmp_path):
        trace = tmp_path / "flat.csv"
        with open(trace, "w") as f:
            f.write("t_ms,current_mA\n")
            for i in range(300):
                f.write(f"{float(i)},0.0\n")
        features = tmp_path / "f.csv"
        code, _, _ = run_cli(capsys, "extract", "--in", str(trace),
                             "--out", str(features))
        assert code == 0
        assert len(features.read_text().strip().splitlines()) == 1

    def test_skipped_edge_reported_on_stderr(self, capsys, tmp_path):
        # an instant step at 100 ms fails extraction, the good actuation after it does not
        good = synth_transient(ValveParams(), FaultCondition.good(), DegradationState(0, 1))
        samples = np.concatenate([np.zeros(100), np.full(150, 250.0), good.samples])
        trace = tmp_path / "step.csv"
        write_trace_csv(TransientTrace(samples, 1000.0), trace)
        features = tmp_path / "f.csv"
        code, out, err = run_cli(capsys, "extract", "--in", str(trace),
                                 "--out", str(features))
        assert code == 0
        assert out == f"extracted 1 actuation(s) to {features}\n"
        assert err.splitlines() == ["skipped edge at zero_index 96: DegenerateTransientError"]
        assert len(features.read_text().splitlines()) == 2

    def test_truncated_file_reports_line(self, capsys, tmp_path):
        trace = tmp_path / "broken.csv"
        trace.write_text("t_ms,current_mA\n0.0,1.0\n1.0\n")
        code, _, err = run_cli(capsys, "extract", "--in", str(trace),
                               "--out", str(tmp_path / "f.csv"))
        assert code == 1
        assert "line 3" in err

    def test_full_columns(self, capsys, tmp_path):
        trace = tmp_path / "t.csv"
        features = tmp_path / "f.csv"
        run_cli(capsys, "simulate", "--seed", "3", "--out", str(trace))
        code, _, _ = run_cli(capsys, "extract", "--in", str(trace),
                             "--out", str(features), "--full")
        assert code == 0
        header = features.read_text().splitlines()[0]
        assert "ecv90" in header and "tu" in header


class TestTrainEvalInfer:
    def test_gen_train_eval_infer_fault(self, capsys, tmp_path):
        data = tmp_path / "fault.csv"
        model = tmp_path / "m.pmnn"
        code, _, _ = run_cli(capsys, "gen-dataset", "--task", "fault",
                             "--counts", "30", "10", "10", "20",
                             "--seed", "5", "--out", str(data))
        assert code == 0
        code, out, _ = run_cli(capsys, "train", "--task", "fault",
                               "--data", str(data), "--epochs", "20",
                               "--seed", "5", "--out", str(model))
        assert code == 0
        assert "test accuracy" in out
        assert model.exists()
        history = (tmp_path / "m.pmnn.history.csv").read_text().splitlines()
        assert history[0] == "epoch,train_loss,val_loss,epoch_s"
        assert len(history) == 21
        epoch_s = [float(row.split(",")[3]) for row in history[1:]]
        assert all(secs > 0 for secs in epoch_s)

        code, out, _ = run_cli(capsys, "eval", "--model", str(model),
                               "--data", str(data))
        assert code == 0
        payload = json.loads(out)
        assert 0.0 <= payload["accuracy"] <= 1.0
        assert len(payload["confusion"]) == 4

        code, out, _ = run_cli(capsys, "infer", "--model", str(model),
                               "--di-dt", "11.0", "--auc", "211.0")
        assert code == 0
        payload = json.loads(out)
        assert payload["predicted_class"] in ("good", "spool_stuck",
                                              "spring_failure", "under_voltage")

    @pytest.mark.parametrize("rate", ["nan", "inf", "-inf"])
    def test_non_finite_learning_rate_rejected_before_training(self, capsys, tmp_path, rate):
        data = tmp_path / "rul.csv"
        run_cli(capsys, "gen-dataset", "--task", "rul", "--valves", "1",
                "--failure-cycle", "100", "--seed", "1", "--out", str(data))
        model = tmp_path / "m.pmnn"
        code, out, err = run_cli(capsys, "train", "--task", "rul", "--data", str(data),
                                 "--learning-rate", rate, "--out", str(model))
        assert code == 1
        assert out == ""
        (line,) = err.splitlines()
        assert line.startswith("error: learning_rate must be finite and > 0")
        assert not model.exists()
        assert not (tmp_path / "m.pmnn.history.csv").exists()

    def test_kind_mismatch_is_usage_error(self, capsys, tmp_path):
        data = tmp_path / "fault.csv"
        run_cli(capsys, "gen-dataset", "--task", "fault",
                "--counts", "6", "2", "2", "4", "--seed", "1", "--out", str(data))
        code, _, err = run_cli(capsys, "train", "--task", "rul",
                               "--data", str(data), "--out", str(tmp_path / "m.pmnn"))
        assert code == 2
        assert "fault dataset" in err

    def test_same_seed_byte_identical_models(self, capsys, tmp_path):
        data = tmp_path / "fault.csv"
        run_cli(capsys, "gen-dataset", "--task", "fault",
                "--counts", "20", "8", "8", "12", "--seed", "4", "--out", str(data))
        outs = []
        for name in ("a.pmnn", "b.pmnn"):
            path = tmp_path / name
            code, _, _ = run_cli(capsys, "train", "--task", "fault",
                                 "--data", str(data), "--epochs", "10",
                                 "--seed", "4", "--out", str(path))
            assert code == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_rul_infer(self, capsys, workdir):
        code, out, _ = run_cli(capsys, "infer", "--model",
                               str(workdir / "rul.pmnn"),
                               "--di-dt", "11.0", "--auc", "205.0")
        assert code == 0
        assert json.loads(out)["rul"] >= 0.0


class TestMonitor:
    def test_degradation_stream(self, capsys, workdir):
        code, out, _ = run_cli(
            capsys, "monitor",
            "--fault-model", str(workdir / "fault.pmnn"),
            "--rul-model", str(workdir / "rul.pmnn"),
            "--scenario", "degradation", "--cycles", "10",
            "--failure-cycle", "50", "--seed", "0", "--clock", "virtual")
        assert code == 0
        lines = [json.loads(line) for line in out.strip().splitlines()]
        assert lines[-1]["type"] == "timing_report"
        events = [l for l in lines if l["type"] == "event"]
        assert len(events) == 10
        assert any(e["alarm"] for e in events)
        ruls = [e["rul"] for e in events]
        assert np.polyfit(np.arange(len(ruls)), ruls, 1)[0] < 0

    def test_virtual_clock_byte_identical(self, capsys, workdir):
        argv = ["monitor",
                "--fault-model", str(workdir / "fault.pmnn"),
                "--rul-model", str(workdir / "rul.pmnn"),
                "--scenario", "good", "--cycles", "4",
                "--seed", "9", "--clock", "virtual"]
        outputs = []
        for _ in range(2):
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]

    def test_voltage_rejected_unless_under_voltage(self, capsys, workdir):
        code, out, err = run_cli(
            capsys, "monitor",
            "--fault-model", str(workdir / "fault.pmnn"),
            "--rul-model", str(workdir / "rul.pmnn"),
            "--scenario", "good", "--voltage", "10", "--cycles", "2")
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "applied_voltage" in err

    def test_trace_file_scenario(self, capsys, workdir, tmp_path):
        trace = tmp_path / "t.csv"
        run_cli(capsys, "simulate", "--fault", "spool_stuck", "--seed", "2",
                "--noise", "1.0", "--out", str(trace))
        code, out, _ = run_cli(
            capsys, "monitor",
            "--fault-model", str(workdir / "fault.pmnn"),
            "--rul-model", str(workdir / "rul.pmnn"),
            "--scenario", str(trace), "--k", "200")
        assert code == 0
        lines = [json.loads(line) for line in out.strip().splitlines()]
        events = [l for l in lines if l["type"] == "event"]
        assert len(events) == 1
        assert events[0]["predicted_class"] == "spool_stuck"
        assert events[0]["alarm"] is True

    def test_trace_rate_must_match_fs(self, capsys, workdir, tmp_path):
        trace = tmp_path / "t10k.csv"
        run_cli(capsys, "simulate", "--fs", "10000", "--out", str(trace))
        code, out, err = run_cli(
            capsys, "monitor",
            "--fault-model", str(workdir / "fault.pmnn"),
            "--rul-model", str(workdir / "rul.pmnn"),
            "--scenario", str(trace), "--k", "200")
        assert code == 1
        assert out == ""
        assert "sampled at 10000 Hz" in err and "--fs is 1000 Hz" in err

    def test_corrupt_model_file(self, capsys, workdir, tmp_path):
        blob = bytearray((workdir / "fault.pmnn").read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        bad = tmp_path / "corrupt.pmnn"
        bad.write_bytes(bytes(blob))
        code, _, err = run_cli(
            capsys, "monitor", "--fault-model", str(bad),
            "--rul-model", str(workdir / "rul.pmnn"))
        assert code == 1
        assert "error:" in err


class TestTiming:
    def test_table_row(self, capsys):
        code, out, _ = run_cli(capsys, "timing", "--k", "2000", "--fop", "0.5")
        assert code == 0
        payload = json.loads(out)
        assert payload["b_fd_us"] == 2_000_000
        assert payload["c_max"] == 1.0

    def test_bad_value_is_runtime_error(self, capsys):
        code, _, err = run_cli(capsys, "timing", "--k", "0", "--fop", "1")
        assert code == 1

    @pytest.mark.parametrize("value", ["-inf", "-nan", "-1e3", "-5"])
    def test_negative_value_after_flag_is_the_flags_value(self, capsys, value):
        # argparse alone reads "-inf" after a flag as an unknown flag (exit 2)
        spaced = run_cli(capsys, "timing", "--k", "100", "--fop", value)
        assert spaced == run_cli(capsys, "timing", "--k", "100", f"--fop={value}")
        code, out, err = spaced
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


class TestBadNumbers:
    """A non-finite number in a file, or rates that leave no room for an
    actuation, stop the command with exit 1 and an ``error:`` line: no
    traceback, no NaN in the JSON and no trace without an actuation."""

    @pytest.mark.parametrize("argv, line", [
        (["extract", "--in", "{trace}", "--out", "{out}"], "line 2"),
        (["simulate", "--fs", "nan", "--out", "{out}"], None),
        (["timing", "--k", "100", "--fop", "nan"], None),
        (["simulate", "--cycles", "3", "--fop", "2000", "--out", "{out}"], None),
        (["train", "--task", "fault", "--data", "{dataset}", "--out", "{out}"], "line 3"),
        (["simulate", "--cycles", "3", "--noise", "nan", "--out", "{out}"], None),
        (["simulate", "--cycles", "3", "--noise", "-5", "--out", "{out}"], None),
    ], ids=["extract-nan-time", "simulate-nan-fs", "timing-nan-fop",
            "simulate-fop-above-fs", "train-nan-feature", "simulate-nan-noise",
            "simulate-negative-noise"])
    def test_rejected_with_error_line(self, capsys, tmp_path, argv, line):
        paths = {"trace": tmp_path / "trace.csv", "dataset": tmp_path / "data.csv",
                 "out": tmp_path / "out"}
        paths["trace"].write_text("t_ms,current_mA\nnan,0.0\n1.0,0.0\n2.0,0.0\n")
        paths["dataset"].write_text("di_dt,auc,target\n1.0,2.0,good\nnan,2.0,good\n")
        code, out, err = run_cli(capsys, *(a.format(**paths) for a in argv))
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert line is None or line in err
        assert not paths["out"].exists()
