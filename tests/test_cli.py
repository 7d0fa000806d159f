import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import uccfsim
from uccfsim.cli import main

SCENARIO = {
    "name": "cli-test", "trials": 2, "seed": 9,
    "topology": {"num_aps": 3, "num_ues": 2},
    "ofdm": {"num_subcarriers": 4},
    "allocation": {"demands": 2},
    "uplink": {"detector": "gmmse", "symbol_draws": 0},
}


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(SCENARIO))
    return path


class TestValidate:
    def test_valid_scenario_exits_zero(self, scenario_file, capsys):
        assert main(["validate", str(scenario_file)]) == 0
        assert "scenario ok" in capsys.readouterr().out

    def test_invalid_scenario_exits_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"trials": 0,
                                   "uplink": {"detector": "nope"}}))
        assert main(["validate", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "trials" in err and "detector" in err

    def test_non_numeric_value_is_reported(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"topology": {"num_aps": "4"}}))
        assert main(["validate", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "topology.num_aps must be a number" in err

    def test_typo_gets_a_hint_not_a_traceback(self, tmp_path, capsys):
        bad = tmp_path / "typo.json"
        bad.write_text(json.dumps({"uplink": {"detectr": "gmmse"}}))
        assert main(["validate", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "uplink.detectr is not a known key" in err
        assert "did you mean uplink.detector?" in err
        assert "Traceback" not in err

    def test_non_object_file_is_an_error(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(SystemExit, match="must hold a JSON object"):
            main(["validate", str(path)])

    def test_missing_file_is_an_error(self):
        with pytest.raises(SystemExit, match="cannot read"):
            main(["validate", "/nonexistent/path.json"])

    def test_malformed_json_is_an_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(SystemExit, match="not valid JSON"):
            main(["validate", str(path)])


class TestRun:
    def test_table_to_stdout(self, scenario_file, capsys):
        assert main(["run", str(scenario_file)]) == 0
        out = capsys.readouterr().out
        assert "sum_rate" in out and "cli-test" in out

    def test_csv_to_directory(self, scenario_file, tmp_path, capsys):
        out_dir = tmp_path / "results"
        assert main(["run", str(scenario_file), "--format", "csv",
                     "--out", str(out_dir)]) == 0
        csv_path = out_dir / "results.csv"
        assert csv_path.exists()
        lines = csv_path.read_text().splitlines()
        assert lines[0].startswith("scenario,hash,seed,trial,ue")
        assert len(lines) == 1 + 2 * 2

    def test_seed_and_trials_overrides(self, scenario_file, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        main(["run", str(scenario_file), "--format", "csv", "--out",
              str(out_a), "--seed", "123", "--trials", "1"])
        main(["run", str(scenario_file), "--format", "csv", "--out",
              str(out_b), "--seed", "123", "--trials", "1"])
        assert (out_a / "results.csv").read_text() == \
            (out_b / "results.csv").read_text()

    def test_invalid_config_exits_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**SCENARIO, "trials": 0}))
        assert main(["run", str(bad)]) == 1


class TestSweep:
    def test_plot_output(self, scenario_file, tmp_path):
        out_dir = tmp_path / "sweep"
        code = main(["sweep", str(scenario_file), "--param",
                     "topology.noise_variance", "--values", "1e-12,1e-11",
                     "--format", "plot", "--out", str(out_dir)])
        assert code == 0
        rows = (out_dir / "plot_data.csv").read_text().splitlines()
        assert rows[0] == "x,mean,ci_lo,ci_hi"
        assert len(rows) == 3

    def test_bad_param_path_exits_nonzero(self, scenario_file, capsys):
        code = main(["sweep", str(scenario_file), "--param", "no.such.path",
                     "--values", "1,2"])
        assert code == 1
        assert "bad parameter path" in capsys.readouterr().err

    def test_table_format_lists_points(self, scenario_file, capsys):
        code = main(["sweep", str(scenario_file), "--param",
                     "association.radius", "--values", "100.0,200.0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "association.radius = 100.0" in out
        assert "association.radius = 200.0" in out


    def test_independent_seeds_keep_a_swept_seed(self, scenario_file,
                                                 capsys):
        code = main(["sweep", str(scenario_file), "--param", "seed",
                     "--values", "3,4", "--independent-seeds"])
        assert code == 0
        out = capsys.readouterr().out
        assert "seed 3, trials 2" in out
        assert "seed 4, trials 2" in out


class TestEntryPoint:
    def test_module_invocation(self, scenario_file):
        # the child imports the same uccfsim as this process, however
        # that one was found
        src = str(Path(uccfsim.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "uccfsim.cli", "validate",
             str(scenario_file)],
            capture_output=True, text=True, env={**os.environ,
                                                 "PYTHONPATH": path})
        assert proc.returncode == 0
        assert "scenario ok" in proc.stdout


class TestUnwritableSink:
    def test_unwritable_out_dir_is_structured_error(self, scenario_file):
        with pytest.raises(SystemExit, match="cannot write output"):
            main(["run", str(scenario_file), "--format", "csv",
                  "--out", "/proc/definitely/not/writable"])
