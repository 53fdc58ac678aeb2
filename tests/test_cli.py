import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bellmd
from bellmd.cli import asset_path, main
from oracles import min_bits_closed_form


def run_cli(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTeleportCommand:
    def test_basis_input_summary(self, capsys, tmp_path):
        out = tmp_path / "run.json"
        code, stdout, _ = run_cli(
            capsys, "teleport", "--a-re", "1", "--b-re", "0", "--trials", "10",
            "--seed", "3", "--out", str(out),
        )
        assert code == 0
        summary = json.loads(stdout)
        assert summary["min_fidelity"] == 1.0
        assert summary["measurement_report"]["measurement_count"] == 1
        doc = json.loads(out.read_text())
        assert set(doc) == {"summary", "transcripts", "outcomes"}
        assert doc["summary"] == summary
        assert len(doc["outcomes"]) == 10
        assert [t["outcome_index"] for t in doc["transcripts"]] == [0, 1, 2, 3]
        counts = [doc["outcomes"].count(str(k)) for k in range(4)]
        assert counts == summary["outcome_counts"]
        manifest = json.loads((tmp_path / "run.json.manifest.json").read_text())
        assert manifest["subcommand"] == "teleport"
        assert str(out) in manifest["output_files"]

    def test_random_frequencies(self, capsys):
        code, stdout, _ = run_cli(
            capsys, "teleport", "--random", "--seed", "7", "--trials", "100000",
        )
        assert code == 0
        freqs = json.loads(stdout)["outcome_frequencies"]
        assert all(abs(f - 0.25) <= 0.01 for f in freqs)

    def test_forced_outcome_correction(self, capsys):
        code, stdout, _ = run_cli(
            capsys, "teleport", "--a-re", "0.6", "--b-re", "0.8",
            "--force-outcome", "2", "--trials", "1",
        )
        assert code == 0
        assert json.loads(stdout)["min_fidelity"] == 1.0

    def test_forced_outcome_written_transcripts(self, capsys, tmp_path):
        out = tmp_path / "forced.json"
        code, _, _ = run_cli(
            capsys, "teleport", "--a-re", "0.6", "--b-re", "0.8",
            "--force-outcome", "2", "--trials", "2", "--out", str(out),
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["outcomes"] == "22"
        assert doc["transcripts"][2]["correction_applied"] == "sigma_x"

    def test_non_normalized_input_exits_2(self, capsys):
        code, _, stderr = run_cli(capsys, "teleport", "--a-re", "1", "--b-re", "1")
        assert code == 2
        assert "norm" in stderr

    def test_bad_flag_exits_2(self, capsys):
        assert run_cli(capsys, "teleport", "--no-such-flag")[0] == 2

    @pytest.mark.parametrize("extra", [["--trials", "5"], ["--random"]])
    def test_negative_seed_exits_2_without_files(self, capsys, tmp_path, extra):
        out = tmp_path / "neg.json"
        code, _, stderr = run_cli(capsys, "teleport", "--seed", "-1", *extra, "--out", str(out))
        assert code == 2
        assert "--seed must be nonnegative" in stderr
        assert not any(tmp_path.iterdir())

    def test_file_size_does_not_grow_with_transcripts(self, capsys, tmp_path):
        # four transcripts plus one digit per trial; a transcript per trial was 34.6 MB
        out = tmp_path / "big.json"
        code, stdout, _ = run_cli(
            capsys, "teleport", "--random", "--seed", "7", "--trials", "100000", "--out", str(out),
        )
        assert code == 0
        assert out.stat().st_size <= 110_000
        doc = json.loads(out.read_text())
        assert [doc["outcomes"].count(str(k)) for k in range(4)] == \
            json.loads(stdout)["outcome_counts"]

    def test_readme_example_golden_bytes(self, capsys, tmp_path):
        # digest of the file the README example wrote before the threshold sampler
        out = tmp_path / "teleport.json"
        code, _, _ = run_cli(
            capsys, "teleport", "--random", "--seed", "7", "--trials", "100000", "--out", str(out),
        )
        assert code == 0
        data = out.read_bytes()
        assert len(data) == 102_055
        assert hashlib.sha256(data).hexdigest() == \
            "7acb42d472dae261bb85c04c0101f79ae64a64b7c73d1d6fe3237dab6e8099b9"

        forced = tmp_path / "forced.json"
        code, _, _ = run_cli(
            capsys, "teleport", "--force-outcome", "2", "--trials", "5", "--out", str(forced),
        )
        assert code == 0
        assert json.loads(forced.read_text())["outcomes"] == "22222"

    @pytest.mark.parametrize("extra", [["--random"], ["--force-outcome", "1"]])
    def test_unallocatable_trials_exit_2_without_files(self, capsys, tmp_path, extra):
        # 10**15 float64 draws are 8 PB, beyond any 64-bit address space, so the
        # allocation fails at once without touching memory
        out = tmp_path / "huge.json"
        code, _, stderr = run_cli(
            capsys, "teleport", *extra, "--trials", str(10**15), "--out", str(out),
        )
        assert code == 2
        assert stderr.startswith("error: ") and "allocate" in stderr
        assert not any(tmp_path.iterdir())

    def test_byte_reproducibility(self, capsys, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for p in paths:
            code, _, _ = run_cli(
                capsys, "teleport", "--random", "--seed", "11", "--trials", "500",
                "--out", str(p),
            )
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestChshCommand:
    def test_deterministic_max(self, capsys):
        code, stdout, _ = run_cli(capsys, "chsh", "--deterministic-max")
        assert code == 0
        assert json.loads(stdout)["chsh_value"] == 2.0

    def test_optimal_scenario_asset(self, capsys):
        code, stdout, _ = run_cli(
            capsys, "chsh", "--scenario", str(asset_path("bell-optimal.json")),
        )
        assert code == 0
        value = json.loads(stdout)["chsh_value"]
        assert abs(value - 2.0 * math.sqrt(2.0)) <= 1e-9

    def test_model_asset_matches_quantum_table(self, capsys, tmp_path):
        out = tmp_path / "chsh.json"
        code, _, _ = run_cli(
            capsys, "chsh", "--model", str(asset_path("brans.json")), "--out", str(out),
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert abs(doc["chsh_value"] - 2.0 * math.sqrt(2.0)) <= 1e-9
        inv = 1.0 / math.sqrt(2.0)
        expected = [[inv, inv], [inv, -inv]]
        assert np.max(np.abs(np.array(doc["correlators"]) - expected)) <= 1e-9

    def test_scenario_and_model_assets_print_the_same_bytes(self, capsys):
        scenario = run_cli(capsys, "chsh", "--scenario", str(asset_path("bell-optimal.json")))
        model = run_cli(capsys, "chsh", "--model", str(asset_path("brans.json")))
        assert scenario == model
        assert scenario[1] == '{\n  "chsh_value": %r\n}\n' % math.sqrt(8.0)

    def test_state_rounded_to_ten_digits_evaluates(self, capsys, tmp_path):
        # squared norm 1 + 9e-11 loads under the 1e-9 gate; it used to exit 2
        # with "correlators are inconsistent with the joint outcome tables"
        doc = json.loads(asset_path("bell-optimal.json").read_text())
        doc["state"] = [[0.7071067812, 0.0], [0.0, 0.0], [0.0, 0.0], [0.7071067812, 0.0]]
        path = tmp_path / "rounded.json"
        path.write_text(json.dumps(doc))
        code, stdout, stderr = run_cli(capsys, "chsh", "--scenario", str(path))
        assert code == 0, stderr
        assert abs(json.loads(stdout)["chsh_value"] - 2.0 * math.sqrt(2.0)) <= 1e-9

    def test_malformed_scenario_names_field(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"alice_observables": []}')
        code, _, stderr = run_cli(capsys, "chsh", "--scenario", str(bad))
        assert code == 2
        assert "bob_observables" in stderr  # the first missing field is named

    def test_wrong_observable_count_names_field(self, capsys, tmp_path):
        from bellmd.serialize import chsh_scenario_to_doc
        from bellmd.inequalities import bell_optimal_scenario

        doc = chsh_scenario_to_doc(bell_optimal_scenario())
        doc["alice_observables"] = doc["alice_observables"][:1]
        bad = tmp_path / "bad2.json"
        bad.write_text(json.dumps(doc))
        code, _, stderr = run_cli(capsys, "chsh", "--scenario", str(bad))
        assert code == 2
        assert "alice_observables" in stderr

    def test_mode_required(self, capsys):
        assert run_cli(capsys, "chsh")[0] == 2

    def test_rows_over_one_after_the_clip_exit_2_naming_the_field(self, capsys, tmp_path):
        # each row sums to 1 + 9.4e-13 but to 1 + 4.9e-12 once its negatives clip to 0;
        # the model used to load and then fail in predict on the joint outcome table
        row = [1.0 + 4.9e-12] + [-0.99e-12] * 4
        path = tmp_path / "model.json"
        path.write_text(json.dumps({
            "lambda_count": 5,
            "settings": {"alice": 2, "bob": 2, "marginal": [0.25] * 4},
            "lambda_given_settings": [row] * 4,
            "alice_response": [[1.0] * 5] * 2,
            "bob_response": [[1.0] * 5] * 2,
        }))
        code, stdout, stderr = run_cli(capsys, "chsh", "--model", str(path))
        assert code == 2
        assert stdout == ""
        assert stderr.startswith("error: lambda_given_settings rows must each sum to 1")

    def test_observables_within_hermitian_tolerance_load_or_are_named(self, capsys, tmp_path):
        # each party's first setting 9e-13 from hermitian, sigma_z second, on
        # (|00> + |11>)/sqrt(2): A (x) A has residue 1.8e-12, which evaluation
        # used to reject after the file had loaded
        sigma_z = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]
        pair = json.loads(asset_path("bell-optimal.json").read_text())["state"]
        for off_diagonal, code_wanted in (([1.0, 9e-13], 0), ([1.0 + 9e-13, 0.0], 2)):
            near = [[[0.0, 0.0], off_diagonal], [[1.0, 0.0], [0.0, 0.0]]]
            path = tmp_path / "near.json"
            path.write_text(json.dumps({"alice_observables": [near, sigma_z],
                                        "bob_observables": [near, sigma_z], "state": pair}))
            code, stdout, stderr = run_cli(capsys, "chsh", "--scenario", str(path))
            assert code == code_wanted, stderr
            if code == 0:
                assert json.loads(stdout)["chsh_value"] <= 2.0 * math.sqrt(2.0) + 1e-9
            else:  # symmetrized to 1 + 4.5e-13, which squares 9e-13 away from 1
                assert "alice observable 0 must square to the identity" in stderr


class TestMiCommand:
    @pytest.mark.parametrize(
        "table,expected,atol",
        [
            ("0.25,0.25,0.25,0.25", 0.0, 1e-12),
            ("0.5,0,0,0.5", 1.0, 1e-12),
            ("0.3252,0.1748,0.1748,0.3252", 0.0663, 5e-4),
        ],
    )
    def test_golden_tables(self, capsys, table, expected, atol):
        code, stdout, _ = run_cli(capsys, "mi", "--table", table)
        assert code == 0
        assert abs(json.loads(stdout)["mutual_information_bits"] - expected) <= atol

    def test_bad_sum_exits_2(self, capsys):
        for table in ("0.5,0.5,0.5,0.5", "nan,0,0,1"):
            code, _, stderr = run_cli(capsys, "mi", "--table", table)
            assert code == 2
            assert "sums to" in stderr

    def test_model_report(self, capsys):
        code, stdout, _ = run_cli(capsys, "mi", "--model", str(asset_path("brans.json")))
        assert code == 0
        report = json.loads(stdout)
        assert abs(report["raw_bits"] - 2.0) <= 1e-9
        assert abs(report["normalized"] - 1.0) <= 1e-9


class TestKcbsCommand:
    def test_classical_min(self, capsys):
        code, stdout, _ = run_cli(capsys, "kcbs", "--classical-min")
        assert code == 0
        assert json.loads(stdout)["kcbs_value"] == -3.0

    def test_quantum_optimal(self, capsys):
        code, stdout, _ = run_cli(capsys, "kcbs", "--quantum-optimal")
        assert code == 0
        value = json.loads(stdout)["kcbs_value"]
        assert abs(value - (5.0 - 4.0 * math.sqrt(5.0))) <= 1e-9

    def test_scenario_file(self, capsys, tmp_path):
        from bellmd.inequalities import KcbsScenario, kcbs_pentagram
        from bellmd.hilbert import StateVector
        from bellmd.serialize import write_kcbs_scenario

        base = kcbs_pentagram()
        scenario = KcbsScenario(base.vectors, StateVector(base.vectors[0].astype(complex)))
        path = tmp_path / "kcbs.json"
        write_kcbs_scenario(path, scenario)
        code, stdout, _ = run_cli(capsys, "kcbs", "--scenario", str(path))
        assert code == 0
        assert json.loads(stdout)["kcbs_value"] >= -3.0

    def test_tilted_scenario_file_exits_2(self, capsys, tmp_path):
        # within the old 1e-10 orthogonality gate, but kcbs_value could not evaluate it
        from bellmd.inequalities import kcbs_pentagram
        from bellmd.serialize import dumps_json, kcbs_scenario_to_doc

        doc = kcbs_scenario_to_doc(kcbs_pentagram())
        v0, v1 = np.array(doc["vectors"][0]), np.array(doc["vectors"][1])
        doc["vectors"][1] = (v1 + 5e-11 * v0).tolist()
        path = tmp_path / "tilted.json"
        path.write_text(dumps_json(doc))
        code, _, stderr = run_cli(capsys, "kcbs", "--scenario", str(path))
        assert code == 2
        assert "vectors 0 and 1 must be orthogonal" in stderr

    def test_malformed_scenario_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"vectors": [[1,0,0]]}')
        code, _, stderr = run_cli(capsys, "kcbs", "--scenario", str(bad))
        assert code == 2
        assert "state" in stderr or "vectors" in stderr


class TestOptimizeCommand:
    def test_zero_budget(self, capsys, tmp_path):
        out_dir = tmp_path / "run"
        code, stdout, _ = run_cli(
            capsys, "optimize", "--budget", "0", "--seed", "1",
            "--out-dir", str(out_dir),
        )
        assert code == 0
        assert abs(json.loads(stdout)["best_chsh"] - 2.0) <= 1e-3
        manifest = json.loads((out_dir / "manifest.json").read_text())
        written = {p.name for p in out_dir.iterdir()} - {"manifest.json"}
        referenced = {name.rsplit("/", 1)[-1] for name in manifest["output_files"]}
        assert written == referenced

    def test_target_mode_writes_model_and_report(self, capsys, tmp_path):
        out_dir = tmp_path / "run"
        code, stdout, _ = run_cli(
            capsys, "optimize", "--target-s", "2.2", "--seed", "2",
            "--out-dir", str(out_dir),
        )
        assert code == 0
        result = json.loads(stdout)
        assert result["feasible"] is True
        assert result["chsh_value"] >= 2.2 - 1e-3
        report = json.loads((out_dir / "min_cmd_report.json").read_text())
        assert report["cmd"]["raw_bits"] == pytest.approx(result["raw_bits"], abs=1e-15)
        from bellmd.serialize import read_model
        from bellmd.lhv import predict
        from bellmd.inequalities import chsh_value

        model = read_model(out_dir / "min_cmd_model.json")
        assert abs(chsh_value(predict(model)) - result["chsh_value"]) <= 1e-9

    def test_curve_mode(self, capsys, tmp_path):
        out_dir = tmp_path / "curve"
        code, stdout, _ = run_cli(
            capsys, "optimize", "--curve", "0,2", "--seed", "1",
            "--out-dir", str(out_dir),
        )
        assert code == 0
        points = json.loads(stdout)["points"]
        assert abs(points[0]["best_chsh"] - 2.0) <= 1e-3
        assert abs(points[1]["best_chsh"] - 4.0) <= 1e-3
        lines = (out_dir / "curve.csv").read_text().splitlines()
        assert lines[0] == "budget_bits,best_chsh,model_file"
        assert len(lines) == 3
        assert (out_dir / "curve_model_0.json").exists()

    def test_infeasible_target_exits_2(self, capsys, tmp_path):
        code, _, stderr = run_cli(
            capsys, "optimize", "--target-s", "1.9", "--seed", "5",
            "--out-dir", str(tmp_path / "x"),
        )
        assert code == 2
        assert "target" in stderr

    def test_seed_recorded_in_manifest(self, capsys, tmp_path):
        out_dir = tmp_path / "seeded"
        code, _, _ = run_cli(
            capsys, "optimize", "--budget", "0", "--seed", "1", "--out-dir", str(out_dir),
        )
        assert code == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["configuration"]["seed"] == 1
        assert manifest["seed"] == 1

    def test_negative_seed_exits_2_without_output(self, capsys, tmp_path):
        out_dir = tmp_path / "d"
        code, _, stderr = run_cli(
            capsys, "optimize", "--seed", "-1", "--budget", "0.1", "--out-dir", str(out_dir),
        )
        assert code == 2
        assert "--seed must be nonnegative" in stderr
        assert not out_dir.exists()

    def test_env_var_config(self, capsys, tmp_path, monkeypatch):
        # BELLMD_CONFIG is no longer read: a file it names leaves the seed at 0
        cfg = tmp_path / "old.cfg"
        cfg.write_text("seed = 5\n")
        monkeypatch.setenv("BELLMD_CONFIG", str(cfg))
        out_dir = tmp_path / "env-run"
        code, _, _ = run_cli(capsys, "optimize", "--budget", "0", "--out-dir", str(out_dir))
        assert code == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["configuration"]["seed"] == 0
        assert manifest["seed"] == 0

    @pytest.mark.parametrize("key", [
        "lambda_count", "restarts", "max_iterations", "initial_temperature",
        "temperature_decay", "penalty_weight", "tolerance_s", "tolerance_cmd",
    ])
    def test_annealer_config_key_exits_2(self, capsys, tmp_path, key):
        # --config is gone: a former config file fails at parse time, whatever it holds
        cfg = tmp_path / "old.cfg"
        cfg.write_text(f"{key} = 4\n")
        out_dir = tmp_path / "old"
        code, _, stderr = run_cli(
            capsys, "optimize", "--budget", "0.1", "--config", str(cfg),
            "--out-dir", str(out_dir),
        )
        assert code == 2
        assert "unrecognized arguments: --config" in stderr
        assert not out_dir.exists()

    @pytest.mark.parametrize("flag,value", [
        ("--budget", "nan"), ("--budget", "inf"), ("--budget", "-inf"),
        ("--curve", "0,nan"), ("--curve", "0,inf"),
    ])
    def test_non_finite_budget_exits_2_without_data_files(self, capsys, tmp_path, flag, value):
        out_dir = tmp_path / "bad"
        code, _, stderr = run_cli(capsys, "optimize", f"{flag}={value}", "--out-dir", str(out_dir))
        assert code == 2
        assert "finite" in stderr
        assert not out_dir.exists()

    def test_tsirelson_target_certifies_small_dependence(self, capsys, tmp_path):
        # 0.046274 bits reach the quantum maximum (Hall's value)
        out_dir = tmp_path / "tsirelson"
        code, stdout, _ = run_cli(
            capsys, "optimize", "--target-s", "2.8284", "--seed", "1",
            "--out-dir", str(out_dir),
        )
        assert code == 0
        result = json.loads(stdout)
        assert result["feasible"] is True
        assert abs(result["raw_bits"] - min_bits_closed_form(2.8284)) <= 1e-12
        assert result["raw_bits"] <= 0.0463

    def test_byte_reproducibility_of_data_files(self, capsys, tmp_path):
        dirs = [tmp_path / "r1", tmp_path / "r2"]
        for d in dirs:
            code, _, _ = run_cli(
                capsys, "optimize", "--budget", "0.1", "--seed", "9",
                "--out-dir", str(d),
            )
            assert code == 0
        for name in ("budget_model.json", "budget_report.json"):
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()

    # sha256 of every data file (all but the manifest) that each run wrote before
    # LhvModel checked its tables in one pass and cmd scored the weights directly
    GOLDEN_DATA_FILES = {
        ("--target-s", "2.8284271247461903"): {
            "min_cmd_model.json": "0f568e6294c7b08314d00062048e620e58ac9936e52fbd8d00f65cc21440d461",
            "min_cmd_report.json": "5e19f770e3f75b5be29726be47f1b6ec0eefd227a37305985d0951c4a77d7831",
        },
        ("--budget", "0.03"): {
            "budget_model.json": "05c101aa4be174c11bac51a8386c4c6af6fd120102f96738d0382de590113f2e",
            "budget_report.json": "158fdd22b27fa85e84707196e84ec2c05c5b75f2127b99218dd88e63fb756a34",
        },
        ("--curve", "0,0.01,0.05,0.2075"): {
            "curve.csv": "0c4f04a6daf24e9d22c6a809428b12ba80c05a6485684f8ff7cfb507fa4500ec",
            "curve_model_0.json": "967e422482d4c6b103ab01502a0d177bd08166abfd8c8dcf2ed1c98f81dbbebf",
            "curve_model_1.json": "36ea85721cbe23a0b8ec6c4ac2b9021494c1dd825f6569a89317e08538ca41bb",
            "curve_model_2.json": "060a95441eb90a1370dd7566afb0592b2d21c0518bdbaab46b04e4fb39efab63",
            "curve_model_3.json": "3da9d2dbda940605d49eb20e1c194c0e09c322d58d0385533909b1f55a1c00b5",
        },
    }

    @pytest.mark.parametrize("mode", GOLDEN_DATA_FILES, ids=" ".join)
    def test_golden_data_file_bytes(self, capsys, tmp_path, mode):
        code, _, _ = run_cli(capsys, "optimize", *mode, "--out-dir", str(tmp_path))
        assert code == 0
        written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in tmp_path.iterdir() if p.name != "manifest.json"}
        assert written == self.GOLDEN_DATA_FILES[mode]


@pytest.mark.parametrize("argv", [
    ["chsh", "--out", "o.json"],
    ["chsh", "--deterministic-max", "--model", "m.json", "--out", "o.json"],
    ["mi"],
    ["mi", "--table", "0.25,0.25,0.25,0.25", "--model", "m.json"],
    ["optimize", "--out-dir", "d"],
    ["optimize", "--budget", "0", "--target-s", "2.5", "--out-dir", "d"],
    ["kcbs"],
    ["kcbs", "--classical-min", "--quantum-optimal"],
    ["teleport", "--force-outcome", "4", "--out", "o.json"],
    ["teleport", "--force-outcome", "-1", "--out", "o.json"],
], ids=lambda argv: " ".join(argv))
def test_mode_errors_exit_2_at_parse_time(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    code, _, stderr = run_cli(capsys, *argv)
    assert code == 2
    assert "error:" in stderr
    assert not any(tmp_path.iterdir())


def _asset_with(name, edit):
    doc = json.loads(asset_path(name).read_text())
    edit(doc)
    return json.dumps(doc)


# name -> (file contents as bytes or text, what the error message must name)
MALFORMED_INPUTS = {
    "non-utf8": (b'{"state": "\xff\xfe"}', "UTF-8"),
    "deep": ("[" * 100_000, "nested"),
    "alice-abc": (_asset_with("brans.json", lambda d: d["settings"].update(alice="abc")),
                  "'alice'"),
    "alice-null": (_asset_with("brans.json", lambda d: d["settings"].update(alice=None)),
                   "'alice'"),
    "alice-fraction": (_asset_with("brans.json", lambda d: d["settings"].update(alice=2.7)),
                       "'alice'"),
    "lambda-count-list": (_asset_with("brans.json", lambda d: d.update(lambda_count=[1])),
                          "'lambda_count'"),
    "lambda-count-fraction": (_asset_with("brans.json", lambda d: d.update(lambda_count=16.9)),
                              "'lambda_count'"),
    "lambda-given-settings-text": (_asset_with(
        "brans.json", lambda d: d["lambda_given_settings"][0].__setitem__(0, "x")),
        "'lambda_given_settings'"),
    "observable-non-hermitian": (_asset_with(
        "bell-optimal.json", lambda d: d["alice_observables"][0][0].__setitem__(1, [1.0, 0.0])),
        "must be hermitian"),
    "observable-square": (_asset_with(
        "bell-optimal.json", lambda d: d["alice_observables"].__setitem__(
            0, [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]])),
        "alice observable 0 must square to the identity"),
    "observable-3x3": (_asset_with(
        "bell-optimal.json", lambda d: d["bob_observables"].__setitem__(
            1, [[[float(i == j), 0.0] for j in range(3)] for i in range(3)])),
        "bob observable 1 must act on a qubit"),
    "observable-inf": (_asset_with(
        "bell-optimal.json", lambda d: d["bob_observables"][0][1][0].__setitem__(1, math.inf)),
        "operator entries must be finite"),
    "state-inf": (_asset_with(
        "bell-optimal.json", lambda d: d["state"][0].__setitem__(1, -math.inf)),
        "state vector amplitudes must be finite"),
    "state-3": (_asset_with(
        "bell-optimal.json", lambda d: d.update(state=[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]])),
        "4-dimensional"),
}
JSON_READERS = (
    ["chsh", "--scenario", "in", "--out", "o.json"],
    ["chsh", "--model", "in", "--out", "o.json"],
    ["mi", "--model", "in"],
    ["kcbs", "--scenario", "in"],
)
MODEL_READERS = (JSON_READERS[1], JSON_READERS[2])
MALFORMED_CASES = (
    [(argv, "non-utf8") for argv in JSON_READERS]
    + [(argv, "deep") for argv in JSON_READERS]
    + [(argv, kind) for argv in MODEL_READERS
       for kind in ("alice-abc", "alice-null", "alice-fraction", "lambda-count-list",
                    "lambda-count-fraction", "lambda-given-settings-text")]
    + [(JSON_READERS[0], kind) for kind in ("observable-non-hermitian", "observable-square",
                                            "observable-3x3", "observable-inf", "state-inf",
                                            "state-3")]
)


@pytest.mark.parametrize("argv,kind", MALFORMED_CASES,
                         ids=lambda v: v if isinstance(v, str) else " ".join(v[:2]))
def test_malformed_input_file_exits_2_without_output(capsys, tmp_path, monkeypatch, argv, kind):
    monkeypatch.chdir(tmp_path)
    content, named = MALFORMED_INPUTS[kind]
    path = tmp_path / "in"
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)
    code, _, stderr = run_cli(capsys, *argv)
    assert code == 2
    assert stderr.startswith("error:")
    assert named in stderr
    assert [p.name for p in tmp_path.iterdir()] == ["in"]


def _with_huge_integer(name, edit):
    # 1 followed by 400 zeros: a JSON integer that no float can hold
    return _asset_with(name, lambda d: edit(d, 10**400))


@pytest.mark.parametrize("argv,content,named", [
    (["mi", "--model", "in"], _with_huge_integer(
        "brans.json", lambda d, big: d["settings"]["marginal"].__setitem__(0, big)),
     "settings: field 'marginal'"),
    (["chsh", "--model", "in"], _with_huge_integer(
        "brans.json", lambda d, big: d["alice_response"][1].__setitem__(2, big)),
     "field 'alice_response'"),
    (["chsh", "--scenario", "in"], _with_huge_integer(
        "bell-optimal.json", lambda d, big: d["bob_observables"][1][0][1].__setitem__(0, big)),
     "in.bob_observables[1]: expected numeric [re, im] pairs"),
    (["chsh", "--scenario", "in"], _with_huge_integer(
        "bell-optimal.json", lambda d, big: d["state"][3].__setitem__(1, big)),
     "in.state: expected numeric [re, im] pairs"),
], ids=["mi-marginal", "chsh-response", "chsh-observable", "chsh-state"])
def test_integer_past_the_float_range_exits_2_naming_the_field(
        capsys, tmp_path, monkeypatch, argv, content, named):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "in").write_text(content)
    code, stdout, stderr = run_cli(capsys, *argv)
    assert code == 2
    assert stdout == ""
    assert stderr.startswith("error:") and named in stderr


def test_readme_out_commands_create_the_missing_directory(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for argv in (
        ["teleport", "--random", "--seed", "7", "--trials", "100000", "--out",
         "runs/teleport.json"],
        ["chsh", "--model", str(asset_path("brans.json")), "--out", "runs/brans-table.json"],
    ):
        code, _, stderr = run_cli(capsys, *argv)
        assert code == 0, stderr
    assert sorted(p.name for p in (tmp_path / "runs").iterdir()) == [
        "brans-table.json", "brans-table.json.manifest.json",
        "teleport.json", "teleport.json.manifest.json",
    ]


def test_version_flag(capsys):
    code, stdout, _ = run_cli(capsys, "--version")
    assert code == 0
    assert "bellmd" in stdout


def test_python_dash_m_runs_the_cli():
    src = str(Path(bellmd.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-m", "bellmd", "--version"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == f"bellmd {bellmd.__version__}"


def test_internal_invariant_breach_exits_3(capsys, monkeypatch):
    from bellmd.errors import InvariantError
    import bellmd.cli as cli_module

    def explode(_):
        raise InvariantError("synthetic breach")

    monkeypatch.setattr(cli_module, "mutual_information", explode)
    code, _, stderr = run_cli(capsys, "mi", "--table", "0.25,0.25,0.25,0.25")
    assert code == 3
    assert "internal error" in stderr
