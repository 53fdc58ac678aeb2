import argparse
import builtins
import errno
import hashlib
import io
import json
import math
import os
import re
import sys
from pathlib import Path

import numpy as np
import pytest

import bellmd
from bellmd.cli import main
from bellmd.lhv import LhvModel, SettingSpace
from bellmd.serialize import model_to_doc
from bellmd.teleport import OUTCOME_DRAW
from children import (
    CPU_PINS,
    OPTIMIZE_GOLDEN_MODES,
    optimize_data_file_digests,
    run_all,
)
from cli_inputs import (
    HOSTILE_READERS,
    JSON_READERS,
    MALFORMED_CASES,
    MALFORMED_INPUTS,
    asset_with,
    hostile_cases,
)
from oracles import asset_path, min_bits_closed_form, teleport_file_before_sampler


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
        assert list(doc) == ["summary", "transcripts", "sampler"]
        assert doc["summary"] == summary
        assert doc["sampler"] == {"seed": 3, "trials": 10, "forced_outcome": None,
                                  "draw": OUTCOME_DRAW}
        assert [t["outcome_index"] for t in doc["transcripts"]] == [0, 1, 2, 3]
        outcomes = json.loads(teleport_file_before_sampler(out.read_bytes()))["outcomes"]
        assert len(outcomes) == 10
        assert [outcomes.count(str(k)) for k in range(4)] == summary["outcome_counts"]
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

    def test_no_out_builds_no_file_document(self, capsys, monkeypatch):
        # the transcripts, each with its bob_final pairs, are encoded only for the --out file;
        # the summary encodes the sent state's pairs alone
        encoded, pairs = [], bellmd.cli.complex_pairs
        monkeypatch.setattr(bellmd.cli, "complex_pairs",
                            lambda state: encoded.append(state) or pairs(state))
        code, stdout, stderr = run_cli(capsys, "teleport", "--random", "--seed", "7")
        assert (code, stderr) == (0, "")
        summary = json.loads(stdout)
        assert list(summary) == ["input", "trials", "outcome_counts", "outcome_frequencies",
                                 "min_fidelity", "measurement_report"]
        assert [pairs(state) for state in encoded] == [summary["input"]]

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
        assert doc["sampler"] == {"seed": 0, "trials": 2, "forced_outcome": 2, "draw": None}
        assert json.loads(teleport_file_before_sampler(out.read_bytes()))["outcomes"] == "22"
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
        # four transcripts and a sampler record; a transcript per trial was 34.6 MB, and one
        # digit per trial 102 kB at 100000 trials
        out = tmp_path / "big.json"
        code, stdout, _ = run_cli(
            capsys, "teleport", "--random", "--seed", "7", "--trials", "100000", "--out", str(out),
        )
        assert code == 0
        assert out.stat().st_size <= 4_000
        outcomes = json.loads(teleport_file_before_sampler(out.read_bytes()))["outcomes"]
        assert [outcomes.count(str(k)) for k in range(4)] == json.loads(stdout)["outcome_counts"]

    def test_readme_example_golden_bytes(self, capsys, tmp_path):
        out = tmp_path / "teleport.json"
        code, _, _ = run_cli(
            capsys, "teleport", "--random", "--seed", "7", "--trials", "100000", "--out", str(out),
        )
        assert code == 0
        data = out.read_bytes()
        assert len(data) == 2_176
        assert hashlib.sha256(data).hexdigest() == \
            "2e7a70e0d40877b2464f0b63b61e6bf9b36aa64342554194aa4026af706fba3d"
        # the file the README example wrote when it held one digit per trial (and before the
        # threshold sampler), rebuilt from the sampler record
        old = teleport_file_before_sampler(data)
        assert len(old) == 101_983
        assert hashlib.sha256(old).hexdigest() == \
            "4fe26334baca5e3274f125fa4fa19091f4cdce97f5d39e4fcaa2862463b8c306"

        forced = tmp_path / "forced.json"
        code, _, _ = run_cli(
            capsys, "teleport", "--force-outcome", "2", "--trials", "5", "--out", str(forced),
        )
        assert code == 0
        assert json.loads(teleport_file_before_sampler(forced.read_bytes()))["outcomes"] == \
            "22222"

    def test_forced_outcome_counts_any_trials_without_drawing(self, capsys, tmp_path):
        # 10**15 trials: no draw is made and nothing is allocated per trial
        out = tmp_path / "huge.json"
        code, stdout, _ = run_cli(
            capsys, "teleport", "--force-outcome", "1", "--trials", str(10**15), "--out", str(out),
        )
        assert code == 0
        assert json.loads(stdout)["outcome_counts"] == [0, 10**15, 0, 0]
        assert json.loads(out.read_text())["sampler"] == {
            "seed": 0, "trials": 10**15, "forced_outcome": 1, "draw": None}

    def test_peak_memory_and_file_size_do_not_grow_with_trials(self, tmp_path):
        # each run in its own process, which reads its peak RSS after the run; with one
        # digit per trial the peak grew ~9.5 B per trial, 131 MB at 10**7
        pytest.importorskip("resource")
        script = ("import resource, sys\nfrom bellmd.cli import main\ncode = main(sys.argv[1:])\n"
                  "print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)")
        runs = run_all({trials: (["-c", script, "teleport", "--random", "--seed", "7", "--trials",
                                  str(trials), "--out", str(tmp_path / f"{trials}.json")], {})
                        for trials in (10**5, 10**7)})
        peak_mb = {}
        for trials, proc in runs.items():
            assert proc.returncode == 0, proc.stderr
            code, maxrss = proc.stdout.splitlines()[-1].split()
            assert code == "0"
            # ru_maxrss counts KiB on Linux and bytes on macOS
            peak_mb[trials] = int(maxrss) / (2**20 if sys.platform == "darwin" else 2**10)
            assert (tmp_path / f"{trials}.json").stat().st_size < 4_000
        assert abs(peak_mb[10**7] - peak_mb[10**5]) <= 5.0, peak_mb

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

    def test_no_out_builds_no_file_document(self, capsys, monkeypatch):
        # the joint table is listed only for the --out file; the summary needs the correlators
        class NoJoint:
            def __init__(self, table):
                self.correlators, self.shape = table.correlators, table.shape

            @property
            def joint(self):
                raise AssertionError("the file document was built for a run with no --out")

        expected = '{\n  "chsh_value": %r\n}\n' % math.sqrt(8.0)
        for name, argv in (("chsh_quantum", ["--scenario", str(asset_path("bell-optimal.json"))]),
                           ("predict", ["--model", str(asset_path("brans.json"))])):
            real = getattr(bellmd.cli, name)
            monkeypatch.setattr(bellmd.cli, name, lambda source, real=real: NoJoint(real(source)))
            assert run_cli(capsys, "chsh", *argv) == (0, expected, ""), name

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
        doc = json.loads(asset_path("bell-optimal.json").read_text())
        doc["alice_observables"] = doc["alice_observables"][:1]
        bad = tmp_path / "bad2.json"
        bad.write_text(json.dumps(doc))
        code, _, stderr = run_cli(capsys, "chsh", "--scenario", str(bad))
        assert code == 2
        assert "alice_observables" in stderr

    def test_mode_required(self, capsys):
        assert run_cli(capsys, "chsh")[0] == 2

    @pytest.mark.parametrize("mode, asset", [("--scenario", "bell-optimal.json"),
                                             ("--model", "brans.json")])
    def test_manifest_digests_the_bytes_it_evaluates(self, capsys, tmp_path, monkeypatch,
                                                     mode, asset):
        # one read serves both, so the digest cannot belong to other bytes
        path = tmp_path / asset
        path.write_bytes(asset_path(asset).read_bytes())
        reads = []
        for name in ("read_bytes", "read_text"):
            def counted(self, *args, _name=name, _original=getattr(Path, name), **kwargs):
                if self == path:
                    reads.append(_name)
                return _original(self, *args, **kwargs)
            monkeypatch.setattr(Path, name, counted)

        def counted_open(file, mode="r", *args, _original=builtins.open, **kwargs):
            if isinstance(file, (str, Path)) and Path(file) == path:
                reads.append(f"open {mode}")
            return _original(file, mode, *args, **kwargs)
        monkeypatch.setattr(builtins, "open", counted_open)
        out = tmp_path / "chsh.json"
        code, stdout, stderr = run_cli(capsys, "chsh", mode, str(path), "--out", str(out))
        assert code == 0, stderr
        assert reads == ["open rb"]
        assert json.loads(stdout)["chsh_value"] == math.sqrt(8.0)
        manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
        assert manifest["input_digests"] == {
            str(path): hashlib.sha256(path.read_bytes()).hexdigest()}

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

    @pytest.mark.parametrize(
        "table,printed",
        [
            ("0.25,0.25,0.25,0.25", "0.0"),
            ("0.5,0,0,0.5", "1.0"),
            ("0.3252,0.1748,0.1748,0.3252", "0.06628968595355786"),
            ("1,0,0,0", "0.0"),
        ],
    )
    def test_table_stdout_bytes_are_pinned(self, capsys, table, printed):
        code, stdout, _ = run_cli(capsys, "mi", "--table", table)
        assert code == 0
        assert stdout == '{\n  "mutual_information_bits": ' + printed + "\n}\n"

    def test_bad_sum_exits_2(self, capsys):
        # within ``ARITHMETIC`` of 1, as every other table; 1e-10 off passed the old 1e-9 rule
        for table, total in (("0.5,0.5,0.5,0.5", "2"), ("0.25,0.25,0.25,0.2500000001",
                                                          "1.0000000001")):
            code, _, stderr = run_cli(capsys, "mi", "--table", table)
            assert code == 2
            assert stderr == f"error: --table sums to {total}, expected 1\n"

    @pytest.mark.parametrize("table,message", [
        ("nan,0,0,0", "--table entries must be finite"),
        ("nan,0,0,1", "--table entries must be finite"),
        ("1.2,-0.2,0,0", "--table entries must be nonnegative"),
        ("0.5,0.5", "--table needs 4 entries p00,p01,p10,p11, got 2"),
    ])
    def test_bad_entries_exit_2_naming_the_rule(self, capsys, table, message):
        assert run_cli(capsys, "mi", "--table", table) == (2, "", f"error: {message}\n")

    def test_rounding_below_zero_is_clipped(self, capsys):
        # -1e-13 is clipped to 0 like every other table entry within ``ARITHMETIC``
        clipped = run_cli(capsys, "mi", "--table", "0.5,-1e-13,0,0.5")
        assert clipped == run_cli(capsys, "mi", "--table", "0.5,0,0,0.5")
        assert clipped[:2] == (0, '{\n  "mutual_information_bits": 1.0\n}\n')

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
        # the pentagram with the state along its first vector
        doc = json.loads(asset_path("kcbs-pentagram.json").read_text())
        doc["state"] = [[v, 0.0] for v in doc["vectors"][0]]
        path = tmp_path / "kcbs.json"
        path.write_text(json.dumps(doc))
        code, stdout, _ = run_cli(capsys, "kcbs", "--scenario", str(path))
        assert code == 0
        assert json.loads(stdout)["kcbs_value"] >= -3.0

    def test_tilted_scenario_file_exits_2(self, capsys, tmp_path):
        # within the old 1e-10 orthogonality gate, but kcbs_value could not evaluate it
        from bellmd.serialize import dumps_json

        doc = json.loads(asset_path("kcbs-pentagram.json").read_text())
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

    # each mode's data files against its part of the ``optimize data files`` pin
    @pytest.mark.parametrize("mode", OPTIMIZE_GOLDEN_MODES, ids=" ".join)
    def test_golden_data_file_bytes(self, mode):
        key = " ".join(mode)
        assert optimize_data_file_digests([mode]) == \
            {key: CPU_PINS["optimize data files"][1][key]}


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
    assert stderr.startswith("error:") and stderr.count("\n") == 1
    assert named in stderr
    assert [p.name for p in tmp_path.iterdir()] == ["in"]


@pytest.mark.parametrize("name,argv", [(name, argv) for name, readers in HOSTILE_READERS.items()
                                       for argv in readers],
                         ids=lambda v: v if isinstance(v, str) else " ".join(v[:2]))
def test_hostile_values_exit_0_or_2_with_one_error_line(capsys, tmp_path, monkeypatch, name,
                                                        argv):
    # the catalogue of cli_inputs.hostile_cases, in one loop: a parametrized case each costs more
    monkeypatch.chdir(tmp_path)
    failures = []
    for label, content in hostile_cases(name).items():
        (tmp_path / "in").write_bytes(content)
        try:
            code, stdout, stderr = run_cli(capsys, *argv)
        except Exception as exc:  # what a process would print as a traceback
            failures.append(f"{label}: raised {exc!r:.80}")
            capsys.readouterr()
            continue
        left = sorted(p.name for p in tmp_path.iterdir())
        if code == 2 and (stdout or not stderr.startswith("error:") or stderr.count("\n") != 1
                          or left != ["in"]):
            failures.append(f"{label}: exit 2 with stdout {stdout!r:.40}, stderr {stderr!r:.80}"
                            f" and files {left}")
        elif code not in (0, 2) or code == 0 and stderr:
            failures.append(f"{label}: exit {code} with stderr {stderr!r:.80}")
        for path in tmp_path.iterdir():
            if path.name != "in":  # the data file and manifest of an exit 0
                path.unlink()
    assert not failures


@pytest.mark.parametrize("field,value,message", [
    ("lambda_count", 4.0, None),
    ("alice", 2.0, None),
    ("bob", 2.0, None),
    ("lambda_count", 4.5, "error: in: field 'lambda_count' must be an integer, got 4.5\n"),
])
def test_an_integer_field_takes_a_float_only_with_no_fraction(capsys, tmp_path, monkeypatch,
                                                              field, value, message):
    monkeypatch.chdir(tmp_path)
    model = LhvModel(SettingSpace(), [[0.25] * 4] * 4, [[1.0, 0.0, 1.0, 0.0]] * 2,
                     [[1.0, 1.0, 0.0, 0.0]] * 2)
    doc = model_to_doc(model)
    (tmp_path / "int.json").write_text(json.dumps(doc))
    (doc if field == "lambda_count" else doc["settings"])[field] = value
    (tmp_path / "in").write_text(json.dumps(doc))
    expected = (2, "", message) if message else run_cli(capsys, "mi", "--model", "int.json")
    assert expected[0] == (2 if message else 0)
    assert run_cli(capsys, "mi", "--model", "in") == expected


@pytest.mark.parametrize("argv", [JSON_READERS[0], JSON_READERS[2], JSON_READERS[3]],
                         ids=lambda argv: " ".join(argv[:2]))
@pytest.mark.parametrize("make,message", [
    (lambda path: None, "[Errno 2] No such file or directory: 'in'"),
    (lambda path: path.mkdir(), "[Errno 21] Is a directory: 'in'"),
], ids=["missing", "directory"])
def test_an_unreadable_input_path_exits_2_with_its_os_error(capsys, tmp_path, monkeypatch,
                                                            argv, make, message):
    monkeypatch.chdir(tmp_path)
    make(tmp_path / "in")
    before = sorted(tmp_path.iterdir())
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")
    assert sorted(tmp_path.iterdir()) == before  # no --out file, no manifest


@pytest.mark.parametrize("argv,manifest,keep", [
    (["optimize", "--budget", "0.1", "--out-dir", "od"], "od/manifest.json", None),
    (["chsh", "--deterministic-max", "--out", "o.json"], "o.json.manifest.json", None),
    (["teleport", "--trials", "3", "--out", "o.json"], "o.json.manifest.json", None),
    (["optimize", "--target-s", "2.5", "--out-dir", "od"], "od/manifest.json",
     "od/min_cmd_model.json"),
    (["chsh", "--deterministic-max", "--out", "o.json"], "o.json.manifest.json", "o.json"),
    (["teleport", "--trials", "3", "--out", "o.json"], "o.json.manifest.json", "o.json"),
], ids=["optimize-od/manifest.json", "chsh-o.json.manifest.json", "teleport-o.json.manifest.json",
        "optimize-keep", "chsh-keep", "teleport-keep"])
def test_a_failed_manifest_write_prints_no_summary(capsys, tmp_path, monkeypatch, argv, manifest,
                                                   keep):
    monkeypatch.chdir(tmp_path)
    (tmp_path / manifest).mkdir(parents=True)  # a directory where the manifest goes
    if keep is not None:  # a data file from an earlier run, which the manifest's failure keeps
        (tmp_path / keep).write_bytes(b"earlier run\n")
    before = sorted(tmp_path.rglob("*"))
    code, stdout, stderr = run_cli(capsys, *argv)
    assert (code, stdout) == (2, "")
    assert stderr.startswith("error:") and stderr.count("\n") == 1
    assert sorted(tmp_path.rglob("*")) == before  # the run wrote no data file
    if keep is not None:
        assert (tmp_path / keep).read_bytes() == b"earlier run\n"


LONG_NAME = "x" * 300  # past the 255-byte name limit of common file systems


@pytest.mark.parametrize("argv,fails", [
    (["teleport", "--trials", "3", "--out", f"keep/new/{LONG_NAME}.json"], None),
    (["optimize", "--target-s", "2.5", "--out-dir", f"keep/deep/er/{LONG_NAME}"], None),
    (["teleport", "--trials", "3", "--out", "keep/new/o.json"], "o.json.manifest.json"),
    (["optimize", "--budget", "0.1", "--out-dir", "keep/deep/er"], "budget_report.json"),
    (["optimize", "--budget", "0.1", "--out-dir", "keep/deep/er"], "manifest.json"),
], ids=["teleport-long-name", "optimize-long-name", "teleport-manifest", "optimize-data-file",
        "optimize-manifest"])
def test_a_failed_run_removes_the_directories_it_created(capsys, tmp_path, monkeypatch, argv,
                                                         fails):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "keep").mkdir()  # there before the run, so the run leaves it
    if fails is not None:
        write = bellmd.cli.dump_json

        def dump_json(path, doc):
            if path.name == fails:
                raise OSError(f"cannot write {path.name}")
            write(path, doc)
        monkeypatch.setattr(bellmd.cli, "dump_json", dump_json)
    before = sorted(tmp_path.rglob("*"))
    code, stdout, stderr = run_cli(capsys, *argv)
    assert (code, stdout) == (2, "")
    assert stderr.startswith("error:") and stderr.count("\n") == 1
    assert (f"cannot write {fails}" if fails else LONG_NAME) in stderr  # the write's own error
    assert sorted(tmp_path.rglob("*")) == before


class _HalfWriteFile(io.FileIO):
    """A file whose write puts out half of its bytes, then fails as a full disk does."""

    def write(self, data):
        super().write(data[:len(data) // 2])
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize("argv,cut", [
    (["chsh", "--deterministic-max", "--out", "o.json"], "o.json"),
    (["optimize", "--target-s", "2.5", "--out-dir", "d"], "manifest.json"),
], ids=["chsh-data-file", "optimize-manifest"])
def test_a_write_cut_short_leaves_no_file(capsys, tmp_path, monkeypatch, argv, cut):
    monkeypatch.chdir(tmp_path)

    def open_(path, mode="r", buffering=-1):
        if Path(path).name == cut:
            return _HalfWriteFile(path, mode)
        return builtins.open(path, mode, buffering=buffering)
    monkeypatch.setattr(bellmd.serialize, "open", open_, raising=False)
    before = sorted(tmp_path.rglob("*"))
    code, stdout, stderr = run_cli(capsys, *argv)
    assert (code, stdout) == (2, "")
    assert stderr.startswith("error: [Errno 28]") and stderr.count("\n") == 1
    assert sorted(tmp_path.rglob("*")) == before  # no partial file, and no new directory


@pytest.mark.parametrize("argv,message", [
    (["mi", "--table", "0.5,x,0.25,0.25"],
     "error: --table must be comma-separated numbers: could not convert string to float: 'x'\n"),
    (["optimize", "--curve", "0,,1"],
     "error: --curve must be comma-separated numbers: could not convert string to float: ''\n"),
], ids=["table", "curve"])
def test_a_list_that_is_not_numbers_exits_2_naming_the_flag(capsys, tmp_path, monkeypatch, argv,
                                                           message):
    monkeypatch.chdir(tmp_path)
    assert run_cli(capsys, *argv) == (2, "", message)
    assert not any(tmp_path.iterdir())


def test_an_unsorted_curve_exits_2_and_creates_no_directory(capsys, tmp_path):
    out_dir = tmp_path / "d"
    argv = ["optimize", "--curve", "0.5,0.1", "--out-dir", str(out_dir)]
    assert run_cli(capsys, *argv) == (2, "", "error: budgets must be sorted ascending\n")
    assert not out_dir.exists()


def _with_huge_integer(name, edit):
    # 1 followed by 400 zeros: a JSON integer that no float can hold
    return asset_with(name, lambda d: edit(d, 10**400))


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


SUBCOMMAND_HELP = {
    "teleport": "run the teleportation protocol",
    "chsh": "evaluate the CHSH statistic",
    "mi": "mutual information of a 2x2 table or a model",
    "optimize": "search models trading dependence against CHSH",
    "kcbs": "evaluate the five-cycle contextuality statistic",
}


def test_help_lists_every_subcommand_with_its_help(capsys):
    code, stdout, _ = run_cli(capsys, "-h")
    assert code == 0
    lines = [line.split(None, 1) for line in stdout.splitlines()]
    for name, text in SUBCOMMAND_HELP.items():
        assert [name, text] in lines


@pytest.mark.parametrize("name", SUBCOMMAND_HELP)
def test_subcommand_help_exits_0(capsys, name):
    code, stdout, _ = run_cli(capsys, name, "-h")
    assert code == 0
    assert stdout.startswith(f"usage: bellmd {name} [-h]")


@pytest.mark.parametrize("argv,message", [
    ([], "bellmd: error: the following arguments are required: subcommand\n"),
    (["anneal"], "bellmd: error: argument subcommand: invalid choice: 'anneal'"),
], ids=["bare", "unknown"])
def test_usage_errors_exit_2_naming_the_argument(capsys, argv, message):
    code, stdout, stderr = run_cli(capsys, *argv)
    assert (code, stdout) == (2, "")
    assert message in stderr


@pytest.mark.parametrize("argv,code,built", [
    *(pytest.param(argv, 0, [f"bellmd {argv[0]}"], id=argv[0]) for argv in (
        ["teleport"], ["chsh", "--deterministic-max"], ["mi", "--table", "0.25,0.25,0.25,0.25"],
        ["optimize", "--budget", "0", "--out-dir", "run"], ["kcbs", "--classical-min"])),
    pytest.param(["-h"], 0, ["bellmd"], id="-h"),
    pytest.param(["--version"], 0, ["bellmd"], id="--version"),
    pytest.param([], 2, ["bellmd"], id="bare"),
    pytest.param(["anneal"], 2, ["bellmd"], id="anneal"),
])
def test_a_run_builds_one_parser_per_parse_stage(capsys, tmp_path, monkeypatch, argv, code,
                                                 built):
    # a run builds its subcommand's parser only; the top parser serves -h, --version and errors
    monkeypatch.chdir(tmp_path)
    seen = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        seen.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert run_cli(capsys, *argv)[0] == code
    assert seen == built


@pytest.mark.parametrize("argv,code,stdout,stderr", [
    (["teleport", "--version"], 2, "",
     "bellmd teleport: error: unrecognized arguments: --version\n"),
    (["teleport", "--", "x"], 2, "", "bellmd teleport: error: unrecognized arguments: x\n"),
    (["teleport", "--", "--", "x"], 2, "",
     "bellmd teleport: error: unrecognized arguments: -- x\n"),
    (["--", "teleport", "--trials", "2"], 0, '{\n  "input": [', ""),
], ids=["--version", "-- x", "-- -- x", "-- name"])
def test_arguments_after_the_name_go_to_the_subcommand(capsys, argv, code, stdout, stderr):
    # as the top parser's REMAINDER handed them over: --version after a name is the
    # subcommand's to reject (-h: test_subcommand_help_exits_0), the top parser took one
    # `--` right after the name, and a name after `--` still runs
    got_code, got_out, got_err = run_cli(capsys, *argv)
    assert got_code == code
    assert got_out.startswith(stdout)
    assert got_err.startswith("usage: bellmd teleport") if stderr else got_err == ""
    assert got_err.endswith(stderr)


def test_python_dash_m_runs_the_cli(capsys, tmp_path, monkeypatch):
    # sys.argv reaches the top parser (--version, -h) or the subcommand's (optimize) and
    # prints what an in-process main prints
    monkeypatch.setenv("COLUMNS", "80")  # help text wraps at the terminal width
    for where in ("sub", "in"):
        (tmp_path / where).mkdir()
    monkeypatch.chdir(tmp_path / "in")
    argvs = (["--version"], ["-h"], ["optimize", "--target-s", "2.8", "--out-dir", "run"])
    runs = run_all({argv[0]: (["-m", "bellmd", *argv], {}) for argv in argvs},
                   cwd=tmp_path / "sub")
    for argv in argvs:
        proc = runs[argv[0]]
        assert proc.returncode == 0, proc.stderr
        assert run_cli(capsys, *argv) == (0, proc.stdout, "")
    assert runs["--version"].stdout == f"bellmd {bellmd.__version__}\n"
    assert runs["-h"].stdout.startswith("usage: bellmd")
    for name in ("min_cmd_model.json", "min_cmd_report.json"):
        assert (tmp_path / "sub/run" / name).read_bytes() == Path("run", name).read_bytes()


def _negative_zeros(text: str) -> list[str]:
    """Numbers in JSON or comma-separated ``text`` that read as -0."""
    return [t for t in re.findall(r"-[0-9][0-9.eE+-]*", text) if float(t) == 0.0]


def test_no_report_prints_negative_zero(capsys, tmp_path, monkeypatch):
    # a point-mass setting marginal has entropy +0; its report used to print -0
    monkeypatch.chdir(tmp_path)
    Path("point.json").write_text(asset_with(
        "brans.json", lambda d: d["settings"].update(marginal=[1.0, 0.0, 0.0, 0.0])))
    brans = str(asset_path("brans.json"))
    for argv in (
        ["mi", "--model", "point.json"], ["mi", "--model", brans],
        ["mi", "--table", "1,0,0,0"], ["mi", "--table", "0.25,0.25,0.25,0.25"],
        ["chsh", "--model", "point.json", "--out", "out/point.json"],
        ["chsh", "--model", brans, "--out", "out/brans.json"],
        ["chsh", "--scenario", str(asset_path("bell-optimal.json")), "--out", "out/bell.json"],
        ["chsh", "--deterministic-max"],
        ["optimize", "--target-s", "4", "--out-dir", "out"],
        ["optimize", "--budget", "0", "--out-dir", "out"],
        ["optimize", "--curve", "0,0.01,2", "--out-dir", "out"],
    ):
        code, stdout, stderr = run_cli(capsys, *argv)
        assert code == 0, stderr
        assert _negative_zeros(stdout) == [], argv
    written = sorted(p for p in (tmp_path / "out").iterdir() if "manifest" not in p.name)
    assert len(written) == 11
    for path in written:
        assert _negative_zeros(path.read_text()) == [], path.name


def test_internal_invariant_breach_exits_3(capsys, monkeypatch):
    from bellmd.errors import InvariantError
    import bellmd.cli as cli_module

    def explode(*_):
        raise InvariantError("synthetic breach")

    monkeypatch.setattr(cli_module, "_mutual_information_bits", explode)
    code, _, stderr = run_cli(capsys, "mi", "--table", "0.25,0.25,0.25,0.25")
    assert code == 3
    assert "internal error" in stderr


def test_running_out_of_memory_exits_2(capsys, monkeypatch):
    def exhaust(*_):
        raise MemoryError("x")

    monkeypatch.setattr(bellmd.cli, "_mutual_information_bits", exhaust)
    code, stdout, stderr = run_cli(capsys, "mi", "--table", "0.25,0.25,0.25,0.25")
    assert (code, stdout) == (2, "")
    assert stderr == "error: not enough memory for this run: x\n"


def _with_observable(party, k, matrix):
    return asset_with("bell-optimal.json",
                       lambda d: d[f"{party}_observables"].__setitem__(k, matrix))


def _diagonal_pairs(*diagonal):
    return [[[float(x if i == j else 0.0), 0.0] for j in range(len(diagonal))]
            for i, x in enumerate(diagonal)]


def _huge_observable_entry(party, k):
    return _with_huge_integer("bell-optimal.json", lambda d, big: (
        d[f"{party}_observables"][k][1][0].__setitem__(0, big)))


def _every_observable(matrix):
    return asset_with("bell-optimal.json", lambda d: d.update(
        alice_observables=[matrix, matrix], bob_observables=[matrix, matrix]))


# observable documents that the one-stack decode cannot take, with the full stderr they give;
# the decode then converts the four matrices one at a time only to name the failing one
UNSTACKED_OBSERVABLES = {
    "one 3x3": (_with_observable("bob", 0, _diagonal_pairs(1, -1, 1)),
                "error: bob observable 0 must act on a qubit\n"),
    "four 3x3": (_every_observable(_diagonal_pairs(1, -1, 1)),
                 "error: alice observable 0 must act on a qubit\n"),
    "1x1": (_with_observable("alice", 1, _diagonal_pairs(1)),
            "error: alice observable 1 must act on a qubit\n"),
    "triples": (_with_observable("bob", 1, [[[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
                                            [[0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]]),
                "error: in.bob_observables[1]: expected [re, im] pairs, got shape (2, 2, 3)\n"),
    "flat": (_with_observable("alice", 0, [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [-1.0, 0.0]]),
             "error: in.alice_observables[0]: operator must be a matrix of [re, im] pairs\n"),
} | {
    f"huge {party} {k}": (_huge_observable_entry(party, k),
                          f"error: in.{party}_observables[{k}]: expected numeric [re, im] pairs\n")
    for party in ("alice", "bob") for k in (0, 1)
}


@pytest.mark.parametrize("kind", UNSTACKED_OBSERVABLES)
def test_observables_off_the_stack_exit_2_naming_the_matrix(capsys, tmp_path, monkeypatch, kind):
    monkeypatch.chdir(tmp_path)
    content, message = UNSTACKED_OBSERVABLES[kind]
    (tmp_path / "in").write_text(content)
    code, stdout, stderr = run_cli(capsys, "chsh", "--scenario", "in", "--out", "o.json")
    assert (code, stdout, stderr) == (2, "", message)
    assert [p.name for p in tmp_path.iterdir()] == ["in"]
