import argparse
import json
import math
import time
import tracemalloc

import numpy as np
import pytest

from coherray import SweepSpec, run_sweep
from coherray.cli import _SUBCOMMAND_FIELDS, main, parse_config

TWO_PI = 2.0 * math.pi
UNIT_ENERGY = TWO_PI  # unit-amplitude wave at unit wavelength, unit box


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def traced_cli(capsys, *argv):
    """run_cli plus the tracemalloc peak of the call."""
    tracemalloc.start()
    try:
        code = main(list(argv))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    return code, captured.out, captured.err, peak


def split_csv(text):
    """Return (meta dict, header list, data row lists) from CSV output."""
    lines = text.splitlines()
    meta = {}
    body = []
    for line in lines:
        if line.startswith("# "):
            key, _, value = line[2:].partition(" = ")
            meta[key] = value
        else:
            body.append(line)
    header = body[0].split(",")
    rows = [line.split(",") for line in body[1:]]
    return meta, header, rows


def quantity_map(rows):
    return {row[0]: row[1] for row in rows}


class TestWorkedExamples:
    def test_quantum_pair_near_antiphase(self, capsys):
        code, out, _ = run_cli(
            capsys, "quantum", "--n-waves", "2", "--delta-phi", "3.14159265",
            "--n", "1",
        )
        assert code == 0
        values = quantity_map(split_csv(out)[2])
        assert float(values["diagonal"]) == pytest.approx(3.0, rel=1e-12)
        assert abs(float(values["total"])) < 1e-12

    def test_overlap_half_period_shift(self, capsys):
        code, out, _ = run_cli(
            capsys, "overlap", "--dk", "3.14159,0,0", "--box", "1,1,1"
        )
        assert code == 0
        values = quantity_map(split_csv(out)[2])
        assert float(values["overlap_re"]) == pytest.approx(2.0 / math.pi, abs=1e-4)
        assert float(values["overlap_im"]) == 0.0
        assert values["regime"] == "small_volume"

    def test_overlap_missing_box_reports_the_key(self, capsys):
        code, _, err = run_cli(capsys, "overlap", "--dk", "1,0,0")
        assert code == 4
        assert "box" in err


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "frobnicate")
        assert code == 2
        assert err

    def test_type_mismatch(self, capsys):
        code, _, err = run_cli(capsys, "classical", "--n-waves", "many")
        assert code == 3
        assert "n-waves" in err

    def test_unknown_flag(self, capsys):
        code, _, _ = run_cli(capsys, "classical", "--n-waves", "2", "--bogus", "1")
        assert code == 5

    def test_exit_codes_do_not_depend_on_argparse_wording(self, capsys, monkeypatch):
        """argparse's messages go through gettext; a translated argparse
        must give the same exit codes."""
        german = {
            "unrecognized arguments: %s": "nicht erkannte Argumente: %s",
            "argument %(argument_name)s: %(message)s": "Argument %(argument_name)s: %(message)s",
            "invalid choice: %(value)r (choose from %(choices)s)":
                "ungültige Auswahl: %(value)r (wähle aus %(choices)s)",
            "the following arguments are required: %s": "folgende Argumente fehlen: %s",
        }
        monkeypatch.setattr(argparse, "_", lambda text: german.get(text, text))
        code, _, err = run_cli(capsys, "classical", "--n-waves", "2", "--bogus", "1")
        assert code == 5
        assert "--bogus 1" in err
        assert run_cli(capsys, "frobnicate")[0] == 2
        assert run_cli(capsys)[0] == 2

    def test_missing_required_key(self, capsys):
        code, _, err = run_cli(capsys, "classical")
        assert code == 4
        assert "n-waves" in err

    @pytest.mark.parametrize(
        "argv, key",
        [
            (("classical", "--n-waves", "2", "--delta-phi", "nan"), "'delta-phi'"),
            (("biphoton", "--overlap", "0.5", "--omega", "nan"), "'omega'"),
            (("overlap", "--dk", "inf,0,0", "--box", "1,1,1"), "'dk'"),
        ],
        ids=("classical", "biphoton", "overlap"),
    )
    def test_non_finite_number_is_type_mismatch(self, capsys, argv, key):
        code, out, err = run_cli(capsys, *argv)
        assert code == 3
        assert key in err
        assert out == ""

    def test_farfield_sweep_without_source_count_is_missing_key(self, capsys):
        code, _, err = run_cli(
            capsys, "sweep", "--target", "farfield_power", "--parameter", "wavelength",
            "--start", "0.5", "--stop", "2", "--steps", "3", "--spacing", "1",
        )
        assert code == 4
        assert "n_sources" in err

    @pytest.mark.parametrize(
        "extra",
        [
            ("--target", "classical_energy", "--parameter", "source_count",
             "--phase-profile", "sometimes"),
            ("--target", "wavepacket", "--parameter", "phase_delta",
             "--components", "6.28,1,0;7.85,0.5,0.3", "--box", "1,1,1", "--component", "5"),
        ],
        ids=("phase-profile", "component"),
    )
    def test_bad_sweep_setting_is_type_mismatch(self, capsys, extra):
        code, _, err = run_cli(
            capsys, "sweep", "--start", "1", "--stop", "3", "--steps", "3", *extra
        )
        assert code == 3
        assert err

    def test_negative_jitter_is_runtime_failure(self, capsys):
        code, out, err = run_cli(
            capsys, "dicke", "--n-values", "2,4,8", "--regime", "farfield", "--jitter", "-0.3"
        )
        assert code == 1
        assert "jitter" in err
        assert out == ""

    def test_far_field_request_over_memory_budget_is_runtime_failure(self, capsys):
        code, out, err = run_cli(
            capsys, "spectrum", "--n-sources", "4", "--spacing", "0.5", "--wavelength-min", "1",
            "--wavelength-max", "2", "--geometry", "hemisphere", "--samples", "20000",
        )
        assert code == 1
        assert "budget" in err
        assert out == ""

    def test_million_source_spectrum_is_refused_within_seconds(self, capsys):
        """Validating a linear array is O(N): the request reaches the sweep
        budget at once instead of spending hours on pairwise distances."""
        started = time.perf_counter()
        code, out, err = run_cli(
            capsys, "spectrum", "--n-sources", "1000000", "--spacing", "0.5",
            "--wavelength-min", "1", "--wavelength-max", "2",
        )
        assert time.perf_counter() - started < 5.0
        assert code == 1
        assert "error: far-field sweep of 200 steps x 1000000 sources needs " in err
        assert "over the budget of 1073741824 bytes" in err
        assert out == ""

    def test_hamiltonian_over_memory_budget_is_runtime_failure(self, capsys):
        # 16 bytes per level of this state vector alone exceed the 1 GiB budget
        code, out, err = run_cli(capsys, "quantum", "--n-max", "67108864", "--n-waves", "2")
        assert code == 1
        assert "state vector of 67108865 basis states" in err
        assert "budget" in err
        assert out == ""

    def test_quantum_route_holds_no_levels_squared_array(self, capsys):
        """A dense levels x levels Hamiltonian would take 24 * 2001^2 bytes
        (~96 MB) here; the diagonal route stays linear in the levels."""
        code, out, _, peak = traced_cli(
            capsys, "quantum", "--n-max", "2000", "--n-waves", "3", "--n", "7"
        )
        assert code == 0
        # in-phase waves: |S|^2 (n + 1/2) = 9 * 7.5
        assert quantity_map(split_csv(out)[2])["total"] == "67.5"
        assert peak < 2 ** 20

    @pytest.mark.parametrize(
        "argv, request_",
        [
            (("classical", "--n-waves", "10000000000"), "phase set of 10000000000 waves"),
            (("quantum", "--n-waves", "10000000000"), "phase set of 10000000000 waves"),
            (("spectrum", "--n-sources", "10000000000", "--spacing", "0.5",
              "--wavelength-min", "1", "--wavelength-max", "2"),
             "linear array of 10000000000 sources"),
            (("spectrum", "--n-sources", "4", "--spacing", "0.5", "--wavelength-min", "1",
              "--wavelength-max", "2", "--steps", "10000000000"),
             "far-field sweep of 10000000000 steps x 4 sources"),
            (("sweep", "--target", "classical_energy", "--parameter", "phase_delta",
              "--start", "0", "--stop", "1", "--steps", "10000000000", "--n-waves", "2"),
             "sweep of 10000000000 steps"),
            (("sweep", "--target", "classical_energy", "--parameter", "phase_delta",
              "--start", "0", "--stop", "1", "--steps", "3", "--n-waves", "10000000000"),
             "phase set of 10000000000 waves"),
            (("sweep", "--target", "quantum_energy", "--parameter", "source_count",
              "--start", "1", "--stop", "1e10", "--steps", "2", "--phase-profile", "random"),
             "phase set of 10000000000 waves"),
            (("sweep", "--target", "farfield_power", "--parameter", "source_count",
              "--start", "1", "--stop", "1e8", "--steps", "3", "--spacing", "0.3",
              "--wavelength", "1"),
             "far-field sweep of 3 steps x 100000000 sources"),
            (("dicke", "--n-values", "2,4,10000000000"), "phase set of 10000000000 waves"),
        ],
    )
    def test_request_over_memory_budget_is_refused_before_allocation(
        self, capsys, argv, request_
    ):
        code, out, err, peak = traced_cli(capsys, *argv)
        assert code == 1
        assert f"error: {request_} needs " in err
        assert "over the budget of 1073741824 bytes" in err
        assert out == ""
        assert peak < 2 ** 20

    def test_runtime_failure(self, capsys):
        # detector parked well inside the near field
        code, _, err = run_cli(
            capsys, "spectrum", "--n-sources", "2", "--spacing", "0.5",
            "--wavelength-min", "1", "--wavelength-max", "2", "--radius", "5",
        )
        assert code == 1
        assert err


class TestConfigFile:
    def write(self, tmp_path, text):
        path = tmp_path / "run.cfg"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def test_file_values_are_used(self, tmp_path, capsys):
        path = self.write(tmp_path, "# comment line\nclassical.n-waves = 3\n")
        code, out, _ = run_cli(capsys, "classical", "--config", path)
        assert code == 0
        values = quantity_map(split_csv(out)[2])
        assert float(values["enhancement"]) == pytest.approx(3.0, rel=1e-12)

    def test_flag_beats_file(self, tmp_path, capsys):
        path = self.write(tmp_path, "classical.n-waves = 3\n")
        code, out, _ = run_cli(
            capsys, "classical", "--config", path, "--n-waves", "2"
        )
        assert code == 0
        values = quantity_map(split_csv(out)[2])
        assert float(values["enhancement"]) == pytest.approx(2.0, rel=1e-12)

    def test_global_section_sets_format(self, tmp_path, capsys):
        path = self.write(
            tmp_path, "global.format = json\nclassical.n-waves = 2\n"
        )
        code, out, _ = run_cli(capsys, "classical", "--config", path)
        assert code == 0
        document = json.loads(out)
        assert document["meta"]["config.format"] == "json"

    def test_energy_scale_leaves_enhancement_alone(self, tmp_path, capsys):
        base_args = ("classical", "--n-waves", "2")
        _, plain_out, _ = run_cli(capsys, *base_args)
        path = self.write(tmp_path, "units.energy-scale = 2.0\n")
        code, scaled_out, _ = run_cli(capsys, *base_args, "--config", path)
        assert code == 0
        plain = quantity_map(split_csv(plain_out)[2])
        scaled = quantity_map(split_csv(scaled_out)[2])
        for key in ("diagonal", "cross", "total"):
            assert float(scaled[key]) == 2.0 * float(plain[key])
        assert scaled["enhancement"] == plain["enhancement"]

    @pytest.mark.parametrize(
        "text, key",
        [
            ("biphoton.overlap = 0.5\nunits.energy-scale = inf\n", "'units.energy-scale'"),
            ("biphoton.overlap = nan\n", "'overlap'"),
        ],
        ids=("energy-scale", "overlap"),
    )
    def test_non_finite_file_value_is_type_mismatch(self, tmp_path, capsys, text, key):
        path = self.write(tmp_path, text)
        code, out, err = run_cli(capsys, "biphoton", "--config", path)
        assert code == 3
        assert key in err
        assert out == ""

    def test_unknown_key_and_section_rejected(self, tmp_path, capsys):
        path = self.write(tmp_path, "classical.warp = 9\n")
        assert run_cli(capsys, "classical", "--config", path)[0] == 5
        path = self.write(tmp_path, "engine.n-waves = 2\n")
        assert run_cli(capsys, "classical", "--config", path)[0] == 5

    def test_malformed_line(self, tmp_path, capsys):
        path = self.write(tmp_path, "this line has no equals sign\n")
        code, _, err = run_cli(capsys, "classical", "--config", path)
        assert code == 2
        assert "run.cfg:1" in err

    def test_unreadable_path(self, capsys):
        code, _, _ = run_cli(
            capsys, "classical", "--n-waves", "2", "--config", "/no/such/file.cfg"
        )
        assert code == 2


class TestOutputShape:
    def test_csv_meta_block_is_sorted_and_rows_ordered(self, capsys):
        code, out, _ = run_cli(capsys, "classical", "--n-waves", "4")
        assert code == 0
        meta_lines = [l for l in out.splitlines() if l.startswith("# ")]
        assert meta_lines == sorted(meta_lines)
        meta, header, rows = split_csv(out)
        assert header == ["quantity", "value"]
        assert [row[0] for row in rows] == [
            "diagonal", "cross", "total", "enhancement"
        ]
        assert meta["config.subcommand"] == "classical"

    def test_biphoton_row_labels(self, capsys):
        code, out, _ = run_cli(
            capsys, "biphoton", "--overlap", "1", "--delta-phi", "0"
        )
        assert code == 0
        values = quantity_map(split_csv(out)[2])
        assert float(values["photon_energy"]) == 4.0
        assert float(values["vacuum_energy"]) == 2.0
        assert float(values["total_energy"]) == 6.0

    def test_sweep_emits_one_row_per_step(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--target", "classical_energy",
            "--parameter", "phase_delta", "--start", "0", "--stop", "6.28",
            "--steps", "9", "--n-waves", "2",
        )
        assert code == 0
        _, header, rows = split_csv(out)
        assert header == ["phase_delta", "power", "enhancement"]
        assert len(rows) == 9

    def test_json_rows_reproduce_library_floats(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--target", "classical_energy",
            "--parameter", "phase_delta", "--start", "0", "--stop", "3.14",
            "--steps", "5", "--n-waves", "2", "--format", "json",
        )
        assert code == 0
        document = json.loads(out)
        assert document["columns"] == ["phase_delta", "power", "enhancement"]
        curve = run_sweep(
            SweepSpec("classical_energy", "phase_delta", 0.0, 3.14, 5, {"n_waves": 2})
        )
        assert len(document["rows"]) == 5
        for row, param, power, enh in zip(
            document["rows"], curve.parameter, curve.power, curve.enhancement
        ):
            assert row[0] == param
            assert row[1] == power
            assert row[2] == enh

    def test_identical_config_gives_identical_bytes(self, tmp_path, capsys):
        out_path = tmp_path / "result.csv"
        argv = (
            "sweep", "--target", "farfield_power", "--parameter", "source_count",
            "--start", "1", "--stop", "4", "--steps", "4", "--spacing", "0.2",
            "--wavelength", "1.0", "--samples", "128",
            "--output", str(out_path),
        )
        assert run_cli(capsys, *argv)[0] == 0
        first = out_path.read_bytes()
        assert run_cli(capsys, *argv)[0] == 0
        assert out_path.read_bytes() == first

    def test_seed_changes_random_profile_output(self, capsys):
        argv = (
            "sweep", "--target", "classical_energy", "--parameter", "source_count",
            "--start", "2", "--stop", "6", "--steps", "5",
            "--phase-profile", "random",
        )
        _, out_a, _ = run_cli(capsys, *argv, "--seed", "3")
        _, out_b, _ = run_cli(capsys, *argv, "--seed", "3")
        _, out_c, _ = run_cli(capsys, *argv, "--seed", "4")
        rows_a = split_csv(out_a)[2]
        rows_b = split_csv(out_b)[2]
        rows_c = split_csv(out_c)[2]
        assert rows_a == rows_b
        assert [r[1] for r in rows_a] != [r[1] for r in rows_c]

    def test_quantum_sweep_respects_source_count(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--target", "quantum_energy",
            "--parameter", "source_count", "--start", "1", "--stop", "4",
            "--steps", "4", "--n", "1", "--omega", "1.0",
        )
        assert code == 0
        rows = split_csv(out)[2]
        for row, n in zip(rows, (1, 2, 3, 4)):
            assert float(row[1]) == pytest.approx(n * n * 1.5, rel=1e-12)


MINIMAL_ARGV = {
    "classical": ("--n-waves", "2"),
    "quantum": ("--n-waves", "2"),
    "overlap": ("--dk", "1,0,0", "--box", "1,1,1"),
    "biphoton": ("--overlap", "0.5"),
    "wavepacket": ("--components", "6.28,1,0"),
    "sweep": ("--target", "classical_energy", "--parameter", "phase_delta",
              "--start", "0", "--stop", "1", "--steps", "2"),
    "dicke": ("--n-values", "2,4"),
    "spectrum": ("--n-sources", "2", "--spacing", "1", "--wavelength-min", "1",
                 "--wavelength-max", "2"),
}


class TestParserBuild:
    """A run builds only the subparser it names; usage paths build all eight."""

    @pytest.fixture
    def subparsers_built(self, monkeypatch):
        built = []
        add_parser = argparse._SubParsersAction.add_parser

        def counting(self, name, **kwargs):
            built.append(name)
            return add_parser(self, name, **kwargs)

        monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting)
        return built

    @pytest.mark.parametrize("name", list(_SUBCOMMAND_FIELDS))
    def test_a_run_builds_one_subparser(self, subparsers_built, name):
        config = parse_config([name, *MINIMAL_ARGV[name]])
        assert config.subcommand == name
        assert subparsers_built == [name]

    def test_help_builds_every_subparser(self, subparsers_built, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["--help"])
        assert exit_.value.code == 0
        assert subparsers_built == list(_SUBCOMMAND_FIELDS)
        help_text = capsys.readouterr().out
        assert all(name in help_text for name in _SUBCOMMAND_FIELDS)

    def test_unknown_command_builds_every_subparser(self, subparsers_built, capsys):
        assert main(["frobnicate"]) == 2
        assert subparsers_built == list(_SUBCOMMAND_FIELDS)
