import argparse
import json
import math
import time
import tracemalloc

import numpy as np
import pytest

from coherray import SweepSpec, run_sweep
from coherray.cli import (
    _GLOBAL_FIELDS,
    _SUBCOMMAND_FIELDS,
    _build_parser,
    _sections,
    main,
    parse_config,
)
from coherray.experiments import _SWEEPS

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
        # the diagonal row is the uncorrelated reference N * omega * (n + 1/2)
        _, out, _ = run_cli(
            capsys, "quantum", "--n-waves", "3", "--phases", "0.1,0.9,2.2",
            "--omega", "2", "--n", "3",
        )
        assert quantity_map(split_csv(out)[2])["diagonal"] == "21"

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

    @pytest.mark.parametrize(
        "argv", [("--seed", "1", "classical", "--n-waves", "2"),
                 ("--format=json", "classical", "--n-waves", "2"),
                 ("--config", "run.cfg", "classical"), ("--n-max", "4")],
    )
    def test_global_flag_before_the_subcommand_is_usage_error(self, capsys, argv):
        """argparse would take the flag's value for the subcommand and
        report an invalid choice; the message says where the flag goes."""
        code, out, err = run_cli(capsys, *argv)
        flag = argv[0].partition("=")[0]
        assert code == 2
        assert f"global flag {flag} goes after the subcommand" in err
        assert out == ""

    def test_missing_required_key(self, capsys):
        code, _, err = run_cli(capsys, "classical")
        assert code == 4
        assert "n-waves" in err

    @pytest.mark.parametrize(
        "argv, expected_code, key",
        [
            (("classical", "--n-waves", "2", "--seed", "many"), 3, "'global.seed'"),
            (("classical", "--n-waves", "2", "--n-max", "0"), 3, "'global.n-max'"),
            # the subcommand's section resolves before global and its n-max range
            (("classical", "--n-max", "0"), 4, "n-waves"),
        ],
        ids=("seed", "n-max", "missing-key-first"),
    )
    def test_global_setting_error_names_its_section(self, capsys, argv, expected_code, key):
        code, out, err = run_cli(capsys, *argv)
        assert code == expected_code
        assert key in err
        assert out == ""

    @pytest.mark.parametrize(
        "argv, key",
        [
            (("classical", "--n-waves", "2", "--delta-phi", "nan"), "'delta-phi'"),
            (("biphoton", "--overlap", "0.5", "--omega", "nan"), "'omega'"),
            (("overlap", "--dk", "inf,0,0", "--box", "1,1,1"), "'dk'"),
            (("overlap", "--dk", "1,2", "--box", "1,1,1"), "'dk'"),
            (("dicke", "--n-values", "2,four"), "'n-values'"),
            (("biphoton", "--overlap", "1,2,3"), "'overlap'"),
            (("wavepacket", "--components", "1,2"), "'components'"),
            (("dicke", "--n-values", ","), "'n-values'"),
            (("wavepacket", "--components", " ; "), "'components'"),
        ],
        ids=("classical", "biphoton", "overlap", "dk-length", "n-values", "overlap-length",
             "components", "n-values-empty", "components-empty"),
    )
    def test_non_finite_number_is_type_mismatch(self, capsys, argv, key):
        code, out, err = run_cli(capsys, *argv)
        assert code == 3
        assert key in err
        assert out == ""

    @pytest.mark.parametrize(
        "argv, key",
        [
            (("classical", "--n-waves", "2", "--wavelength", "0"), "wavelength"),
            (("classical", "--n-waves", "0"), "n-waves"),
            (("classical", "--n-waves", "3", "--phases", "0,1"), "phases"),
            (("quantum", "--n-waves", "2", "--n", "9", "--n-max", "8"), "n-max"),
            (("classical", "--n-waves", "2", "--amplitude", "0"), "amplitude"),
            (("quantum", "--n-waves", "2", "--omega", "0"), "omega"),
            (("biphoton", "--overlap", "0.5", "--omega", "-1"), "omega"),
            (("sweep", "--target", "quantum_energy", "--parameter", "phase_delta", "--start", "0",
              "--stop", "1", "--steps", "3", "--n-waves", "2", "--omega", "0"), "'omega'"),
            (("sweep", "--target", "biphoton", "--parameter", "phase_delta", "--start", "0",
              "--stop", "1", "--steps", "3", "--overlap", "0.5", "--omega", "-1"), "'omega'"),
            (("spectrum", "--n-sources", "0", "--spacing", "0.5", "--wavelength-min", "1",
              "--wavelength-max", "2"), "'n-sources'"),
            (("spectrum", "--n-sources", "3", "--spacing", "0", "--wavelength-min", "1",
              "--wavelength-max", "2"), "'spacing'"),
            (("sweep", "--target", "farfield_power", "--parameter", "wavelength", "--start", "0.5",
              "--stop", "2", "--steps", "3", "--n-sources", "0", "--spacing", "1"), "'n-sources'"),
            (("sweep", "--target", "farfield_power", "--parameter", "wavelength", "--start", "0.5",
              "--stop", "2", "--steps", "3", "--n-sources", "4", "--spacing", "0"), "'spacing'"),
            (("spectrum", "--n-sources", "2", "--spacing", "0.5", "--wavelength-min", "1",
              "--wavelength-max", "2", "--radius", "-5"), "'radius'"),
            (("sweep", "--target", "farfield_power", "--parameter", "wavelength", "--start", "0.5",
              "--stop", "2", "--steps", "3", "--n-sources", "4", "--spacing", "1",
              "--radius", "-5"), "'radius'"),
            (("spectrum", "--n-sources", "2", "--spacing", "0.5", "--wavelength-min", "-1",
              "--wavelength-max", "2"), "'wavelength-min'"),
            (("spectrum", "--n-sources", "2", "--spacing", "0.5", "--wavelength-min", "1",
              "--wavelength-max", "0"), "'wavelength-max'"),
            (("spectrum", "--n-sources", "2", "--spacing", "0.5", "--wavelength-min", "1",
              "--wavelength-max", "2", "--steps", "1"), "'steps'"),
            (("dicke", "--n-values", "2,4,8", "--spacing-ratio", "0"), "'spacing-ratio'"),
            (("spectrum", "--n-sources", "2", "--spacing", "0.5", "--wavelength-min", "1",
              "--wavelength-max", "2", "--samples", "10"), "'global.samples'"),
            (("dicke", "--n-values", "2,4,8", "--regime", "farfield", "--samples", "10"),
             "'global.samples'"),
            (("sweep", "--target", "farfield_power", "--parameter", "wavelength", "--start", "0.5",
              "--stop", "2", "--steps", "3", "--n-sources", "4", "--spacing", "1",
              "--samples", "63"), "'global.samples'"),
            (("sweep", "--target", "quantum_energy", "--parameter", "phase_delta", "--start", "0",
              "--stop", "1", "--steps", "3", "--n-waves", "3", "--n", "40"), "0..n-max = 32"),
            (("sweep", "--target", "quantum_energy", "--parameter", "phase_delta", "--start", "0",
              "--stop", "1", "--steps", "3", "--n-waves", "3", "--n", "-2"), "occupation n = -2"),
        ],
        ids=("wavelength", "n-waves", "phases", "n-above-n-max", "amplitude", "quantum-omega",
             "biphoton-omega", "sweep-quantum-omega", "sweep-biphoton-omega",
             "spectrum-n-sources", "spectrum-spacing", "sweep-n-sources", "sweep-spacing",
             "spectrum-radius", "sweep-radius", "spectrum-wavelength-min",
             "spectrum-wavelength-max", "spectrum-steps", "dicke-spacing-ratio",
             "spectrum-samples", "dicke-samples", "sweep-samples", "sweep-n-above-n-max",
             "sweep-n-negative"),
    )
    def test_out_of_range_value_is_type_mismatch(self, capsys, argv, key):
        """A value out of its key's range exits 3, like a value that does not
        parse, whichever subcommand takes it; so do the runners' checks
        across keys (the phase count, n above n-max)."""
        code, out, err = run_cli(capsys, *argv)
        assert code == 3
        assert key in err
        assert out == ""

    @pytest.mark.parametrize(
        "argv",
        [("spectrum", "--n-sources", "4", "--spacing", "0.5", "--wavelength-min", "2",
          "--wavelength-max", "1"),
         ("spectrum", "--n-sources", "4", "--spacing", "0.5", "--wavelength-min", "1.5",
          "--wavelength-max", "1.5")],
        ids=("reversed", "empty"),
    )
    def test_spectrum_range_across_keys_is_type_mismatch(self, capsys, argv):
        """A wavelength range that does not rise exits 3 and names both
        keys, as a sweep's start and stop do."""
        code, out, err = run_cli(capsys, *argv)
        assert code == 3
        assert "wavelength-min" in err and "wavelength-max" in err
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

    @pytest.mark.parametrize("start", ["0.2", "-3"])
    @pytest.mark.parametrize(
        "target, extra",
        [("classical_energy", ()), ("quantum_energy", ()),
         ("farfield_power", ("--spacing", "0.3", "--wavelength", "1"))],
        ids=("classical", "quantum", "farfield"),
    )
    def test_source_count_below_one_is_type_mismatch(self, capsys, target, extra, start):
        """Every source_count sweep whose first value rounds below one source
        exits 3 with the one message, the far-field one included."""
        code, out, err = run_cli(
            capsys, "sweep", "--target", target, "--parameter", "source_count",
            "--start", start, "--stop", "3", "--steps", "3", *extra,
        )
        assert code == 3
        assert err == "error: source_count sweep values must round to N >= 1\n"
        assert out == ""

    def test_negative_jitter_is_runtime_failure(self, capsys):
        code, out, err = run_cli(
            capsys, "dicke", "--n-values", "2,4,8", "--regime", "farfield", "--jitter", "-0.3"
        )
        assert code == 1
        assert "jitter" in err
        assert out == ""

    @pytest.mark.parametrize(
        "argv, refusal",
        [(("dicke", "--n-values", "1000000,1100000,1200000,1300000", "--regime", "farfield"),
          "1024 detector points x "),
         (("dicke", "--n-values", "2,3,2000000", "--regime", "farfield", "--jitter", "0.3"),
          "1024 detector points x "),
         (("sweep", "--target", "farfield_power", "--parameter", "source_count", "--start", "1",
           "--stop", "5000000", "--steps", "2", "--spacing", "0.3", "--wavelength", "1"),
          "1024 detector points x "),
         (("sweep", "--target", "farfield_power", "--parameter", "wavelength", "--start", "0.5",
           "--stop", "2", "--steps", "4000", "--n-sources", "20000", "--spacing", "0.3",
           "--samples", "64", "--phase-profile", "random"),
          "64 detector points x 20000 sources x 4000 arrays needs ")],
        ids=("million-sources", "jittered", "sweep", "wavelength-steps"),
    )
    def test_far_field_counts_are_refused_before_building(self, capsys, argv, refusal):
        """A far-field sweep, the far-field fit included, checks the engine's
        budgets on the shape of its whole walk before it draws a phase or
        builds, validates or jitters any array: a wavelength sweep of 4000
        steps of 20 000 random phases is refused for all its arrays' work,
        where it once drew its 8e7 phases first."""
        tracemalloc.start()
        try:
            started = time.perf_counter()
            code, out, err = run_cli(capsys, *argv)
            elapsed = time.perf_counter() - started
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        assert f"error: far-field request of {refusal}" in err
        assert out == ""
        assert elapsed < 1.0
        assert peak < 2 ** 20

    def test_huge_hemisphere_is_runtime_failure(self, capsys):
        """A hemisphere of 200 000 samples is refused by the work budget: a
        spectrum's line takes the 1-D rule on its u nodes, and the cosine
        sums of their weights take samples^2 / 4 terms, while the walk
        itself would fit."""
        code, out, err = run_cli(
            capsys, "spectrum", "--n-sources", "4", "--spacing", "0.5", "--wavelength-min", "1",
            "--wavelength-max", "2", "--geometry", "hemisphere", "--samples", "200000",
        )
        assert code == 1
        assert "over the work budget" in err
        assert out == ""

    def test_million_source_spectrum_is_refused_within_seconds(self, capsys):
        """Validating a linear array is O(N): the request reaches the
        far-field budgets at once instead of spending hours on pairwise
        distances. A spectrum's steps share their array, so the sweep check
        charges its 200 steps 512 bytes each plus 96 bytes per source once,
        and passes it on. The walk's chunks of two rows fit in memory, and
        the work budget refuses the 128 fundamental rows of the folded arc:
        7 operations per source for the path differences, and 7 for the
        trig pass and 2 for the matvecs of each step."""
        started = time.perf_counter()
        code, out, err = run_cli(
            capsys, "spectrum", "--n-sources", "1000000", "--spacing", "0.5",
            "--wavelength-min", "1", "--wavelength-max", "2",
        )
        assert time.perf_counter() - started < 5.0
        assert code == 1
        assert err == (
            "error: far-field request of 256 detector points x 1000000 sources x 200 arrays"
            f" needs {128 * 1_000_000 * (7 + 200 * (7 + 2))} operations, over the work budget"
            " of 10000000000 operations\n"
        )
        assert out == ""

    def test_far_field_request_over_work_budget_is_runtime_failure(self, capsys):
        """A hemisphere spectrum of 10 000 steps holds a few MB but would run
        for hours; the work budget refuses it at once, naming the count. The
        linear array takes the 1-D rule on the detector's 4096 u nodes and
        folds onto x -> -x, so its trig is counted over half of them and its
        matvecs, one per fold class, over all; the rule's weights add 4
        operations per term of their cosine sums, 2048 for each of the 2048
        fundamental nodes."""
        started = time.perf_counter()
        code, out, err = run_cli(
            capsys, "spectrum", "--n-sources", "64", "--spacing", "0.01", "--wavelength-min", "1",
            "--wavelength-max", "2", "--geometry", "hemisphere", "--samples", "4096",
            "--steps", "10000",
        )
        assert time.perf_counter() - started < 1.0
        assert code == 1
        assert err == (
            "error: far-field request of 4096 detector points x 64 sources x 10000 arrays"
            f" needs {2048 * 64 * (7 + 10000 * (7 + 2)) + 4 * 2048 * 2048} operations, over the"
            " work budget of 10000000000 operations\n"
        )
        assert out == ""

    def test_hamiltonian_over_work_budget_is_runtime_failure(self, capsys):
        """100 000 waves fit the wave budget, but their 5 * 10^9 wave pairs at
        10 operations each would run for minutes; they are refused at once."""
        started = time.perf_counter()
        code, out, err = run_cli(capsys, "quantum", "--n-waves", "100000", "--n-max", "64")
        assert time.perf_counter() - started < 1.0
        assert code == 1
        assert err == (
            "error: Hamiltonian of 100000 waves (4999950000 wave pairs) needs 49999500000"
            " operations, over the work budget of 10000000000 operations\n"
        )
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
            ("biphoton.overlap = 0.5\nunits.energy-scale = 0\n", "'units.energy-scale'"),
        ],
        ids=("energy-scale", "overlap", "energy-scale-zero"),
    )
    def test_non_finite_file_value_is_type_mismatch(self, tmp_path, capsys, text, key):
        path = self.write(tmp_path, text)
        code, out, err = run_cli(capsys, "biphoton", "--config", path)
        assert code == 3
        assert key in err
        assert out == ""

    def test_global_file_value_names_its_section(self, tmp_path, capsys):
        path = self.write(tmp_path, "global.samples = x\nclassical.n-waves = 2\n")
        code, out, err = run_cli(capsys, "classical", "--config", path)
        assert code == 3
        assert "'global.samples'" in err
        assert out == ""

    def test_unknown_key_and_section_rejected(self, tmp_path, capsys):
        path = self.write(tmp_path, "classical.warp = 9\n")
        assert run_cli(capsys, "classical", "--config", path)[0] == 5
        path = self.write(tmp_path, "engine.n-waves = 2\n")
        assert run_cli(capsys, "classical", "--config", path)[0] == 5
        path = self.write(tmp_path, "n-waves = 2\n")
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

    @pytest.mark.parametrize(
        "argv",
        [
            ("classical", "--n-waves", "3"),
            ("biphoton", "--overlap", "0.8,0.1", "--delta-phi", "1.2", "--format", "json"),
        ],
        ids=("csv", "json"),
    )
    def test_output_file_holds_what_stdout_would(self, tmp_path, capsys, argv):
        """Only the config.output echo line tells the file from stdout."""
        out_path = tmp_path / "result.txt"
        code, stdout_text, _ = run_cli(capsys, *argv)
        assert code == 0
        assert run_cli(capsys, *argv, "--output", str(out_path)) == (0, "", "")
        written = out_path.read_text(encoding="utf-8").splitlines()
        echoed = [line for line in written if "config.output" in line]
        assert len(echoed) == 1 and str(out_path) in echoed[0]
        assert [line for line in written if "config.output" not in line] == [
            line for line in stdout_text.splitlines() if "config.output" not in line
        ]

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
            "--steps", "4", "--n", "1", "--omega", "1.0", "--spacing", "0.4",
        )
        assert code == 0
        meta, _, rows = split_csv(out)
        for row, n in zip(rows, (1, 2, 3, 4)):
            assert float(row[1]) == pytest.approx(n * n * 1.5, rel=1e-12)
        # the spacing shapes nothing here: echoed as a flag, not as a fixed setting
        assert meta["config.spacing"] == "0.40000000000000002"
        assert "fixed.spacing" not in meta


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


def test_section_dests_do_not_collide():
    """A run's settings are one dict keyed by dest: a shared dest would
    silently overwrite one section's value with another's."""
    for name in _SUBCOMMAND_FIELDS:
        dests = [field_spec.dest for fields in _sections(name).values() for field_spec in fields]
        assert len(dests) == len(set(dests)), name


# a valid value, other than the default, for every fixed key the CLI can set
SWEEP_KEY_VALUES = {
    "n_waves": 3, "n_sources": 3, "spacing": 0.4, "wavelength": 1.2, "n": 2, "omega": 1.7,
    "overlap": 0.5 + 0.2j, "phase": 0.9, "phase_profile": "random", "geometry": "hemisphere",
    "radius": 300.0, "components": ((6.28, 1.0, 0.0), (7.85, 0.5, 0.3)),
    "box_lengths": (2.0, 1.0, 1.0), "direction": (0.0, 0.6, 0.8), "component": 0,
    "samples": 24, "n_max": 9,
}


def test_every_sweep_key_is_settable_from_the_cli():
    sweep_fields = _SUBCOMMAND_FIELDS["sweep"]
    settable = {
        "box_lengths" if field_spec.dest == "box" else field_spec.dest
        for field_spec in sweep_fields
        if field_spec.default is None
    } | {"samples", "n_max"}
    assert set(SWEEP_KEY_VALUES) == settable
    for _, required, optional in _SWEEPS.values():
        assert set(required + optional) <= settable
    targets = list(dict.fromkeys(target for target, _ in _SWEEPS))
    target_field = next(field_spec for field_spec in sweep_fields if field_spec.name == "target")
    assert [target_field.convert(target) for target in targets] == targets
    with pytest.raises(ValueError, match=f"expected one of {', '.join(targets)};"):
        target_field.convert("warp_drive")


@pytest.mark.parametrize("target, parameter", list(_SWEEPS))
def test_sweep_ignores_and_hides_keys_it_does_not_read(target, parameter):
    _, required, optional = _SWEEPS[target, parameter]
    start, stop = (1.0, 3.0) if parameter == "source_count" else (0.5, 2.0)
    base = {key: SWEEP_KEY_VALUES[key] for key in required}
    others = {
        key: value for key, value in SWEEP_KEY_VALUES.items() if key not in required + optional
    }
    plain = run_sweep(SweepSpec(target, parameter, start, stop, 3, base))
    loaded = run_sweep(SweepSpec(target, parameter, start, stop, 3, {**base, **others}))
    assert np.array_equal(plain.power, loaded.power)
    assert np.array_equal(plain.enhancement, loaded.enhancement)
    fixed = {key[len("fixed."):] for key in loaded.metadata if key.startswith("fixed.")}
    assert fixed <= set(required + optional)


class TestParserBuild:
    """A run builds one flat parser for its subcommand; usage paths build all eight subparsers."""

    @pytest.fixture
    def subparsers_built(self, monkeypatch):
        built = []
        add_parser = argparse._SubParsersAction.add_parser

        def counting(self, name, **kwargs):
            built.append(name)
            return add_parser(self, name, **kwargs)

        monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting)
        return built

    @pytest.fixture
    def parsers_built(self, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def recording(self, *args, **kwargs):
            init(self, *args, **kwargs)
            built.append(self)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", recording)
        return built

    @pytest.mark.parametrize("name", list(_SUBCOMMAND_FIELDS))
    def test_a_run_builds_one_subparser(self, subparsers_built, parsers_built, name):
        """One ArgumentParser, no add_parser call, and its flags in table order."""
        config = parse_config([name, *MINIMAL_ARGV[name]])
        assert config.subcommand == name
        assert subparsers_built == []
        [parser] = parsers_built
        global_flags = [f"--{field_spec.name}" for field_spec in _GLOBAL_FIELDS]
        own_flags = [f"--{field_spec.name}" for field_spec in _SUBCOMMAND_FIELDS[name]]
        options = [option for action in parser._actions for option in action.option_strings]
        assert options == ["-h", "--help", *global_flags, "--config", *own_flags]

    @pytest.mark.parametrize("columns", ["40", "80", "200"])
    @pytest.mark.parametrize("name", list(_SUBCOMMAND_FIELDS))
    def test_a_runs_help_is_its_subparsers_help(self, name, columns, monkeypatch, capsys):
        """At every terminal width, not only the corpus's 80 columns, a run's
        help is the full parser's help of the same subcommand."""
        monkeypatch.setenv("COLUMNS", columns)
        with pytest.raises(SystemExit) as exit_:
            _build_parser(None).parse_args([name, "--help"])
        assert exit_.value.code == 0
        assert _build_parser(name).format_help() == capsys.readouterr().out

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
