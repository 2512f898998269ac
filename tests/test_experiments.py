import math
import time
import tracemalloc

import numpy as np
import pytest

from coherray import (
    ConfigError,
    DetectorGrid,
    MissingSettingError,
    ScalingFit,
    SpectrumCurve,
    SweepSpec,
    WaveMode,
    XorShift64Star,
    biphoton_energy,
    dicke_scaling_check,
    farfield_power,
    make_linear_array,
    phase_sum,
    run_sweep,
    single_wave_energy,
    wavepacket_energy,
)
from coherray import classical, experiments
from coherray.multimode import WavepacketSpectrum
from coherray.core import BoxVolume
from helpers import find_resonances

TWO_PI = 2.0 * math.pi


class TestXorShift:
    def test_frozen_reference_outputs(self):
        # recomputed by hand from the documented recurrence
        stream = XorShift64Star(1)
        assert stream.next_uint64() == 0x47E4CE4B896CDD1D
        assert stream.next_uint64() == 0xABCFA6A8E079651D
        assert stream.next_uint64() == 0xB9D10D8FEB731F57

    def test_frozen_doubles(self):
        stream = XorShift64Star(1)
        assert stream.uniform() == 0.28083505005035947
        assert stream.uniform() == 0.6711372530266764
        assert stream.uniform() == 0.7258461452833668

    def test_zero_seed_remaps_to_fallback(self):
        left = XorShift64Star(0)
        right = XorShift64Star(XorShift64Star.SEED_FALLBACK)
        assert [left.next_uint64() for _ in range(5)] == [
            right.next_uint64() for _ in range(5)
        ]

    def test_uniform_stays_in_unit_interval(self):
        stream = XorShift64Star(9)
        for _ in range(2000):
            value = stream.uniform()
            assert 0.0 <= value < 1.0

    def test_phases_batch(self):
        phases = XorShift64Star(4).phases(50)
        assert phases.shape == (50,)
        assert np.all(phases >= 0.0) and np.all(phases < TWO_PI)

    def test_numpy_integer_seed_draws_as_its_value(self):
        assert np.array_equal(XorShift64Star(np.int64(3)).phases(8), XorShift64Star(3).phases(8))


class TestSweepSpec:
    def test_validation(self):
        with pytest.raises(ConfigError):
            SweepSpec("classical_energy", "phase_delta", 0.0, 1.0, 1)
        with pytest.raises(ConfigError):
            SweepSpec("classical_energy", "phase_delta", 1.0, 1.0, 5)

    def test_fixed_map_is_copied(self):
        fixed = {"n_waves": 2}
        spec = SweepSpec("classical_energy", "phase_delta", 0.0, 1.0, 3, fixed)
        fixed["n_waves"] = 99
        assert spec.fixed["n_waves"] == 2


def test_unknown_target_and_parameter_rejected():
    with pytest.raises(ConfigError):
        run_sweep(SweepSpec("warp_drive", "phase_delta", 0.0, 1.0, 3))
    with pytest.raises(ConfigError):
        run_sweep(SweepSpec("classical_energy", "spacing", 0.1, 1.0, 3))


def test_missing_fixed_settings_are_named():
    with pytest.raises(ConfigError, match="n_waves"):
        run_sweep(SweepSpec("classical_energy", "phase_delta", 0.0, 1.0, 3))
    with pytest.raises(ConfigError, match="overlap"):
        run_sweep(SweepSpec("biphoton", "phase_delta", 0.0, 1.0, 3))


def test_missing_setting_and_bad_value_raise_distinct_types():
    with pytest.raises(MissingSettingError, match="n_sources"):
        run_sweep(SweepSpec("farfield_power", "wavelength", 0.5, 2.0, 3, {"spacing": 1.0}))
    bad_specs = (
        SweepSpec(
            "farfield_power", "wavelength", 0.5, 2.0, 3,
            {"n_sources": 3, "spacing": 1.0, "phase_profile": "sometimes"},
        ),
        SweepSpec(
            "wavepacket", "phase_delta", 0.0, 1.0, 3,
            {"components": ((6.28, 1.0, 0.0), (7.85, 0.5, 0.3)), "box_lengths": (1.0, 1.0, 1.0),
             "component": 5},
        ),
    )
    for spec in bad_specs:
        with pytest.raises(ConfigError) as info:
            run_sweep(spec)
        assert not isinstance(info.value, MissingSettingError)


COMPONENTS = {"components": ((6.28, 1.0, 0.0), (7.85, 0.5, 0.3)), "box_lengths": (1.0, 1.0, 1.0)}


@pytest.mark.parametrize("target, parameter, fixed, key", [
    ("farfield_power", "wavelength", {"n_sources": 3.7, "spacing": 0.5, "samples": 128}, "n_sources"),
    ("farfield_power", "spacing", {"n_sources": 3, "wavelength": 1.0, "samples": 128.0}, "samples"),
    ("classical_energy", "phase_delta", {"n_waves": np.float64(4.0)}, "n_waves"),
    ("quantum_energy", "phase_delta", {"n_waves": 2, "n": 2.5}, "n"),
    ("quantum_energy", "source_count", {"n": 1, "n_max": "6"}, "n_max"),
    ("wavepacket", "phase_delta", {**COMPONENTS, "component": 1.0}, "component"),
])
def test_integer_fixed_settings_are_not_truncated(target, parameter, fixed, key):
    """A sweep's counts go through operator.index: a float or a string is
    refused with a TypeError that names its key, where int() once walked 3
    sources for n_sources = 3.7 and took the n = 2 powers for n = 2.5."""
    with pytest.raises(TypeError) as refused:
        run_sweep(SweepSpec(target, parameter, 1.0, 2.0, 3, fixed))
    assert str(refused.value) == f"fixed setting {key!r} must be an integer, got {fixed[key]!r}"
    integers = {name: int(value) if name == key else value for name, value in fixed.items()}
    assert len(run_sweep(SweepSpec(target, parameter, 1.0, 2.0, 3, integers))) == 3


def test_classical_phase_sweep_follows_two_plus_two_cosine():
    spec = SweepSpec(
        "classical_energy", "phase_delta", 0.0, TWO_PI, 9, {"n_waves": 2}
    )
    curve = run_sweep(spec)
    assert len(curve) == 9
    unit = single_wave_energy(WaveMode.plane(np.array([TWO_PI, 0.0, 0.0])))
    for delta, power in zip(curve.parameter, curve.power):
        expected = (2.0 + 2.0 * math.cos(delta)) * unit
        assert abs(power - expected) <= 1e-10 * max(1.0, expected)
    # dead center of the sweep is the antiphase null
    assert abs(curve.power[4]) <= 1e-12 * unit


def test_quantum_phase_sweep_matches_closed_form():
    spec = SweepSpec(
        "quantum_energy",
        "phase_delta",
        0.0,
        math.pi,
        7,
        {"n_waves": 3, "n": 2, "omega": 1.5},
    )
    curve = run_sweep(spec)
    for delta, power in zip(curve.parameter, curve.power):
        _, mag_sq = phase_sum([i * delta for i in range(3)])
        expected = 1.5 * mag_sq * 2.5
        assert abs(power - expected) <= 1e-10 * max(1.0, expected)


@pytest.mark.parametrize(
    "parameter, start, stop, fixed, pairs",
    [
        ("source_count", 30_000, 40_000, {"phase_profile": "random"},
         30_000 * 29_999 // 2 + 35_000 * 34_999 // 2 + 40_000 * 39_999 // 2),
        ("phase_delta", 0.0, 1.0, {"n_waves": 40_000}, 3 * (40_000 * 39_999 // 2)),
    ],
)
def test_quantum_sweep_over_work_budget_is_refused_before_its_first_step(
    monkeypatch, parameter, start, stop, fixed, pairs
):
    """Each step's Hamiltonian fits the work budget on its own (40 000 waves
    are 8 * 10^9 operations), but the three together do not: the sweep
    charges all its wave pairs, 10 operations each, before its first step."""
    def build(*args, **kwargs):
        raise AssertionError("a step was evaluated")

    monkeypatch.setattr(experiments.quantum, "single_mode_hamiltonian", build)
    spec = SweepSpec("quantum_energy", parameter, start, stop, 3, fixed)
    started = time.perf_counter()
    with pytest.raises(ValueError) as refused:
        run_sweep(spec)
    assert time.perf_counter() - started < 1.0
    assert str(refused.value) == (
        f"quantum sweep of 3 steps x up to 40000 waves ({pairs} wave pairs) needs"
        f" {10 * pairs} operations, over the work budget of 10000000000 operations"
    )


@pytest.mark.parametrize("parameter", ["spacing", "source_count", "wavelength"])
@pytest.mark.parametrize("bad", [{"samples": 10}, {"geometry": "disc"}, {"radius": -1.0}])
def test_farfield_sweep_refuses_its_detector_before_building_an_array(
    monkeypatch, parameter, bad
):
    """A far-field sweep's detector is checked before its first step is
    built: a bad samples, geometry or radius is refused with no
    make_linear_array call, however many steps the sweep has."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return make_linear_array(*args, **kwargs)

    monkeypatch.setattr(experiments, "make_linear_array", counted)
    fixed = {"n_sources": 200, "spacing": 0.3, "wavelength": 1.0}
    with pytest.raises(ValueError):
        run_sweep(SweepSpec("farfield_power", parameter, 1.0, 2.0, 3000, {**fixed, **bad}))
    assert calls == []
    run_sweep(SweepSpec("farfield_power", parameter, 1.0, 2.0, 3, {**fixed, "samples": 64}))
    assert calls


def test_farfield_source_count_sweep_is_monotone_when_subwavelength():
    spec = SweepSpec(
        "farfield_power",
        "source_count",
        1.0,
        8.0,
        8,
        {"spacing": 0.01, "wavelength": 1.0},
    )
    curve = run_sweep(spec)
    for a, b in zip(curve.enhancement, curve.enhancement[1:]):
        assert b > a


def test_two_point_wavelength_sweep_matches_direct_calls():
    spec = SweepSpec(
        "farfield_power",
        "wavelength",
        1.0,
        2.0,
        2,
        {"n_sources": 2, "spacing": 3.0},
    )
    curve = run_sweep(spec)
    # the sweep sizes one detector for its worst case: radius 100*max(2, 3)
    detector = DetectorGrid(radius=300.0, geometry="arc", samples=1024)
    for index, wavelength in ((0, 1.0), (1, 2.0)):
        power, enhancement = farfield_power(
            make_linear_array(2, 3.0, wavelength), detector
        )
        assert curve.power[index] == power
        assert curve.enhancement[index] == enhancement


def test_biphoton_sweep_matches_pointwise_evaluation():
    overlap = 0.8 + 0.1j
    spec = SweepSpec("biphoton", "phase_delta", 0.0, TWO_PI, 11, {"overlap": overlap})
    curve = run_sweep(spec)
    for delta, power in zip(curve.parameter, curve.power):
        assert power == biphoton_energy(float(delta), overlap, 1.0)


def test_wavepacket_sweep_replaces_component_phase():
    components = ((TWO_PI, 1.0, 0.0), (TWO_PI, 1.0, 0.0))
    spec = SweepSpec(
        "wavepacket",
        "phase_delta",
        0.0,
        math.pi,
        5,
        {"components": components, "box_lengths": (1.0, 1.0, 1.0)},
    )
    curve = run_sweep(spec)
    direct = wavepacket_energy(
        WavepacketSpectrum(
            (1.0, 0.0, 0.0),
            ((TWO_PI, 1.0, 0.0), (TWO_PI, 1.0, math.pi)),
            BoxVolume((1.0, 1.0, 1.0)),
        )
    )
    assert curve.power[-1] == pytest.approx(direct.total, abs=1e-12)
    assert abs(curve.power[-1]) <= 1e-12  # antiphase endpoint cancels


def test_sweeps_are_deterministic_for_a_seed():
    spec = SweepSpec(
        "farfield_power",
        "source_count",
        2.0,
        5.0,
        4,
        {"spacing": 0.3, "wavelength": 1.0, "phase_profile": "random", "samples": 128},
        seed=21,
    )
    first = run_sweep(spec)
    second = run_sweep(spec)
    assert np.array_equal(first.power, second.power)
    reseeded = run_sweep(
        SweepSpec(
            spec.target, spec.parameter, spec.start, spec.stop, spec.steps,
            spec.fixed, seed=22,
        )
    )
    assert not np.array_equal(first.power, reseeded.power)


def test_float_seed_is_refused_not_truncated():
    """A seed goes through operator.index: a float is refused with a
    TypeError that names it, where int() once drew the seed-3 phases for
    3.7 and echoed 3.7."""
    fixed = {"phase_profile": "random"}
    with pytest.raises(TypeError, match=r"^seed must be an integer, got 3\.7$"):
        run_sweep(SweepSpec("classical_energy", "source_count", 1, 4, 4, fixed, seed=3.7))
    with pytest.raises(TypeError, match=r"^seed must be an integer, got 2\.5$"):
        dicke_scaling_check([2, 4, 8], regime="farfield", jitter=0.3, seed=2.5)


def test_sweep_metadata_echoes_spec():
    spec = SweepSpec(
        "classical_energy", "phase_delta", 0.0, 1.0, 3, {"n_waves": 4}, seed=6
    )
    meta = run_sweep(spec).metadata
    assert meta["target"] == "classical_energy"
    assert meta["parameter"] == "phase_delta"
    assert meta["steps"] == 3
    assert meta["seed"] == 6
    assert meta["fixed.n_waves"] == 4
    assert "version" in meta


class TestDickeScaling:
    def test_closed_form_exponent_is_exactly_two(self):
        fit = dicke_scaling_check([1, 2, 4, 8])
        assert abs(fit.exponent - 2.0) <= 1e-12
        assert abs(fit.r_squared - 1.0) <= 1e-12
        assert [n for n, _ in fit.points] == [1, 2, 4, 8]

    def test_subwavelength_farfield_keeps_collective_scaling(self):
        fit = dicke_scaling_check([2, 4, 8], regime="farfield", spacing_ratio=0.01)
        assert 1.9 <= fit.exponent <= 2.0

    def test_wide_spacing_destroys_collective_scaling(self):
        fit = dicke_scaling_check([2, 4, 8], regime="farfield", spacing_ratio=10.0)
        assert fit.exponent < 1.9

    def test_scaling_survives_position_jitter(self):
        """Disorder must not break the square law in the deep subwavelength
        regime; the claim is about confinement, not periodicity."""
        clean = dicke_scaling_check([2, 4, 8], regime="farfield", spacing_ratio=0.01)
        for seed in (1, 5, 9):
            jittered = dicke_scaling_check(
                [2, 4, 8],
                regime="farfield",
                spacing_ratio=0.01,
                jitter=0.3,
                seed=seed,
            )
            assert 1.9 <= jittered.exponent <= 2.05
            assert abs(jittered.exponent - clean.exponent) < 0.05

    def test_needs_three_distinct_counts(self):
        with pytest.raises(ValueError):
            dicke_scaling_check([2, 2, 4])
        with pytest.raises(ValueError):
            dicke_scaling_check([4, 8])
        with pytest.raises(ValueError):
            dicke_scaling_check([2, 4, 8], regime="telepathy")
        for counts in ([0, 2, 4], [-3, 2, 4]):
            with pytest.raises(ValueError, match="positive"):
                dicke_scaling_check(counts)

    @pytest.mark.parametrize("counts, bad", [([2.7, 4, 8], 2.7), ([2, 4.0, 8], 4.0),
                                             ([True, 2, 4, 8], True), ([2, "4", 8], "4"),
                                             ([2, 4, np.float64(8.0)], np.float64(8.0))])
    def test_counts_must_be_integers(self, counts, bad):
        """A float is not truncated and a bool is not taken for 0 or 1: each
        is refused, named in the message, in either regime."""
        for regime in ("closed_form", "farfield"):
            with pytest.raises(TypeError) as refused:
                dicke_scaling_check(counts, regime=regime)
            assert str(refused.value) == f"N value must be an integer, got {bad!r}"

    def test_numpy_integer_counts_are_taken(self):
        fit = dicke_scaling_check(np.array([2, 4, 8]))
        assert [n for n, _ in fit.points] == [2, 4, 8]

    @pytest.mark.parametrize("jitter", [-0.3, math.nan, math.inf])
    def test_rejects_negative_or_non_finite_jitter(self, jitter):
        for regime in ("closed_form", "farfield"):
            with pytest.raises(ValueError):
                dicke_scaling_check([2, 4, 8], regime=regime, jitter=jitter)

    @pytest.mark.parametrize("jitter", [0.0, 0.3])
    @pytest.mark.parametrize("counts", [(2, 3, 20_000), (10_000, 15_000, 20_000)])
    def test_farfield_arrays_stay_within_their_charge(self, monkeypatch, counts, jitter):
        """The far-field fit charges its arrays as a source_count sweep's
        steps before it builds them; the tracemalloc peak of building them,
        jittered or not, stays below that charge. The engine is stubbed out;
        its own peak has its own budget."""
        charged, peaks = [], []
        original = classical._check_budget

        def recording(needed, request):
            if request.startswith("far-field sweep"):
                charged.append(needed)
            return original(needed, request)

        def stub(arrays, detector):
            peaks.append(tracemalloc.get_traced_memory()[1])
            return np.arange(1.0, len(arrays) + 1) ** 2, None

        monkeypatch.setattr(classical, "_check_budget", recording)
        monkeypatch.setattr(experiments, "farfield_powers", stub)
        tracemalloc.start()
        try:
            dicke_scaling_check(counts, "farfield", detector_samples=64, jitter=jitter)
        finally:
            tracemalloc.stop()
        assert len(charged) == 1 and len(peaks) == 1
        assert peaks[0] <= charged[0]

    @pytest.mark.parametrize("geometry", ["arc", "hemisphere"])
    @pytest.mark.parametrize(
        "counts, jitter",
        [((2, 3, 1_000_000), 0.0), ((2, 4, 8), 0.0), ((2, 4, 8), 0.3), ((1, 5, 40), 0.0),
         ((1, 5, 40), 0.3)],
        ids=["million", "small", "small-jittered", "forty", "forty-jittered"],
    )
    def test_farfield_precheck_is_never_stricter_than_the_walk(
            self, monkeypatch, counts, jitter, geometry):
        """The fit's pre-check charges one folded array per count, the least
        any fold walks, so it passes whatever farfield_powers would run and
        reaches the walk's own charges, each at least the pre-check's. Its
        unfolded charge once refused the million-source fit at 1.536e10
        operations, which the walk charges 8.19e9. The walk's work check
        stops the fit before it runs."""
        monkeypatch.setattr(classical, "DRIVER_GEOMETRY", geometry)
        assert_precheck_is_never_stricter_than_the_walk(
            monkeypatch, lambda: dicke_scaling_check(counts, "farfield", jitter=jitter, seed=3))

    def test_scaling_fit_validates_r_squared(self):
        with pytest.raises(ValueError):
            ScalingFit(2.0, 1.5, ((1, 1.0),))


def assert_precheck_is_never_stricter_than_the_walk(monkeypatch, call):
    """Run the far-field ``call`` up to its walk's work check, and check that
    the pre-check's memory and work charges are at most the walk's."""
    class Walked(Exception):
        pass

    budgets, works = [], []
    check_budget, check_work = classical._check_budget, classical._check_work

    def budget(needed, request):
        if request.startswith("far-field request"):
            budgets.append(needed)
        return check_budget(needed, request)

    def work(needed, request):
        works.append(needed)
        if len(works) == 2:
            raise Walked
        return check_work(needed, request)

    monkeypatch.setattr(classical, "_check_budget", budget)
    monkeypatch.setattr(classical, "_check_work", work)
    with pytest.raises(Walked):
        call()
    assert len(budgets) == 2
    assert budgets[0] <= budgets[1] and works[0] <= works[1]


@pytest.mark.parametrize("geometry", ["arc", "hemisphere"])
@pytest.mark.parametrize(
    "parameter, start, stop, steps, fixed",
    [("wavelength", 0.5, 2.0, 5, {"n_sources": 6, "spacing": 0.3, "phase_profile": "random"}),
     ("phase_delta", 0.0, 3.0, 5, {"n_sources": 6, "spacing": 0.3, "wavelength": 1.0}),
     ("spacing", 0.1, 0.5, 7, {"n_sources": 6, "wavelength": 1.0, "phase_profile": "random"}),
     ("source_count", 1, 4, 7, {"spacing": 0.3, "wavelength": 1.0, "phase_profile": "random"})],
    ids=["wavelength", "phase_delta", "spacing", "source_count-repeats"],
)
def test_farfield_sweep_precheck_is_never_stricter_than_the_walk(
        monkeypatch, parameter, start, stop, steps, fixed, geometry):
    """A far-field sweep's pre-check charges every step of its walk, each
    run of equal positions groups folded with one class, so it reaches the
    walk's own charges, each at least the pre-check's: on random phases,
    on a phase ramp, on a spacing sweep's groups of one step and on a
    source_count sweep whose rounded counts repeat (1, 2, 2, 2, 3, 4, 4)."""
    spec = SweepSpec("farfield_power", parameter, start, stop, steps,
                     {**fixed, "geometry": geometry, "samples": 256}, seed=7)
    assert_precheck_is_never_stricter_than_the_walk(monkeypatch, lambda: run_sweep(spec))


def _curve(parameter, enhancement):
    parameter = np.asarray(parameter, dtype=float)
    enhancement = np.asarray(enhancement, dtype=float)
    return SpectrumCurve(parameter, enhancement.copy(), enhancement, {})


class TestFindResonances:
    def test_monotone_curve_has_no_peaks(self):
        assert find_resonances(_curve([1, 2, 3, 4], [1.0, 2.0, 3.0, 4.0])) == []

    def test_single_cosine_peak(self):
        t = np.linspace(0.0, TWO_PI, 21)
        curve = _curve(t, 2.0 + 2.0 * np.cos(t - math.pi))
        peaks = find_resonances(curve)
        assert len(peaks) == 1
        assert peaks[0][0] == pytest.approx(math.pi, abs=1e-12)
        assert peaks[0][1] == pytest.approx(4.0, abs=1e-12)

    def test_plateau_reports_smallest_parameter(self):
        curve = _curve([0, 1, 2, 3, 4, 5], [1.0, 1.2, 2.0, 2.0, 1.4, 1.0])
        peaks = find_resonances(curve)
        assert peaks == [(2.0, 2.0)]

    def test_bumps_below_prominence_threshold_ignored(self):
        curve = _curve([0, 1, 2, 3, 4], [1.0, 1.04, 1.0, 1.2, 1.0])
        peaks = find_resonances(curve)
        assert len(peaks) == 1
        assert peaks[0][0] == 3.0

    def test_peak_locations_invariant_under_rescaling(self):
        t = np.linspace(0.0, 1.0, 40)
        enhancement = 1.0 + np.sin(9.0 * t) ** 2
        base = find_resonances(_curve(t, enhancement))
        scaled = find_resonances(_curve(t, 7.0 * enhancement))
        assert [p for p, _ in base] == [p for p, _ in scaled]
        assert len(base) >= 2


@pytest.mark.parametrize("start, stop", [(-math.inf, 0.0), (0.0, math.inf), (math.nan, 1.0)])
def test_sweep_range_must_be_finite(start, stop):
    """An infinite end is refused when the sweep is declared, as a reversed
    range is, where it once ran until an energy came out non-finite."""
    with pytest.raises(ConfigError, match="^sweep range must be finite$"):
        SweepSpec("wavepacket", "phase_delta", start, stop, 3, {**COMPONENTS, "component": 1})
