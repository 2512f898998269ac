import math
import time
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from coherray import (
    BoxVolume,
    EnergyReport,
    PhasedWaveSet,
    SourceArray,
    WaveMode,
    classical_energy,
    field_energy_grid,
    make_linear_array,
    phase_sum,
    reduce_phase,
)
from coherray import core
from coherray.core import MEMORY_BUDGET_BYTES
from coherray.experiments import XorShift64Star

TWO_PI = 2.0 * math.pi


def test_phase_sum_uniform_is_n_squared():
    for n in range(1, 17):
        _, mag_sq = phase_sum([0.7] * n)
        assert abs(mag_sq - n * n) <= 1e-12 * n * n


def test_phase_sum_antiphase_pair_cancels():
    _, mag_sq = phase_sum([0.0, math.pi])
    assert mag_sq <= 1e-30


def test_phase_sum_matches_pairwise_cosine_expansion():
    # |S|^2 = N + 2 sum_{n<m} cos(phi_n - phi_m), checked on seeded draws
    rng = XorShift64Star(101)
    for _ in range(50):
        n = 2 + rng.next_uint64() % 7
        phases = rng.phases(int(n))
        _, mag_sq = phase_sum(phases)
        expanded = float(n) + 2.0 * sum(
            math.cos(phases[i] - phases[j])
            for i in range(int(n))
            for j in range(i + 1, int(n))
        )
        assert abs(mag_sq - expanded) <= 1e-10 * max(1.0, expanded)


def test_phase_sum_rejects_empty():
    with pytest.raises(ValueError):
        phase_sum([])


def test_reduce_phase_lands_in_principal_interval():
    for phi in (-7.0, -math.pi, 0.0, 1.0, TWO_PI, 13.7):
        reduced = reduce_phase(phi)
        assert 0.0 <= reduced < TWO_PI
        assert abs(math.sin(reduced) - math.sin(phi)) < 1e-12
        assert abs(math.cos(reduced) - math.cos(phi)) < 1e-12


class TestWaveMode:
    def test_plane_fixes_dispersion(self):
        k = np.array([3.0, 4.0, 0.0])
        mode = WaveMode.plane(k, amplitude=0.5)
        assert math.isclose(mode.omega, 5.0, rel_tol=1e-12)

    def test_omega_is_derived_not_passed(self):
        k = np.array([3.0, 4.0, 0.0])
        mode = WaveMode(k, 0.5)
        assert mode.omega == mode.wavenumber == WaveMode.plane(k, 0.5).omega == 5.0
        assert mode.amplitude == 0.5
        with pytest.raises(TypeError):
            WaveMode(k, 5.0, 0.5)
        with pytest.raises(TypeError):
            WaveMode(wavevector=k, omega=5.0, amplitude=0.5)

    def test_wavelength_wavenumber_roundtrip(self):
        mode = WaveMode.plane(np.array([0.0, 0.0, TWO_PI / 0.37]))
        assert math.isclose(mode.wavelength, 0.37, rel_tol=1e-12)
        assert math.isclose(mode.wavenumber * mode.wavelength, TWO_PI, rel_tol=1e-12)


@pytest.mark.parametrize("amplitude", [math.nan, complex(1.0, math.inf)])
def test_wave_mode_rejects_non_finite_input(amplitude):
    k = np.array([2.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        WaveMode(k, amplitude)
    with pytest.raises(ValueError):
        WaveMode.plane(k, amplitude=amplitude)


def test_phased_wave_set_reduces_phases():
    mode = WaveMode.plane(np.array([TWO_PI, 0.0, 0.0]))
    waves = PhasedWaveSet(mode, (-math.pi, 3 * math.pi))
    assert waves.n_waves == 2
    assert all(0.0 <= p < TWO_PI for p in waves.phases)
    # both reduce to pi
    assert abs(waves.phases[0] - math.pi) < 1e-12
    assert abs(waves.phases[1] - math.pi) < 1e-12


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_phased_wave_set_rejects_non_finite_phases(bad):
    """A non-finite phase is refused where the set is built, so neither the
    grid (which would integrate nan) nor the closed form gets one."""
    mode = WaveMode.plane(np.array([TWO_PI, 0.0, 0.0]))
    box = BoxVolume((1.0, 1.0, 1.0))
    for route in (lambda waves: waves, lambda waves: field_energy_grid(waves, box, 8),
                  lambda waves: classical_energy(waves, box)):
        with pytest.raises(ValueError, match="phases must be finite"):
            route(PhasedWaveSet(mode, (0.0, bad)))


class TestSourceArray:
    def test_rejects_coincident_sources(self):
        positions = np.zeros((2, 3))
        with pytest.raises(ValueError, match="distinct"):
            SourceArray(positions, np.zeros(2), 1.0, None)

    @pytest.mark.parametrize("first, second", ((10, 450), (450, 10), (598, 599)))
    def test_rejects_coincident_sources_in_any_row_block(self, first, second):
        positions = make_linear_array(600, 0.5, 1.0).positions.copy()
        positions[second] = positions[first]
        with pytest.raises(ValueError, match="distinct"):
            SourceArray(positions, np.zeros(600), 1.0, None)

    def test_distinctness_check_memory_is_linear_in_source_count(self):
        """The full N x N x 3 table peaked at 56 * N^2 bytes, 224 MB here."""
        tracemalloc.start()
        try:
            arr = make_linear_array(2000, 0.5, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert arr.extent == 999.5
        assert peak < 8 * 2 ** 20

    def test_linear_array_over_budget_is_refused_before_allocation(self):
        tracemalloc.start()
        try:
            for n_sources in (2 ** 25, 10 ** 12):
                with pytest.raises(ValueError) as refused:
                    make_linear_array(n_sources, 0.5, 1.0)
                assert str(refused.value) == (
                    f"linear array of {n_sources} sources needs {72 * n_sources + 2048} bytes,"
                    f" over the budget of {MEMORY_BUDGET_BYTES} bytes"
                )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    @pytest.mark.parametrize("n_sources", [1, 300, 20_000, 200_000])
    def test_linear_array_budget_covers_the_measured_peak(self, n_sources):
        """The charge covers the offsets, positions and phases and the
        read-only copies SourceArray makes of the positions and phases."""
        tracemalloc.start()
        try:
            make_linear_array(n_sources, 0.5, 1.0, 0.25)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 72 * n_sources + 2048

    def test_extent_and_wavenumber(self):
        arr = make_linear_array(4, 0.5, 2.0)
        assert math.isclose(arr.extent, 1.5, rel_tol=1e-12)
        assert math.isclose(arr.wavenumber, math.pi, rel_tol=1e-12)

    def test_phase_count_must_match(self):
        positions = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        with pytest.raises(ValueError):
            SourceArray(positions, np.zeros(3), 1.0, None)


def test_source_array_extent_is_stored_once_and_not_compared():
    """extent is bit-equal to the largest entry of the full pairwise distance
    tensor (also when it is built in several row blocks), is recomputed by
    replace, and stays out of init, repr and equality."""
    rng = XorShift64Star(99)
    for n in (1, 2, 5, 17, 40, 300, 1000):
        positions = np.array([[3.0 * rng.uniform() - 1.5 for _ in range(3)] for _ in range(n)])
        arr = SourceArray(positions, rng.phases(n), 0.5 + rng.uniform())
        diff = arr.positions[:, None, :] - arr.positions[None, :, :]
        assert arr.extent == float(np.sqrt((diff ** 2).sum(axis=2)).max())
        assert type(arr.extent) is float
        assert replace(arr, wavelength=2.0).extent == arr.extent
        moved = replace(arr, positions=2.0 * arr.positions)
        assert moved.extent == 2.0 * arr.extent
    assert [f.name for f in fields(SourceArray) if f.compare] == [
        "positions", "phases", "wavelength", "spacing"
    ]
    assert "extent" not in repr(arr)
    with pytest.raises(ValueError):
        replace(arr, extent=1.0)


@pytest.mark.parametrize("n", (300, 1000))
def test_linear_array_extent_is_bit_equal_to_the_pairwise_path(n):
    """Sources in ascending order on the x axis take the O(N) extent; the
    same sources in descending order take the pairwise blocks, and both
    give the same float."""
    arr = make_linear_array(n, 0.37, 1.0)
    descending = SourceArray(arr.positions[::-1], arr.phases, 1.0)
    assert arr.extent == descending.extent
    diff = arr.positions[:, None, :] - arr.positions[None, :, :]
    assert arr.extent == float(np.sqrt((diff ** 2).sum(axis=2)).max())


def test_pairwise_extent_is_bit_equal_to_the_full_table_maximum():
    """The pairwise path forms each unordered pair once; on 20 seeded
    jittered arrays its extent has the bits of the full distance table's
    maximum, and a repeated source is still refused."""
    rng = XorShift64Star(20)
    for case in range(20):
        n = 2 + 7 * case
        positions = make_linear_array(n, 0.3 + rng.uniform(), 1.0).positions.copy()
        positions += [[rng.uniform() - 0.5 for _ in range(3)] for _ in range(n)]
        diff = positions[:, None, :] - positions[None, :, :]
        full = float(np.sqrt((diff ** 2).sum(axis=2)).max())
        assert SourceArray(positions, np.zeros(n), 1.0).extent == full
        positions[-1] = positions[case % (n - 1)]
        with pytest.raises(ValueError, match="distinct"):
            SourceArray(positions, np.zeros(n), 1.0)


def test_jittered_array_over_work_budget_is_refused_at_once():
    """Sources out of order on the x axis take the pairwise distance check,
    charged 4 operations per unordered source pair: 200 000 jittered sources
    (2 * 10^10 pairs) are refused before any row of distances is built."""
    n = 200_000
    positions = make_linear_array(n, 0.5, 1.0).positions.copy()
    # jitter of up to 0.8 spacings, so neighbours change places
    positions[:, 0] += 0.8 * 0.5 * np.sin(2.0 * np.arange(n))
    assert not np.all(positions[1:, 0] > positions[:-1, 0])
    started = time.perf_counter()
    with pytest.raises(ValueError) as refused:
        SourceArray(positions, np.zeros(n), 1.0)
    assert time.perf_counter() - started < 1.0
    assert str(refused.value) == (
        f"pairwise distance check of {n} sources needs {4 * (n * (n - 1) // 2)} operations,"
        f" over the work budget of {core.WORK_BUDGET} operations"
    )


def test_make_linear_array_centers_on_origin():
    arr = make_linear_array(5, 0.3, 1.0)
    assert abs(float(arr.positions[:, 0].mean())) < 1e-12
    gaps = np.diff(arr.positions[:, 0])
    assert np.allclose(gaps, 0.3, rtol=0, atol=1e-12)
    assert np.allclose(arr.positions[:, 1:], 0.0)

    single = make_linear_array(1, 0.3, 1.0)
    assert np.allclose(single.positions, 0.0)


def test_make_linear_array_phase_profiles():
    ramped = make_linear_array(3, 1.0, 1.0, phase_profile=[0.0, 0.1, 0.2])
    assert np.allclose(ramped.phases, [0.0, 0.1, 0.2])
    constant = make_linear_array(3, 1.0, 1.0, phase_profile=0.4)
    assert np.allclose(constant.phases, 0.4)
    with pytest.raises(ValueError):
        make_linear_array(3, 1.0, 1.0, phase_profile=[0.0, 0.1])


@pytest.mark.parametrize(
    "spacing, wavelength, profile",
    [
        (math.nan, 1.0, 0.0),
        (math.inf, 1.0, 0.0),
        (0.1, math.nan, 0.0),
        (0.1, math.inf, 0.0),
        (0.1, 1.0, [0.0, math.nan, 0.0]),
        (0.1, 1.0, math.inf),
    ],
)
def test_make_linear_array_rejects_non_finite_input(spacing, wavelength, profile):
    with pytest.raises(ValueError):
        make_linear_array(3, spacing, wavelength, profile)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: make_linear_array(0, 0.5, 1.0), "n_sources must be at least 1"),
        (lambda: SourceArray(np.zeros((2, 2)), np.zeros(2), 1.0), "shape"),
        (lambda: SourceArray(np.zeros((0, 3)), np.zeros(0), 1.0), "at least one source"),
        (lambda: SourceArray(np.zeros((1, 3)), np.zeros(1), 1.0, 0.0), "spacing"),
        (lambda: PhasedWaveSet(WaveMode.plane((TWO_PI, 0.0, 0.0)), ()), "at least one phase"),
        (lambda: WaveMode.plane(np.zeros(3)), "wavevector must be nonzero"),
        (lambda: BoxVolume((1.0, math.inf, 1.0)), "lengths must be finite"),
    ],
    ids=["no-linear-sources", "positions-shape", "no-sources", "spacing", "no-phases",
         "zero-wavevector", "box-lengths"],
)
def test_degenerate_input_is_refused(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_source_array_rejects_non_finite_positions():
    positions = np.array([[0.0, 0.0, 0.0], [math.nan, 0.0, 0.0]])
    with pytest.raises(ValueError):
        SourceArray(positions, np.zeros(2), 1.0, None)


class TestBoxVolume:
    def test_volume(self):
        box = BoxVolume((2.0, 3.0, 0.5))
        assert math.isclose(box.volume, 3.0, rel_tol=1e-12)

    def test_rejects_nonpositive_lengths(self):
        with pytest.raises(ValueError):
            BoxVolume((1.0, 0.0, 1.0))

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            BoxVolume((1.0, 1.0))


def test_energy_report_derives_total_and_enhancement():
    report = EnergyReport(2.0, 6.0)
    assert report.total == 8.0
    assert report.enhancement == 4.0

    cancelled = EnergyReport(2.0, -2.0)
    assert cancelled.total == 0.0

    with pytest.raises(ValueError):
        EnergyReport(2.0, -2.1)
    with pytest.raises(ValueError):
        EnergyReport(0.0, 1.0)
    with pytest.raises(TypeError):
        EnergyReport(2.0, 6.0, 8.0, 4.0)


@pytest.mark.parametrize(
    "diagonal, cross", [(math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan), (1.0, math.inf)]
)
def test_energy_report_rejects_non_finite_parts(diagonal, cross):
    with pytest.raises(ValueError):
        EnergyReport(diagonal, cross)


def test_frozen_dataclasses_are_immutable():
    mode = WaveMode.plane(np.array([TWO_PI, 0.0, 0.0]))
    with pytest.raises(Exception):
        mode.amplitude = 2.0
    arr = make_linear_array(2, 1.0, 1.0)
    with pytest.raises(ValueError):
        arr.positions[0, 0] = 5.0


def test_value_objects_do_not_freeze_the_callers_vectors():
    k = np.array([TWO_PI, 0.0, 0.0])
    lengths = np.array([1.0, 2.0, 3.0])
    mode = WaveMode.plane(k)
    box = BoxVolume(lengths)
    assert k.flags.writeable and lengths.flags.writeable
    assert not mode.wavevector.flags.writeable
    assert not box.lengths.flags.writeable
    k[0] = 1.0
    assert mode.wavevector[0] == TWO_PI


def test_checked_phases_freeze_a_new_array():
    """_checked_phases returns its remainder mod 2 pi as a new read-only
    array; the caller's phases stay writeable and unreduced, whether they
    are an array or a list."""
    phases = np.array([-1.0, 0.5, 7.0])
    checked = core._checked_phases(phases, 3)
    assert checked is not phases and not np.shares_memory(checked, phases)
    assert not checked.flags.writeable
    assert phases.flags.writeable and phases.tolist() == [-1.0, 0.5, 7.0]
    assert checked.tobytes() == (phases % TWO_PI).tobytes()
    from_list = core._checked_phases([-1.0, 0.5, 7.0], 3)
    assert not from_list.flags.writeable
    assert from_list.tobytes() == checked.tobytes()
