import math
import tracemalloc

import numpy as np
import pytest

from coherray import (
    FockSpace,
    QuantumState,
    biphoton_energy,
    build_operators,
    expectation_energy,
    phase_sum,
    single_mode_hamiltonian,
)
from coherray.core import MEMORY_BUDGET_BYTES
from coherray.experiments import XorShift64Star

TWO_PI = 2.0 * math.pi


def dense_expectation(state, matrix):
    """Reference: <psi|M|psi> for a dense matrix M, with the imaginary
    residue held to noise as expectation_energy holds it."""
    value = complex(np.vdot(state.vector, matrix @ state.vector))
    assert abs(value.imag) <= 1e-10 * max(float(np.linalg.norm(matrix)), 1e-300)
    return value.real


class TestFockSpace:
    def test_dimensions(self):
        space = FockSpace(n_max=5, mode_count=2)
        assert space.levels == 6
        assert space.dimension == 36

    def test_basis_index_mode_zero_slowest(self):
        space = FockSpace(n_max=2, mode_count=2)
        assert space.basis_index((0, 0)) == 0
        assert space.basis_index((0, 1)) == 1
        assert space.basis_index((1, 0)) == 3
        assert space.basis_index((2, 2)) == 8

    def test_occupation_bounds(self):
        space = FockSpace(n_max=2)
        with pytest.raises(ValueError):
            space.basis_index((3,))
        with pytest.raises(ValueError):
            space.basis_index((0, 0))


class TestLadderOperators:
    def test_destroy_action(self):
        ops = build_operators(FockSpace(n_max=6))
        for n in range(1, 7):
            vec = np.zeros(7)
            vec[n] = 1.0
            lowered = ops.destroy @ vec
            assert abs(lowered[n - 1] - math.sqrt(n)) < 1e-12

    def test_commutator_below_truncation_edge(self):
        # [a, a^dag] = 1 holds exactly on every level except the last
        space = FockSpace(n_max=10)
        ops = build_operators(space)
        comm = ops.destroy @ ops.create - ops.create @ ops.destroy
        assert np.allclose(np.diag(comm)[:-1], 1.0, atol=1e-12)
        assert abs(comm[-1, -1] - (-space.n_max)) < 1e-12  # truncation artifact

    def test_number_operator(self):
        ops = build_operators(FockSpace(n_max=4))
        assert np.allclose(ops.number, np.diag(np.arange(5.0)), atol=1e-12)

    def test_two_mode_operators_commute(self):
        space = FockSpace(n_max=3, mode_count=2)
        ops0 = build_operators(space, 0)
        ops1 = build_operators(space, 1)
        assert np.allclose(ops0.destroy @ ops1.create, ops1.create @ ops0.destroy, atol=1e-12)

    def test_dimension_cap(self):
        """Dense embeddings over the memory budget are refused before they
        allocate; the old cap of 10^6 basis states let the 10^4-state
        two-mode space (2.4 GB) through."""
        tracemalloc.start()
        try:
            for space in (FockSpace(n_max=1100, mode_count=2), FockSpace(n_max=99, mode_count=2),
                          FockSpace(n_max=10_000)):
                needed = 24 * (space.dimension ** 2 + space.levels ** 2)
                with pytest.raises(ValueError) as refused:
                    build_operators(space)
                assert str(refused.value) == (
                    f"dense operators of dimension {space.dimension} needs {needed} bytes,"
                    f" over the budget of {MEMORY_BUDGET_BYTES} bytes"
                )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20


class TestQuantumState:
    def test_fock_is_basis_vector(self):
        space = FockSpace(n_max=4)
        state = QuantumState.fock(space, 2)
        assert abs(state.vector[2] - 1.0) < 1e-15
        assert abs(np.linalg.norm(state.vector) - 1.0) < 1e-12

    def test_coherent_mean_occupation(self):
        space = FockSpace(n_max=40)
        alpha = 1.2 - 0.5j
        state = QuantumState.coherent(space, (alpha,))
        ops = build_operators(space)
        mean_n = dense_expectation(state, ops.number)
        assert abs(mean_n - abs(alpha) ** 2) < 1e-8
        assert state.tail_mass < 1e-8

    def test_coherent_rejects_heavy_truncation_tail(self):
        with pytest.raises(ValueError):
            QuantumState.coherent(FockSpace(n_max=4), (3.0,))

    def test_superposition(self):
        space = FockSpace(n_max=3)
        state = QuantumState.superposition(space, [(1.0, 0), (1.0, 2)])
        assert abs(abs(state.vector[0]) ** 2 - 0.5) < 1e-12
        assert abs(abs(state.vector[2]) ** 2 - 0.5) < 1e-12

    def test_unnormalized_vector_rejected(self):
        space = FockSpace(n_max=2)
        with pytest.raises(ValueError):
            QuantumState(space, np.array([1.0, 1.0, 0.0], dtype=complex))


def test_hamiltonian_expectation_matches_phase_sum_oracle():
    """<n|H|n> must equal w |S|^2 (n + 1/2) for any phases.

    The matrix route builds the operator pair by pair; the oracle comes
    straight from the closed-form coherent sum.
    """
    rng = XorShift64Star(2024)
    for _ in range(40):
        n_waves = 1 + rng.next_uint64() % 6
        occupation = int(rng.next_uint64() % 16)
        phases = rng.phases(int(n_waves))
        space = FockSpace(n_max=max(occupation + 1, 2))
        operator = single_mode_hamiltonian(phases, 1.0, space)
        state = QuantumState.fock(space, occupation)
        energy = expectation_energy(state, operator)
        _, mag_sq = phase_sum(phases)
        expected = mag_sq * (occupation + 0.5)
        assert abs(energy - expected) <= 1e-10 * max(1.0, abs(expected))


def test_hamiltonian_is_hermitian():
    """The operator is returned as a real float64 diagonal, so it is
    Hermitian by construction."""
    rng = XorShift64Star(8)
    phases = rng.phases(4)
    for convention in ("canonical", "phased-plus"):
        operator = single_mode_hamiltonian(phases, 1.3, FockSpace(n_max=6), convention)
        assert operator.dtype == np.float64
        assert operator.shape == (7,)


CONVENTIONS = ("canonical", "phased-plus", "phased-minus")


def dense_pairwise_hamiltonian(phases, omega, space, convention):
    """Reference: the N-wave operator summed pair by pair as dense matrices."""
    number = np.diag(np.arange(space.levels, dtype=float))
    eye = np.eye(space.levels)
    hamiltonian = len(phases) * omega * (number + eye / 2.0)
    for i in range(len(phases)):
        for j in range(i + 1, len(phases)):
            cos_delta = math.cos(phases[i] - phases[j])
            if convention == "canonical":
                hamiltonian = hamiltonian + omega * cos_delta * (2.0 * number + eye)
            else:
                sign = 1 if convention == "phased-plus" else -1
                hamiltonian = hamiltonian + omega * (2.0 * cos_delta * number + sign * eye)
    return hamiltonian.astype(complex)


def test_hamiltonian_matches_dense_pairwise_sum_bit_for_bit():
    rng = XorShift64Star(77)
    for convention in CONVENTIONS:
        for n_waves in (1, 2, 5, 9):
            phases = [float(p) for p in rng.phases(n_waves)]
            omega = 0.3 + 2.0 * rng.uniform()
            space = FockSpace(n_max=3 + n_waves)
            operator = single_mode_hamiltonian(phases, omega, space, convention)
            reference = dense_pairwise_hamiltonian(phases, omega, space, convention)
            assert operator.dtype == np.float64
            assert operator.shape == (space.levels,)
            assert np.array_equal(operator, np.diag(reference))


@pytest.mark.parametrize(
    "omega, phases",
    [(math.nan, [0.0, 1.0]), (math.inf, [0.0, 1.0]), (1.0, [0.0, math.nan]), (1.0, [math.inf])],
)
def test_hamiltonian_rejects_non_finite_input(omega, phases):
    with pytest.raises(ValueError):
        single_mode_hamiltonian(phases, omega, FockSpace(n_max=3))


def test_hamiltonian_over_budget_is_refused_before_allocation():
    """The state vector is the quantum route's one array that grows with the
    request; its space is refused before anything is allocated."""
    tracemalloc.start()
    try:
        for n_max, mode_count, dimension in ((2 ** 25, 1, 2 ** 25 + 1), (10 ** 9, 1, 10 ** 9 + 1),
                                             (5_792, 2, 5_793 ** 2)):
            with pytest.raises(ValueError) as refused:
                single_mode_hamiltonian([0.0, 1.0], 1.0, FockSpace(n_max, mode_count))
            assert str(refused.value) == (
                f"state vector of {dimension} basis states needs {32 * dimension} bytes,"
                f" over the budget of {MEMORY_BUDGET_BYTES} bytes"
            )
        # the largest one-mode space within the budget is accepted; making
        # it allocates nothing
        FockSpace(n_max=2 ** 25 - 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_self_part_is_uncorrelated_reference():
    space = FockSpace(n_max=5)
    operator = single_mode_hamiltonian([0.1, 0.9, 2.2], 2.0, space, include_cross=False)
    state = QuantumState.fock(space, 3)
    assert abs(expectation_energy(state, operator) - 3 * 2.0 * 3.5) < 1e-12


def test_antiphase_pair_has_zero_energy():
    space = FockSpace(n_max=8)
    operator = single_mode_hamiltonian([0.0, math.pi], 1.0, space)
    for occupation in (0, 3, 8):
        state = QuantumState.fock(space, occupation)
        assert abs(expectation_energy(state, operator)) <= 1e-12


def test_convention_difference_is_identity_multiple():
    rng = XorShift64Star(11)
    phases = rng.phases(4)
    space = FockSpace(n_max=12)
    canonical = single_mode_hamiltonian(phases, 1.0, space, "canonical")
    for convention in ("phased-plus", "phased-minus"):
        phased = single_mode_hamiltonian(phases, 1.0, space, convention)
        difference = canonical - phased
        residue = difference - difference[0]
        assert np.abs(residue).max() <= 1e-12 * max(1.0, abs(difference[0]))


def test_unknown_convention_is_refused():
    # the old (kind, sign) pairs and near misses of the three names
    for convention in ("phased", "Canonical", "phased_plus", None):
        with pytest.raises(ValueError, match="convention"):
            single_mode_hamiltonian([0.0, 1.0], 1.0, FockSpace(n_max=3), convention)


def test_uniform_phases_maximize_expectation():
    # argmax invariance: no random phase set beats the uniform one
    space = FockSpace(n_max=4)
    state = QuantumState.fock(space, 2)
    n_waves = 3
    uniform = expectation_energy(
        state, single_mode_hamiltonian([0.0] * n_waves, 1.0, space)
    )
    rng = XorShift64Star(55)
    for _ in range(100):
        phases = rng.phases(n_waves)
        energy = expectation_energy(state, single_mode_hamiltonian(phases, 1.0, space))
        assert energy <= uniform + 1e-10


def test_expectation_rejects_shape_mismatch():
    space = FockSpace(n_max=3)
    state = QuantumState.fock(space, 0)
    with pytest.raises(ValueError):
        expectation_energy(state, np.eye(7))
    # a dense matrix is not a diagonal, even at the state's dimension
    with pytest.raises(ValueError):
        expectation_energy(state, np.eye(4))


def test_expectation_matches_dense_operator_on_random_states():
    rng = XorShift64Star(31)
    for trial in range(30):
        space = FockSpace(n_max=2 + trial % 13)
        amplitudes = np.array(
            [complex(2.0 * rng.uniform() - 1.0, 2.0 * rng.uniform() - 1.0)
             for _ in range(space.dimension)]
        )
        state = QuantumState(space, amplitudes / np.linalg.norm(amplitudes))
        phases = [float(p) for p in rng.phases(1 + trial % 5)]
        convention = CONVENTIONS[trial % 3]
        omega = 0.5 + rng.uniform()
        operator = single_mode_hamiltonian(phases, omega, space, convention)
        reference = dense_pairwise_hamiltonian(phases, omega, space, convention)
        expected = dense_expectation(state, reference)
        assert abs(expectation_energy(state, operator) - expected) <= 1e-12 * abs(expected)


def enhancement_factor(phases):
    """|S|^2 / N: the energy ratio relative to N uncorrelated waves."""
    return phase_sum(phases)[1] / len(phases)


def classical_limit_gap(occupation, phases, omega=1.0):
    """Relative gap between the quantum ratio <H> / (N omega (n + 1/2))
    and the classical ratio |S|^2 / N (absolute when both vanish)."""
    phases = list(phases)
    space = FockSpace(n_max=max(occupation + 1, 2))
    hamiltonian = single_mode_hamiltonian(phases, omega, space)
    state = QuantumState.fock(space, occupation)
    quantum_ratio = expectation_energy(state, hamiltonian) / (
        len(phases) * omega * (occupation + 0.5)
    )
    classical_ratio = enhancement_factor(phases)
    if classical_ratio < 1e-14:
        return abs(quantum_ratio - classical_ratio)
    return abs(quantum_ratio - classical_ratio) / classical_ratio


def test_enhancement_factor():
    assert abs(enhancement_factor([0.3] * 5) - 5.0) < 1e-12
    assert enhancement_factor([0.0, math.pi]) < 1e-30


def test_classical_limit_holds_for_any_occupation():
    rng = XorShift64Star(99)
    for occupation in (0, 1, 7, 20):
        phases = rng.phases(3)
        assert classical_limit_gap(occupation, phases) < 1e-10
    # destructive configuration compares near-zero against zero
    assert classical_limit_gap(2, [0.0, math.pi]) < 1e-10


class TestBiphoton:
    def test_range_and_extremes(self):
        for overlap in (0.0, 0.5, 1.0):
            for delta in np.linspace(0.0, TWO_PI, 33):
                value = biphoton_energy(float(delta), overlap, 1.0)
                assert -1e-12 <= value <= 4.0 + 1e-12
        assert abs(biphoton_energy(0.0, 1.0, 1.0) - 4.0) <= 1e-12
        assert abs(biphoton_energy(math.pi, 1.0, 1.0)) <= 1e-12
        assert abs(biphoton_energy(1.234, 0.0, 1.0) - 2.0) <= 1e-12

    def test_complex_overlap_uses_real_part_of_rotated_product(self):
        overlap = 0.5j
        value = biphoton_energy(math.pi / 2, overlap, 1.0)
        # I e^{i pi/2} = 0.5j * j = -0.5
        assert abs(value - 1.0) <= 1e-12

    def test_hbar_and_omega_scaling(self):
        # linear in the quantum hbar * omega, with hbar = 1
        assert abs(biphoton_energy(0.0, 1.0, 2.0) - 8.0) <= 1e-12

    def test_overlap_magnitude_capped(self):
        with pytest.raises(ValueError):
            biphoton_energy(0.0, 1.5, 1.0)

    @pytest.mark.parametrize(
        "delta_phi, overlap, omega",
        [(math.nan, 0.5, 1.0), (0.0, 0.5, math.nan), (0.0, 0.5, math.inf), (0.0, math.nan, 1.0)],
    )
    def test_rejects_non_finite_input(self, delta_phi, overlap, omega):
        with pytest.raises(ValueError):
            biphoton_energy(delta_phi, overlap, omega)
