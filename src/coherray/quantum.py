"""Quantized description of N phase-coherent waves in a truncated number basis.

The N waves share one field mode; their interference enters the
Hamiltonian through cross terms carrying e^{i(phi_n - phi_m)} factors.
Every term is a multiple of N_hat or of 1, so the operator is kept as its
diagonal, omega*|S|^2*(n + 1/2) on |n> (hbar = 1), and an expectation costs
O(d): the quantum enhancement reproduces the classical |S|^2/N ratio
exactly for every occupation, and opposite phases annihilate the energy
operator including its vacuum part. The state vector is the only array
that grows with the request; FockSpace checks it against the budget. The
wave pairs enter only through one coupling sum, whose O(N^2) cosines are
checked against the work budget.

Normal ordering of the cross terms admits three bookkeeping conventions,
chosen by name: "canonical" keeps the (N_hat + 1) form, while
"phased-plus" and "phased-minus" fold the phase factor into the
commutator so each cross term's vacuum piece becomes the real value
+omega/2 or -omega/2. The Hamiltonians differ by a multiple of the
identity only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import _check_budget, _check_positive, _check_work, _finite, _integer, _one_of

# coherent states are rejected when the truncated tail carries more weight
COHERENT_TAIL_LIMIT = 1e-8

_RESIDUE_TOL = 1e-10

# vacuum constant of each phased cross term, in units of omega, and the
# conventions single_mode_hamiltonian accepts; the first is its default
_PHASED_SIGNS = {"phased-plus": 1, "phased-minus": -1}
CONVENTIONS = ("canonical", *_PHASED_SIGNS)

# Hamiltonian work per wave pair, in the grid's operations (WORK_BUDGET): one
# cosine of a row slice and its share of the row's difference and sum. Timed
# on a 2-vCPU VM at 22-35 ns per pair (N = 1000 to 20 000; numpy's float64
# cos alone takes ~30 ns), against ~2.5 ns per grid operation
_PAIR_WORK = 10


@dataclass(frozen=True)
class FockSpace:
    """Truncated number-state space: levels 0..n_max per mode. Both counts
    are integers of at least 1 (TypeError, ValueError otherwise)."""

    n_max: int = 32
    mode_count: int = 1

    def __post_init__(self):
        for name in ("n_max", "mode_count"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        dimension = (self.n_max + 1) ** self.mode_count
        # peak of building a state: the complex vector and its read-only copy
        _check_budget(32 * dimension, f"state vector of {dimension} basis states")

    @property
    def levels(self) -> int:
        return self.n_max + 1

    @property
    def dimension(self) -> int:
        return self.levels ** self.mode_count

    def basis_index(self, occupations) -> int:
        """Row index of a product number state (a scalar for one mode); mode 0
        varies slowest. Each occupation is an integer (TypeError otherwise)."""
        if np.ndim(occupations) == 0:
            occupations = (occupations,)
        occ = tuple(_integer(n, "occupation") for n in occupations)
        if len(occ) != self.mode_count:
            raise ValueError(f"expected {self.mode_count} occupations, got {len(occ)}")
        index = 0
        for n in occ:
            if not 0 <= n <= self.n_max:
                raise ValueError(f"occupation {n} outside 0..{self.n_max}")
            index = index * self.levels + n
        return index


@dataclass(frozen=True)
class ModeOperators:
    """Ladder and number matrices for one mode, embedded in the full space."""

    create: np.ndarray
    destroy: np.ndarray
    number: np.ndarray


@dataclass(frozen=True)
class QuantumState:
    """Normalized state vector over a FockSpace.

    ``tail_mass`` records the probability lost to truncation before
    renormalization (nonzero only for coherent constructions).
    """

    space: FockSpace
    vector: np.ndarray
    tail_mass: float = 0.0

    def __post_init__(self):
        vec = np.asarray(self.vector, dtype=complex)
        if vec.shape != (self.space.dimension,):
            raise ValueError(
                f"vector shape {vec.shape} does not match space dimension {self.space.dimension}"
            )
        norm = float(np.linalg.norm(vec))
        if not math.isclose(norm, 1.0, rel_tol=0.0, abs_tol=1e-12):
            raise ValueError(f"state vector must be normalized, |v| = {norm}")
        vec = vec.copy()
        vec.flags.writeable = False
        object.__setattr__(self, "vector", vec)

    @classmethod
    def fock(cls, space: FockSpace, occupations) -> "QuantumState":
        """Product number state |n_0, n_1, ...>."""
        vec = np.zeros(space.dimension, dtype=complex)
        vec[space.basis_index(occupations)] = 1.0
        return cls(space, vec)

    @classmethod
    def coherent(cls, space: FockSpace, alphas) -> "QuantumState":
        """Truncated product coherent state, renormalized.

        Rejects amplitudes whose Poisson tail above n_max carries more
        than COHERENT_TAIL_LIMIT of the probability.
        """
        if np.isscalar(alphas):
            alphas = (alphas,)
        alphas = tuple(complex(a) for a in alphas)
        if len(alphas) != space.mode_count:
            raise ValueError(f"expected {space.mode_count} amplitudes, got {len(alphas)}")
        vec = np.ones(1, dtype=complex)
        tail = 0.0
        for alpha in alphas:
            single = _coherent_column(alpha, space.n_max)
            kept = float((np.abs(single) ** 2).sum())
            tail = 1.0 - (1.0 - tail) * kept
            vec = np.kron(vec, single)
        if tail > COHERENT_TAIL_LIMIT:
            raise ValueError(
                f"truncation tail mass {tail:.3e} exceeds {COHERENT_TAIL_LIMIT:.0e};"
                " raise n_max or shrink |alpha|"
            )
        vec = vec / np.linalg.norm(vec)
        return cls(space, vec, tail)

    @classmethod
    def superposition(cls, space: FockSpace, terms) -> "QuantumState":
        """Normalized sum of product number states.

        ``terms`` is an iterable of (coefficient, occupations) pairs.
        """
        vec = np.zeros(space.dimension, dtype=complex)
        count = 0
        for coefficient, occupations in terms:
            vec[space.basis_index(occupations)] += complex(coefficient)
            count += 1
        if count == 0:
            raise ValueError("superposition needs at least one term")
        norm = float(np.linalg.norm(vec))
        if norm <= 0.0:
            raise ValueError("superposition terms cancel to the zero vector")
        return cls(space, vec / norm)


def _coherent_column(alpha: complex, n_max: int) -> np.ndarray:
    if alpha == 0:
        column = np.zeros(n_max + 1, dtype=complex)
        column[0] = 1.0
        return column
    ns = np.arange(n_max + 1)
    # log-domain Poisson weights keep large n_max overflow-free
    log_fact = np.cumsum(np.log(np.maximum(ns, 1)))
    magnitude = np.exp(ns * math.log(abs(alpha)) - 0.5 * log_fact - abs(alpha) ** 2 / 2.0)
    return magnitude * np.exp(1j * ns * np.angle(alpha))


def build_operators(space: FockSpace, mode_index: int = 0) -> ModeOperators:
    """Ladder and number matrices for one mode, kron-embedded into the product space.

    The single-mode annihilator has sqrt(1..n_max) on the superdiagonal, so
    [a, a^dag] equals the identity on levels below n_max (truncation flips
    the last diagonal entry to -n_max).

    Raises ValueError if the dense matrices would need more than
    MEMORY_BUDGET_BYTES.
    """
    if not 0 <= mode_index < space.mode_count:
        raise ValueError(f"mode_index {mode_index} outside 0..{space.mode_count - 1}")
    # peak: the three float64 d x d results plus the three levels x levels
    # single-mode factors (the kron stages before the last are released)
    _check_budget(
        24 * (space.dimension ** 2 + space.levels ** 2),
        f"dense operators of dimension {space.dimension}",
    )
    destroy_single = np.diag(np.sqrt(np.arange(1, space.levels, dtype=float)), 1)
    number_single = np.diag(np.arange(space.levels, dtype=float))
    eye = np.eye(space.levels)
    destroy = number = np.ones((1, 1))
    for position in range(space.mode_count):
        here = position == mode_index
        destroy = np.kron(destroy, destroy_single if here else eye)
        number = np.kron(number, number_single if here else eye)
    return ModeOperators(create=destroy.T.copy(), destroy=destroy, number=number)


def single_mode_hamiltonian(
    phases,
    omega: float,
    space: FockSpace,
    convention: str = CONVENTIONS[0],
) -> np.ndarray:
    """Diagonal of the energy operator of N phase-shifted waves sharing one mode.

    The self part contributes N * omega*(N_hat + 1/2) (hbar = 1); each
    unordered wave pair (n, m) adds the cross term

        "canonical":                   omega * (2 N_hat + 1) * cos(phi_n - phi_m)
        "phased-plus", "phased-minus": omega * (2 N_hat * cos(phi_n - phi_m) +- 1)

    so the pairs enter only through the coupling sum
    C = sum_{n<m} cos(phi_n - phi_m), and entry n of the diagonal is

        "canonical":                   N omega (n + 1/2) + omega C (2n + 1)
        "phased-plus", "phased-minus": N omega (n + 1/2) + omega (2nC +- N(N-1)/2)

    C is summed from the cosines themselves, one row of pairs per wave: each
    row is summed pairwise by numpy and the rows exactly by math.fsum, in
    O(N) memory. Any other ``convention`` raises ValueError, and so does a
    request whose N(N-1)/2 pairs exceed WORK_BUDGET (see _check_pair_work).
    The operator is number-diagonal and is returned as its diagonal:
    float64, shape (space.levels,), entry n <n|H|n>.
    """
    if space.mode_count != 1:
        raise ValueError("single_mode_hamiltonian needs a one-mode space")
    _check_positive(omega, "omega")
    phases = np.asarray(list(phases), dtype=float)
    if phases.size == 0 or not np.all(np.isfinite(phases)):
        raise ValueError("phase list must be nonempty and finite")
    if convention not in CONVENTIONS:
        raise ValueError(f"convention {convention!r} is not {_one_of(CONVENTIONS)}")
    sign = _PHASED_SIGNS.get(convention)

    n_waves = phases.size
    _check_pair_work([n_waves], f"Hamiltonian of {n_waves} waves")
    coupling = math.fsum(
        np.cos(phases[i] - phases[i + 1:]).sum() for i in range(n_waves - 1)
    )
    number = np.arange(space.levels, dtype=float)
    diagonal = n_waves * omega * (number + 0.5)
    if sign is None:
        return diagonal + omega * coupling * (2.0 * number + 1.0)
    return diagonal + omega * (2.0 * coupling * number + sign * (n_waves * (n_waves - 1) // 2))


def _check_pair_work(counts, request: str):
    """Refuse ``request`` (a description naming its size), which builds one
    Hamiltonian of each of ``counts`` waves, if their wave pairs together
    need more than WORK_BUDGET operations at _PAIR_WORK each."""
    pairs = sum(n * (n - 1) // 2 for n in counts)
    _check_work(_PAIR_WORK * pairs, f"{request} ({pairs} wave pairs)")


def expectation_energy(state: QuantumState, diagonal: np.ndarray) -> float:
    """Real part of <psi|H|psi> in O(d) for H given by its diagonal (one entry
    per basis state), asserting the imaginary residue is noise."""
    diagonal = np.asarray(diagonal)
    if diagonal.shape != state.vector.shape:
        raise ValueError(
            f"diagonal shape {diagonal.shape} does not match state dimension {state.vector.size}"
        )
    value = complex(np.vdot(state.vector, diagonal * state.vector))
    scale = float(np.linalg.norm(diagonal))
    if abs(value.imag) > _RESIDUE_TOL * max(scale, 1e-300):
        raise ValueError(
            f"imaginary expectation residue {value.imag} exceeds {_RESIDUE_TOL} * |H|"
        )
    return value.real


def biphoton_energy(delta_phi: float, overlap: complex, omega: float) -> float:
    """Photon energy of a phase-correlated photon pair from two sources.

    energy = 2 omega (1 + Re(I e^{i delta_phi})) (hbar = 1) with I the mode
    overlap: 4 omega at full overlap in phase, 0 at full overlap in
    antiphase, and 2 omega (two independent photons) at I = 0. The
    vacuum contribution is excluded; it is half the returned value.
    """
    overlap = complex(overlap)
    if not abs(overlap) <= 1.0 + 1e-12:
        raise ValueError(f"overlap magnitude {abs(overlap)} exceeds 1")
    _check_positive(omega, "omega")
    if not _finite(delta_phi, "delta_phi"):
        raise ValueError("delta_phi must be finite")
    return 2.0 * omega * (1.0 + (overlap * np.exp(1j * delta_phi)).real)
