"""Cross-mode interference: overlap integrals, two-mode energy, wavepackets.

Waves of different wavevectors exchange energy only to the extent that
their spatial profiles overlap inside the quantization volume. For an
axis-aligned box the normalized overlap factorizes into sinc functions,

    I = e^{i(phi_2 - phi_1)} * e^{i dk . center} * prod_i sinc(dk_i L_i / 2),

with dk = k2 - k1 and sinc(x) = sin(x)/x. |I| <= 1, the same-mode limit
gives |I| = 1, and large dk . L products drive I to zero, which is why
widely separated modes contribute no interference energy. The two-mode
energy is read off the state's amplitude table, never a dense operator.
Units are natural: c = hbar = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    TWO_PI,
    BoxVolume,
    EnergyReport,
    WaveMode,
    _check_budget,
    _finite,
    _integer,
    _sinc,
    reduce_phase,
)
from .quantum import QuantumState

# |dk| * max(L) below this counts as the same mode
SAME_MODE_TOL = 1e-9

# "vanishing" is claimed only when the envelope bound proves |I| < 1/VANISHING_BOUND
VANISHING_BOUND = 10.0


@dataclass(frozen=True)
class ModePair:
    """Two modes sharing one quantization box, with emission phases."""

    mode1: WaveMode
    mode2: WaveMode
    phi1: float = 0.0
    phi2: float = 0.0
    box: BoxVolume = None

    def __post_init__(self):
        if not (_finite(self.phi1, "phi1") and _finite(self.phi2, "phi2")):
            raise ValueError("phi1 and phi2 must be finite")
        if self.box is None:
            object.__setattr__(self, "box", BoxVolume(np.ones(3)))
        object.__setattr__(self, "phi1", reduce_phase(self.phi1))
        object.__setattr__(self, "phi2", reduce_phase(self.phi2))

    @property
    def delta_k(self) -> np.ndarray:
        return self.mode2.wavevector - self.mode1.wavevector

    @property
    def delta_phi(self) -> float:
        return self.phi2 - self.phi1


@dataclass(frozen=True)
class WavepacketSpectrum:
    """Collinear frequency components of one wavepacket in a box.

    ``components`` holds (wavenumber, complex amplitude, phase) triples;
    all wavevectors point along the shared unit ``direction`` (a component
    with nonpositive wavenumber would leave the collinear family and is
    rejected).
    """

    direction: np.ndarray
    components: tuple
    box: BoxVolume

    def __post_init__(self):
        direction = np.asarray(self.direction, dtype=float)
        norm = float(np.linalg.norm(direction))
        if direction.shape != (3,) or norm <= 0.0:
            raise ValueError("direction must be a nonzero 3-vector")
        direction = direction / norm
        direction.flags.writeable = False
        object.__setattr__(self, "direction", direction)
        cleaned = []
        for wavenumber, amplitude, phase in self.components:
            wavenumber = float(wavenumber)
            if wavenumber <= 0.0:
                raise ValueError(
                    "component wavenumbers must be positive (collinear with direction)"
                )
            cleaned.append((wavenumber, complex(amplitude), reduce_phase(phase)))
        if not cleaned:
            raise ValueError("wavepacket needs at least one component")
        object.__setattr__(self, "components", tuple(cleaned))

    @property
    def n_components(self) -> int:
        return len(self.components)


def box_overlap(delta_k, box: BoxVolume) -> complex:
    """Normalized volume integral (1/V) int e^{i dk . r} over the box.

    Separable in the box axes: a product of sinc(dk_i L_i / 2) factors
    times the center phase e^{i dk . center}.
    """
    delta_k = np.asarray(delta_k, dtype=float)
    if not np.all(np.isfinite(delta_k)):
        raise ValueError("delta_k must be finite")
    geometric = float(np.prod(_sinc(delta_k * box.lengths / 2.0)))
    center_phase = np.exp(1j * float(np.dot(delta_k, box.center)))
    return complex(center_phase * geometric)


def overlap_integral(pair: ModePair) -> complex:
    """Mode-overlap factor I weighting all cross-mode energy exchange.

    Combines the phase difference of the two sources with the normalized
    volume integral of e^{i(k2-k1).r} over the box. |I| <= 1 with equality
    only in the same-mode limit; a box centered off the origin contributes
    the extra phase e^{i dk . center}.
    """
    return complex(np.exp(1j * pair.delta_phi) * box_overlap(pair.delta_k, pair.box))


def overlap_integral_quadrature(pair: ModePair, samples_per_axis: int = 100) -> complex:
    """Brute-force midpoint quadrature of the overlap volume integral.

    Averages e^{i dk . r} over the cell centers of a regular n^3 grid over
    the box. The integrand factorizes as prod_i e^{i dk_i x_i}, so the grid
    mean is the product of three 1-D midpoint means; no sinc closed form
    is used, which keeps this the independent check for
    `overlap_integral`. Midpoint error scales like
    sum_i (dk_i L_i / n)^2 / 24.

    Raises TypeError when ``samples_per_axis`` is not an integer, and
    ValueError below 2.
    """
    n = _integer(samples_per_axis, "samples_per_axis")
    if n < 2:
        raise ValueError("need at least 2 samples per axis")
    # peak per axis: the sample points and two complex arrays (8 + 16 + 16 bytes)
    _check_budget(40 * n, f"quadrature of {n} samples per axis")
    box = pair.box
    mean = complex(np.exp(1j * pair.delta_phi))
    for dk, length, center in zip(pair.delta_k, box.lengths, box.center):
        x = center - length / 2.0 + (np.arange(n) + 0.5) * (length / n)
        mean *= complex(np.exp(1j * dk * x).mean())
    return mean


def classify_overlap(delta_k, box: BoxVolume) -> str:
    """Classify the overlap regime: 'same_mode', 'small_volume', 'vanishing'.

    same_mode: |dk| * max(L) below SAME_MODE_TOL (identical wavevectors).
    vanishing: the rigorous envelope |I| <= prod_i max(1, |dk_i| L_i / 2)^-1
    proves |I| < 1/VANISHING_BOUND = 0.1.
    small_volume: everything else, i.e. the box is small enough (in units
    of the wavevector mismatch) that the overlap need not be negligible.
    """
    delta_k = np.asarray(delta_k, dtype=float)
    lengths = box.lengths
    if float(np.linalg.norm(delta_k)) * float(lengths.max()) < SAME_MODE_TOL:
        return "same_mode"
    half_products = np.abs(delta_k) * lengths / 2.0
    envelope = float(np.prod(np.maximum(half_products, 1.0)))
    if envelope > VANISHING_BOUND:
        return "vanishing"
    return "small_volume"


def multimode_energy(state: QuantumState, pair: ModePair) -> EnergyReport:
    """Expectation of the two-mode energy, split into self and cross parts.

    H = w1 (N1 + 1/2) + w2 (N2 + 1/2) + sqrt(w1 w2) (a1+ a2 I + h.c.)

    with I = overlap_integral(pair); the four symmetrized exchange terms
    collapse to one pair because the modes commute. Both parts are read
    off the amplitude table psi[n1, n2] in O(d): the self part from the
    occupation marginals, the cross part as 2 sqrt(w1 w2) Re(I <a1+ a2>)
    with <a1+ a2> = sum conj(psi[i+1, j]) sqrt((i+1)(j+1)) psi[i, j+1].
    Product number states carry no cross energy; coherent states pick up
    2 sqrt(w1 w2) Re(conj(a1) a2 I).
    """
    space = state.space
    if space.mode_count != 2:
        raise ValueError("multimode_energy needs a two-mode state")
    psi = state.vector.reshape(space.levels, space.levels)
    occupation = np.abs(psi) ** 2
    shifted = np.arange(space.levels) + 0.5
    omega1, omega2 = pair.mode1.omega, pair.mode2.omega
    marginal1, marginal2 = occupation.sum(axis=1), occupation.sum(axis=0)
    diagonal = float(omega1 * marginal1 @ shifted + omega2 * marginal2 @ shifted)
    root = np.sqrt(np.arange(1.0, space.levels))
    exchange = complex(np.vdot(psi[1:, :-1], np.outer(root, root) * psi[:-1, 1:]))
    cross = 2.0 * math.sqrt(omega1 * omega2) * (overlap_integral(pair) * exchange).real
    return EnergyReport(diagonal, cross)


def wavepacket_energy(spectrum: WavepacketSpectrum) -> EnergyReport:
    """Classical energy of a collinear multi-frequency wavepacket in a box.

    Self terms add the single-wave energies V w_n^2 |a_n|^2 / (2 pi), with
    w_n = k_n. Each component pair (n, m) exchanges energy weighted by the
    overlap at dk = (k_n - k_m) * direction and the geometric-mean frequency:

        2 (V / 2 pi) w_n w_m Re(a_n conj(a_m) e^{i(phi_n-phi_m)} I_nm)

    Because the overlap matrix is a Gram matrix the total is never
    negative, for any amplitudes and phases.
    """
    box = spectrum.box
    scale = box.volume / TWO_PI

    parts = spectrum.components
    omegas = np.array([k for k, _, _ in parts])
    amplitudes = np.array([a for _, a, _ in parts], dtype=complex)
    phases = np.array([p for _, _, p in parts])

    diagonal = float(scale * (omegas ** 2 * np.abs(amplitudes) ** 2).sum())
    cross = 0.0
    for n in range(len(parts)):
        for m in range(n + 1, len(parts)):
            delta_k = (parts[n][0] - parts[m][0]) * spectrum.direction
            overlap = box_overlap(delta_k, box)
            coherence = (
                amplitudes[n]
                * np.conj(amplitudes[m])
                * np.exp(1j * (phases[n] - phases[m]))
                * overlap
            )
            cross += 2.0 * scale * omegas[n] * omegas[m] * coherence.real
    return EnergyReport(diagonal, float(cross))
