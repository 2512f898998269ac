"""Input helpers that several test modules share; not part of the package.

``commensurate_box`` builds the boxes on which the grid route's energy does
not depend on where the box sits, so the grid can be compared with the
closed form at any placement. ``find_resonances`` finds the interior
enhancement peaks of a swept curve, such as the grating lobes of a sparse
array's spectrum. ``peak_and_charges`` measures what a call holds against
the memory it was charged, so the far-field and grid walks are held to one
rule.
"""

import tracemalloc

import numpy as np

from coherray import BoxVolume, SpectrumCurve, WaveMode, classical


def commensurate_box(mode: WaveMode, lengths, center=(0.0, 0.0, 0.0)) -> BoxVolume:
    """Round the box edge along an axis-aligned wavevector to whole
    wavelengths (at least one), so grid energies are placement-independent.
    """
    k = mode.wavevector
    axis = int(np.argmax(np.abs(k)))
    off_axis = np.delete(np.abs(k), axis)
    if np.any(off_axis > 1e-9 * abs(k[axis])):
        raise ValueError("commensurate_box requires an axis-aligned wavevector")
    adjusted = np.array(lengths, dtype=float)
    wavelength = mode.wavelength
    periods = max(1, round(adjusted[axis] / wavelength))
    adjusted[axis] = periods * wavelength
    return BoxVolume(adjusted, np.asarray(center, dtype=float))


def find_resonances(curve: SpectrumCurve) -> list[tuple[float, float]]:
    """Detect interior enhancement peaks in a swept curve.

    A resonance is a local maximum that strictly exceeds both neighbors
    and exceeds 1.05x the curve's global minimum. A flat-topped peak is
    reported once, at its smallest parameter value. Results are sorted by
    parameter.
    """
    enhancement = curve.enhancement
    parameter = curve.parameter
    count = enhancement.size
    if count < 3:
        return []
    threshold = 1.05 * float(enhancement.min())
    peaks: list[tuple[float, float]] = []
    i = 1
    while i < count - 1:
        if enhancement[i] > enhancement[i - 1]:
            j = i
            while j + 1 < count and enhancement[j + 1] == enhancement[i]:
                j += 1
            if j < count - 1 and enhancement[j + 1] < enhancement[i] and enhancement[i] > threshold:
                peaks.append((float(parameter[i]), float(enhancement[i])))
            i = j + 1
        else:
            i += 1
    return peaks


def peak_and_charges(monkeypatch, call):
    """The tracemalloc peak of ``call()`` and the memory charges it checked
    through ``classical._check_budget``, in order."""
    charges = []
    original = classical._check_budget

    def recording(needed, request):
        charges.append(needed)
        return original(needed, request)

    monkeypatch.setattr(classical, "_check_budget", recording)
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, charges
