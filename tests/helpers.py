"""Input helpers that several test modules share; not part of the package.

``commensurate_box`` builds the boxes on which the grid route's energy does
not depend on where the box sits, so the grid can be compared with the
closed form at any placement.
"""

import numpy as np

from coherray import BoxVolume, WaveMode


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
