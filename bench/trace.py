"""Per-layer spans, timed by rebinding coherray's public names.

One layer per module. While a ``Tracer`` is installed, each listed
function is replaced, in every coherray module that binds it, by a
wrapper that records calls, inclusive time and work counters. The
package itself is not edited; ``remove()`` restores the originals.

Self time of a layer is the time during which its span is the innermost
open span: busy time minus the time covered by child spans of other
layers. Time outside every span (the benchmark's own code) belongs to no
layer.
"""

from __future__ import annotations

import inspect
import time
import tracemalloc

import numpy as np

import coherray
from coherray import classical, cli, core, experiments, multimode, quantum

MODULES = {
    "cli": cli,
    "core": core,
    "classical": classical,
    "quantum": quantum,
    "multimode": multimode,
    "experiments": experiments,
}

# layer -> public functions wrapped in that layer's module
SPANS = {
    "cli": ("main", "parse_config", "emit_results"),
    "core": ("phase_sum", "make_linear_array"),
    "classical": ("farfield_power", "transmission_spectrum", "field_energy_grid", "classical_energy"),
    "quantum": ("single_mode_hamiltonian", "expectation_energy", "build_operators"),
    "multimode": ("multimode_energy", "overlap_integral_quadrature", "wavepacket_energy"),
    "experiments": ("run_sweep", "dicke_scaling_check"),
}

# spans whose tracemalloc peak is recorded as <span>.peak_mb
PEAK_SPANS = ("classical.farfield_power", "multimode.multimode_energy")


def _detector_points(detector) -> int:
    return detector.samples if detector.geometry == "arc" else detector.samples ** 2


def _dense_bytes(args) -> int:
    return 16 * args["space"].dimension ** 2


def _grid_cells(args) -> int:
    cells = np.prod(np.broadcast_to(np.asarray(args.get("resolution", 64)), (3,)))
    return int(cells) * args["waves"].n_waves


# span -> (counter name, work computed from the bound call arguments)
COUNTERS = {
    "classical.farfield_power": (
        "classical.farfield_pair_evals",
        lambda args: _detector_points(args["detector"]) * (args["array"].n_sources + 1),
    ),
    "classical.field_energy_grid": ("classical.grid_cell_evals", _grid_cells),
    "quantum.single_mode_hamiltonian": ("quantum.dense_operator_bytes", _dense_bytes),
    "quantum.build_operators": ("quantum.dense_operator_bytes", _dense_bytes),
    "multimode.overlap_integral_quadrature": (
        "multimode.quadrature_points",
        lambda args: args.get("samples_per_axis", 100) ** 3,
    ),
}

# spans that call other listed spans; left out when ranking kernels
OUTER_SPANS = (
    "cli.main",
    "classical.transmission_spectrum",
    "experiments.run_sweep",
    "experiments.dicke_scaling_check",
)


class Tracer:
    """Span recorder; ``install()`` rebinds, ``remove()`` restores."""

    def __init__(self):
        self.calls = {}
        self.seconds = {}
        self.counters = {}
        self.peak_bytes = {}
        self.self_seconds = {layer: 0.0 for layer in SPANS}
        self._stack = []
        self._mark = 0.0
        self._patches = []

    def _advance(self, now: float):
        if self._stack:
            self.self_seconds[self._stack[-1]] += now - self._mark
        self._mark = now

    def _wrap(self, layer: str, span: str, original):
        signature = inspect.signature(original)
        counter = COUNTERS.get(span)
        peak = span in PEAK_SPANS

        def traced(*args, **kwargs):
            if counter is not None:
                bound = signature.bind(*args, **kwargs).arguments
                name, work = counter
                self.counters[name] = self.counters.get(name, 0) + work(bound)
            measure = peak and not tracemalloc.is_tracing()
            if measure:
                tracemalloc.start()
            start = time.perf_counter()
            self._advance(start)
            self._stack.append(layer)
            try:
                return original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._advance(end)
                self._stack.pop()
                self.calls[span] = self.calls.get(span, 0) + 1
                self.seconds[span] = self.seconds.get(span, 0.0) + (end - start)
                if measure:
                    used = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self.peak_bytes[span] = max(self.peak_bytes.get(span, 0), used)

        traced.__wrapped__ = original
        return traced

    def install(self):
        namespaces = [coherray, *MODULES.values()]
        for layer, functions in SPANS.items():
            for function in functions:
                original = getattr(MODULES[layer], function)
                wrapper = self._wrap(layer, f"{layer}.{function}", original)
                for namespace in namespaces:
                    for attr, value in list(vars(namespace).items()):
                        if value is original:
                            self._patches.append((namespace, attr, original))
                            setattr(namespace, attr, wrapper)

    def remove(self):
        for namespace, attr, original in reversed(self._patches):
            setattr(namespace, attr, original)
        self._patches.clear()

    def metrics(self, passes: int, overhead_pct: float) -> dict:
        """Per-pass means of every per-layer metric (peaks are maxima)."""
        values = {}
        for layer, functions in SPANS.items():
            for function in functions:
                span = f"{layer}.{function}"
                values[f"{span}.calls"] = self.calls.get(span, 0) / passes
                values[f"{span}.ms"] = 1e3 * self.seconds.get(span, 0.0) / passes
                if span in PEAK_SPANS:
                    values[f"{span}.peak_mb"] = self.peak_bytes.get(span, 0) / 2 ** 20
            for span, (counter, _) in COUNTERS.items():
                if span.startswith(layer + "."):
                    values[counter] = self.counters.get(counter, 0) / passes
            values[f"{layer}.self_ms"] = 1e3 * self.self_seconds[layer] / passes
        values["trace.overhead_pct"] = overhead_pct
        return values
