"""Desk-scale far-field simulator and benchmark harness for diode-tunable
reflective surfaces: pattern synthesis by genetic search, comparison metrics,
and control-circuit complexity/power accounting.

The public names below resolve on first access (PEP 562), so importing the
package, or ``risbench.cli``, does not load numpy.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "benchmarks": ("BeamSpec", "BenchmarkPattern", "ideal_target_field",
                   "load_benchmark", "reference_pattern"),
    "control": ("ControlReport", "complexity_report"),
    "field": ("FieldEvaluator", "FieldGrid", "GridSpec", "PrincipalCut", "SourceModel",
              "principal_cut", "radiation_factor", "read_field_csv", "steering_config",
              "write_field_csv"),
    "ga": ("GAParams", "GAResult", "fitness", "run_ga"),
    "metrics": ("MetricsReport", "directivity_error", "directivity_over_region",
                "evaluate_all", "lobe_peaks", "nmse", "side_lobe_ratio"),
    "surface": ("ConfigMatrix", "ReflectionState", "SurfaceSpec", "UnitCellSpec",
                "build_surface", "expand_groups", "load_unit_cell", "uniform_config"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    # Not cached in globals(): the lookup always returns the defining
    # module's current binding.
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)
