"""Discrete-time analysis, synthesis and simulation toolkit for
disturbance-observer-based motion control loops.

The package covers the z-domain closed forms of the observer inner loop for
acceleration, velocity and position measurement, the continuous-time
baseline, outer PD loop closure, sensitivity (waterbed) integral checks,
stability constraint evaluation, root-locus sweeps and a time-domain
simulator with a closed-form cross-validation oracle.

``import dobkit`` imports none of these layers: each re-exported name loads
its layer on first use (PEP 562), so a process pays only for what it runs.
"""
__version__ = "0.1.0"

# The names each layer re-exports here.
_LAYERS = {
    "loops": (
        "DobConfig", "LoopSet", "MeasurementKind", "OuterGains", "PlantParams",
        "classify_compensator", "discrete_position_plant", "discrete_velocity_plant",
        "make_continuous_inner", "make_inner_loop", "make_outer_loop", "make_pd",
        "q_filter", "velocity_estimator",
    ),
    "robustness": (
        "BodeIntegralReport", "FreqSweep", "IllPosedIntegralError", "Peak",
        "bode_integral_continuous", "bode_integral_discrete", "freq_sweep",
    ),
    "sim": (
        "DisturbancePulse", "NoiseSpec", "Reference", "RejectionMetrics", "Scenario",
        "SimTrace", "UnsupportedScenarioError", "disturbance_rejection_metrics",
        "simulate", "simulate_linear_oracle",
    ),
    "stability": (
        "BindingConstraint", "LocusBranch", "PoleClassification", "StabilityVerdict",
        "bisect_threshold", "classify_poles", "config_for_sweep", "constraint_check",
        "position_non_osc_bound", "root_locus",
    ),
    "zalg": (
        "DomainMismatchError", "Polynomial", "RationalTF", "RootFindingError", "RootSet",
        "poly_roots", "poly_roots_batch", "schur_stable",
    ),
}
_LAYER_OF = {name: layer for layer, names in _LAYERS.items() for name in names}

__all__ = list(_LAYER_OF)


def __getattr__(name: str):
    """A re-exported name, or a layer, imported on first use and then kept.

    ``__import__`` rather than ``importlib.import_module``: only imports
    through it show in ``python -X importtime``.
    """
    layer = name if name in _LAYERS else _LAYER_OF.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    __import__(f"{__name__}.{layer}")  # binds the layer in this namespace
    module = globals()[layer]
    if layer == name:
        return module
    value = globals()[name] = getattr(module, name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
