"""Shift-space chaos: sequences, metric geometry, certificates, horseshoe.

The public names below resolve on first use (PEP 562): ``import shiftchaos``
loads no submodule, and ``from shiftchaos import distance`` loads only the
layers that `distance` needs.
"""

from importlib import import_module

_EXPORTS = {
    "sequences": (
        "BiSequence",
        "EventuallyPeriodicSeq",
        "FiniteWord",
        "FlippedSeq",
        "SplicedSeq",
        "UniversalSeq",
        "as_word",
        "flip",
        "locate_block",
        "periodic",
        "periodic_point",
        "sequence_from_payload",
        "sequence_to_payload",
        "splice",
        "window_padded",
    ),
    "cylinders": (
        "CylinderSet",
        "future_cylinder",
        "nesting_check",
        "past_cylinder",
        "similarity_identity_check",
        "two_sided_cylinder",
        "whole_space",
    ),
    "metric": (
        "DistanceBound",
        "MetricParams",
        "check_diameter_condition",
        "check_separation",
        "cylinder_diameter",
        "distance",
        "set_distance",
        "space_diameter",
    ),
    "certify": (
        "UnstableSetId",
        "li_yorke_pair",
        "member_with_future",
        "periodic_density_witness",
        "poisson_recurrence_witness",
        "sensitivity_witness",
        "stable_set_convergence",
        "transitivity_witness",
        "universal_member",
        "unstable_set_convergence",
        "verify_certificate",
    ),
    "horseshoe": (
        "EscapeError",
        "HorseshoeParams",
        "PlanePoint",
        "conjugacy_check",
        "horseshoe_inverse",
        "horseshoe_map",
        "itinerary",
        "point_from_itinerary",
        "rectangle_lattice",
        "verify_hyperbolic_conditions",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_HOME])
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
