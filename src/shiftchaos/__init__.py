"""Shift-space chaos: sequences, metric geometry, certificates, horseshoe."""

from .sequences import (
    Alphabet,
    BiSequence,
    EventuallyPeriodicSeq,
    FiniteWord,
    FlippedSeq,
    SplicedSeq,
    UniversalSeq,
    as_word,
    flip,
    locate_block,
    make_universal_sequence,
    periodic,
    periodic_point,
    sequence_from_payload,
    sequence_to_payload,
    splice,
    window_padded,
)
from .cylinders import (
    CylinderSet,
    future_cylinder,
    nesting_check,
    past_cylinder,
    similarity_identity_check,
    two_sided_cylinder,
    whole_space,
)
from .metric import (
    DistanceBound,
    MetricParams,
    check_diameter_condition,
    check_separation,
    cylinder_diameter,
    distance,
    set_distance,
    space_diameter,
)
from .certify import (
    Certificate,
    UnstableSetId,
    li_yorke_pair,
    member_with_future,
    periodic_density_witness,
    poisson_recurrence_witness,
    sensitivity_witness,
    stable_set_convergence,
    transitivity_witness,
    universal_member,
    unstable_set_convergence,
    verify_certificate,
)
from .horseshoe import (
    EscapeError,
    HorseshoeParams,
    PlanePoint,
    SymbolicRectangle,
    conjugacy_check,
    horseshoe_inverse,
    horseshoe_map,
    itinerary,
    level_rectangles,
    point_from_itinerary,
    verify_hyperbolic_conditions,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
