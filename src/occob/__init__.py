"""occob: a combinatorial calculus for open-closed cobordisms with brane labels.

The package represents compact 1-manifolds (sequences of circles and
brane-labeled intervals) and the surfaces between them purely
combinatorially: a cobordism is a list of connected components, each a
genus plus a list of boundary circles.  On top of that sit the categorical
operations (composition by gluing, tensor, symmetry), the boundary
permutation calculus, canonical forms and isomorphism classification, and
a small text DSL with a command line front end.
"""

from occob.errors import (
    ClosedComponentError,
    CompositionError,
    DslSyntaxError,
    DslValidationError,
    InfeasibleObjectError,
    InvalidCobordismError,
    InvalidValueError,
    OcError,
)
from occob.objects import STAR, Circle, GeneralObject, Interval, Permutation
from occob.surfaces import (
    IN,
    OUT,
    Arc,
    BoundaryCircle,
    Closed,
    Cobordism,
    Component,
    ComponentSummary,
    IntervalRef,
    InvariantSummary,
    Mixed,
    MixedEntry,
    Violation,
    Window,
    boundary_permutation,
    component_summary,
    euler_char,
    euler_total,
    in_b_subcategory,
    in_ref,
    invariant_summary,
    out_ref,
    validate,
    window_vector,
)
from occob.calculus import (
    compose,
    identity,
    is_morphism,
    make_T,
    pullback,
    realize,
    stabilize,
    swap_cobordism,
    tensor,
)
from occob.classify import (
    CanonicalForm,
    StrataRow,
    canonicalize,
    enumerate_classes,
    is_isomorphic,
    strata_table,
)
from occob.dsl import CobordismDef, Document, from_json, parse, serialize, to_json

__all__ = [
    "STAR",
    "IN",
    "OUT",
    "Circle",
    "Interval",
    "Permutation",
    "GeneralObject",
    "Arc",
    "IntervalRef",
    "Closed",
    "Window",
    "Mixed",
    "MixedEntry",
    "BoundaryCircle",
    "Component",
    "Cobordism",
    "Violation",
    "ComponentSummary",
    "InvariantSummary",
    "in_ref",
    "out_ref",
    "validate",
    "euler_char",
    "euler_total",
    "window_vector",
    "boundary_permutation",
    "in_b_subcategory",
    "component_summary",
    "invariant_summary",
    "identity",
    "compose",
    "tensor",
    "swap_cobordism",
    "realize",
    "pullback",
    "is_morphism",
    "make_T",
    "stabilize",
    "CanonicalForm",
    "StrataRow",
    "canonicalize",
    "is_isomorphic",
    "enumerate_classes",
    "strata_table",
    "Document",
    "CobordismDef",
    "parse",
    "serialize",
    "to_json",
    "from_json",
    "OcError",
    "CompositionError",
    "ClosedComponentError",
    "InfeasibleObjectError",
    "InvalidCobordismError",
    "InvalidValueError",
    "DslSyntaxError",
    "DslValidationError",
]

__version__ = "0.1.0"
