"""occob: a combinatorial calculus for open-closed cobordisms with brane labels.

The package represents compact 1-manifolds (sequences of circles and
brane-labeled intervals) and the surfaces between them purely
combinatorially: a cobordism is a list of connected components, each a
genus plus a list of boundary circles.  On top of that sit the categorical
operations (composition by gluing, tensor, symmetry), the boundary
permutation calculus, canonical forms and isomorphism classification, and
a small text DSL with a command line front end.

Each module's ``__all__`` is its public surface; the package re-exports
them all, in the order imported here.
"""

from occob import calculus, classify, dsl, errors, objects, surfaces
from occob.errors import *  # noqa: F401,F403
from occob.objects import *  # noqa: F401,F403
from occob.surfaces import *  # noqa: F401,F403
from occob.calculus import *  # noqa: F401,F403
from occob.classify import *  # noqa: F401,F403
from occob.dsl import *  # noqa: F401,F403

__all__ = [
    name
    for module in (errors, objects, surfaces, calculus, classify, dsl)
    for name in module.__all__
]

__version__ = "0.1.0"
