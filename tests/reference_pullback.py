"""The earlier ``pullback``, which glues a realizer on top of the cobordism.

It re-anchors the target object to carry ``tau``, glues that object's
realizer on top of ``c`` with ``compose``, and reads the permutation off
the glued surface with ``boundary_permutation``.  ``calculus.pullback``
now walks ``c``'s mixed circles instead, and builds none of these.  On
every valid cobordism both must give the same permutation, and on the
inputs that ``tests/test_pullback_reference.py`` draws they must raise
the same exception class.  This is the reference it is checked against.
"""

from __future__ import annotations

from occob.calculus import compose, realize
from occob.errors import wrong_type
from occob.objects import GeneralObject, Permutation
from occob.surfaces import Cobordism, boundary_permutation


def reference_pullback(c: Cobordism, tau: Permutation) -> Permutation:
    if type(c) is not Cobordism:
        raise wrong_type(Cobordism, c)
    if type(tau) is not Permutation:
        raise wrong_type(Permutation, tau)
    anchored = GeneralObject(c.target.branes, c.target.entries, tau)
    rebased = Cobordism(c.source, anchored, c.components)
    return boundary_permutation(compose(realize(anchored), rebased))
