"""The earlier ``Permutation.__init__``, which sorts the values to compare
them with the keys and tests every key and value with ``isinstance``.

``Permutation.__init__`` now tests the key and value types and the
bijection with one C call each, and runs these checks only when a test
fails.  On every mapping both must store the same pairs, or raise the same
exception class with the same message.  This is the reference it is
checked against.
"""

from __future__ import annotations

from occob.errors import InvalidValueError


def reference_pairs(mapping) -> tuple:
    """The ``pairs`` the earlier constructor stored for ``mapping``."""
    try:
        items = sorted(dict(mapping).items())
        values = sorted(v for _, v in items)
    except (TypeError, ValueError) as exc:  # not pairs, or not comparable
        raise InvalidValueError(f"not a permutation: {exc}") from None
    keys = [k for k, _ in items]
    for x in keys + values:
        if not isinstance(x, int) or isinstance(x, bool):
            raise InvalidValueError(
                f"permutation entries must be integers, got {x!r}"
            )
    if values != keys:
        raise InvalidValueError(
            f"not a bijection: domain {keys} versus image {values}"
        )
    return tuple(items)
