"""Spell 1-factors as edge lists in tests.

The package holds a 1-factor flat, as the tuple (u0, v0, u1, v1, ...) of
its 2n vertex ids.  A test that writes a factor as its edges, or reads
the edges of one, converts it here.
"""

from itertools import chain


def flat(edges) -> tuple:
    """The flat factor of an edge list, edge after edge, as given."""
    return tuple(chain.from_iterable(edges))


def edges(f) -> tuple:
    """The (u, v) pairs of a flat factor, in order."""
    it = iter(f)
    return tuple(zip(it, it))
