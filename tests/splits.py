"""The library's Euler split by value, read as factors: the tests' one view of it."""

from __future__ import annotations

from collections.abc import Sequence

from zsflow.matching import _value_split


def split_by_value(n: int, us: Sequence[int], vs: Sequence[int], d: int, values: Sequence[int]) -> list[frozenset[int]]:
    """`_value_split` of every edge (us[e], vs[e]) with ``values``, grouped by ascending value as sets of edge ids.

    With values 0..d-1 these are the perfect matchings of a d-regular
    bipartite graph; with values 0..d/2-1, the 2-factors of a d-regular one.
    """
    got = _value_split(n, us, vs, range(len(us)), d, values, [0] * len(us))
    return [frozenset(e for e, val in enumerate(got) if val == want) for want in sorted(set(values))]
