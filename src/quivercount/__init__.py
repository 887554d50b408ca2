"""Exact enumeration and counting of quiver mutation classes.

Covers the mutation classes built on a non-oriented cycle (affine type A)
and the type D classes.  Closed-form counts and a brute-force breadth-first
enumerator are implemented side by side so that each verifies the other,
with a truncated power-series oracle as a third independent route.
"""

from quivercount import counting, series
from quivercount.canonical import are_isomorphic, canonical_key
from quivercount.classify import (
    AtildeStructure,
    RealizationParams,
    classify,
    is_symmetric,
    parse_rooted_type_a,
)
from quivercount.mutation_class import (
    CapExceeded,
    MutationClass,
    enumerate_class,
    seed_cycle,
    seed_dynkin_d,
)
from quivercount.quiver import (
    ExchangeQuiver,
    QuiverFormatError,
    dumps,
    loads,
    max_multiplicity,
    mutate,
    read_quiver,
    relabel,
    underlying_graph_connected,
    write_quiver,
)

__version__ = "0.1.0"

__all__ = [
    "AtildeStructure",
    "CapExceeded",
    "ExchangeQuiver",
    "MutationClass",
    "QuiverFormatError",
    "RealizationParams",
    "are_isomorphic",
    "canonical_key",
    "classify",
    "counting",
    "dumps",
    "enumerate_class",
    "is_symmetric",
    "loads",
    "max_multiplicity",
    "mutate",
    "parse_rooted_type_a",
    "read_quiver",
    "relabel",
    "seed_cycle",
    "seed_dynkin_d",
    "series",
    "underlying_graph_connected",
    "write_quiver",
]
