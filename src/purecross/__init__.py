"""Purely crossing set partitions and their relatives.

The package classifies and enumerates five families of set partitions of
{1, .., n} (all, noncrossing, connected, no-neighbor connected, purely
crossing), implements the reversible decompositions that relate them,
transports rational weights along those decompositions, and evaluates
the four associated counting series exactly with truncated rational
power series.
"""

from .bijections import (
    Composition,
    CoverDecomposition,
    GapDecomposition,
    PcPlusCase,
    WeightAssignment,
    adjoin_last_atom,
    connected_weight,
    contract,
    cover_assemble,
    cover_decompose,
    gap_assemble,
    gap_decompose,
    inflate,
    partition_weight,
    pc_plus_decompose,
    pc_plus_weight,
)
from .enumeration import PartitionClass, count, iterate, orbit_size
from .partition import ParseError, Partition, PartitionError
from .pipeline import (
    CountsTable,
    bell_series,
    counts_table,
    derive_a_from_b,
    derive_b_from_c,
    derive_c_from_d,
    forward_weighted,
    weighted_brute_coeffs,
)
from .series import Series, render_text, solve_fixpoint

__version__ = "0.1.0"

__all__ = [
    "Composition",
    "CountsTable",
    "CoverDecomposition",
    "GapDecomposition",
    "ParseError",
    "Partition",
    "PartitionClass",
    "PartitionError",
    "PcPlusCase",
    "Series",
    "WeightAssignment",
    "adjoin_last_atom",
    "bell_series",
    "connected_weight",
    "contract",
    "count",
    "counts_table",
    "cover_assemble",
    "cover_decompose",
    "derive_a_from_b",
    "derive_b_from_c",
    "derive_c_from_d",
    "forward_weighted",
    "gap_assemble",
    "gap_decompose",
    "inflate",
    "iterate",
    "orbit_size",
    "partition_weight",
    "pc_plus_decompose",
    "pc_plus_weight",
    "render_text",
    "run_checks",
    "solve_fixpoint",
    "weighted_brute_coeffs",
    "__version__",
]


def __getattr__(name):
    # ``verify`` is imported on first use (PEP 562): only the invariant
    # suite needs it, and a command line run should not compile it.
    if name == "run_checks":
        from .verify import run_checks

        return run_checks
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
