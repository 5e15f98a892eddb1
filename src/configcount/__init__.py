"""Exact counting workbench: lattice-square and word-path counters, brute-force
oracles, and a verification harness that audits every closed form against
enumerated witnesses."""

from .budget import DEFAULT_ORACLE_BUDGET, OracleBudgetError
from .counting import (
    MoveWord,
    MultisetSpec,
    binomial,
    count_move_words,
    factorial,
    multiset_permutations,
)
from .geometry import (
    LatticeGrid,
    LatticePoint,
    Square,
    square_vertices,
)
from .speclang import ParseError, ProblemSpec, SpecError, ValidationError, parse_spec, print_spec
from .squares import (
    RailReport,
    SizeClassBreakdown,
    count_all_squares,
    count_axis_squares,
    count_squares_by_point_subsets,
    enumerate_all_squares,
    enumerate_axis_squares,
    rail_decomposition,
)
from .verify import (
    PartitionRow,
    StepTrace,
    VerifyReport,
    build_step_trace,
    has_registered_closed_form,
    verify_problem,
)
from .wordgrid import (
    CountReport,
    LetterGrid,
    PathWitness,
    count_paths_by_symbol_product,
    count_word_paths_closed,
    enumerate_word_paths,
    generate_manhattan_rings,
    letter_grid_from_rows,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_ORACLE_BUDGET",
    "OracleBudgetError",
    "MoveWord",
    "MultisetSpec",
    "binomial",
    "count_move_words",
    "factorial",
    "multiset_permutations",
    "LatticeGrid",
    "LatticePoint",
    "Square",
    "square_vertices",
    "ParseError",
    "ProblemSpec",
    "SpecError",
    "ValidationError",
    "parse_spec",
    "print_spec",
    "RailReport",
    "SizeClassBreakdown",
    "count_all_squares",
    "count_axis_squares",
    "count_squares_by_point_subsets",
    "enumerate_all_squares",
    "enumerate_axis_squares",
    "rail_decomposition",
    "PartitionRow",
    "StepTrace",
    "VerifyReport",
    "build_step_trace",
    "has_registered_closed_form",
    "verify_problem",
    "CountReport",
    "LetterGrid",
    "PathWitness",
    "count_paths_by_symbol_product",
    "count_word_paths_closed",
    "enumerate_word_paths",
    "generate_manhattan_rings",
    "letter_grid_from_rows",
]
