"""Solver toolkit for the multi-depot rural postman problem with
rechargeable and reusable vehicles."""

from .baselines import augment_merge, construct_strike, path_scanning
from .exact import OracleBudgetError, OracleSizeError, enumerate_exhaustive, solve_exact
from .graph import Arc, PathResult, WeightedGraph, is_connected, shortest_path
from .instance import (
    FormatError,
    GenSpec,
    Instance,
    InstanceError,
    RequiredEdge,
    add_dummy_nodes,
    generate_instance,
    parse_carp_benchmark,
    parse_instance,
    random_connected_graph,
    serialize_instance,
    validate_instance,
)
from .milp import (
    MilpModel,
    ModelSizeError,
    SolveResult,
    build_model,
    check_assignment,
    decode_solution,
    encode_solution,
    iterative_f_driver,
    write_lp,
    write_mps,
)
from .multitrip import solve_multitrip
from .solution import (
    Route,
    Solution,
    Trip,
    check_feasibility,
    evaluate_solution,
    gap,
    parse_solution,
    route_time,
    walk_cost,
    write_solution,
    write_unsolved,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
