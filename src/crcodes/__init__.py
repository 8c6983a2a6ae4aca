"""Completely regular codes in Johnson and Grassmann graphs.

Exact (integer-only) constructions, verification, and symmetry-reduced
binary feasibility search.
"""

from .subspaces import Subset, Subspace, gaussian, rref
from .graphs import (GraphSpec, adjacency_lists, containment_table, neighbors,
                     parse_graph_spec, theta, theta_ladder, vertex_index)
from .verify import (Code, DistancePartition, IntersectionNumbers,
                     VerificationError, check_completely_regular,
                     code_eigenvalues, design_strength, distance_partition,
                     size_and_integrality_report, verify_report)
from .constructions import (ValueVector, avoid_code, blocks_contained_counts,
                            desarguesian_2spread, desarguesian_spread,
                            extended_hamming_sqs, hyperplane_code,
                            hyperplane_point_code, pushforward,
                            symplectic_code)
from .orbits import (GroupAction, OrbitSystem, frobenius_action, orbit_system,
                     quotient_matrix, singer_action)
from .bip import (BipInstance, build_instance, export_lp, export_opb,
                  feasible_parameters, lift, solve)
from .search import SearchOutcome, search_parameter_point

__all__ = [
    "BipInstance", "Code", "DistancePartition", "GraphSpec", "GroupAction",
    "IntersectionNumbers", "OrbitSystem", "SearchOutcome", "Subset",
    "Subspace", "ValueVector", "VerificationError", "adjacency_lists",
    "avoid_code", "blocks_contained_counts",
    "build_instance", "check_completely_regular", "code_eigenvalues",
    "containment_table",
    "desarguesian_2spread", "desarguesian_spread", "design_strength",
    "distance_partition", "export_lp", "export_opb", "extended_hamming_sqs",
    "feasible_parameters", "frobenius_action", "gaussian",
    "hyperplane_code", "hyperplane_point_code",
    "lift", "neighbors", "orbit_system",
    "parse_graph_spec", "pushforward",
    "quotient_matrix", "rref", "search_parameter_point",
    "size_and_integrality_report", "singer_action", "solve",
    "symplectic_code", "theta", "theta_ladder", "verify_report",
    "vertex_index",
]

__version__ = "0.1.0"
