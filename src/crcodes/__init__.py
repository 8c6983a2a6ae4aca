"""Completely regular codes in Johnson and Grassmann graphs.

Exact (integer-only) constructions, verification, and symmetry-reduced
binary feasibility search.

The names of __all__ are resolved on first access, each from the module
that defines it, so importing the package, or one of its modules such as
crcodes.cli, loads only the modules that are used: a verify never loads
the orbit, search or solver modules.
"""

import importlib

# module -> the public names it defines
_EXPORTS = {
    "subspaces": ("Subset", "Subspace", "gaussian", "rref"),
    "graphs": ("GraphSpec", "adjacency_lists", "containment_table",
               "neighbors", "parse_graph_spec", "theta", "theta_ladder",
               "vertex_index"),
    "verify": ("Code", "DistancePartition", "IntersectionNumbers",
               "VerificationError", "check_completely_regular",
               "code_eigenvalues", "design_strength", "distance_partition",
               "size_and_integrality_report", "verify_report"),
    "constructions": ("ValueVector", "avoid_code", "blocks_contained_counts",
                      "desarguesian_2spread", "desarguesian_spread",
                      "extended_hamming_sqs", "hyperplane_code",
                      "hyperplane_point_code", "pushforward",
                      "symplectic_code"),
    "orbits": ("GroupAction", "OrbitSystem", "frobenius_action",
               "orbit_system", "quotient_matrix", "singer_action"),
    "bip": ("BipInstance", "build_instance", "export_lp", "export_opb",
            "feasible_parameters", "lift", "solve"),
    "search": ("SearchOutcome", "search_parameter_point"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = sorted(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
