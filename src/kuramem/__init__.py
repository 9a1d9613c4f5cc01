"""Associative memory on Kuramoto oscillator networks.

Build honeycomb chains and planar arrays, construct and verify their
stable phase-locked configurations, store and retrieve binary patterns
through them, and count or estimate configuration capacity.
"""

from .capacity import (CapacityEstimate, build_topology, count_exact,
                       run_experiment, sample_estimate, wilson_interval)
from .dynamics import (IntegrationResult, StabilityVerdict, canonical_distance,
                       canonicalize, classify_stability, energy, integrate,
                       jacobian, lock_dt, rhs, wrap_angle)
from .equilibria import (AuditReport, Equilibrium, audit_spurious,
                         construct_config, enumerate_exact, is_phase_cohesive,
                         max_winding, winding_box, winding_box_size,
                         winding_constrained_solve, winding_vector)
from .errors import (EnumerationBudgetError, IntegrationBlowUpError,
                     KuramemError, NonIntegerWindingError,
                     NotAnEquilibriumError, ParameterDomainError,
                     RetrievalError)
from .graphs import (Graph, build_hex_array, build_honeycomb,
                     build_honeycomb_chain, build_square_array,
                     build_tri_array, degrees, graph_from_json, graph_to_json)
from .memory import (PatternCodec, RetrievalDiagnostics, capacity,
                     codec_for_graph, decode, encode, num_patterns, retrieve,
                     store)

__version__ = "0.1.0"

__all__ = [
    "AuditReport", "CapacityEstimate", "Equilibrium", "Graph",
    "IntegrationResult", "PatternCodec", "RetrievalDiagnostics",
    "StabilityVerdict",
    "audit_spurious", "build_hex_array", "build_honeycomb",
    "build_honeycomb_chain", "build_square_array", "build_topology",
    "build_tri_array", "canonical_distance", "canonicalize", "capacity",
    "classify_stability", "codec_for_graph", "construct_config", "count_exact",
    "decode", "degrees", "encode", "energy",
    "enumerate_exact", "graph_from_json", "graph_to_json", "integrate",
    "is_phase_cohesive", "jacobian", "lock_dt", "max_winding", "num_patterns",
    "retrieve", "rhs", "run_experiment", "sample_estimate", "store",
    "wilson_interval", "winding_box", "winding_box_size",
    "winding_constrained_solve", "winding_vector", "wrap_angle",
    "EnumerationBudgetError", "IntegrationBlowUpError", "KuramemError",
    "NonIntegerWindingError", "NotAnEquilibriumError",
    "ParameterDomainError", "RetrievalError",
]
