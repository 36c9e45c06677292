"""Product irregularity strength of graphs.

A product-irregular labeling assigns labels 1..s to the edges of a graph so
that every vertex gets a distinct product of incident labels; the strength
of a graph is the least such s. This package provides the labeled-matrix
constructions certifying strength 3 for connected graphs with clique cover
number 2 or 3, an exact verifier over factored product degrees, exact
solvers at desk scale, and a cover-driven construction engine.
"""

from .engine import (ConstructionError, ConstructionOutcome, DispatchCase,
                     FallbackBudgetError, UnsupportedCoverError,
                     catalog_matrix, construct_labeling, label_cover,
                     theorem_id)
from .fileio import DocumentError, emit_graph, parse_graph
from .graphs import (CliqueCover, EdgeLabeling, Graph, add_cross_edge,
                     clique_cover, complete_graph, disjoint_union,
                     has_isolated_vertex_or_edge, is_connected,
                     labeled_graph_to_matrix, matrix_to_labeled_graph)
from .matrices import (RowProfile, direct_sum, fixed_matrix, fixed_matrix_names,
                       m_matrix, named_family, row_profile, tilde_matrix)
from .solver import BudgetExhausted, PsResult, ps_exact, ps_exact_disconnected
from .verifier import (IrregularityReport, ProductDegree, check_matrix,
                       is_product_irregular)

__version__ = "0.1.0"
