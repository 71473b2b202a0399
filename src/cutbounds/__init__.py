"""cutbounds: certified lower bounds and explicit cuts for maximum weighted cut.

Every bound returns a BoundReport carrying a concrete cut built by
conditional-expectation derandomization; exact desk-scale oracles validate
each bound against the true maximum cut.
"""

from .bounds import (BoundPreconditionError, BoundReport, ClaimViolationError,
                     best_matching, dfs_bound, edge_rooted_tree_bound,
                     girth_bound, matching_bound, per_component, poljak_turzik,
                     triangle_free_tree_bound)
from .coloring import (ContractedGraph, EdgeColoring, contract_matching,
                       matching_vizing_bound, shearer_coefficient,
                       vizing_classes_bound, vizing_classes_coefficient,
                       vizing_edge_coloring)
from .cuts import (Cut, InducedBipartiteSubgraph, NotAMatchingError,
                   NotBipartiteError, NotInducedError, derandomized_cut,
                   local_search_improve, verify_induced_bipartite)
from .generators import (complete, cycle, gadget_k33_subdivided, petersen,
                         petersen_c3, random_triangle_free_subcubic,
                         star_counterexample, star_counterexample_params_ok)
from .graph import (DisconnectedGraphError, DuplicateEdgeError, GraphError,
                    GraphStats, MalformedLineError, NegativeWeightError,
                    NonFiniteWeightError, NotSubcubicError, PreconditionError,
                    SelfLoopError, TriangleFoundError, WeightedGraph, girth,
                    load_graph, save_graph, stats, triangle_free)
from .oracle import (ConjectureReport, OracleResult, SizeGuardError,
                     conjecture_report, enumerate_five_cycles, exact_max_cut,
                     five_cycle_cover, is_exact_five_cycle_cover,
                     max_dfs_tree_weight, max_induced_bipartite)
from .spanning import (OddCycleError, RootedSpanningTree, dfs_tree,
                       max_spanning_tree, min_spanning_tree)
from .subcubic import (EdgeClassification, SuccessorDigraph, VertexColoring3,
                       brooks_3_coloring, classify_edges, combined_tree_bound,
                       component_layer_cut, eight_elevenths_bound,
                       mutual_matching_cut, per_class_cut, shearer_bound,
                       tree_percolation_bound, two_thirds_bound)

__version__ = "0.1.0"
