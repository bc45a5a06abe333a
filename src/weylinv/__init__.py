"""Involution classes and mod-2 cohomological invariant bases of Weyl groups.

Everything is exact: root systems live in rational coordinates, group
elements are permutations of the root list, and the invariant module is
computed over the universal coefficient ring F2[t].
"""

from .roots import (InternalError, Root, RootSystem, SubsystemEmbedding,
                    TypeSpec, build_root_system, find_subsystem, reflect)
from .weyl import (GroupElement, StabChain, compose, coxeter_trace,
                   element_matrix, enumerate_group, group_order, identity,
                   invert, orbit_partition, order_of, reflection_element,
                   simple_reflections, stab_chain, subgroup_order)
from .involutions import (Cube, CubeClass, Involution, InvolutionClass,
                          ReductionReport, classify_cubes, classify_involutions,
                          enumerate_cubes, involution_count,
                          involution_from_cube, split_involution,
                          verify_reduction)
from .invariants import (BasePoly, BasisDescription, CubeClassElement,
                         InvariantExpr, InvariantVector, SeparationReport,
                         canonical_basis, character_multiplicities,
                         expand, pairing, restrict_to_cube, sw,
                         sw_separation_report, top_coefficient, total_class)
from .reps import (GapBudget, GapFindings, Representation, base_catalogue,
                   character_gap, conj_subsystem_rep, coxeter_rep,
                   default_catalogue, direct_sum, exterior_cox_rep,
                   half_subset_split_reps, perm_roots_rep, search_gap,
                   sign_rep, tensor, trivial_rep)
from .verify import run_acceptance

__version__ = "0.1.0"
