"""Involution classes and mod-2 cohomological invariant bases of Weyl groups.

Everything is exact: root systems live in rational coordinates, group
elements are permutations of the root list, and the invariant module is
computed over the universal coefficient ring F2[t].

The exports are lazy (PEP 562): `import weylinv` runs none of the
submodules, and the first use of a name imports the submodule that defines
it and what that submodule imports, so `weylinv.group_order` loads roots and
weyl and nothing else of the package.
"""

_EXPORTS = {
    "roots": ("InternalError", "Root", "RootSystem", "SubsystemEmbedding",
              "TypeSpec", "build_root_system", "find_subsystem", "reflect"),
    "weyl": ("GroupElement", "StabChain", "compose", "coxeter_trace",
             "element_matrix", "enumerate_group", "group_order", "identity",
             "invert", "orbit_partition", "order_of", "reflection_element",
             "simple_reflections", "stab_chain", "subgroup_order"),
    "involutions": ("Cube", "CubeClass", "Involution", "InvolutionClass",
                    "ReductionReport", "classify_cubes", "classify_involutions",
                    "enumerate_cubes", "involution_count",
                    "involution_from_cube", "split_involution",
                    "verify_reduction"),
    "invariants": ("BasePoly", "BasisDescription", "CubeClassElement",
                   "InvariantExpr", "InvariantVector", "SeparationReport",
                   "canonical_basis", "character_multiplicities", "expand",
                   "pairing", "restrict_to_cube", "sw", "sw_separation_report",
                   "top_coefficient", "total_class"),
    "reps": ("GapBudget", "GapFindings", "Representation", "base_catalogue",
             "character_gap", "conj_subsystem_rep", "coxeter_rep",
             "default_catalogue", "direct_sum", "exterior_cox_rep",
             "half_subset_split_reps", "perm_roots_rep", "search_gap",
             "sign_rep", "tensor", "trivial_rep"),
    "verify": ("run_acceptance",),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    from importlib import import_module

    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
