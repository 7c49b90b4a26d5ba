"""Kernels and images of Steenrod squares acting on monomial modules over F_2."""

from .modules import (
    Bidegree,
    Element,
    ModuleKind,
    basis,
    binom_mod2,
    concat_product,
    element_from_json,
    element_to_json,
    gen_binom_mod2,
    project_to_orbit,
    sq,
    sq_single,
    windowed_basis,
)
from .homotopy import HomotopySystem, in_null, preimage_chain, shift, verify_commutation, verify_homotopy
from .hit import (
    DeltaReport,
    build_delta1_element,
    check_delta1_structure,
    check_sq1_relations,
    check_sq2_relations,
    counterexample_suite,
    decompose_first_factor,
    delta_basis,
    i1_membership,
    ker_vs_im_explorer,
    spike_image_basis,
    sq2_kernel_witness,
    sq_matrix,
    unhit_report,
    unhit_witness_5_9,
)

__all__ = [name for name in dir() if not name.startswith("_")]
