"""Exact arithmetic for parafermion fusion rings, their orbifold
subrings, rescaled root lattices with lifted isometries, code lattices
over the half-scaled ambient, and the nine-module extension algebra.

All computation is over int / Fraction; nothing here floats.
"""
from types import ModuleType as _ModuleType

from .fusion import (
    FusionVector,
    IrrLabel,
    TildeLabel,
    all_labels,
    canonical_label,
    conformal_weight,
    fuse,
    fuse_vectors,
    is_sigma_type,
    minimal_model_weight,
    sigma_type_index,
    simple_current,
    theta_dual,
    verify_weight_one_tops,
    verify_zk_grading,
)
from .orbifold import (
    OrbLabel,
    OrbifoldTable,
    derive_full_table,
    generator_fuse,
    orbifold_basis,
    orbifold_weight,
    sign_character,
    verify_collapse,
    verify_sigma_grading,
    verify_table,
)
from .lattices import (
    DiscriminantGroup,
    Isometry,
    Lattice,
    annihilator,
    coxeter_nu,
    discriminant_group,
    dual,
    dual_quotient_invariants,
    is_rssd,
    quotient_invariants,
    r_cap_p_dual_index,
    reflection,
    rescale,
    root_lattice,
    rssd_involution,
    shell,
    sqrt2_a,
    sublattice,
    tau_isometry,
    tensor,
    weyl_vector,
)
from .central import (
    F2BilinearForm,
    F2QuadraticForm,
    Lift,
    commuting_lift,
    compose,
    lift,
    lift_order,
    lift_power_sign,
    mu_plus_mu_g_solve,
    standard_epsilon,
    theta_lift,
)
from .codes import (
    Code,
    build_ee8_pair,
    build_lattice,
    builtin_code,
    classify_weight4,
    code_properties,
    codeword_weight,
    k_inner,
    k_quadratic,
    orbit_classification,
)
from .u5a import (
    PairLabel,
    b_pairing,
    induce,
    irr0_list,
    u_fuse,
    u_weight_dim,
    verify_induction_tables,
)

__all__ = [
    name
    for name in dir()
    if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)
]
__version__ = "1.0.0"
