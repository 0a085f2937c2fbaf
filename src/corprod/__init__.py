"""corprod: desk-scale algebra of corestricted free products.

Finite groups by Cayley table, finite abelian groups with exact duality,
brute-force group cohomology, finitely described families over one-point
compactified index sets, and the structure formulas for their free
products, each backed by an independent verification oracle.
"""

from .abelian import (
    AbHom,
    AbSubgroup,
    DualPairing,
    FiniteAbelianGroup,
    annihilator,
    dual_group,
    hom_group,
    smith_normal_form,
    sub_and_quotient,
)
from .cohomology import (
    CohomologyGroup,
    GModule,
    coinduced_module,
    dimension_shift_check,
    fixed_submodule,
    inflation,
    module_from_generator_matrices,
    resolution_cohomology,
    restriction,
    shifted_cohomology,
    trivial_module,
    unramified_subgroup,
)
from .errors import (
    CorprodError,
    InvariantViolation,
    NotASubgroup,
    NotNormal,
    PreconditionError,
    SizeCapExceeded,
    SpecFileError,
    VerificationFailure,
)
from .families import (
    FamilyMorphism,
    FamilySpec,
    FiberSpec,
    RestrictedAbFamily,
    Tower,
    abelianize_family,
    check_tower,
    family,
    identity_morphism,
    morphism_predicates,
    normal_closure_family,
    quotient_family,
    quotient_family_morphism,
    truncate,
    validate_family,
)
from .formulas import (
    FamilyModule,
    FourTermSequence,
    abelianization_formula,
    check_exactness,
    corestriction_compare,
    cross_check_h1_vs_ab,
    dualize_family,
    four_term_sequence,
    h_formula,
    high_degree_formula,
    oracle_h1,
    splitting_check,
    summarize_family,
    truncation_colimit,
)
from .groups import (
    FiniteGroup,
    GroupHom,
    Subgroup,
    abelianization,
    cyclic_group,
    dihedral_group,
    direct_product,
    group_from_generators,
    group_from_table,
    heisenberg_group,
    normal_closure,
    quaternion_group,
    quotient_group,
    subgroup_from_generators,
    symmetric_group,
)
from .topology import (
    OpenSetSpec,
    intersect_specs,
    is_open,
    open_map_certificate,
    preimage_spec,
    union_specs,
)

__version__ = "0.1.0"
