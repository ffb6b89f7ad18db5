"""reglab: exact Tate cohomology, Brauer relations and regulator constants.

The package computes, in exact integer/rational arithmetic, the cohomological
invariants of finitely generated modules over finite group rings: Tate groups
in every degree (folded by periodicity where available), Herbrand quotients,
Brauer relations of a finite group, and regulator constants attached to a
relation, by two independent routes that are required to agree.
"""

from .arith import factorize, factorize_fraction, valuation, xgcd
from .errors import (
    ConsistencyError,
    InputError,
    ResourceLimitError,
    ValidationError,
)
from .exactla import (
    GroupHom,
    IntMatrix,
    Lattice,
    PresentedAbelianGroup,
    SmithForm,
    integer_kernel,
    preimage_lattice,
    qindex,
    saturate,
    smith_normal_form,
    subquotient_group,
)
from .groups import (
    CosetSpace,
    FiniteGroup,
    Subgroup,
    build_group,
    coset_space,
    enumerate_subgroups,
    subgroup_class_representatives,
)
from .brauer import (
    BrauerRelation,
    brauer_relation_lattice,
    dihedral_relation,
    is_brauer_relation,
    permutation_character_matrix,
    relation_from_vector,
    theta_kernel_product,
    theta_product,
)
from .cohomology import (
    TateGroup,
    herbrand,
    induced_hom,
    induced_kernel_order,
    rosen_valuation,
    tate,
)
from .gmodules import (
    FixedPointData,
    GModule,
    ModuleHom,
    compress,
    direct_sum,
    dual_module,
    equivariant_hom_basis,
    finite_dual,
    fixed_points,
    module_hom_lattice,
    norm_matrix,
    permutation_module,
    random_module,
    random_module_hom,
    restrict,
    tensor_product,
    torsion_decomposition,
    trivial_module,
    validate_module,
)
from .regulator import (
    BoundsReport,
    PhiMap,
    RegulatorConstant,
    bounds_report,
    build_phi,
    invariant_pairing,
    qindex_route,
    rc_pairing,
    rc_qindex,
    regulator_constant,
    verify_identity,
)
from .jsonio import (
    group_from_json,
    group_to_json,
    load_json_file,
    module_digest,
    module_from_json,
    module_to_json,
    relation_from_json,
    relation_to_json,
)
from .suites import SUITE_NAMES, run_suite

__version__ = "0.1.0"
