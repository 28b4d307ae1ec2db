"""Extended affine Weyl group combinatorics and affine Deligne-Lusztig dimensions.

The package computes, in exact arithmetic, the reduction theory of twisted
conjugation on an extended affine Weyl group, class polynomials of the
associated affine Hecke algebra, and from these the emptiness pattern and
dimensions of affine Deligne-Lusztig varieties, together with Newton and
Kottwitz invariants, defects, and virtual dimensions.
"""

__version__ = "0.1.0"

from .errors import BudgetError, ConfigError, IntegrityError
from .roots import (
    FiniteWeylElt,
    RootDatum,
    build_root_datum,
    dominant_rep,
    min_coset_reps,
    weyl_act,
    weyl_group,
    zero_pairing_set,
)
from .elements import (
    AffineReflection,
    DiagramAut,
    ExtAffElt,
    bruhat_leq,
    demazure_product,
    double_coset_form,
    element_literal,
    elements_of_length,
    eta_delta,
    is_lowest_cell,
    omega_group,
    parse_element,
    reduced_word,
    simple_reflections,
    supp_delta,
    translation,
    from_weyl,
)
from .conjugacy import (
    ReductionTrace,
    SigmaClassDescriptor,
    class_key,
    class_info,
    enumerate_straight_classes,
    invariant_f,
    is_jw_alcove,
    is_minimal_in_class,
    is_straight,
    is_superstraight_class,
    kottwitz_class,
    min2_decompose,
    minimal_class_elements,
    newton_point,
    partial_reduce,
    raw_newton_point,
    reduce_to_minimal,
    same_conjugacy_class,
)
from .hecke import (
    ClassPolyEngine,
    ClassPolyTable,
    XiPoly,
    class_polynomials,
    hecke_mul,
    hecke_mul_basis,
    t_basis,
    verify_path_independence,
)
from .dimension import (
    EMPTY,
    BElement,
    DimProfile,
    DimReport,
    GhkrReport,
    defect_basic,
    dim_adlv,
    dim_grassmannian,
    format_q_poly,
    ghkr_check,
    grassmannian_closed_form,
    mazur_check,
    point_count_superbasic_a,
    virtual_dimension,
)

__all__ = [name for name in dir() if not name.startswith("_")]
