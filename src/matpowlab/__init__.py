"""Desk-scale workbench for matrix-power sums, additive energies, and cat maps."""

from .catmap import (
    CatMatrix,
    Observable,
    cat_unitary,
    delta_Nf,
    egorov_defect,
    eigenbasis,
    matrix_element_check,
    quantize,
    translation_op,
)
from .charsums import (
    analyze_instance,
    analyze_instances,
    evaluate_bounds,
    gauss_subgroup,
    kloosterman_subgroup,
    matrix_exp_sum,
    matrix_exp_sums,
    sum_moment,
)
from .counting import (
    count_JK,
    count_Q,
    count_product_eq,
    orbit_sum_distribution,
    sequence_energy,
    sumset_cover,
)
from .curves import (
    CurveSpec,
    count_points,
    cubic_factor_exclusion,
    extension_regime_bound,
    high_degree_bound,
)
from .ffield import (
    FFElem,
    FieldCtx,
    SubgroupSpec,
    make_field,
    mult_order,
    primitive_root,
    subgroup_of_order,
)
from .harness import (
    EXPERIMENT_NAMES,
    ExperimentConfig,
    build_instances,
    compute_instance,
    load_config,
    run_experiment,
)
from .matgrp import (
    MatEntity,
    VecEntity,
    char_poly_factor,
    det_order,
    is_diagonalizable,
    matrix_order,
    sl2_companion,
)

__version__ = "0.1.0"

__all__ = [
    "CatMatrix", "CurveSpec", "EXPERIMENT_NAMES", "ExperimentConfig", "FFElem",
    "FieldCtx", "MatEntity", "Observable", "SubgroupSpec", "VecEntity",
    "analyze_instance", "analyze_instances", "build_instances", "cat_unitary",
    "char_poly_factor", "compute_instance", "count_JK",
    "count_Q", "count_points", "count_product_eq",
    "cubic_factor_exclusion", "delta_Nf", "det_order", "egorov_defect",
    "eigenbasis", "evaluate_bounds", "extension_regime_bound", "gauss_subgroup",
    "high_degree_bound", "is_diagonalizable", "kloosterman_subgroup",
    "load_config", "make_field", "matrix_element_check", "matrix_exp_sum",
    "matrix_exp_sums", "matrix_order", "mult_order", "orbit_sum_distribution",
    "primitive_root", "quantize", "run_experiment", "sequence_energy",
    "sl2_companion", "subgroup_of_order", "sum_moment", "sumset_cover",
    "translation_op",
]
