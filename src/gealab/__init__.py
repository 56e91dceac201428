"""gealab: generalized effect algebras of positive bilinear forms.

Exact integer instances, a catalog of positive forms on two desk-scale
Hilbert-space models, family algebras with partial sums, monotone-chain
completeness experiments, and a deterministic CLI.
"""

from .chains import (
    ChainReport,
    FormChain,
    chain_by_name,
    cf_prec_sup,
    check_monotone,
    filling_energy_chain,
    join_in_family,
    join_obstruction_vf,
    meet_in_family,
    pointwise_limit,
    shrinking_bounded_chain,
    sigma_report,
    surplus_energy_chain,
    truncated_diag_chain,
    vanishing_energy_chain,
)
from .errors import GealabError
from .families import (
    FAMILIES,
    FormsGEA,
    closure_violations,
    gea_by_name,
    in_family,
    le_family,
    le_oplus,
    ominus_forms,
    oplus,
    oplus_bar,
    oplus_family,
    preceq,
    regular_sum_demo,
    sample_form,
)
from .forms import (
    FormAtom,
    FormSpec,
    associated_operator,
    bounded_matrix_form,
    catalog_forms,
    classify_boundedness,
    describe,
    diag_form,
    endpoint_form,
    energy_form,
    energy_with_endpoints,
    evaluate,
    extend_bounded,
    form_add,
    form_from_json,
    form_scale,
    form_to_json,
    hamel_form,
    is_bounded,
    is_closed,
    is_regular,
    is_singular,
    make_form,
    matrix_at,
    numerical_range_bounds,
    quadratic,
    reg_sing_split,
    singular_atoms,
    riesz_operator_of_bounded,
    singularity_witness,
    zero_form,
)
from .instances import (
    ConeGEA,
    EvenGapGEA,
    IntervalEA,
    NatGEA,
    instance_by_name,
    make_half_open,
    make_interval_ea,
    restricted_order_demo,
)
from .kernel import (
    AxiomReport,
    PartialAlgebra,
    brute_join,
    brute_meet,
    check_axioms,
    derived_le,
    is_sub_gea,
    join_via_complement_meet,
    meet_via_complement_join,
    ominus,
    replay,
    restrict,
)

__version__ = "0.1.0"
