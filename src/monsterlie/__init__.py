"""Exact-arithmetic toolkit around the Monster Lie algebra: q-series of the
modular invariant and primary-vector dimensions, McKay-Thompson replication
recursions with trivial-multiplicity reports, and a rank-2 lattice vertex
algebra engine that verifies the gl2 subalgebra relations symbolically."""

from .dataset import (
    ClassRecord,
    Dataset,
    DatasetError,
    load_dataset,
    save_dataset,
    trivial_dataset,
    validate_dataset,
)
from .gl2 import (
    FormalNaturalVector,
    Gl2Generators,
    MElement,
    UnsupportedBracketError,
    bracket,
    cartan_entry,
    make_gl2,
    normalize_partner,
    primality_of_representatives,
    primary_pair,
    vacuum_vector,
    verify_relations,
)
from .lattice import (
    FockState,
    HatLatticeElement,
    conformal_vector,
    hat_inverse,
    hat_multiply,
    heisenberg_apply,
    is_primary,
    pairing,
    schur_apply,
    section,
    vertex_iota_coeff,
    virasoro_apply,
    weight_of,
)
from .qseries import (
    IntegralityError,
    QSeries,
    euler_product,
    eta_quotient,
    j_series,
    mckay_thompson,
    primary_dim_series,
)
from .replication import (
    CoefficientTable,
    multiplicity,
    nontriviality_report,
    replicate_extend,
)

__version__ = "0.1.0"
