"""Finite-grid incidence laboratory.

Exact counting of binary and ternary relations over indexed universes,
K_{s,t} detection with the Kővári–Sós–Turán bound and a certified recursive
counter driven by verified cutting covers, the derived pair relation with
its d² fiber law and Cauchy–Schwarz count transfer, and scaling experiments
separating group-like from expanding ternary relations.
"""

from .cuttings import (
    CuttingCover,
    CuttingReport,
    box_grid_cutting,
    crosses,
    greedy_cutting,
    interval_cutting,
    verify_cutting,
)
from .dsl import GridSpec, RelationExpr, instantiate2, instantiate3, parse, parse_grid
from .errors import (
    BudgetError,
    CapacityError,
    ExpdError,
    InputError,
    ParameterError,
)
from .pipeline import (
    CauchySchwarzReport,
    CylindricalWitness,
    DeltaDegree,
    FamilySpec,
    RelationFamily,
    cauchy_schwarz_check,
    cylindrical_witness,
    delta_degree,
    derive_g,
    g_edge_count,
    make_family,
)
from .relations import (
    FiniteRelation2,
    FiniteRelation3,
    Subset,
    Universe,
    build_relation2,
    build_relation3,
    count_grid2,
    count_grid3,
    pair_universe,
    read_relation,
    write_relation,
)
from .reports import ExponentFit, ReportRow, emit_report, fit_loglog, run_scaling
from .zarankiewicz import (
    BoundCertificate,
    ExponentParams,
    KstWitness,
    NotKstFreeError,
    certified_count,
    distal_delta_bound,
    epsilon_sup,
    exponent_params,
    exponent_triple,
    find_kst,
    kst_bound,
)

__version__ = "0.1.0"
