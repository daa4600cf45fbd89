"""Nonlinear connections and constrained geodesics of Finsler metrics.

The pipeline: parse a metric (``dsl``), differentiate it twice at a point
(``taylor``/``jet``), classify the degeneracy of the direction Hessian
(``degeneracy``), solve for the spray and connection coefficients
(``connection``), and integrate auto-parallel curves with multiplier
consistency (``autoparallel``).  ``catalog`` ships worked metrics with
independent oracles; ``verify`` runs the cross-cutting invariant suite;
``cli`` exposes everything on the command line.
"""

from .errors import (
    ConsistencyError,
    DegeneracyError,
    DomainError,
    FinslerError,
    HomogeneityError,
    InvalidStateError,
    ParseError,
)
from .taylor import Taylor2
from .dsl import (
    Expr,
    MetricSpec,
    evaluate,
    metric_from_json,
    metric_to_json,
    parse,
    parse_expression,
    pretty,
)
from .jet import (
    HomogeneityReport,
    Jet2,
    JetBatch,
    TangentPoint,
    check_homogeneity,
    compute_jet,
    compute_jets,
)
from .degeneracy import (
    DegeneracyBatch,
    DegeneracyData,
    RankDropReport,
    analyze,
    analyze_frozen,
    detect_rank_drop,
)
from .connection import (
    ConnectionData,
    CurvatureData,
    coefficients_N,
    curvature_torsion,
    solve_G,
)
from .autoparallel import (
    GaugeChoice,
    NodeDiagnostics,
    Trajectory,
    TransportResult,
    el_residual,
    integrate,
    parallel_transport,
    resolve_multipliers,
)
from .catalog import (
    CatalogEntry,
    catalog,
    catalog_entry,
    christoffel_oracle,
    frenkel_oracle,
    oscillator_oracle,
)

__version__ = "0.1.0"
