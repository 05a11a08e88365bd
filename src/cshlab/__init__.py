"""Numerical laboratory for Chern-Simons Higgs equations on finite graphs.

Solve, exhaustively enumerate, and topologically classify the solutions of

    L u = lam * e^u (e^u - sigma)^(2p-1) + f

and of its two-component generalization on weighted finite connected graphs:
Brouwer degree by orientation-sign counting, Morse indices and critical-group
ranks at every root, explicit a priori solution bounds, and parameter
continuation in the coupling and the deformation parameter.
"""

from .errors import ConfigError, GraphError, OverflowGuardError, SolverError
from .graphs import (
    SpectralData,
    WeightedGraph,
    as_vertex_function,
    average,
    build_graph,
    complete_graph,
    cycle_graph,
    dirac_source,
    dirichlet_energy_constant,
    grad_form,
    grad_norm_sq,
    graph_from_dict,
    graph_to_dict,
    integrate,
    laplacian,
    load_graph,
    path_graph,
    random_connected_graph,
    save_graph,
    solve_poisson,
    spectral_gap,
    sup_norm,
)
from .scalar import (
    AprioriData,
    GaugeData,
    ScalarModel,
    apriori_radius,
    constant_solutions,
    energy,
    gauge_transform,
    gauged_energy,
    jacobian,
    residual,
)
from .system import (
    SystemBound,
    SystemModel,
    apriori_bound_system,
    functional_G,
    hessian_system,
    jacobian_system,
    residual_pair,
)
from .solve import (
    ClassifiedSolution,
    EnumerationReport,
    MorseData,
    SolveOptions,
    SubsolutionBounds,
    enumerate_report,
    morse_data,
    solve_scalar,
    solve_system,
    subsolution_bounds,
)
from .degree import (
    DegreeReport,
    HomotopyAudit,
    MultiplicityAudit,
    degree_by_enumeration,
    expected_degree_scalar,
    homotopy_audit,
    multiplicity_audit,
)
from .continuation import (
    BranchRecord,
    ThresholdEstimate,
    estimate_threshold,
    sigma_homotopy,
    sweep_lambda,
)

__version__ = "0.1.0"
