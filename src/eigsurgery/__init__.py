"""eigsurgery: spectral-geometry surgery on rasterized planar domains.

The package computes Dirichlet-Laplacian eigenvalues and torsion functions on
bitmap domains, checks the classical spectral inequalities that relate them
(Saint-Venant, Talenti, van den Berg, Berezin-Li-Yau, eigenvalue-ratio and
gamma-stability bounds), and implements two surgery pipelines that modify a
domain so that its low eigenvalues do not increase while measure is restored
to one and perimeter / directional diameter are driven below computable
thresholds.  A batch harness runs domain corpora deterministically and a CLI
(``eigsurgery``) exposes the whole pipeline.
"""

from eigsurgery.domain import (
    EmptyDomainError,
    GridDomain,
    Strip,
    connected_components,
    diam_e,
    diameter,
    from_mask,
    load_domain,
    measure,
    perimeter,
    remove_strips,
    replace_components_with_ball,
    rescale,
    save_domain,
)
from eigsurgery.harness import RunConfig, convergence_study, run_suite
from eigsurgery.inequalities import (
    IneqReport,
    check_berezin_li_yau,
    check_density_lemma,
    check_gamma_stability,
    check_positive_energy,
    check_ratio_bound,
    check_saint_venant,
    check_talenti,
    check_vdb,
    default_m_table,
)
from eigsurgery.pde import (
    Spectrum,
    TorsionField,
    ball_lambda1,
    eigenvalues,
    gamma_distance,
    solve_raster,
    solve_torsion,
    strip_max,
    torsion_energy,
)
from eigsurgery.surgery import (
    SurgeryConstants,
    SurgeryPlan,
    SurgeryReport,
    bounded_surgery,
    choose_c,
    choose_cut_constants,
    choose_strip_constants,
    derive_constants,
    strip_removal_test,
    strip_surgery,
    subsolution_truncate,
    verify_choicec,
)

__all__ = [
    "EmptyDomainError",
    "GridDomain",
    "IneqReport",
    "RunConfig",
    "Spectrum",
    "Strip",
    "SurgeryConstants",
    "SurgeryPlan",
    "SurgeryReport",
    "TorsionField",
    "ball_lambda1",
    "bounded_surgery",
    "check_berezin_li_yau",
    "check_density_lemma",
    "check_gamma_stability",
    "check_positive_energy",
    "check_ratio_bound",
    "check_saint_venant",
    "check_talenti",
    "check_vdb",
    "choose_c",
    "choose_cut_constants",
    "choose_strip_constants",
    "connected_components",
    "convergence_study",
    "default_m_table",
    "derive_constants",
    "diam_e",
    "diameter",
    "eigenvalues",
    "from_mask",
    "gamma_distance",
    "load_domain",
    "measure",
    "perimeter",
    "remove_strips",
    "replace_components_with_ball",
    "rescale",
    "run_suite",
    "save_domain",
    "solve_raster",
    "solve_torsion",
    "strip_max",
    "strip_removal_test",
    "strip_surgery",
    "subsolution_truncate",
    "torsion_energy",
    "verify_choicec",
]

__version__ = "0.1.0"
