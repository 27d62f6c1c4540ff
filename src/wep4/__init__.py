"""Closed-form Henneberg-type minimal surfaces in R4.

Exact Laurent algebra drives the whole pipeline: Weierstrass data build a
null holomorphic 1-form, the form integrates termwise to the complex curve
whose real part is the surface, and the geometry, meshes, and audits all
read off those closed forms.
"""

from .laurent import (
    IDENTITY,
    ONE,
    ZERO,
    LaurentDomainError,
    LaurentPoly,
    NonIntegrableTermError,
)
from .weierstrass import (
    PhiForm,
    WeierstrassTriple,
    conformal_factor,
    nullity_defect,
    nullity_residual,
    phi_from_triple,
)
from .henneberg import (
    DegenerateParameterError,
    FamilyParams,
    MinimalCurve,
    classic_henneberg_curve,
    classic_henneberg_phi,
    family_curve,
    family_phi,
    family_triple,
    fixed_gh_curve,
    integral_free_point,
    recover_seed,
    seed_phi,
)
from .geometry import (
    FrameScalars,
    NormalFrame,
    SurfaceJet,
    closed_form_normals,
    curvature_denominator_check,
    frame_scalars,
    gauss_curvature,
    harmonicity_residual,
    immersion_point,
    normal_frame,
    perp_vectors,
    surface_jet,
)
from .fixtures import Fixture, fidelity_report, fixture, fixture_eval, fixtures_for
from .mesh import Mesh3D, PolarGrid, QuadMesh4D, Vertex, export, load_obj, project, sample_grid

__version__ = "0.1.0"
