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
    WeierstrassTriple,
    nullity_defect,
    nullity_residual,
    phi_from_triple,
)
from .henneberg import (
    DegenerateParameterError,
    FamilyMember,
    FamilyParams,
    classic_henneberg_curve,
    classic_henneberg_phi,
    family_member,
    family_triple,
    integral_free_point,
    recover_seed,
    seed_phi,
)
from .geometry import (
    FrameScalars,
    SurfaceJet,
    closed_form_normals,
    frame_scalars,
    immersion_point,
    perp_vectors,
    surface_jet,
)
from .fixtures import Fixture, fidelity_report, fixture_eval, fixtures_for
from .mesh import PolarGrid, QuadMesh4D, export, sample_grid

__version__ = "0.1.0"
