"""Closed-form Henneberg-type minimal surfaces in R4.

Exact Laurent algebra drives the whole pipeline: Weierstrass data build a
null holomorphic 1-form, the form integrates termwise to the complex curve
whose real part is the surface, and the geometry, meshes, and audits all
read off those closed forms.
"""

import importlib

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

# The modules that import numpy, and their names here, load on first use
# (PEP 562), so `import wep4` and the scalar commands load no numpy.
_LAZY = {
    "geometry": ("FrameScalars", "SurfaceJet", "closed_form_normals", "frame_scalars",
                 "immersion_point", "perp_vectors", "surface_jet"),
    "fixtures": ("Fixture", "fidelity_report", "fixture_eval", "fixtures_for"),
    "mesh": ("PolarGrid", "QuadMesh4D", "export", "sample_grid"),
}
_LAZY_NAMES = {name: module for module, names in _LAZY.items() for name in names}

__version__ = "0.1.0"


def __getattr__(name):
    module = name if name in _LAZY else _LAZY_NAMES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = importlib.import_module(f".{module}", __name__)
    return value if module == name else getattr(value, name)
