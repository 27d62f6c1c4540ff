"""Polar-grid sampling of the immersions and mesh/table export.

Grids are polar because the family's branch loci and ends are circles
around the puncture.  Vertices at a branch point (weierstrass.is_regular)
are kept but flagged non-regular; faces never reference a flagged
vertex, and the curvature field is simply left empty there.

A grid is sampled in one vectorized pass and stored as columns (one row
per vertex); the exporters format and write _CHUNK_ROWS rows at a time, so
only one block's text is alive at once, never the whole file.

Exports are plain ASCII with LF line endings and floats printed in their
shortest round-trip form, so identical inputs give byte-identical files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .geometry import conformal_fields
from .henneberg import FamilyParams, family_curve, family_triple
from .weierstrass import is_regular

__all__ = [
    "PolarGrid",
    "Vertex",
    "QuadMesh4D",
    "Mesh3D",
    "AXES",
    "CSV_FIELDS",
    "MAX_VERTICES",
    "sample_grid",
    "project",
    "projection_columns",
    "export",
    "export_obj",
    "export_ply",
    "export_csv",
    "load_obj",
    "format_column",
]

AXES = "xyzw"
CSV_FIELDS = ("u", "v", "x", "y", "z", "w", "E", "K", "regular")
# A grid is sampled in one pass over whole arrays, so its size is capped.
# Sampling peaks at about 0.33 kB per vertex (+32.6 MB RSS at 100,000
# vertices), about 330 MB at the cap.  Exports stream in blocks of
# _CHUNK_ROWS rows and add no memory per vertex: about 1.3 MB traced peak
# for CSV and 0.8 MB for OBJ/PLY at any size.
MAX_VERTICES = 1_000_000
_CHUNK_ROWS = 1024


@dataclass(frozen=True)
class PolarGrid:
    """Sampling annulus r in [r_min, r_max], theta around the circle.

    theta_closed wraps faces across the seam without duplicating vertices;
    an open grid spans [0, 2 pi] inclusively with a duplicated seam column.
    """

    r_min: float
    r_max: float
    n_r: int
    n_theta: int
    theta_closed: bool = True

    def __post_init__(self):
        if not (0.0 < self.r_min < self.r_max < math.inf):
            raise ValueError("need 0 < r_min < r_max < inf (the puncture is excluded)")
        if self.n_r < 2 or self.n_theta < 2:
            raise ValueError("need at least 2 samples per direction")
        if self.n_r * self.n_theta > MAX_VERTICES:
            raise ValueError(f"grid of {self.n_r} x {self.n_theta} vertices exceeds "
                             f"the cap of {MAX_VERTICES:,}")

    def points(self) -> np.ndarray:
        """All n_r * n_theta sample points, radius-major."""
        if self.theta_closed:
            angles = np.arange(self.n_theta) * (2.0 * math.pi / self.n_theta)
        else:
            angles = np.linspace(0.0, 2.0 * math.pi, self.n_theta)
        unit = np.array([complex(math.cos(t), math.sin(t)) for t in angles.tolist()])
        return (np.linspace(self.r_min, self.r_max, self.n_r)[:, None] * unit).ravel()

    def quads(self) -> np.ndarray:
        """(cells, 4) corner indices of every grid cell, radius-major."""
        n_t = self.n_theta
        j = np.arange(n_t if self.theta_closed else n_t - 1)
        jn = (j + 1) % n_t
        i = np.arange(self.n_r - 1)[:, None] * n_t
        corners = (i + j, i + n_t + j, i + n_t + jn, i + jn)
        return np.stack(corners, axis=-1).reshape(-1, 4)


@dataclass(frozen=True)
class Vertex:
    """One sample: parameters, position, metric energy, curvature, regularity."""

    u: float
    v: float
    x: float
    y: float
    z: float
    w: float
    energy: float
    curvature: float | None
    regular: bool


@dataclass(frozen=True, eq=False)
class QuadMesh4D:
    """A sampled grid as columns, one row per vertex (radius-major).

    uv (n, 2) parameters, xyzw (n, 4) positions, E (n,) metric energy,
    K (n,) Gauss curvature (NaN exactly where the vertex is not regular),
    regular (n,) flags, and quads (q, 4) vertex indices of the kept cells.
    """

    uv: np.ndarray
    xyzw: np.ndarray
    E: np.ndarray
    K: np.ndarray
    regular: np.ndarray
    quads: np.ndarray

    @cached_property
    def vertices(self) -> tuple[Vertex, ...]:
        """The columns as Vertex records, built on first use."""
        rows = zip(self.uv.tolist(), self.xyzw.tolist(), self.E.tolist(),
                   self.K.tolist(), self.regular.tolist())
        return tuple(Vertex(u, v, x, y, z, w, e, k if reg else None, reg)
                     for (u, v), (x, y, z, w), e, k, reg in rows)


@dataclass(frozen=True, eq=False)
class Mesh3D:
    """Projected mesh: (n, 3) vertex positions plus faces of 3 or 4 corners."""

    vertices: np.ndarray
    faces: np.ndarray


def sample_grid(params: FamilyParams, grid: PolarGrid) -> QuadMesh4D:
    """Sample the immersion over the polar grid in one vectorized pass.

    Positions, E and the closed-form K come from array evaluation of the
    curve and the Weierstrass data, flags from weierstrass.is_regular; a
    cell becomes a quad only when all four corners are regular.
    """
    triple = family_triple(params)
    curve = family_curve(params)
    w = grid.points()
    xyzw = np.stack([part(w).real for part in curve.parts], axis=1)
    energy, curvature = conformal_fields(triple, w)
    regular = is_regular(triple, w)
    quads = grid.quads()
    return QuadMesh4D(
        uv=np.stack([w.real, w.imag], axis=1), xyzw=xyzw, E=energy,
        K=np.where(regular, curvature, np.nan), regular=regular,
        quads=quads[regular[quads].all(axis=1)],
    )


def projection_columns(axes: str) -> list[int]:
    """Column indices of three distinct axes named from AXES (any case)."""
    axes = axes.lower()
    if len(axes) != 3 or len(set(axes)) != 3 or any(a not in AXES for a in axes):
        raise ValueError(f"projection must name three distinct axes from {AXES!r}")
    return [AXES.index(a) for a in axes]


def project(mesh: QuadMesh4D, axes: str) -> Mesh3D:
    """Keep three of the four coordinate axes; faces are untouched."""
    columns = projection_columns(axes)
    return Mesh3D(vertices=mesh.xyzw[:, columns], faces=mesh.quads)


def format_column(values) -> list[str]:
    """Shortest decimals that round-trip; integral values lose the '.0',
    -0.0 prints as 0 and NaN marks an empty field."""
    texts = map(repr, (np.asarray(values, dtype=float) + 0.0).tolist())
    return ["" if t == "nan" else t[:-2] if t.endswith(".0") else t for t in texts]


def _texts(column) -> list[str]:
    """One block of a column as text: floats by format_column, flags and
    face indices as integers."""
    if column.dtype.kind == "f":
        return format_column(column)
    return list(map(str, column.astype(np.int64).tolist()))


def _write_rows(fh, count, block, prefix: str = "", sep: str = " ") -> None:
    """Write count rows, _CHUNK_ROWS at a time: block(rows) gives the columns
    of a slice of rows, and each line is prefix plus one row joined by sep."""
    for start in range(0, count, _CHUNK_ROWS):
        lines = map(sep.join, zip(*map(_texts, block(slice(start, start + _CHUNK_ROWS)))))
        fh.writelines((prefix, ("\n" + prefix).join(lines), "\n"))


def _mesh3d_parts(mesh, fmt: str):
    """Vertex rows and face rows of a projected mesh, checked before any write."""
    if not isinstance(mesh, Mesh3D):
        raise ValueError(f"{fmt} export needs a projected 3D mesh")
    faces = np.asarray(mesh.faces, dtype=np.int64)
    if faces.ndim != 2 or faces.shape[1] not in (3, 4):
        raise ValueError("only triangle and quad faces are supported")
    return np.asarray(mesh.vertices, dtype=float).reshape(-1, 3), faces


def _triangles(faces: np.ndarray) -> np.ndarray:
    # quad (a, b, c, d) -> triangles (a, b, c), (a, c, d)
    return faces if faces.shape[1] == 3 else faces[:, [0, 1, 2, 0, 2, 3]].reshape(-1, 3)


def export_obj(mesh: Mesh3D, path) -> None:
    """ASCII OBJ: 'v x y z' lines, then 1-based 'f i j k' triangles."""
    vertices, faces = _mesh3d_parts(mesh, "OBJ")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        _write_rows(fh, len(vertices), lambda rows: vertices[rows].T, "v ")
        _write_rows(fh, len(faces), lambda rows: _triangles(faces[rows]).T + 1, "f ")


def export_ply(mesh: Mesh3D, path) -> None:
    """ASCII PLY with float vertex properties and triangle faces."""
    vertices, faces = _mesh3d_parts(mesh, "PLY")
    header = [
        "ply",
        "format ascii 1.0",
        f"element vertex {len(vertices)}",
        "property float x",
        "property float y",
        "property float z",
        f"element face {len(faces) * (faces.shape[1] - 2)}",
        "property list uchar int vertex_indices",
        "end_header",
    ]
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(header) + "\n")
        _write_rows(fh, len(vertices), lambda rows: vertices[rows].T)
        _write_rows(fh, len(faces), lambda rows: _triangles(faces[rows]).T, "3 ")


def export_csv(mesh: QuadMesh4D, path, fields=CSV_FIELDS) -> None:
    """Vertex table of the named CSV_FIELDS; K is empty at non-regular vertices."""
    if not isinstance(mesh, QuadMesh4D):
        raise ValueError("CSV export needs the full 4D mesh")
    named = {"u": mesh.uv[:, 0], "v": mesh.uv[:, 1], "E": mesh.E, "K": mesh.K,
             "regular": mesh.regular, **dict(zip(AXES, mesh.xyzw.T))}
    columns = [named[name] for name in fields]
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(",".join(fields) + "\n")
        _write_rows(fh, len(mesh.E), lambda rows: [c[rows] for c in columns], sep=",")


def export(mesh, fmt: str, path) -> None:
    """Dispatch on format: obj and ply take 3D meshes, csv the 4D mesh."""
    writers = {"obj": export_obj, "ply": export_ply, "csv": export_csv}
    if fmt.lower() not in writers:
        raise ValueError(f"unsupported format {fmt!r}")
    writers[fmt.lower()](mesh, path)


def load_obj(path) -> Mesh3D:
    """Minimal OBJ reader for the files this module writes."""
    vertices: list[list[float]] = []
    faces: list[list[int]] = []
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            parts = line.split()
            if not parts:
                continue
            if parts[0] == "v":
                vertices.append([float(p) for p in parts[1:4]])
            elif parts[0] == "f":
                faces.append([int(p) - 1 for p in parts[1:]])
    return Mesh3D(
        vertices=np.array(vertices, dtype=float).reshape(-1, 3),
        faces=np.array(faces, dtype=np.int64).reshape(len(faces), -1),
    )

