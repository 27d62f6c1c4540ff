"""Polar-grid sampling of the immersions and mesh/table export.

Grids are polar because the family's branch loci and ends are circles
around the puncture.  Vertices at a branch point (weierstrass.is_regular)
are kept but flagged non-regular; faces never reference a flagged
vertex, and the curvature field is simply left empty there.

A sampled grid keeps its member and sample points; each column (one row
per vertex) is computed in one vectorized pass the first time it is read,
so an export computes only the columns it writes.  The exporters format
and write _CHUNK_ROWS rows at a time, so only one block's text is alive at
once, never the whole file.

Exports are plain ASCII with LF line endings and floats printed in their
shortest round-trip form, the text repr gives, so identical inputs give
byte-identical files.  orjson writes each block's digits in one call, and
repr only the few values it would print differently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .geometry import conformal_fields, immersion_point
from .henneberg import FamilyMember
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
    "format_column",
]

AXES = "xyzw"
CSV_FIELDS = ("u", "v", "x", "y", "z", "w", "E", "K", "regular")
# A grid's columns are computed in one pass over whole arrays, so its size
# is capped.  A CSV export with E and K peaks at about 0.26 kB per vertex
# (+26.3 MB RSS at 100,000 vertices), about 260 MB at the cap; the positions
# alone, all an OBJ/PLY export computes, at about 0.25 kB (+24.8 MB).  Exports
# stream in blocks of _CHUNK_ROWS rows and add no memory per vertex: about
# 1.1-1.6 MB traced peak for CSV and 0.42 MB for OBJ/PLY, at 40,000 and
# 100,000 vertices alike.
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
    """A sampled grid, one row per vertex (radius-major).

    Built with the member, its (n,) complex sample points, the (n,) regular
    flags and quads (q, 4), the vertex indices of the kept cells.  The
    columns uv (n, 2) parameters, xyzw (n, 4) positions, E (n,) metric
    energy and K (n,) Gauss curvature (NaN exactly where the vertex is not
    regular) are computed on first read, E and K by one call.
    """

    member: FamilyMember
    points: np.ndarray
    regular: np.ndarray
    quads: np.ndarray

    @cached_property
    def uv(self) -> np.ndarray:
        return np.stack([self.points.real, self.points.imag], axis=1)

    @cached_property
    def xyzw(self) -> np.ndarray:
        return immersion_point(self.member.curve, self.points)

    @cached_property
    def _fields(self) -> tuple[np.ndarray, np.ndarray]:
        energy, curvature = conformal_fields(self.member.triple, self.points)
        return energy, np.where(self.regular, curvature, np.nan)

    @property
    def E(self) -> np.ndarray:
        return self._fields[0]

    @property
    def K(self) -> np.ndarray:
        return self._fields[1]

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


def sample_grid(member: FamilyMember, grid: PolarGrid) -> QuadMesh4D:
    """Sample the immersion over the polar grid.

    Flags come from weierstrass.is_regular, and a cell becomes a quad only
    when all four corners are regular.  Positions, E and the closed-form K
    are left to the mesh's first read of them (array evaluation of the
    curve and the Weierstrass data).
    """
    points = grid.points()
    regular = is_regular(member.triple, points)
    quads = grid.quads()
    return QuadMesh4D(member, points, regular, quads[regular[quads].all(axis=1)])


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


def _dumps(column: np.ndarray) -> str:
    """The numbers of a contiguous 1-D array, comma-separated, from one
    orjson call: floats in shortest round-trip form, integers as str
    prints them."""
    # Imported here, not at module top: only exports use it, and its import
    # (6-9 ms and 0.7 MB RSS on a 2-core x86 host, Python 3.11) would
    # otherwise be paid by every command, the ones that never export too.
    import orjson

    return orjson.dumps(column, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode("ascii")


def format_column(values) -> list[str]:
    """Shortest decimals that round-trip, as repr prints them; integral
    values lose the '.0', -0.0 prints as 0 and NaN marks an empty field.

    Raises ValueError unless values is one column (1-D)."""
    column = np.asarray(values, dtype=float) + 0.0
    if column.ndim != 1:
        raise ValueError(f"format_column takes a 1-D column, not shape {column.shape}")
    # orjson writes the digits repr writes, but in fixed form where repr
    # switches to an exponent (nonzero |x| < 1e-4, |x| >= 1e16), and 'null'
    # for nan and inf.  Those values are written by repr, and so is any
    # token orjson itself prints with an exponent.
    size = np.abs(column)
    by_repr = ~((size < 1e16) & ((size >= 1e-4) | (size == 0.0)))
    text = (_dumps(np.where(by_repr, 0.0, column)) + ",").replace(".0,", ",")[:-1]
    texts = text.split(",") if column.size else []
    picked = np.flatnonzero(by_repr).tolist()
    if "e" in text:
        picked += [i for i, t in enumerate(texts) if "e" in t]
    for i, value in zip(picked, column[picked].tolist()):
        token = repr(value)
        texts[i] = "" if token == "nan" else token[:-2] if token.endswith(".0") else token
    return texts


def _texts(column) -> list[str]:
    """One block of a column as text: floats by format_column, the regular
    flags as integers."""
    if column.dtype.kind == "f":
        return format_column(column)
    return _dumps(column.astype(np.int64)).split(",")


def _write_rows(fh, count, block, prefix: str = "", sep: str = " ") -> None:
    """Write count rows, _CHUNK_ROWS at a time: block(rows) gives the columns
    of a slice of rows, and each line is prefix plus one row joined by sep.

    An integer block (face indices, never negative) is written by one
    orjson call, with a -1 column marking where each line ends."""
    for start in range(0, count, _CHUNK_ROWS):
        columns = block(slice(start, start + _CHUNK_ROWS))
        if isinstance(columns, np.ndarray) and columns.dtype.kind == "i":
            rows = np.full((columns.shape[1], len(columns) + 1), -1, dtype=np.int64)
            rows[:, :-1] = columns.T
            text = _dumps(rows.ravel())[:-3].replace(",-1,", "\n" + prefix).replace(",", sep)
        else:
            text = ("\n" + prefix).join(map(sep.join, zip(*map(_texts, columns))))
        fh.writelines((prefix, text, "\n"))


def _mesh3d_parts(mesh, fmt: str):
    """Vertex rows and face rows of a projected mesh, checked before any write."""
    if not isinstance(mesh, Mesh3D):
        raise ValueError(f"{fmt} export needs a projected 3D mesh")
    faces = np.asarray(mesh.faces, dtype=np.int64)
    if faces.ndim != 2 or faces.shape[1] not in (3, 4):
        raise ValueError("only triangle and quad faces are supported")
    if faces.size and faces.min() < 0:
        raise ValueError("face indices must be non-negative")
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
    # Only the named columns are computed, all before the file is opened;
    # E and K first, since their evaluation needs the most temporary memory.
    if {"E", "K"} & set(fields):
        mesh.E
    named = {"u": lambda: mesh.points.real, "v": lambda: mesh.points.imag, "E": lambda: mesh.E,
             "K": lambda: mesh.K, "regular": lambda: mesh.regular}
    named.update((axis, lambda i=i: mesh.xyzw[:, i]) for i, axis in enumerate(AXES))
    columns = [named[name]() for name in fields]
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(",".join(fields) + "\n")
        _write_rows(fh, len(mesh.regular), lambda rows: [c[rows] for c in columns], sep=",")


def export(mesh, fmt: str, path) -> None:
    """Dispatch on format: obj and ply take 3D meshes, csv the 4D mesh."""
    writers = {"obj": export_obj, "ply": export_ply, "csv": export_csv}
    if fmt.lower() not in writers:
        raise ValueError(f"unsupported format {fmt!r}")
    writers[fmt.lower()](mesh, path)

