"""Polar-grid sampling of the immersions and mesh/table export.

Grids are polar because the family's branch loci and ends are circles
around the puncture.  Vertices at a branch point (weierstrass.is_regular)
are kept but flagged non-regular; faces never reference a flagged
vertex, and the curvature field is simply left empty there.

A sampled grid (QuadMesh4D) keeps its member, the grid and the regular
flags (1 byte per vertex), and is read through columns(rows, names) and
kept_quads(rows).  Every other column is evaluated from the sample points
_CHUNK_ROWS rows at a time.  OBJ and PLY take a sampled grid and three of
its four axes (the projection to R3); the exporters evaluate, format and
write one block before starting the next, so neither a float column nor
the text of the whole grid is ever held.  A block is too small for
numpy to reuse its temporaries in place, which rounds differently, so a
vertex's values do not depend on the size of its grid.

Exports are plain ASCII with LF line endings and floats printed in their
shortest round-trip form, the text repr gives, so identical inputs give
byte-identical files.  orjson writes each block's text in one call; the
tokens of 1e-9 <= |x| < 1e-4 are then given repr's exponent form, and
repr writes only nan, inf and |x| >= 1e16.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
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
    "AXES",
    "CSV_FIELDS",
    "MAX_VERTICES",
    "sample_grid",
    "projection_columns",
    "export",
    "export_obj",
    "export_ply",
    "export_csv",
    "format_column",
]

AXES = "xyzw"
CSV_FIELDS = ("u", "v", "x", "y", "z", "w", "E", "K", "regular")
# An input guard only: a grid holds its regular flags and, once its faces
# are read, a mask of its kept cells (1 byte per vertex each); everything
# else is evaluated and written a block at a time.  In a fresh process on a
# 2-core x86 host (Python 3.11, numpy 2.4), a 1000 x 1000 `mesh` of (1,3,1+i)
# peaks at 35 MB RSS as CSV and 33 MB as OBJ (291 and 276 MB when whole
# columns were held), +4.2 and +3.4 MB over a warmed-up import.  Export
# traces 1.2-1.6 MB (CSV) and 0.45-0.87 MB (OBJ/PLY) at 40,000 and 400,000
# vertices, evaluation included.
MAX_VERTICES = 1_000_000
_CHUNK_ROWS = 1024


def _blocks(start: int, stop: int):
    """Slices of at most _CHUNK_ROWS rows that cover rows start to stop."""
    return (slice(s, min(s + _CHUNK_ROWS, stop)) for s in range(start, stop, _CHUNK_ROWS))


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

    @property
    def size(self) -> int:
        return self.n_r * self.n_theta

    @cached_property
    def _rings(self) -> tuple[np.ndarray, np.ndarray]:
        """The radii and the unit vectors of the angles."""
        if self.theta_closed:
            angles = np.arange(self.n_theta) * (2.0 * math.pi / self.n_theta)
        else:
            angles = np.linspace(0.0, 2.0 * math.pi, self.n_theta)
        unit = np.array([complex(math.cos(t), math.sin(t)) for t in angles.tolist()])
        return np.linspace(self.r_min, self.r_max, self.n_r), unit

    def points(self, rows: slice = slice(None)) -> np.ndarray:
        """The sample points of a slice of vertex rows (all by default),
        radius-major."""
        radii, unit = self._rings
        ring, column = np.divmod(np.arange(*rows.indices(self.size)), self.n_theta)
        return radii[ring] * unit[column]


@dataclass(frozen=True)
class Vertex:
    """One sample, as QuadMesh4D.vertices lists it: parameters, position,
    metric energy, curvature (None where not regular), regularity."""

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

    Built with the member, the grid and the (n,) regular flags.  columns
    evaluates the named CSV_FIELDS of a slice of rows (K is NaN exactly
    where the vertex is not regular).  A cell is kept as a quad when all
    four corners are regular; a mask of 1 byte per vertex, built from the
    flags on first use, gives kept_quads of a slice of rows and quad_count.
    """

    member: FamilyMember
    grid: PolarGrid
    regular: np.ndarray

    def columns(self, rows: slice, names) -> list[np.ndarray]:
        """The named CSV_FIELDS columns of a slice of vertex rows, evaluated
        _CHUNK_ROWS rows at a time: only the named axes of the position, and
        E and K by one call only if either is named."""
        start, stop, _ = rows.indices(self.grid.size)
        blocks = [self._block(block, names) for block in _blocks(start, stop)]
        return [np.concatenate(column) for column in zip(*blocks)]

    def _block(self, rows: slice, names) -> list[np.ndarray]:
        points = self.grid.points(rows)
        named = {"u": points.real, "v": points.imag, "regular": self.regular[rows]}
        axes = [axis for axis in AXES if axis in names]
        if axes:
            positions = immersion_point(self.member.curve, points, map(AXES.index, axes))
            named.update(zip(axes, positions.T))
        if {"E", "K"} & set(names):
            named["E"], curvature = conformal_fields(self.member.triple, points)
            named["K"] = np.where(self.regular[rows], curvature, np.nan)
        return [named[name] for name in names]

    @cached_property
    def _kept(self) -> np.ndarray:
        """Per vertex, whether the cell it is the first corner of is kept
        (its four corners regular); False on the outer ring and, on an open
        grid, the seam column."""
        flags = self.regular.reshape(self.grid.n_r, self.grid.n_theta)
        kept = np.zeros_like(flags)
        np.logical_and(flags[:-1], flags[1:], out=kept[:-1])  # both ends of a radial edge
        kept[:-1] &= np.roll(kept[:-1], -1, axis=1)
        if not self.grid.theta_closed:
            kept[:, -1] = False
        return kept.ravel()

    def kept_quads(self, rows: slice) -> np.ndarray:
        """(q, 4) corner indices of the kept cells whose first corner lies
        in a slice of vertex rows, in grid order."""
        n_t = self.grid.n_theta
        first = np.flatnonzero(self._kept[rows]) + rows.indices(self.grid.size)[0]
        after = first - first % n_t + (first + 1) % n_t
        return np.stack((first, first + n_t, after + n_t, after), axis=-1)

    @cached_property
    def quad_count(self) -> int:
        return int(np.count_nonzero(self._kept))

    @cached_property
    def vertices(self) -> tuple[Vertex, ...]:
        """Every row as a Vertex record, from one columns read of the whole
        grid, built on first use."""
        columns = (column.tolist() for column in self.columns(slice(None), CSV_FIELDS))
        return tuple(Vertex(u, v, x, y, z, w, e, k if reg else None, reg)
                     for u, v, x, y, z, w, e, k, reg in zip(*columns))


def sample_grid(member: FamilyMember, grid: PolarGrid) -> QuadMesh4D:
    """Flag the grid's vertices by weierstrass.is_regular, a block of rows
    at a time.  Positions, E and the closed-form K are left to the mesh's
    columns (array evaluation of the curve and the Weierstrass data)."""
    regular = [is_regular(member.triple, grid.points(rows)) for rows in _blocks(0, grid.size)]
    return QuadMesh4D(member, grid, np.concatenate(regular))


def projection_columns(axes: str) -> str:
    """Three distinct axes named from AXES (any case), in lower case, as
    QuadMesh4D.columns names them."""
    axes = axes.lower()
    if len(axes) != 3 or len(set(axes)) != 3 or any(a not in AXES for a in axes):
        raise ValueError(f"projection must name three distinct axes from {AXES!r}")
    return axes


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
    # orjson writes the digits repr writes, and the same text except for
    # nan and inf ('null') and |x| >= 1e16 (1e16 for 1e+16), which repr
    # writes, and 1e-9 <= |x| < 1e-4, rewritten here: orjson drops the
    # exponent's leading zero (3.3e-7 for 3.3e-07) and, from 1e-5, writes
    # fixed form (0.000055 for 5.5e-05).
    size = np.abs(column)
    by_repr = ~(size < 1e16)
    text = (_dumps(np.where(by_repr, 0.0, column)) + ",").replace(".0,", ",")[:-1]
    texts = text.split(",") if column.size else []
    for i in np.flatnonzero((size >= 1e-9) & (size < 1e-4)).tolist():
        token = texts[i]
        if token[-2] == "-":
            texts[i] = token[:-1] + "0" + token[-1]
        elif "e" not in token:
            sign, _, digits = token.partition("0.0000")
            texts[i] = f"{sign}{digits[0]}.{digits[1:]}".rstrip(".") + "e-05"
    picked = np.flatnonzero(by_repr).tolist()
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
    of a slice of rows (a block may hold fewer rows, or none), and each line
    is prefix plus one row joined by sep.

    An integer block (face indices, never negative) is written by one
    orjson call, with a -1 column marking where each line ends."""
    for rows in _blocks(0, count):
        columns = block(rows)
        if not len(columns[0]):
            continue
        if isinstance(columns, np.ndarray) and columns.dtype.kind == "i":
            table = np.full((columns.shape[1], len(columns) + 1), -1, dtype=np.int64)
            table[:, :-1] = columns.T
            text = _dumps(table.ravel())[:-3].replace(",-1,", "\n" + prefix).replace(",", sep)
        else:
            text = ("\n" + prefix).join(map(sep.join, zip(*map(_texts, columns))))
        fh.writelines((prefix, text, "\n"))


@contextmanager
def _output(path):
    """The export file, open for writing.  If writing fails (a block that
    overflows, say), a file this call created is removed again."""
    created = not os.path.exists(path)
    fh = open(path, "w", encoding="ascii", newline="\n")
    try:
        with fh:
            yield fh
    except BaseException:
        if created:
            os.remove(path)
        raise


def _triangles(mesh: QuadMesh4D, rows: slice) -> np.ndarray:
    """(3, t) corners of the triangles of the kept quads whose first corner
    lies in a slice of rows: quad (a, b, c, d) -> (a, b, c), (a, c, d)."""
    return mesh.kept_quads(rows)[:, [0, 1, 2, 0, 2, 3]].reshape(-1, 3).T


def export_obj(mesh: QuadMesh4D, path, axes: str = "xyz") -> None:
    """ASCII OBJ of the grid projected to three axes (any case, checked
    before the file is opened): 'v x y z' lines, then 1-based 'f i j k'
    triangles of the kept quads."""
    axes = projection_columns(axes)
    with _output(path) as fh:
        _write_rows(fh, mesh.grid.size, lambda rows: mesh.columns(rows, axes), "v ")
        _write_rows(fh, mesh.grid.size, lambda rows: _triangles(mesh, rows) + 1, "f ")


def export_ply(mesh: QuadMesh4D, path, axes: str = "xyz") -> None:
    """ASCII PLY of the grid projected to three axes (any case, checked
    before the file is opened): float vertex properties and the kept quads'
    triangle faces."""
    axes = projection_columns(axes)
    header = [
        "ply",
        "format ascii 1.0",
        f"element vertex {mesh.grid.size}",
        "property float x",
        "property float y",
        "property float z",
        f"element face {2 * mesh.quad_count}",
        "property list uchar int vertex_indices",
        "end_header",
    ]
    with _output(path) as fh:
        fh.write("\n".join(header) + "\n")
        _write_rows(fh, mesh.grid.size, lambda rows: mesh.columns(rows, axes))
        _write_rows(fh, mesh.grid.size, lambda rows: _triangles(mesh, rows), "3 ")


def export_csv(mesh: QuadMesh4D, path, fields=CSV_FIELDS) -> None:
    """Vertex table of the named CSV_FIELDS; K is empty at non-regular
    vertices.  Only the named columns are evaluated."""
    if not fields or not set(fields) <= set(CSV_FIELDS):
        raise ValueError(f"CSV fields must name one or more of {', '.join(CSV_FIELDS)}")
    with _output(path) as fh:
        fh.write(",".join(fields) + "\n")
        _write_rows(fh, mesh.grid.size, lambda rows: mesh.columns(rows, fields), sep=",")


def export(mesh, fmt: str, path, **options) -> None:
    """Dispatch on format; options go to the writer (obj and ply take
    axes, csv takes fields)."""
    writers = {"obj": export_obj, "ply": export_ply, "csv": export_csv}
    if fmt.lower() not in writers:
        raise ValueError(f"unsupported format {fmt!r}")
    writers[fmt.lower()](mesh, path, **options)
