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
vertex's values do not depend on the size of its grid: numpy does that
from 256 kB, and a 2,048-row block keeps every float temporary under it
(a complex column is 32 kB, the flattened 9-column CSV table 147 kB).

Exports are plain ASCII with LF line endings and floats printed in their
shortest round-trip form, the text repr gives, so identical inputs give
byte-identical files.  One kernel writes every block, of floats or of
face indices: one orjson call, then vectorized edits of its bytes where
its text differs from repr's, nan and +-inf included.  The bytes go to a
file opened in binary mode as they are, never decoded to str.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .geometry import conformal_fields, immersion_point
from .henneberg import FamilyMember
from .output import open_output
from .weierstrass import AXES, is_regular

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

CSV_FIELDS = ("u", "v", "x", "y", "z", "w", "E", "K", "regular")
# An input guard only: a grid holds its regular flags and, once its faces
# are read, a mask of its kept cells (1 byte per vertex each); everything
# else is evaluated and written a block at a time.  In a fresh process on a
# 2-core x86 host (Python 3.11, numpy 2.4), a 1000 x 1000 `mesh` of (1,3,1+i)
# peaks at 34.5-34.7 MB RSS as CSV and 34.1-34.3 MB as OBJ (291 and 276 MB
# when whole columns were held), +4.3-4.9 MB over importing the CLI and
# orjson.  Export traces 1.63-1.70 MB (CSV) and 0.51-0.86 MB (OBJ/PLY) at
# 40,000 and 400,000 vertices.
MAX_VERTICES = 1_000_000
_CHUNK_ROWS = 2048
_NULL_TEXTS = np.frombuffer(b"\0\0\0\0inf\0-inf", np.uint8).reshape(3, 4)  # nan, inf, -inf


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


def format_column(values) -> list[str]:
    """Shortest decimals that round-trip, as repr prints them; integral
    values lose the '.0', -0.0 prints as 0 and NaN marks an empty field.

    Raises ValueError unless values is one column (1-D)."""
    column = np.asarray(values, dtype=float)
    if column.ndim != 1:
        raise ValueError(f"format_column takes a 1-D column, not shape {column.shape}")
    return str(_block_text(column[:, None], "", " "), "ascii").split("\n")[:-1]


def _block_text(table, prefix: str, sep: str) -> memoryview:
    """The ASCII lines of a (rows, k) table, each prefix plus one row joined
    by sep (one character): floats as format_column prints them, integers as
    str does.  One orjson call writes the flattened table with repr's
    digits.  Where its text differs, its bytes are edited in place (a NUL
    marks one to drop): 1.0 for 1, 3.3e-7 for 3.3e-07 (1e-9 <= |x| < 1e-5),
    0.000055 for 5.5e-05 (1e-5 <= |x| < 1e-4), 1e16 for 1e+16 (finite
    |x| >= 1e16), and null for nan's empty field, inf and -inf.

    The lines are returned as a memoryview of their bytes, never decoded,
    sliced or re-encoded.  The masks are read from |x| before the text
    exists, and each array is dropped before the next copy of the text is
    made, so a block holds at most two copies of its text at once."""
    # Imported here, not at module top: its import (6-9 ms and 0.7 MB RSS on
    # a 2-core x86 host, Python 3.11) would otherwise be paid by every command.
    import orjson

    table = np.asarray(table)
    if not table.size:
        return memoryview(b"")
    flat = table.ravel()
    floats = flat.dtype.kind != "i"
    if floats:
        flat = flat + 0.0  # a float copy, with -0.0 as 0.0
        size = np.abs(flat)
        big = (size >= 1e16) & (size < math.inf)
        grown = big | (size >= 1e-9) & (size < 1e-5)
        shift = 1 + big[grown] + (size[grown] >= 1e100)
        integral = (flat == np.floor(flat)) & (size < 1e16)
        fixed = ((size >= 1e-5) & (size < 1e-4)).nonzero()[0]
        null = (~(size < math.inf)).nonzero()[0]
        del size
    raw = np.frombuffer(orjson.dumps(flat, option=orjson.OPT_SERIALIZE_NUMPY), np.uint8).copy()
    raw[0] = raw[-1] = ord(",")  # in place of the brackets: a ',' before and after each cell
    commas = (raw == ord(",")).nonzero()[0]
    ends = commas[1:]  # a view, so shifting ends below shifts commas too
    if floats:
        if shift.size:  # e-7 -> e-07 before the last digit; e16 -> e+16 after the 'e'
            raw = np.insert(raw, ends[grown] - shift, np.where(big[grown], ord("+"), ord("0")))
            ends += np.cumsum(grown)
        dot = ends[integral]  # integral: drop the '.0'
        raw[dot - 1] = raw[dot - 2] = 0
        if fixed.size:  # [-]0.0000ddd -> [-]d.dde-05
            start, end = commas[fixed] + 1 + (flat[fixed] < 0), ends[fixed]
            lead, width = raw[start + 6], end - start - 7
            mid = np.repeat(start + 2 + width - np.cumsum(width), width) + np.arange(width.sum())
            raw[mid] = raw[mid + 5]
            raw[start], raw[start + 1] = lead, np.where(width > 0, ord("."), 0)
            raw[end[:, None] + np.arange(-5, 0)] = np.frombuffer(b"e-05\0", np.uint8)
        if null.size:  # each 'null' becomes nan's empty field, inf or -inf
            kind = np.isinf(flat[null]) * (1 + (flat[null] < 0))
            raw[commas[null, None] + 1 + np.arange(4)] = _NULL_TEXTS[kind]
    raw[ends] = ord(sep)
    raw[ends[table.shape[1] - 1::table.shape[1]]] = raw[0] = ord("\n")
    del table, flat, commas, ends
    text = raw.tobytes()
    del raw
    # drop the NULs (only float edits write them), then prefix each row
    # (bytes' replace ran 10x faster than str's)
    if floats:
        text = text.replace(b"\0", b"")
    if prefix:
        text = text.replace(b"\n", b"\n" + prefix.encode())
    return memoryview(text)[1:len(text) - len(prefix)]


def _write_rows(fh, count, block, prefix: str = "", sep: str = " ") -> None:
    """Write count rows to a binary file as the kernel's bytes, _CHUNK_ROWS
    at a time: block(rows) gives the k columns of a slice of rows (a list
    or a (k, rows) array, maybe empty), each line prefix plus one row
    joined by sep."""
    for rows in _blocks(0, count):
        fh.write(_block_text(np.stack(block(rows), axis=1), prefix, sep))


def _triangles(mesh: QuadMesh4D, rows: slice) -> np.ndarray:
    """(3, t) corners of the triangles of the kept quads whose first corner
    lies in a slice of rows: quad (a, b, c, d) -> (a, b, c), (a, c, d)."""
    return mesh.kept_quads(rows)[:, [0, 1, 2, 0, 2, 3]].reshape(-1, 3).T


def export_obj(mesh: QuadMesh4D, path, axes: str = "xyz") -> None:
    """ASCII OBJ of the grid projected to three axes (any case, checked
    before the file is opened): 'v x y z' lines, then 1-based 'f i j k'
    triangles of the kept quads."""
    axes = projection_columns(axes)
    with open_output(path) as fh:
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
    with open_output(path) as fh:
        fh.write(("\n".join(header) + "\n").encode("ascii"))
        _write_rows(fh, mesh.grid.size, lambda rows: mesh.columns(rows, axes))
        _write_rows(fh, mesh.grid.size, lambda rows: _triangles(mesh, rows), "3 ")


def export_csv(mesh: QuadMesh4D, path, fields=CSV_FIELDS) -> None:
    """Vertex table of the named CSV_FIELDS; K is empty at non-regular
    vertices.  Only the named columns are evaluated."""
    if not fields or not set(fields) <= set(CSV_FIELDS):
        raise ValueError(f"CSV fields must name one or more of {', '.join(CSV_FIELDS)}")
    with open_output(path) as fh:
        fh.write((",".join(fields) + "\n").encode("ascii"))
        _write_rows(fh, mesh.grid.size, lambda rows: mesh.columns(rows, fields), sep=",")


def export(mesh, fmt: str, path, **options) -> None:
    """Dispatch on format; options go to the writer (obj and ply take
    axes, csv takes fields)."""
    writers = {"obj": export_obj, "ply": export_ply, "csv": export_csv}
    if fmt.lower() not in writers:
        raise ValueError(f"unsupported format {fmt!r}")
    writers[fmt.lower()](mesh, path, **options)
