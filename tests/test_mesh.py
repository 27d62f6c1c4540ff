"""Grid sampling, masking, projection, and the export formats."""

import dataclasses
import hashlib
import io
import math
import random
import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from wep4 import mesh as mesh_module
from wep4.geometry import immersion_point, surface_jet
from wep4.henneberg import FamilyParams, family_member
from wep4.mesh import (
    _CHUNK_ROWS,
    _block_text,
    _write_rows,
    AXES,
    CSV_FIELDS,
    MAX_VERTICES,
    PolarGrid,
    QuadMesh4D,
    export,
    export_csv,
    export_obj,
    export_ply,
    format_column,
    sample_grid,
)
from wep4.weierstrass import is_regular


def load_obj(path) -> tuple[np.ndarray, np.ndarray]:
    """Minimal OBJ reader for the files export_obj writes: the reference
    that the export -> load round trips read back.  Returns the (n, 3)
    vertex positions and the (t, 3) 0-based triangle indices."""
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
    return (
        np.array(vertices, dtype=float).reshape(-1, 3),
        # a file without face lines (every cell masked) reads as zero triangles
        np.array(faces, dtype=np.int64).reshape(len(faces), -1 if faces else 3),
    )


def _whole(mesh, names) -> np.ndarray:
    """The named columns of every vertex row of a sampled grid, side by side."""
    return np.stack(mesh.columns(slice(None), names), axis=1)


def test_grid_validation():
    with pytest.raises(ValueError):
        PolarGrid(0.0, 1.0, 4, 4)
    with pytest.raises(ValueError):
        PolarGrid(1.0, 0.5, 4, 4)
    with pytest.raises(ValueError):
        PolarGrid(0.5, 1.0, 1, 4)


def test_grid_vertex_cap():
    side = int(MAX_VERTICES**0.5) + 1
    with pytest.raises(ValueError, match="cap"):
        PolarGrid(0.5, 2.0, side, side)
    PolarGrid(0.5, 2.0, 2, MAX_VERTICES // 2)  # at the cap is fine


LAM_GRID = (0, 1, 1 + 1j, 0.5 - 2j)
MN_GRID = ((1, 1), (1, 3), (3, 1), (3, 3), (3, 5))
README_MEMBERS = ((1, 1, 1 + 1j), (1, 3, 1 + 1j), (3, 5, 0.5 - 2j), (5, 7, 0.3j), (1, 1, 0))


def _assert_matches_scalar_path(params, grid, stride=1):
    """Array columns against per-vertex scalar (fsum) jets."""
    member = family_member(params)
    mesh = sample_grid(member, grid)
    points, xyzw, (energies,) = grid.points(), _whole(mesh, AXES), mesh.columns(slice(None), ("E",))
    for i in range(0, points.size, stride):
        w = complex(points[i])
        jet, position = surface_jet(member, w), immersion_point(member.curve, w)
        regular = is_regular(member.triple, w)
        scale = max(1.0, float(np.max(np.abs(position))))
        assert np.max(np.abs(xyzw[i] - position)) <= 1e-13 * scale, (params, w)
        energy = 0.5 * (jet.E + jet.G)
        assert abs(energies[i] - energy) <= 1e-13 * energy or not regular, (params, w)
        assert bool(mesh.regular[i]) == regular, (params, w)
    return mesh


def test_array_path_matches_scalar_path_on_acceptance_grid():
    # r = 1 lies on the grid and 48 theta steps hit every (2m+2n)-th root of unity
    grid = PolarGrid(0.5, 2.0, 7, 48)
    for m, n in MN_GRID:
        for lam in LAM_GRID:
            mesh = _assert_matches_scalar_path(FamilyParams(m, n, lam), grid)
            assert np.count_nonzero(~mesh.regular) == 2 * m + 2 * n


def test_array_path_matches_scalar_path_on_readme_grids():
    for m, n, lam in README_MEMBERS:
        params = FamilyParams(m, n, lam)
        _assert_matches_scalar_path(params, PolarGrid(0.5, 2.0, 40, 80))
        _assert_matches_scalar_path(params, PolarGrid(0.5, 2.0, 80, 160), stride=13)


def test_curvature_empty_exactly_off_regular_vertices():
    for m, n, lam in README_MEMBERS:
        mesh = sample_grid(family_member(FamilyParams(m, n, lam)), PolarGrid(0.5, 2.0, 40, 80))
        (curvature,) = mesh.columns(slice(None), ("K",))
        assert np.array_equal(np.isnan(curvature), ~mesh.regular)
        assert np.all(curvature[mesh.regular] < 0.0)


def test_branch_vertices_flagged_and_masked():
    mesh = sample_grid(family_member(FamilyParams(1, 1, 0)), PolarGrid(0.5, 1.5, 3, 4))
    u, v, curvature = mesh.columns(slice(None), ("u", "v", "K"))
    flagged = np.round(np.stack((u, v), axis=1)[~mesh.regular], 9)
    # the four fourth roots of unity on the r = 1 ring
    assert len(flagged) == 4
    assert np.all(np.abs(np.hypot(*flagged.T) - 1.0) <= 1e-9)
    assert mesh.regular[mesh.kept_quads(slice(None))].all()
    assert np.array_equal(np.isnan(curvature), ~mesh.regular)


def test_vertex_records_match_the_columns():
    """QuadMesh4D.vertices, read by bench/tracing.py::_grid_counts for its
    vertex, flagged and empty-curvature counts: one record per row, equal to
    the columns, with curvature None exactly at the non-regular rows."""
    mesh = sample_grid(family_member(FamilyParams(1, 1, 1)), PolarGrid(0.5, 2.0, 40, 80))
    vertices = mesh.vertices
    assert len(vertices) == mesh.grid.size == 3200
    assert [v.regular for v in vertices] == mesh.regular.tolist()
    assert np.count_nonzero(~mesh.regular) == 4  # the r = 1 ring holds the fourth roots
    assert [v.curvature is None for v in vertices] == (~mesh.regular).tolist()
    rows = zip(*(column.tolist() for column in mesh.columns(slice(None), CSV_FIELDS)))
    want = [(*row[:7], row[7] if row[8] else None, row[8]) for row in rows]
    assert [dataclasses.astuple(v) for v in vertices] == want


def _branch_distance(w, order):
    """Distance from each point to the nearest order-th root of unity."""
    nearest = np.round(np.angle(w) * order / (2.0 * math.pi))
    return np.abs(w - np.exp(2j * math.pi * nearest / order))


def test_high_order_member_flags_only_its_roots_of_unity():
    # 16 of the 32nd roots of unity lie on the r = 1 ring; no other vertex is a branch point
    mesh = sample_grid(family_member(FamilyParams(1, 15, 1e-4)), PolarGrid(0.5, 2.0, 40, 80))
    roots = _branch_distance(mesh.grid.points(), 32) <= 1e-12
    assert np.count_nonzero(roots) == 16
    assert np.array_equal(~mesh.regular, roots)
    assert np.array_equal(np.isnan(mesh.columns(slice(None), ("K",))[0]), roots)


def test_high_order_member_keeps_every_readme_quad():
    # no vertex of the 80 x 160 grid lies on the unit circle
    mesh = sample_grid(family_member(FamilyParams(1, 15, 1e-4)), PolarGrid(0.5, 2.0, 80, 160))
    assert mesh.regular.all()
    assert len(mesh.kept_quads(slice(None))) == 79 * 160 == 12_640


_ODD = st.sampled_from(range(1, 16, 2))


@st.composite
def _members_and_grids(draw):
    m, n = draw(_ODD), draw(_ODD)
    # |lam| log-uniform in [1e-6, 2]: a small |h| leaves f's own size in the weight
    size, angle = 10.0 ** draw(st.floats(-6.0, math.log10(2.0))), draw(st.floats(0.0, 2.0 * math.pi))
    lam = size * complex(math.cos(angle), math.sin(angle))
    # r = 1 is a grid radius: an end of (0.5, 1) and (1, 2), and inside the
    # other two ranges whenever n_r - 1 is a multiple of 3
    n_r = draw(st.integers(2, 31))
    r_min, r_max = draw(st.sampled_from(((0.5, 2.0), (0.5, 1.0), (1.0, 2.0), (0.75, 1.5))))
    # a multiple of 2(m+n) theta steps puts a vertex on every root
    n_theta = draw(st.one_of(st.integers(2, 90), st.integers(1, 3).map(lambda k: 2 * (m + n) * k)))
    return FamilyParams(m, n, lam), PolarGrid(r_min, r_max, n_r, n_theta, draw(st.booleans()))


def _cancellation(x: complex, y: complex) -> float:
    """(|x| + |y|) / |x + y|: how much a rounding error in x or y grows in the sum."""
    total = abs(x + y)
    return (abs(x) + abs(y)) / total if total else math.inf


def _split_curvature(triple, w: complex) -> tuple[float, float]:
    """K at one point from the CP1 x CP1 split of the Gauss map, in scalar
    complex arithmetic, and the condition of that sum of squares: the
    cancellation in a = g + ih, b = g - ih, their derivatives and f."""
    f, g, h = triple.f(w), triple.g(w), triple.h(w)
    dg, dh = triple.g.derivative()(w), triple.h.derivative()(w)
    a, b, da, db = g + 1j * h, g - 1j * h, dg + 1j * dh, dg - 1j * dh
    weight_a, weight_b = 1 + abs(a) ** 2, 1 + abs(b) ** 2
    energy = abs(f) ** 2 * weight_a * weight_b / 4
    curvature = -2 * (abs(da) ** 2 / weight_a**2 + abs(db) ** 2 / weight_b**2) / energy
    split = max(_cancellation(x, sign * 1j * y) for x, y in ((g, h), (dg, dh)) for sign in (1, -1))
    return curvature, split + triple.f.envelope(abs(w)) / abs(f)


@settings(max_examples=60, deadline=None)
@given(_members_and_grids(), st.randoms(use_true_random=False))
# high order, small lam: at r = 2 the weight |f|(1+|g|^2+|h|^2) is ~1e-8 |w|^44, the form's top power
@example((FamilyParams(1, 15, 1e-4), PolarGrid(0.5, 2.0, 31, 64)), random.Random(0))
# lam near -i with m = n: a = (1 + i lam) w^m and g^2 + h^2 = (1 + lam^2) w^2m cancel
@example((FamilyParams(15, 15, 0.0229 - 0.99974j), PolarGrid(1.0, 2.0, 29, 29, False)),
         random.Random(0))
def test_flags_are_the_roots_of_unity(case, rng):
    # at the picked vertices the grid's columns are also the one-point
    # (fsum) jet's: positions to 16 eps of each component's envelope, E to
    # 16 eps of the sum of the form's squared envelopes; and at the regular
    # ones K is the split form's to 32 eps of its condition (the worst of
    # 3,000 random cases and 250 members with lam at and near +-i read 8.1)
    params, grid = case
    member = family_member(params)
    mesh = sample_grid(member, grid)
    w = grid.points()
    xyzw, (energies, curvatures) = _whole(mesh, AXES), mesh.columns(slice(None), ("E", "K"))
    distance = _branch_distance(w, 2 * (params.m + params.n))
    assume(not np.any((distance > 1e-12) & (distance < 1e-6)))
    assert np.array_equal(~mesh.regular, distance <= 1e-12)
    picked = set(np.flatnonzero(~mesh.regular).tolist()) | set(rng.sample(range(w.size), min(8, w.size)))
    eps = np.finfo(float).eps
    for i in picked:
        jet = surface_jet(member, complex(w[i]))
        regular = is_regular(member.triple, complex(w[i]))
        assert regular == bool(mesh.regular[i])
        r = abs(w[i])
        position_scale = 1.0 + np.array([comp.envelope(r) for comp in member.curve])
        position = immersion_point(member.curve, complex(w[i]))
        assert np.all(np.abs(xyzw[i] - position) <= 16 * eps * position_scale), i
        energy_scale = 1.0 + sum(comp.envelope(r) ** 2 for comp in member.phi)
        assert abs(energies[i] - jet.E) <= 16 * eps * energy_scale, i
        if regular:
            curvature, condition = _split_curvature(member.triple, complex(w[i]))
            assert abs(curvatures[i] - curvature) <= 32 * eps * condition * abs(curvature), i


def test_interior_ring_vertices_stay_regular():
    # theta = pi/4 etc. on the unit circle are not branch points
    mesh = sample_grid(family_member(FamilyParams(1, 1, 0)), PolarGrid(0.5, 1.5, 3, 8))
    u, v = mesh.columns(slice(None), ("u", "v"))
    ring = np.abs(np.hypot(u, v) - 1.0) <= 1e-9
    diag = ring & (np.minimum(np.abs(u), np.abs(v)) > 1e-6)
    assert diag.any() and mesh.regular[diag].all()


def test_w_equals_lam_z_for_equal_orders():
    for lam in (0.5, 2.0):
        mesh = sample_grid(family_member(FamilyParams(3, 3, lam)), PolarGrid(0.6, 1.4, 4, 6))
        z, w = mesh.columns(slice(None), ("z", "w"))
        assert np.all(np.abs(w - lam * z) <= 1e-10 * np.maximum(1.0, np.abs(z)))


def test_lam_zero_kills_fourth_coordinate():
    mesh = sample_grid(family_member(FamilyParams(1, 3, 0)), PolarGrid(0.6, 1.4, 4, 6))
    assert np.all(mesh.columns(slice(None), ("w",))[0] == 0.0)


def test_projection_axis_selection(tmp_path):
    # four rings miss the branch points on r = 1, so every cell is kept
    mesh = sample_grid(family_member(FamilyParams(1, 1, 1.0)), PolarGrid(0.6, 1.4, 4, 4))
    for axes in ("xxy", "xyzw"):
        with pytest.raises(ValueError):
            export_obj(mesh, tmp_path / "bad.obj", axes)
    p1 = _whole(mesh, "xyw")
    p2 = _whole(mesh, "wxy")
    assert sorted(map(sorted, p1)) == sorted(map(sorted, p2))
    face_lists = []
    for axes in ("xyz", "xyw", "xzw", "yzw"):
        export_obj(mesh, tmp_path / "faces.obj", axes)
        face_lists.append([l for l in (tmp_path / "faces.obj").read_text().splitlines()
                           if l.startswith("f ")])
    assert len(face_lists[0]) == 2 * 3 * 4 and all(faces == face_lists[0] for faces in face_lists)


def test_projection_drops_nothing_at_lam_zero(tmp_path):
    mesh = sample_grid(family_member(FamilyParams(1, 1, 0)), PolarGrid(0.6, 1.4, 3, 4))
    assert np.all(mesh.columns(slice(None), ("w",))[0] == 0.0)
    export_obj(mesh, tmp_path / "kept.obj", "xyz")
    lines = (tmp_path / "kept.obj").read_text().splitlines()
    assert sum(1 for l in lines if l.startswith("v ")) == mesh.grid.size


def test_open_grid_obj_counts(tmp_path):
    # a single open quad becomes 4 vertex lines and 2 triangles
    mesh = sample_grid(family_member(FamilyParams(1, 1, 1.0)),
                       PolarGrid(0.6, 0.8, 2, 2, theta_closed=False))
    assert len(mesh.kept_quads(slice(None))) == 1
    path = tmp_path / "patch.obj"
    export(mesh, "obj", path, axes="xyz")
    lines = path.read_text().splitlines()
    assert sum(1 for l in lines if l.startswith("v ")) == 4
    assert sum(1 for l in lines if l.startswith("f ")) == 2


def test_closed_grid_wraps_seam():
    grid = PolarGrid(0.6, 0.8, 2, 4, theta_closed=True)
    mesh = sample_grid(family_member(FamilyParams(1, 1, 1.0)), grid)
    quads = mesh.kept_quads(slice(None))
    assert len(quads) == 4  # wraps back to theta = 0
    touched = {i for q in quads.tolist() for i in q}
    assert touched == set(range(8))


def test_csv_contains_expected_vertex_row(tmp_path):
    mesh = sample_grid(family_member(FamilyParams(1, 1, 1 + 1j)), PolarGrid(0.5, 1.5, 3, 4))
    path = tmp_path / "mesh.csv"
    export(mesh, "csv", path)
    lines = path.read_text().splitlines()
    assert lines[0] == "u,v,x,y,z,w,E,K,regular"
    # vertex at (r, theta) = (1, 0): pipeline position (0, -8/3, 2, 2),
    # branch point, so non-regular with an empty curvature field
    row = next(l for l in lines[1:] if l.startswith("1,0,"))
    assert row == "1,0,0,-2.6666666666666665,2,2,0,,0"


def test_exports_are_deterministic(tmp_path):
    params = FamilyParams(1, 3, 1 + 1j)
    grid = PolarGrid(0.5, 2.0, 6, 10)
    blobs = []
    for tag in ("a", "b"):
        mesh = sample_grid(family_member(params), grid)
        obj = tmp_path / f"{tag}.obj"
        csv = tmp_path / f"{tag}.csv"
        export(mesh, "obj", obj, axes="xyz")
        export(mesh, "csv", csv)
        blobs.append((obj.read_bytes(), csv.read_bytes()))
    assert blobs[0] == blobs[1]


def test_obj_round_trip_is_byte_identical(tmp_path):
    mesh = sample_grid(family_member(FamilyParams(1, 1, 1.0)), PolarGrid(0.5, 1.9, 5, 8))
    first = tmp_path / "one.obj"
    export(mesh, "obj", first, axes="xyz")
    # the loaded numbers, written again by repr, give the file back
    assert _reference_3d(*load_obj(first), "obj") == first.read_bytes()


def test_ply_header_and_counts(tmp_path):
    mesh = sample_grid(family_member(FamilyParams(1, 1, 1.0)),
                       PolarGrid(0.6, 0.8, 2, 2, theta_closed=False))
    path = tmp_path / "patch.ply"
    export(mesh, "ply", path, axes="xyz")
    lines = path.read_text().splitlines()
    assert lines[0] == "ply" and lines[1] == "format ascii 1.0"
    assert "element vertex 4" in lines and "element face 2" in lines
    assert lines[-1].startswith("3 ")


def test_export_usage_errors(tmp_path):
    mesh = sample_grid(family_member(FamilyParams(1, 1, 1.0)), PolarGrid(0.6, 0.8, 2, 2))
    with pytest.raises(ValueError):
        export(mesh, "stl", tmp_path / "x.stl")
    # bad axes and bad fields are refused before the file is opened: an
    # existing file is left as it was, and no new file is made
    for writer, fmt in ((export_obj, "obj"), (export_ply, "ply")):
        existing = tmp_path / f"existing.{fmt}"
        existing.write_text("kept\n")
        for axes in ("xxy", "xyzw", "", "xyq"):
            for path in (existing, tmp_path / f"new.{fmt}"):
                with pytest.raises(ValueError, match="three distinct axes"):
                    writer(mesh, path, axes)
            assert existing.read_text() == "kept\n"
            assert not (tmp_path / f"new.{fmt}").exists()
        # the axes are named in any case
        writer(mesh, tmp_path / f"upper.{fmt}", "WYZ")
        writer(mesh, tmp_path / f"lower.{fmt}", "wyz")
        assert (tmp_path / f"upper.{fmt}").read_bytes() == (tmp_path / f"lower.{fmt}").read_bytes()
    # bad fields are refused before the file is opened: an existing file is
    # left as it was, and no new file is made
    existing = tmp_path / "existing.csv"
    existing.write_text("kept\n")
    for fields in (("u", "bogus"), ()):
        for path in (existing, tmp_path / "new.csv"):
            with pytest.raises(ValueError, match="fields"):
                export(mesh, "csv", path, fields=fields)
        assert existing.read_text() == "kept\n"
        assert not (tmp_path / "new.csv").exists()


def _repr_column(values) -> list[str]:
    """The writer's text rule applied by repr, one float at a time: shortest
    round-trip digits, a trailing '.0' dropped, -0.0 as 0 and nan empty."""
    texts = map(repr, (np.asarray(values, dtype=float) + 0.0).tolist())
    return ["" if t == "nan" else t[:-2] if t.endswith(".0") else t for t in texts]


def _edge_floats() -> list[float]:
    """Values at and around the bounds where repr switches to an exponent
    and where orjson's small-value text changes form (fixed on [1e-5, 1e-4),
    a one-digit exponent on [1e-9, 1e-5), two digits below), the ends of
    the double range, and integral floats of every size."""
    edges = []
    for bound in (1e-4, 1e-5, 1e-6, 1e-9, 1e-10, 1e16):
        for x in (bound, -bound):
            edges += [np.nextafter(x, 0.0), x, np.nextafter(x, 2.0 * x)]
    edges += [5e-324, -5e-324, sys.float_info.max, -sys.float_info.max,
              math.inf, -math.inf, math.nan, -0.0, 0.0]
    edges += [2.0**k for k in range(-30, 61)]
    edges += [s * (2.0**53 + d) for s in (1, -1) for d in range(-4, 5)]
    return [float(x) for x in edges]


def test_format_column_shortest_round_trip():
    assert format_column([2.0]) == ["2"]
    assert format_column([-0.0]) == ["0"]
    assert format_column([4 / 3]) == ["1.3333333333333333"]
    assert format_column([1e20]) == ["1e+20"]
    assert format_column([1e16, 1e-4, np.nextafter(1e-4, 0.0)]) == [
        "1e+16", "0.0001", "9.999999999999999e-05"]
    assert format_column([math.inf, -math.inf, math.nan]) == ["inf", "-inf", ""]
    assert format_column([2.0**53, 5e-324]) == ["9007199254740992", "5e-324"]
    for v in (2.0, 4 / 3, -8 / 3, 1e-7, 123456.75):
        assert float(format_column([v])[0]) == v
    edges = _edge_floats()
    assert format_column(edges) == _repr_column(edges)
    # a value's text does not depend on its neighbours in the column
    assert [format_column([x])[0] for x in edges] == _repr_column(edges)
    for text, x in zip(format_column(edges), edges):
        assert math.isnan(x) and text == "" or float(text) == x


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=64))
@example([])
def test_format_column_matches_repr_rule(xs):
    assert format_column(xs) == _repr_column(xs)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.floats(-12.0, -3.0), st.booleans()), max_size=64))
def test_format_column_matches_repr_rule_on_small_values(draws):
    # log-uniform |x| in [1e-12, 1e-3], where the writer rewrites orjson's
    # tokens; plain floats() seldom lands there
    xs = [(-1.0 if negative else 1.0) * 10.0**exponent for exponent, negative in draws]
    assert format_column(xs) == _repr_column(xs)


def test_format_column_takes_one_column():
    assert format_column(np.array([1.0, -0.5, 0.0, 1e-9])) == ["1", "-0.5", "0", "1e-09"]
    assert format_column(np.zeros(0)) == []
    for bad in (1.0, np.float64(2.5), np.zeros((2, 2)), [[1.0, 2.0]], np.zeros((0, 3))):
        with pytest.raises(ValueError, match="1-D"):
            format_column(bad)


def _text(table, prefix: str, sep: str) -> str:
    """The block kernel's bytes, read as ASCII."""
    return bytes(_block_text(table, prefix, sep)).decode("ascii")


def _column_texts(column) -> list[str]:
    """One column through the block kernel, one text per cell."""
    return _text(np.asarray(column)[:, None], "", " ").split("\n")[:-1]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=64))
@example([0, 1, -1, 10, 100, 1023, 1024, 2**53 + 1, 2**63 - 1, -(2**63)])
def test_integer_column_tokens_are_str(ints):
    column = np.array(ints, dtype=np.int64)
    assert _column_texts(column) == [str(i) for i in ints]
    # strided rows of a transposed block, and the block itself
    block = np.stack([column, column[::-1]], axis=1).T
    assert [_column_texts(row) for row in block] == [[str(i) for i in ints],
                                                    [str(i) for i in ints[::-1]]]
    assert _text(block.T, "", ",") == "".join(f"{a},{b}\n" for a, b in block.T.tolist())
    assert _column_texts(column % 2 == 0) == ["1" if i % 2 == 0 else "0" for i in ints]
    # an integer block is written as face rows
    faces = np.abs(np.stack([column, column[::-1]]) // 2)
    out = io.BytesIO()
    _write_rows(out, len(ints), lambda rows: faces[:, rows], "f ")
    assert out.getvalue().decode("ascii") == "".join(f"f {a} {b}\n" for a, b in faces.T.tolist())


# the (prefix, sep) of each block the writers emit: OBJ vertices and faces,
# PLY vertices and faces, CSV rows
WRITER_LINES = (("v ", " "), ("f ", " "), ("", " "), ("3 ", " "), ("", ","))


def _reference_lines(table, prefix: str, sep: str) -> str:
    """The block kernel's text, one cell at a time: floats by the repr
    rule, integers by str."""
    table = np.asarray(table)
    if table.dtype.kind == "i":
        rows = [[str(i) for i in row] for row in table.tolist()]
    else:
        rows = [_repr_column(row) for row in table]
    return "".join(prefix + sep.join(row) + "\n" for row in rows)


def _without_repr():
    """A patch that shadows repr in wep4.mesh by a function that raises:
    the kernel writes every cell, nan, +-inf and |x| >= 1e16 included, from
    its one orjson text.  Entered in a test body, not as a fixture, so that
    Hypothesis tests can use it."""
    def refuse(value):
        raise AssertionError(f"the export kernel called repr on {value!r}")
    return mock.patch.object(mesh_module, "repr", refuse, create=True)


def _signed(magnitudes):
    return st.tuples(magnitudes, st.booleans()).map(lambda t: -t[0] if t[1] else t[0])


_TINY = 2.2250738585072014e-308  # the least normal double
_CELLS = st.one_of(
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf]),
    _signed(st.integers(0, 2**53 + 8).map(float)),
    _signed(st.floats(-12.0, -3.0).map(lambda e: 10.0**e)),  # log-uniform
    _signed(st.floats(1e-5, 1e-4, exclude_max=True)),
    _signed(st.floats(min_value=1e16)),
    st.floats(-_TINY, _TINY),
    st.floats(allow_nan=True, allow_infinity=True),
)


@st.composite
def _tables(draw, cells):
    """A (rows, k <= 9) table, rows >= 0, of cells drawn from a strategy."""
    k = draw(st.integers(1, 9))
    return k, draw(st.lists(st.lists(cells, min_size=k, max_size=k), max_size=24))


@settings(max_examples=300, deadline=None)
@given(_tables(_CELLS), st.sampled_from(WRITER_LINES))
@example((3, []), ("v ", " "))
def test_block_text_matches_repr_rule(case, lines):
    # every class of cell the kernel edits, side by side: 0 and -0.0,
    # integral values to 2**53 + 8, log-uniform 1e-12 to 1e-3, the 1e-5
    # decade, |x| >= 1e16, subnormals, nan and +-inf
    k, rows = case
    table = np.array(rows, dtype=float).reshape(-1, k)
    with _without_repr():
        text = _text(table, *lines)
    assert text == _reference_lines(table, *lines)


@settings(max_examples=100, deadline=None)
@given(_tables(st.integers(-(2**63), 2**63 - 1)), st.sampled_from(WRITER_LINES))
@example((3, []), ("f ", " "))
def test_block_text_of_integers_is_str(case, lines):
    k, rows = case
    table = np.array(rows, dtype=np.int64).reshape(-1, k)
    assert _text(table, *lines) == _reference_lines(table, *lines)


@pytest.mark.parametrize("lines", WRITER_LINES)
def test_block_text_of_edge_floats(lines):
    edges = _edge_floats()
    for k in range(1, 10):
        table = np.array(edges[:len(edges) - len(edges) % k]).reshape(-1, k)
        # the table and a transposed (non-contiguous) view of the same numbers
        with _without_repr():
            texts = _text(table, *lines), _text(table.T, *lines)
        assert texts == (_reference_lines(table, *lines), _reference_lines(table.T, *lines)), k


def _reference_3d(vertices, faces, fmt: str) -> bytes:
    """The whole-file OBJ/PLY writer the exporters had before streaming:
    every line is built from whole arrays, then joined once, each float by
    repr; quad faces are split in two triangles."""
    def point_lines(prefix=""):
        x, y, z = (_repr_column(c) for c in np.asarray(vertices, dtype=float).reshape(-1, 3).T)
        return [f"{prefix}{a} {b} {c}" for a, b, c in zip(x, y, z)]

    faces = np.asarray(faces, dtype=np.int64)
    tris = faces if faces.shape[1] == 3 else faces[:, [0, 1, 2, 0, 2, 3]].reshape(-1, 3)
    if fmt == "obj":
        lines = point_lines("v ")
        lines += [f"f {a} {b} {c}" for a, b, c in (tris + 1).tolist()]
    else:
        lines = ["ply", "format ascii 1.0", f"element vertex {len(vertices)}",
                 "property float x", "property float y", "property float z",
                 f"element face {len(tris)}", "property list uchar int vertex_indices",
                 "end_header"]
        lines += point_lines()
        lines += [f"3 {a} {b} {c}" for a, b, c in tris.tolist()]
    return ("\n".join(lines) + "\n").encode("ascii")


def _reference_bytes(mesh, fmt: str, fields=CSV_FIELDS, axes=None) -> bytes:
    """The whole-file writer on whole columns: a sampled grid's CSV, or its
    OBJ/PLY projected to three axes by _reference_3d."""
    if fmt != "csv":
        return _reference_3d(_whole(mesh, axes), mesh.kept_quads(slice(None)), fmt)
    columns = dict(zip(CSV_FIELDS, mesh.columns(slice(None), CSV_FIELDS)))
    texts = [
        np.where(mesh.regular, "1", "0").tolist() if name == "regular"
        else _repr_column(columns[name])
        for name in fields
    ]
    lines = [",".join(fields), *map(",".join, zip(*texts))]
    return ("\n".join(lines) + "\n").encode("ascii")


def _assert_exports_match_reference(mesh4, tmp_path):
    cases = [("csv", CSV_FIELDS), ("csv", ("u", "v", "E", "K")), ("obj", None), ("ply", None)]
    for fmt, fields in cases:
        path = tmp_path / f"out.{fmt}"
        if fields is None:
            export(mesh4, fmt, path, axes="yzw")
        else:
            export_csv(mesh4, path, fields=fields)
        assert path.read_bytes() == _reference_bytes(mesh4, fmt, fields, "yzw"), (fmt, fields)


@pytest.mark.parametrize("rows", [1, _CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1,
                                  3 * _CHUNK_ROWS + 7])
def test_block_writer_matches_whole_file_writer_at_block_edges(tmp_path, rows):
    # a grid of three rings of `rows` angles (at least 2): its vertices end
    # before, at and after the third block edge, and its two rings of cells
    # cross block edges; r = 1 is the middle ring, so 2,048 angles flag the
    # eight roots of unity and mask the cells around them
    mesh4 = sample_grid(family_member(FamilyParams(1, 3, 1 + 1j)),
                        PolarGrid(0.5, 1.5, 3, max(rows, 2)))
    _assert_exports_match_reference(mesh4, tmp_path)


@pytest.mark.parametrize("closed", [True, False])
def test_block_writer_matches_whole_file_writer_on_readme_grid(tmp_path, closed):
    # at (99,99,0.97i) most positions and energies are >= 1e16 (a '+' after
    # the 'e', three exponent digits from 1e100), and blocks 3 to 6 hold
    # them beside values in [1e-9, 1e-4), whose exponent gains a '0' or
    # whose fixed form is rewritten
    grid = PolarGrid(0.5, 2.0, 80, 160, theta_closed=closed)
    for params in (FamilyParams(1, 3, 1 + 1j), FamilyParams(99, 99, 0.97j)):
        _assert_exports_match_reference(sample_grid(family_member(params), grid), tmp_path)


def _moved_into(mesh, lo: float, hi: float):
    """A sampled grid whose float columns are moved into lo <= |x| < hi:
    each value keeps its sign (0 becomes +), its magnitude is spread
    log-uniformly over the range and cut to 1 to 17 significant digits by
    row, and K stays empty where it was."""
    class Moved(QuadMesh4D):
        def _block(self, rows, names):
            columns = super()._block(rows, names)
            digits = 1 + np.arange(*rows.indices(self.grid.size)) % 17
            return [column if name == "regular" else _into(column, digits, lo, hi)
                    for name, column in zip(names, columns)]

    return Moved(mesh.member, mesh.grid, mesh.regular)


def _into(column, digits, lo, hi):
    empty = np.isnan(column)
    size = lo * (hi / lo) ** (np.abs(np.where(empty, 0.0, column)) * 997.0 % 1.0)
    scale = 10.0 ** (digits - 1 - np.floor(np.log10(size)))
    size = np.clip(np.round(size * scale) / scale, lo, np.nextafter(hi, 0.0))
    return np.where(empty, np.nan, np.copysign(size, column))


@pytest.mark.parametrize("lo, hi", [(1e-5, 1e-4), (1e-9, 1e-5), (1e16, 1e300)])
def test_block_writer_matches_whole_file_writer_on_small_columns(tmp_path, lo, hi):
    # every float field in a range orjson spells differently from repr:
    # fixed form on [1e-5, 1e-4), a one-digit exponent on [1e-9, 1e-5),
    # no '+' after the 'e' from 1e16 (two or three exponent digits).
    # 1,104 angles flag the roots of unity on the r = 1 ring (empty K).
    mesh4 = _moved_into(sample_grid(family_member(FamilyParams(1, 3, 1 + 1j)),
                                    PolarGrid(0.5, 1.5, 3, 1104)), lo, hi)
    floats = _whole(mesh4, CSV_FIELDS[:-1])
    assert np.all((floats >= lo) & (floats < hi) | (floats <= -lo) & (floats > -hi)
                  | np.isnan(floats))
    assert np.isnan(floats).sum() == 8 and (floats < 0).any()
    _assert_exports_match_reference(mesh4, tmp_path)


def test_export_memory_is_bounded_by_one_block(tmp_path):
    # evaluation, formatting and writing traced together.  At 40,000
    # vertices the whole-file writer peaked at 25-27 MB (OBJ/PLY) and 46 MB
    # (CSV), and whole-grid E and K columns alone at 5 MB.  One 2,048-row
    # block peaks at 1.63-1.70 MB as CSV and 0.51-0.86 MB as OBJ/PLY, at
    # 40,000 and 400,000 vertices alike (1,024-row blocks of the str kernel:
    # 1.23-1.25 and 0.38-0.82 MB).  PLY reads its blocks as OBJ does, and is
    # traced on the smaller grid only (tracing is slow).
    member = family_member(FamilyParams(1, 3, 1 + 1j))
    for grid, formats in ((PolarGrid(0.5, 2.0, 100, 400), ("csv", "obj", "ply")),
                          (PolarGrid(0.5, 2.0, 400, 1000), ("csv", "obj"))):
        mesh4 = sample_grid(member, grid)
        for fmt in formats:
            options = {} if fmt == "csv" else {"axes": "xyz"}
            tracemalloc.start()
            try:
                export(mesh4, fmt, tmp_path / f"big.{fmt}", **options)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= 2_000_000, (grid, fmt, peak)


@pytest.mark.parametrize("member", [(1, 3, 1 + 1j), (3, 5, 0.5 - 2j)], ids=str)
def test_vertex_values_do_not_depend_on_the_grid_size(tmp_path, member):
    # numpy reuses a temporary of 256 kB or more in place, and that rounds
    # differently: evaluated over this 16,384-vertex grid in one pass, 2,108
    # K values of (1,3,1+1i) and 2,064 of (3,5,0.5-2i) differed from the
    # same points' in a small grid.  Each pair of rings is also a grid of
    # its own (linspace keeps both ends exact), and its rows must match.
    member = family_member(FamilyParams(*member))
    export(sample_grid(member, PolarGrid(0.5, 2.0, 128, 128)), "csv", tmp_path / "big.csv")
    big = (tmp_path / "big.csv").read_text().splitlines()[1:]
    radii = np.linspace(0.5, 2.0, 128).tolist()
    for ring in range(0, 128, 2):
        small = PolarGrid(radii[ring], radii[ring + 1], 2, 128)
        export(sample_grid(member, small), "csv", tmp_path / "small.csv")
        rows = (tmp_path / "small.csv").read_text().splitlines()[1:]
        assert rows == big[128 * ring:128 * (ring + 2)], ring


@pytest.mark.parametrize("member, fmt, options", [
    ((1, 3, 1 + 1j), "obj", {}),
    ((1, 3, 1 + 1j), "ply", {}),
    ((1, 3, 1 + 1j), "csv", {}),
    ((99, 99, 0.97j), "ply", {}),  # most fields >= 1e16
    ((5, 7, 0.3j), "csv", {"fields": ("u", "v", "E", "K")}),  # K mostly below 1e-4
], ids=str)
def test_block_size_changes_no_byte(tmp_path, monkeypatch, member, fmt, options):
    # the README grid's 12,800 rows, sampled and written 1,024 rows at a
    # time and then in blocks of the default size
    member = family_member(FamilyParams(*member))
    texts = []
    for rows in (1024, _CHUNK_ROWS):
        monkeypatch.setattr(mesh_module, "_CHUNK_ROWS", rows)
        path = tmp_path / f"{rows}.{fmt}"
        export(sample_grid(member, PolarGrid(0.5, 2.0, 80, 160)), fmt, path, **options)
        texts.append(path.read_bytes())
    assert texts[0] == texts[1]


# SHA-256 of each file as the repr-based writer wrote it; the two CSV digests
# were re-pinned when E and K moved to the CP1 x CP1 closed form, which moved
# last digits of those two columns only.  The first member spans six decades
# of radius, so its columns hold exponent forms at both ends; the second
# grid's r = 1 ring puts empty K fields and masked faces in.
GOLDEN_SHA256 = {
    ((1, 1, 0), "obj"): "a60ad6cd32b35bb70a38444978721bfaeb3caa35d7e8115e3b804d208c5564a0",
    ((1, 1, 0), "ply"): "63b65d977910c61e4cd795477cbde01bad52e14697e6f021497a0915116b3800",
    ((1, 1, 0), "csv"): "e63ca1d7e5b063ca2300e47e0484badcc50ec856868e4499047cf9298abda1eb",
    ((1, 3, 1 + 1j), "obj"): "31075c3e28806b6408ceefe23085a7bf300273f8f266092304b93b7c075f694c",
    ((1, 3, 1 + 1j), "ply"): "2007450fa3a7607bb973fccef51a5d1aeedab78c991d81126ed305e2b0513dc8",
    ((1, 3, 1 + 1j), "csv"): "f4ac4c0ff96995cbdc6420a86ba92ebc5d98d23a6754039955c11ff20c25b544",
}
GOLDEN_GRIDS = {(1, 1, 0): PolarGrid(1e-3, 1e3, 12, 8), (1, 3, 1 + 1j): PolarGrid(0.5, 2.0, 7, 12)}


@pytest.mark.parametrize("member, fmt", sorted(GOLDEN_SHA256, key=str))
def test_export_bytes_match_pinned_digests(tmp_path, member, fmt):
    mesh4 = sample_grid(family_member(FamilyParams(*member)), GOLDEN_GRIDS[member])
    path = tmp_path / f"golden.{fmt}"
    export(mesh4, fmt, path, **({} if fmt == "csv" else {"axes": "xyz"}))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_SHA256[member, fmt]


def test_curvature_export_bytes_match_pinned_digest(tmp_path):
    # `wep4 curvature --m 5 --n 7 --lambda 0.3i --nr 40 --ntheta 80`, pinned
    # from the writer that printed every nonzero |x| < 1e-4 by repr.  Its K
    # column holds 228 values in [1e-5, 1e-4), 1,116 in [1e-10, 1e-5), 576
    # below 1e-10 and 8 empty fields.
    mesh4 = sample_grid(family_member(FamilyParams(5, 7, 0.3j)), PolarGrid(0.5, 2.0, 40, 80))
    path = tmp_path / "K.csv"
    export_csv(mesh4, path, fields=("u", "v", "E", "K"))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "62b16e93bfacbba6552702bfa93387cbd9fd20fbc212d33487d5a5fce1254fba")


@settings(max_examples=40, deadline=None)
@given(_members_and_grids(), st.sampled_from(["xyz", "xyw", "zwx", "wyz"]))
@example((FamilyParams(1, 1, 0), PolarGrid(1.0, 2.0, 2, 4)), "xyz")  # every cell masked
def test_obj_export_round_trips_through_load_obj(case, axes):
    params, grid = case
    mesh4 = sample_grid(family_member(params), grid)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mesh.obj"
        export_obj(mesh4, path, axes)
        vertices, faces = load_obj(path)
    # bit for bit, except that the writer prints -0.0 as 0
    assert np.array_equal(vertices.view(np.int64), (_whole(mesh4, axes) + 0.0).view(np.int64))
    triangles = mesh4.kept_quads(slice(None))[:, [0, 1, 2, 0, 2, 3]].reshape(-1, 3)
    assert faces.dtype == np.int64 and np.array_equal(faces, triangles)
