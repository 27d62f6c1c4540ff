"""Grid sampling, masking, projection, and the export formats."""

import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from wep4.geometry import surface_jet
from wep4.henneberg import FamilyParams, family_curve, family_phi
from wep4.mesh import (
    _CHUNK_ROWS,
    AXES,
    CSV_FIELDS,
    MAX_VERTICES,
    Mesh3D,
    PolarGrid,
    QuadMesh4D,
    export,
    export_csv,
    export_obj,
    format_column,
    load_obj,
    project,
    sample_grid,
)


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
    mesh = sample_grid(params, grid)
    phi, curve = family_phi(params), family_curve(params)
    for i in range(0, mesh.E.size, stride):
        w = complex(*mesh.uv[i])
        jet = surface_jet(phi, curve, w)
        scale = max(1.0, float(np.max(np.abs(jet.position))))
        assert np.max(np.abs(mesh.xyzw[i] - jet.position)) <= 1e-13 * scale, (params, w)
        energy = 0.5 * (jet.E + jet.G)
        assert abs(mesh.E[i] - energy) <= 1e-13 * energy or not jet.regular, (params, w)
        assert bool(mesh.regular[i]) == jet.regular, (params, w)
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
        mesh = sample_grid(FamilyParams(m, n, lam), PolarGrid(0.5, 2.0, 40, 80))
        assert np.array_equal(np.isnan(mesh.K), ~mesh.regular)
        assert np.all(mesh.K[mesh.regular] < 0.0)


def test_branch_vertices_flagged_and_masked():
    mesh = sample_grid(FamilyParams(1, 1, 0), PolarGrid(0.5, 1.5, 3, 4))
    flagged = [(round(v.u, 9), round(v.v, 9)) for v in mesh.vertices if not v.regular]
    # the four fourth roots of unity on the r = 1 ring
    assert len(flagged) == 4
    for u, v in flagged:
        assert abs(math.hypot(u, v) - 1.0) <= 1e-9
    for quad in mesh.quads:
        assert all(mesh.vertices[i].regular for i in quad)
    for v in mesh.vertices:
        assert (v.curvature is None) == (not v.regular)


def _branch_distance(w, order):
    """Distance from each point to the nearest order-th root of unity."""
    nearest = np.round(np.angle(w) * order / (2.0 * math.pi))
    return np.abs(w - np.exp(2j * math.pi * nearest / order))


def test_high_order_member_flags_only_its_roots_of_unity():
    # 16 of the 32nd roots of unity lie on the r = 1 ring; no other vertex is a branch point
    mesh = sample_grid(FamilyParams(1, 15, 1e-4), PolarGrid(0.5, 2.0, 40, 80))
    w = mesh.uv[:, 0] + 1j * mesh.uv[:, 1]
    roots = _branch_distance(w, 32) <= 1e-12
    assert np.count_nonzero(roots) == 16
    assert np.array_equal(~mesh.regular, roots)
    assert np.array_equal(np.isnan(mesh.K), roots)


def test_high_order_member_keeps_every_readme_quad():
    # no vertex of the 80 x 160 grid lies on the unit circle
    mesh = sample_grid(FamilyParams(1, 15, 1e-4), PolarGrid(0.5, 2.0, 80, 160))
    assert mesh.regular.all()
    assert len(mesh.quads) == 79 * 160 == 12_640


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


@settings(max_examples=60, deadline=None)
@given(_members_and_grids(), st.randoms(use_true_random=False))
# high order, small lam: at r = 2 the weight |f|(1+|g|^2+|h|^2) is ~1e-8 |w|^44, the form's top power
@example((FamilyParams(1, 15, 1e-4), PolarGrid(0.5, 2.0, 31, 64)), random.Random(0))
def test_flags_are_the_roots_of_unity(case, rng):
    params, grid = case
    mesh = sample_grid(params, grid)
    w = mesh.uv[:, 0] + 1j * mesh.uv[:, 1]
    distance = _branch_distance(w, 2 * (params.m + params.n))
    assume(not np.any((distance > 1e-12) & (distance < 1e-6)))
    assert np.array_equal(~mesh.regular, distance <= 1e-12)
    phi, curve = family_phi(params), family_curve(params)
    picked = set(np.flatnonzero(~mesh.regular).tolist()) | set(rng.sample(range(w.size), min(8, w.size)))
    for i in picked:
        assert surface_jet(phi, curve, complex(w[i])).regular == bool(mesh.regular[i])


def test_interior_ring_vertices_stay_regular():
    # theta = pi/4 etc. on the unit circle are not branch points
    mesh = sample_grid(FamilyParams(1, 1, 0), PolarGrid(0.5, 1.5, 3, 8))
    ring = [v for v in mesh.vertices if abs(math.hypot(v.u, v.v) - 1.0) <= 1e-9]
    diag = [v for v in ring if min(abs(v.u), abs(v.v)) > 1e-6]
    assert diag and all(v.regular for v in diag)


def test_w_equals_lam_z_for_equal_orders():
    for lam in (0.5, 2.0):
        mesh = sample_grid(FamilyParams(3, 3, lam), PolarGrid(0.6, 1.4, 4, 6))
        for v in mesh.vertices:
            assert abs(v.w - lam * v.z) <= 1e-10 * max(1.0, abs(v.z))


def test_lam_zero_kills_fourth_coordinate():
    mesh = sample_grid(FamilyParams(1, 3, 0), PolarGrid(0.6, 1.4, 4, 6))
    assert all(v.w == 0.0 for v in mesh.vertices)


def test_projection_axis_selection():
    mesh = sample_grid(FamilyParams(1, 1, 1.0), PolarGrid(0.6, 1.4, 3, 4))
    with pytest.raises(ValueError):
        project(mesh, "xxy")
    with pytest.raises(ValueError):
        project(mesh, "xyzw")
    p1 = project(mesh, "xyw")
    p2 = project(mesh, "wxy")
    assert sorted(map(sorted, p1.vertices)) == sorted(map(sorted, p2.vertices))
    face_lists = [project(mesh, ax).faces for ax in ("xyz", "xyw", "xzw", "yzw")]
    assert all(np.array_equal(faces, face_lists[0]) for faces in face_lists)


def test_projection_drops_nothing_at_lam_zero():
    mesh = sample_grid(FamilyParams(1, 1, 0), PolarGrid(0.6, 1.4, 3, 4))
    kept = project(mesh, "xyz")
    assert all(v.w == 0.0 for v in mesh.vertices)
    assert len(kept.vertices) == len(mesh.vertices)


def test_open_grid_obj_counts(tmp_path):
    # a single open quad becomes 4 vertex lines and 2 triangles
    mesh = sample_grid(FamilyParams(1, 1, 1.0), PolarGrid(0.6, 0.8, 2, 2, theta_closed=False))
    assert len(mesh.quads) == 1
    path = tmp_path / "patch.obj"
    export(project(mesh, "xyz"), "obj", path)
    lines = path.read_text().splitlines()
    assert sum(1 for l in lines if l.startswith("v ")) == 4
    assert sum(1 for l in lines if l.startswith("f ")) == 2


def test_closed_grid_wraps_seam():
    grid = PolarGrid(0.6, 0.8, 2, 4, theta_closed=True)
    mesh = sample_grid(FamilyParams(1, 1, 1.0), grid)
    assert len(mesh.quads) == 4  # wraps back to theta = 0
    touched = {i for q in mesh.quads for i in q}
    assert touched == set(range(8))


def test_csv_contains_expected_vertex_row(tmp_path):
    mesh = sample_grid(FamilyParams(1, 1, 1 + 1j), PolarGrid(0.5, 1.5, 3, 4))
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
        mesh = sample_grid(params, grid)
        obj = tmp_path / f"{tag}.obj"
        csv = tmp_path / f"{tag}.csv"
        export(project(mesh, "xyz"), "obj", obj)
        export(mesh, "csv", csv)
        blobs.append((obj.read_bytes(), csv.read_bytes()))
    assert blobs[0] == blobs[1]


def test_obj_round_trip_is_byte_identical(tmp_path):
    mesh = sample_grid(FamilyParams(1, 1, 1.0), PolarGrid(0.5, 1.9, 5, 8))
    first = tmp_path / "one.obj"
    export(project(mesh, "xyz"), "obj", first)
    loaded = load_obj(first)
    second = tmp_path / "two.obj"
    export_obj(loaded, second)
    assert first.read_bytes() == second.read_bytes()


def test_ply_header_and_counts(tmp_path):
    mesh = sample_grid(FamilyParams(1, 1, 1.0), PolarGrid(0.6, 0.8, 2, 2, theta_closed=False))
    path = tmp_path / "patch.ply"
    export(project(mesh, "xyz"), "ply", path)
    lines = path.read_text().splitlines()
    assert lines[0] == "ply" and lines[1] == "format ascii 1.0"
    assert "element vertex 4" in lines and "element face 2" in lines
    assert lines[-1].startswith("3 ")


def test_export_usage_errors(tmp_path):
    mesh = sample_grid(FamilyParams(1, 1, 1.0), PolarGrid(0.6, 0.8, 2, 2))
    with pytest.raises(ValueError):
        export(mesh, "obj", tmp_path / "x.obj")  # 4D mesh into obj
    with pytest.raises(ValueError):
        export_csv(project(mesh, "xyz"), tmp_path / "x.csv")
    with pytest.raises(ValueError):
        export(mesh, "stl", tmp_path / "x.stl")


def test_format_column_shortest_round_trip():
    assert format_column([2.0]) == ["2"]
    assert format_column([-0.0]) == ["0"]
    assert format_column([4 / 3]) == ["1.3333333333333333"]
    assert format_column([1e20]) == ["1e+20"]
    for v in (2.0, 4 / 3, -8 / 3, 1e-7, 123456.75):
        assert float(format_column([v])[0]) == v


def _reference_bytes(mesh, fmt: str, fields=CSV_FIELDS) -> bytes:
    """The whole-file writer the exporters had before streaming: every line
    is built from whole columns, then joined once."""
    def point_lines(vertices, prefix=""):
        x, y, z = (format_column(c) for c in np.asarray(vertices, dtype=float).reshape(-1, 3).T)
        return [f"{prefix}{a} {b} {c}" for a, b, c in zip(x, y, z)]

    if fmt == "csv":
        columns = {"u": mesh.uv[:, 0], "v": mesh.uv[:, 1], "E": mesh.E, "K": mesh.K}
        columns.update(zip(AXES, mesh.xyzw.T))
        texts = [
            np.where(mesh.regular, "1", "0").tolist() if name == "regular"
            else format_column(columns[name])
            for name in fields
        ]
        lines = [",".join(fields), *map(",".join, zip(*texts))]
    else:
        faces = np.asarray(mesh.faces, dtype=np.int64)
        tris = faces if faces.shape[1] == 3 else faces[:, [0, 1, 2, 0, 2, 3]].reshape(-1, 3)
        if fmt == "obj":
            lines = point_lines(mesh.vertices, "v ")
            lines += [f"f {a} {b} {c}" for a, b, c in (tris + 1).tolist()]
        else:
            lines = ["ply", "format ascii 1.0", f"element vertex {len(mesh.vertices)}",
                     "property float x", "property float y", "property float z",
                     f"element face {len(tris)}", "property list uchar int vertex_indices",
                     "end_header"]
            lines += point_lines(mesh.vertices)
            lines += [f"3 {a} {b} {c}" for a, b, c in tris.tolist()]
    return ("\n".join(lines) + "\n").encode("ascii")


def _assert_exports_match_reference(mesh4, tmp_path):
    mesh3 = project(mesh4, "yzw")
    triangles = Mesh3D(mesh3.vertices, mesh3.faces[:, :3])
    cases = [(mesh4, "csv", CSV_FIELDS), (mesh4, "csv", ("u", "v", "E", "K")),
             (mesh3, "obj", None), (mesh3, "ply", None),
             (triangles, "obj", None), (triangles, "ply", None)]
    for mesh, fmt, fields in cases:
        path = tmp_path / f"out.{fmt}"
        if fields is None:
            export(mesh, fmt, path)
        else:
            export_csv(mesh, path, fields=fields)
        assert path.read_bytes() == _reference_bytes(mesh, fmt, fields), (fmt, fields)


@pytest.mark.parametrize("rows", [1, _CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1,
                                  3 * _CHUNK_ROWS + 7])
def test_block_writer_matches_whole_file_writer_at_block_edges(tmp_path, rows):
    # the first `rows` vertices of a sampled grid, with as many faces, so
    # vertex and face sections both end before, at and after a block edge
    full = sample_grid(FamilyParams(1, 3, 1 + 1j), PolarGrid(0.5, 2.0, 4, _CHUNK_ROWS))
    mesh4 = QuadMesh4D(
        uv=full.uv[:rows], xyzw=full.xyzw[:rows], E=full.E[:rows], K=full.K[:rows],
        regular=full.regular[:rows], quads=np.resize(full.quads, (rows, 4)) % rows,
    )
    _assert_exports_match_reference(mesh4, tmp_path)


@pytest.mark.parametrize("closed", [True, False])
def test_block_writer_matches_whole_file_writer_on_readme_grid(tmp_path, closed):
    grid = PolarGrid(0.5, 2.0, 80, 160, theta_closed=closed)
    _assert_exports_match_reference(sample_grid(FamilyParams(1, 3, 1 + 1j), grid), tmp_path)


def test_export_memory_is_bounded_by_one_block(tmp_path):
    # 40,000 vertices: the whole-file writer peaked at 25-27 MB (OBJ/PLY)
    # and 46 MB (CSV) here; one block's text stays near 1 MB at any size
    mesh4 = sample_grid(FamilyParams(1, 3, 1 + 1j), PolarGrid(0.5, 2.0, 100, 400))
    mesh3 = project(mesh4, "xyz")
    for mesh, fmt in ((mesh4, "csv"), (mesh3, "obj"), (mesh3, "ply")):
        tracemalloc.start()
        try:
            export(mesh, fmt, tmp_path / f"big.{fmt}")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2_000_000, (fmt, peak)
