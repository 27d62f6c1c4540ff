"""Output checks against the benchmark's own closed forms (reference.py).

Each check takes one operation that exited 0 and its captured stdout, and
returns a list of problems; an empty list means the output is correct.
Checks run after the timed loop, never inside it.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np

from reference import Member, general_cart_y_slip, seeded_annulus

POSITION_TOL = 1e-9  # exported positions, times (1 + envelope)
POINT_TOL = 1e-12    # `eval` positions, times (1 + envelope)
ENERGY_TOL = 1e-12   # E, times (E + its envelope)
CURVATURE_TOL = 1e-3  # relative; finite-difference K is within ~2e-4
COEFF_TOL = 1e-12    # `info` coefficients, times (1 + |c|)
REPORT_DEV_TOL = 2e-6  # relative; `report` prints 7 significant digits

SUITES = ("nullity", "back_differentiation", "quadrature", "conformality",
          "harmonicity", "frames", "integral_free", "reductions")
_SUITE_LINE = re.compile(r"^(\w+): (PASS|FAIL|SKIP) \((\d+) checks\)")
_WROTE = re.compile(r"^wrote (.+) \((\d+) (vertices, (\d+) quads|rows)\)$")


class Checker:
    def __init__(self):
        self._members: dict = {}

    def member(self, op) -> Member:
        key = (op.m, op.n, op.lam_text)
        if key not in self._members:
            self._members[key] = Member(op.m, op.n, op.lam)
        return self._members[key]

    def check(self, op, out: str) -> list[str]:
        """Problems with the stdout (and files) of an operation that exited 0."""
        return getattr(self, f"_{op.kind}")(op, out)

    # -- grids ----------------------------------------------------------------

    def _mesh(self, op, out: str) -> list[str]:
        grid, fmt = op.params["grid"], op.params["fmt"]
        w = _grid_points(grid)
        branch = self.member(op).on_branch_set(w)
        kept = _kept_cells(grid, branch)
        problems = _wrote_line(out, op.params["out"], w.size, int(kept.sum()))
        with open(op.params["out"], encoding="ascii") as fh:
            text = fh.read()
        if fmt == "csv":
            return problems + self._table(op, text, w, branch, full=True)
        verts, tris = _parse_obj(text) if fmt == "obj" else _parse_ply(text)
        if len(verts) != w.size:
            return problems + [f"{len(verts)} vertices, expected {w.size}"]
        axes = ["xyzw".index(a) for a in op.params["axes"]]
        problems += _positions(self.member(op), w, verts, axes)
        return problems + _faces(grid, tris, kept)

    def _curvature(self, op, out: str) -> list[str]:
        w = _grid_points(op.params["grid"])
        problems = _wrote_line(out, op.params["out"], w.size, None)
        with open(op.params["out"], encoding="ascii") as fh:
            text = fh.read()
        branch = self.member(op).on_branch_set(w)
        return problems + self._table(op, text, w, branch, full=False)

    def _table(self, op, text: str, w, branch, full: bool) -> list[str]:
        """The `mesh --format=csv` table (full) or the `curvature` table."""
        lines = text.splitlines()
        header = "u,v,x,y,z,w,E,K,regular" if full else "u,v,E,K"
        if not lines or lines[0] != header:
            return [f"header {lines[:1]!r}, expected {header!r}"]
        rows = [line.split(",") for line in lines[1:]]
        if len(rows) != w.size:
            return [f"{len(rows)} rows, expected {w.size}"]
        member = self.member(op)
        ki = 7 if full else 3
        num = np.array([[float(x) for x in row[:ki]] for row in rows])
        kcol = [row[ki] for row in rows]
        problems = []
        uv = num[:, 0] + 1j * num[:, 1]
        if np.max(np.abs(uv - w)) > 1e-15 * np.max(np.abs(w)):
            problems.append("u,v are not the grid points")
        if full:
            problems += _positions(member, w, num[:, 2:6], [0, 1, 2, 3])
            regular = np.array([row[8] for row in rows]) == "1"
            if np.any(regular == branch):
                problems.append("regular flag is not 0 exactly at the branch points")
        energy = num[:, ki - 1]
        ref_e = member.energy(w)
        scale = ref_e + member.energy_envelope(np.abs(w))
        if np.any(np.abs(energy - ref_e) > ENERGY_TOL * scale):
            problems.append(f"E off by {np.max(np.abs(energy - ref_e) / scale):.2e}")
        empty = np.array([k == "" for k in kcol])
        if np.any(empty != branch):
            problems.append(f"K empty at {int(empty.sum())} vertices, "
                            f"branch points at {int(branch.sum())}")
        k = np.array([float(x) for x, e in zip(kcol, empty) if not e])
        k_ref = member.curvature(w[~empty])
        if np.any(~(k < 0.0)):
            problems.append("K >= 0 at a regular vertex")
        if k.size and not np.max(np.abs(k - k_ref) / np.abs(k_ref)) <= CURVATURE_TOL:
            problems.append(f"K off by {np.max(np.abs(k - k_ref) / np.abs(k_ref)):.2e} relative")
        return problems

    # -- audits ---------------------------------------------------------------

    def _verify(self, op, out: str) -> list[str]:
        status = {}
        for line in out.splitlines():
            hit = _SUITE_LINE.match(line)
            if hit:
                status[hit.group(1)] = hit.group(2)
        if tuple(status) != SUITES:
            return [f"suites {tuple(status)}, expected {SUITES}"]
        real = op.lam.imag == 0.0
        skipped = {"frames": not ((op.m, op.n) == (1, 1) and real),
                   "reductions": not (op.lam == 0 or (op.m == op.n and real))}
        problems = []
        for name, verdict in status.items():
            want = "SKIP" if skipped.get(name, False) else "PASS"
            if verdict != want:
                problems.append(f"{name}: {verdict}, expected {want}")
        return problems

    def _report(self, op, out: str) -> list[str]:
        lines = out.splitlines()
        if not lines or lines[0] != "fixture,check,component,max_abs_dev,tolerance,verdict":
            return [f"report header {lines[:1]!r}"]
        problems = []
        rows = {}
        for line in lines[1:]:
            fid, check, comp, dev, tol, verdict = line.split(",")
            rows[(fid, check, comp)] = (float(dev), verdict)
            if verdict != ("PASS" if float(dev) <= float(tol) else "DEVIATES"):
                problems.append(f"{fid}/{check}/{comp}: verdict {verdict} at dev {dev} tol {tol}")
        fixtures = {key[0] for key in rows}
        if fixtures != _expected_fixtures(op):
            problems.append(f"fixtures {sorted(fixtures)}, expected {sorted(_expected_fixtures(op))}")
        if op.lam.imag == 0.0 and (op.m, op.n) == (1, 1):
            for comp in "xyzw":
                want = "DEVIATES" if comp == "y" else "PASS"
                got = rows.get(("h11_general_cart", "value", comp), (None, None))[1]
                if got != want:
                    problems.append(f"h11_general_cart/value/{comp}: {got}, expected {want}")
            points = seeded_annulus(op.params["seed"], op.params["samples"], 0.5, 1.7)
            slip = general_cart_y_slip(op.lam.real, points)
            dev = rows.get(("h11_general_cart", "value", "y"), (math.nan,))[0]
            if not abs(dev - slip) <= REPORT_DEV_TOL * slip:
                problems.append(f"h11_general_cart y dev {dev!r}, slip {slip!r}")
        return problems

    # -- point queries --------------------------------------------------------

    def _eval(self, op, out: str) -> list[str]:
        w = np.array([op.params["point"]])
        got = np.array([[float(x) for x in out.split()]])
        if got.shape != (1, 4):
            return [f"eval printed {out!r}"]
        return _positions(self.member(op), w, got, [0, 1, 2, 3], POINT_TOL)

    def _info(self, op, out: str) -> list[str]:
        doc = json.loads(out)
        member = self.member(op)
        problems = []
        if (doc["m"], doc["n"]) != (op.m, op.n) or complex(*doc["lambda"]) != op.lam:
            problems.append("member echoed wrongly")
        pairs = [(doc["data"][k], getattr(member, k)) for k in "fgh"]
        pairs += list(zip(doc["phi"], member.phi)) + list(zip(doc["curve"], member.curve))
        pairs.append((doc["seed"], member.seed))
        if len(doc["phi"]) != 4 or len(doc["curve"]) != 4:
            problems.append("phi and curve need four components")
        for got, ref in pairs:
            got = {int(k): complex(*c) for k, c in got.items()}
            for k in set(got) | set(ref):
                a, b = got.get(k, 0j), ref.get(k, 0j)
                if abs(a - b) > COEFF_TOL * (1.0 + abs(b)):
                    problems.append(f"coefficient w^{k}: {a} vs {b}")
        return problems


def _expected_fixtures(op) -> set[str]:
    """Displays the fixtures module documents for the member."""
    out = set()
    if (op.m, op.n) == (1, 1):
        out.add("h11_general_cart")
        if op.lam.imag == 0.0:
            out |= {"h11_real_cart", "h11_real_xu", "h11_real_xv"}
        if op.lam == 1 + 1j:
            out |= {"h11_example_cart", "h11_example_polar"}
    if (op.m, op.n) == (1, 3) and op.lam == 1 + 1j:
        out |= {"h13_example_cart", "h13_example_polar"}
    return out


def _grid_points(grid) -> np.ndarray:
    rmin, rmax, nr, nt = grid
    r = np.linspace(rmin, rmax, nr)[:, None]
    t = (np.arange(nt) * (2.0 * math.pi / nt))[None, :]
    return (r * np.cos(t) + 1j * (r * np.sin(t))).ravel()


def _kept_cells(grid, branch) -> np.ndarray:
    """(nr-1, nt) mask of grid quads (closed seam) with no branch corner."""
    _, _, nr, nt = grid
    b = branch.reshape(nr, nt)
    nb = np.roll(b, -1, axis=1)
    return ~(b[:-1] | b[1:] | nb[:-1] | nb[1:])


def _wrote_line(out: str, path: str, vertices: int, quads) -> list[str]:
    hit = _WROTE.match(out.strip())
    if not hit or hit.group(1) != path or int(hit.group(2)) != vertices:
        return [f"stdout {out.strip()!r}"]
    if quads is not None and int(hit.group(4)) != quads:
        return [f"{hit.group(4)} quads, expected {quads}"]
    return []


def _positions(member: Member, w, got, axes, tol: float = POSITION_TOL) -> list[str]:
    ref = member.positions(w)[:, axes]
    env = member.position_envelope(np.abs(w))[:, axes]
    err = np.abs(np.asarray(got) - ref) / (1.0 + env)
    if np.any(~(err <= tol)):
        return [f"positions off by {np.nanmax(err):.2e} (envelope-relative)"]
    return []


def _faces(grid, tris: np.ndarray, kept: np.ndarray) -> list[str]:
    """Triangles must tile exactly the kept quads, two per quad, split
    along a diagonal (faces never touch a branch vertex)."""
    _, _, nr, nt = grid
    if tris.size == 0 or tris.min() < 0 or tris.max() >= nr * nt:
        return ["face index out of range"]
    ri, ti = np.divmod(tris, nt)
    i0 = ri.min(axis=1)
    tmin, tmax = ti.min(axis=1), ti.max(axis=1)
    wrap = (tmin == 0) & (tmax == nt - 1)
    j0 = np.where(wrap, nt - 1, tmin)
    ok = (ri.max(axis=1) - i0 == 1) & ((tmax - tmin == 1) | wrap)
    code = 2 * (ri - i0[:, None]) + (ti != j0[:, None])
    distinct = (code[:, 0] != code[:, 1]) & (code[:, 1] != code[:, 2]) & (code[:, 0] != code[:, 2])
    if not np.all(ok & distinct):
        return ["a face is not three corners of one grid quad"]
    cell = i0 * nt + j0
    missing = 6 - code.sum(axis=1)  # the corner each triangle leaves out
    per_cell = np.bincount(cell, minlength=kept.size)
    missing_sum = np.bincount(cell, weights=missing, minlength=kept.size)
    want = np.where(kept.ravel(), 2, 0)
    if np.any(per_cell != want):
        return [f"{tris.shape[0]} faces do not tile the {int(kept.sum())} kept quads"]
    if np.any(missing_sum[kept.ravel()] != 3):
        return ["a quad's two triangles overlap instead of meeting on a diagonal"]
    return []


def _parse_obj(text: str):
    verts, faces = [], []
    for line in text.splitlines():
        if line.startswith("v "):
            verts.append([float(x) for x in line.split()[1:]])
        elif line.startswith("f "):
            faces.append([int(x) - 1 for x in line.split()[1:]])
    return np.array(verts), np.array(faces, dtype=np.int64).reshape(-1, 3)


def _parse_ply(text: str):
    lines = text.splitlines()
    end = lines.index("end_header")
    counts = {p[1]: int(p[2]) for p in (line.split() for line in lines[:end])
              if p[0] == "element"}
    nv, nf = counts["vertex"], counts["face"]
    verts = np.array([[float(x) for x in line.split()] for line in lines[end + 1:end + 1 + nv]])
    faces = [line.split() for line in lines[end + 1 + nv:end + 1 + nv + nf]]
    if any(f[0] != "3" for f in faces) or len(faces) != nf:
        return verts, np.zeros((0, 3), dtype=np.int64)
    return verts, np.array([[int(x) for x in f[1:]] for f in faces], dtype=np.int64).reshape(-1, 3)
