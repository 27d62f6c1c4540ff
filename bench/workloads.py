"""Operation lists for the three workloads, made from the workload seed.

One operation is one `wep4` command line, passed to `wep4.cli.main` in
process.  A run repeats whole passes over its workload's list, so every run
holds the same mix of operations whatever its length; the seed picks the
order of a pass and the inputs that do not change an operation's cost
(projection axes, random members and points).  Every valued flag is written
as `--flag=value`: argparse rejects `--point -0.5,0.4` and `--lambda -1`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("grid-export", "audit", "point-query")

# (m, n, lam) members named in the README and the ROADMAP acceptance grid.
GRID_MEMBERS = ((1, 1, "1+1i"), (1, 3, "1+1i"), (3, 5, "0.5-2i"), (5, 7, "0.3i"), (1, 1, "0"))
AUDIT_MEMBERS = ((1, 1, "1"), (1, 1, "1+1i"), (1, 3, "1+1i"), (1, 1, "0"), (3, 5, "0.5-2i"))
MESH_GRID = (0.5, 2.0, 80, 160)   # README `mesh` grid: 12,800 vertices
CURVATURE_GRID = (0.5, 2.0, 40, 80)  # README `curvature` grid; r = 1 lands on branch points
FORMATS = ("obj", "ply", "csv")
ODD_ORDERS = (1, 3, 5, 7, 9)
VERIFY_REPEATS = 2    # audit: each verify per pass
POINT_MEMBERS = 8     # random members per point-query pass
EVALS_PER_MEMBER = 15  # eval points per member, plus one info


def parse_lam(text: str) -> complex:
    return complex(text.replace("i", "j"))


@dataclass(frozen=True)
class Op:
    """One command line and what the checks need to know about it."""

    kind: str
    m: int
    n: int
    lam_text: str
    argv: tuple[str, ...]
    params: dict = field(default_factory=dict, compare=False)

    @property
    def lam(self) -> complex:
        return parse_lam(self.lam_text)


def _member_flags(m: int, n: int, lam: str) -> list[str]:
    return [f"--m={m}", f"--n={n}", f"--lambda={lam}"]


def _grid_flags(grid) -> list[str]:
    rmin, rmax, nr, nt = grid
    return [f"--rmin={rmin}", f"--rmax={rmax}", f"--nr={nr}", f"--ntheta={nt}"]


def _mesh(m, n, lam, grid, fmt, axes, out: Path) -> Op:
    argv = ["mesh", *_member_flags(m, n, lam), *_grid_flags(grid), f"--format={fmt}"]
    if axes:
        argv.append(f"--project={axes}")
    argv.append(f"--out={out}")
    return Op("mesh", m, n, lam, tuple(argv),
              {"grid": grid, "fmt": fmt, "axes": axes or "xyzw", "out": str(out)})


def _curvature(m, n, lam, grid, out: Path) -> Op:
    argv = ["curvature", *_member_flags(m, n, lam), *_grid_flags(grid), f"--out={out}"]
    return Op("curvature", m, n, lam, tuple(argv), {"grid": grid, "out": str(out)})


def grid_export(rng: np.random.Generator, workdir: Path, grids=(MESH_GRID, CURVATURE_GRID)):
    """Per member: two `mesh` exports (formats rotate over the members) and
    one `curvature`.  10 of the 15 operations are meshes, so the median sits
    among them; the seed picks the projections and the order."""
    mesh_grid, curv_grid = grids
    ops = []
    for i, (m, n, lam) in enumerate(GRID_MEMBERS):
        for fmt in (FORMATS[i % 3], FORMATS[(i + 1) % 3]):
            axes = "" if fmt == "csv" else "".join(rng.permutation(list("xyzw"))[:3])
            ops.append(_mesh(m, n, lam, mesh_grid, fmt, axes, workdir / f"g{len(ops)}.{fmt}"))
        ops.append(_curvature(m, n, lam, curv_grid, workdir / f"g{len(ops)}.csv"))
    return _shuffled(rng, ops)


def audit(rng: np.random.Generator, samples=(1000, 200)):
    """`verify` on five members and `report` on the four that have printed
    displays, at the CLI default seed 42, plus one `verify` that fails every
    time (the integral_free central difference at seed 34).

    Each `verify` runs twice a pass, so that 10 of the 14 operations that
    pass are verifies (~0.2 s) and the median sits well inside them instead
    of on the edge of the faster reports (~0.09 s)."""
    verify_n, report_n = samples
    ops = []
    for m, n, lam in AUDIT_MEMBERS:
        argv = ("verify", *_member_flags(m, n, lam), f"--samples={verify_n}", "--seed=42")
        ops += [Op("verify", m, n, lam, argv)] * VERIFY_REPEATS
        if (m, n) == (1, 1) or (m, n, lam) == (1, 3, "1+1i"):
            argv = ("report", *_member_flags(m, n, lam), f"--samples={report_n}", "--seed=42")
            ops.append(Op("report", m, n, lam, argv, {"samples": report_n, "seed": 42}))
    argv = ("verify", *_member_flags(1, 1, "2"), f"--samples={verify_n}", "--seed=34")
    ops.append(Op("verify", 1, 1, "2", argv))
    return _shuffled(rng, ops)


def _lam_text(rng: np.random.Generator) -> str:
    re_part, im_part = (round(float(x), 3) for x in rng.uniform(-2.0, 2.0, 2))
    return f"{re_part!r}{im_part:+}i"


def point_query(rng: np.random.Generator):
    """Random members (odd orders up to 9, complex lam), each with 15 `eval`
    points in the annulus 0.4 <= |w| <= 2 and one `info`."""
    ops = []
    for _ in range(POINT_MEMBERS):
        m, n = (int(x) for x in rng.choice(ODD_ORDERS, 2))
        lam = _lam_text(rng)
        for _ in range(EVALS_PER_MEMBER):
            r, t = rng.uniform(0.4, 2.0), rng.uniform(0.0, 2.0 * math.pi)
            u, v = round(r * math.cos(t), 6), round(r * math.sin(t), 6)
            argv = ("eval", *_member_flags(m, n, lam), f"--point={u!r},{v!r}")
            ops.append(Op("eval", m, n, lam, argv, {"point": complex(u, v)}))
        ops.append(Op("info", m, n, lam, ("info", *_member_flags(m, n, lam))))
    return _shuffled(rng, ops)


def _shuffled(rng: np.random.Generator, ops: list) -> list:
    return [ops[i] for i in rng.permutation(len(ops))]


def build(workload: str, seed: int, workdir: Path) -> list[Op]:
    rng = np.random.default_rng(seed)
    if workload == "grid-export":
        return grid_export(rng, workdir)
    if workload == "audit":
        return audit(rng)
    return point_query(rng)


def warmup(workload: str, workdir: Path) -> list[Op]:
    """Small operations of each kind the workload runs, to finish lazy
    set-up (first calls into numpy, argparse, file creation) before timing."""
    rng = np.random.default_rng(0)
    if workload == "grid-export":
        small = (0.5, 2.0, 6, 12)
        return grid_export(rng, workdir / "warm", grids=(small, small))[:6]
    if workload == "audit":
        return audit(rng, samples=(20, 10))
    return point_query(rng)[:16]
