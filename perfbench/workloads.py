"""The four benchmark workloads.

Each workload drives modlab only through its public functions and the
in-process `modlab.cli.main`. Constructing a workload is its set-up; `draw`
makes the next op's seeded input (untimed), `op` is the timed call, and
`check` verifies the op's output (untimed) and returns the accuracy it
bought. Every call into modlab looks the function up on its module at call
time, so the wrappers of a traced run see it.

`smoke=True` shrinks every workload to a size that runs in about a second;
it exercises the harness, not the program's performance.
"""

from __future__ import annotations

import json
import math
import shutil
import tempfile
from pathlib import Path

import numpy as np

from modlab import cli, fuchsian, modulus
from modlab.diskgeom import Polyline

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs" / "experiments"


def _disk_points(rng, n: int, max_hyp_radius: float) -> np.ndarray:
    """Points with hyperbolic radius uniform in [0, max_hyp_radius] about 0."""
    r = rng.uniform(0.0, max_hyp_radius, n)
    return np.tanh(0.5 * r) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, n))


class Suite:
    """`modlab suite` on the shipped experiment configs, into a fresh directory."""

    name = "suite"
    count_ops = 1

    def __init__(self, seed: int, smoke: bool, work_dir: Path):
        # the shipped configs are used as they are; the seed has nothing to draw
        self.work_dir = work_dir
        self.config_dir = _smoke_configs(work_dir) if smoke else CONFIG_DIR
        self.n_configs = len(list(self.config_dir.glob("*.json")))
        self.first_report = None

    def draw(self) -> Path:
        return Path(tempfile.mkdtemp(dir=self.work_dir))

    def op(self, out_dir: Path) -> int:
        return cli.main(["suite", str(self.config_dir), "--out-dir", str(out_dir)])

    def check(self, out_dir: Path, code: int):
        text = (out_dir / "suite_report.json").read_bytes()
        shutil.rmtree(out_dir)
        if self.first_report is None:
            self.first_report = text
        report = json.loads(text)
        lower_q = [r for r in report["records"] if r["kind"] == "lower_q"]
        two_sided = [r for r in lower_q if r["tolerance"]["ratio_max"] is not None]
        ok = (code == 0
              and report["n_experiments"] == self.n_configs
              and report["n_passed"] == self.n_configs
              and text == self.first_report)
        return ok, {
            "rel_err": max(abs(r["ratio"] - 1.0) for r in two_sided),
            "gap_rel": max(r["provenance"]["lhs"]["duality_gap"] / r["lhs"] for r in lower_q),
        }


def _smoke_configs(work_dir: Path) -> Path:
    """Copies of the shipped configs with the lower_q grids cut to 8x32."""
    out = work_dir / "smoke-configs"
    out.mkdir()
    for path in sorted(CONFIG_DIR.glob("*.json")):
        cfg = json.loads(path.read_text())
        if cfg["kind"] == "lower_q":
            cfg["grid"] = {"n_circles": 8, "n_theta": 32, "n_profile": 64}
        (out / path.name).write_text(json.dumps(cfg))
    return out


class Ring:
    """`modlab ring-modulus` at acceptance size, radii drawn per op."""

    name = "ring"
    count_ops = 1

    def __init__(self, seed: int, smoke: bool, work_dir: Path):
        self.rng = np.random.default_rng(seed)
        self.grid = "20x60" if smoke else "200x600"
        # seed-commit error is below 1e-5 at 200x600 over the whole radius range
        self.agree_tol = 1e-2 if smoke else 1e-4
        self.out_file = work_dir / "ring.json"

    def draw(self):
        r1 = float(self.rng.uniform(0.3, 0.7))
        return r1, r1 + float(self.rng.uniform(0.8, 1.2))

    def op(self, radii) -> int:
        r1, r2 = radii
        return cli.main(["ring-modulus", "--r1", repr(r1), "--r2", repr(r2), "--grid", self.grid,
                         "--agree-tol", repr(self.agree_tol), "--out-file", str(self.out_file)])

    def check(self, radii, code: int):
        data = json.loads(self.out_file.read_text())
        self.out_file.unlink()
        r1, r2 = radii
        exact = 2.0 * math.pi / math.log(math.tanh(0.5 * r2) / math.tanh(0.5 * r1))
        rel = abs(data["discrete"] - exact) / exact
        return code == 0 and rel <= self.agree_tol, {"rel_err": rel}


class Overlap:
    """The weighted solver on a bottleneck family of bent chords.

    Every chord crosses the window from left to right and bends at a point
    inside a small central square, so all constraints share the cells there.
    The family is rasterized once, in set-up; each op draws a new weight field.
    """

    name = "overlap"
    count_ops = 16
    HALF = 0.5  # window [-HALF, HALF]^2
    BEND = 0.02  # bends lie in [-BEND, BEND]^2
    TOL = 1e-6
    GAP_MAX = 1e-4  # certified: relative duality gap, 100x the solver tolerance

    def __init__(self, seed: int, smoke: bool, work_dir: Path):
        self.rng = np.random.default_rng(seed)
        n_chords, n_cells = (64, 16) if smoke else (512, 64)
        h, b = self.HALF, self.BEND
        self.dom = modulus.cartesian_grid(((-h, h), (-h, h)), n_cells, n_cells)
        left, right = self.rng.uniform(-h, h, (2, n_chords))
        bends = self.rng.uniform(-b, b, (n_chords, 2))
        chords = tuple(
            Polyline((complex(-h, y0), complex(bx, by), complex(h, y1)))
            for y0, (bx, by), y1 in zip(left, bends, right)
        )
        self.family = modulus.rasterize_family(
            modulus.PolylineFamily(chords, kind="connecting"), self.dom)

    def draw(self) -> np.ndarray:
        return self.rng.uniform(0.5, 2.0, self.dom.n_cells)

    def op(self, weights):
        return modulus.modulus_discrete(self.family, self.dom, metric="hyperbolic",
                                        tol=self.TOL, weights=weights)

    def check(self, weights, res):
        gap = (res.value - res.dual_value) / res.value
        ok = (res.converged
              and res.dual_value <= res.value
              and res.max_constraint_violation <= 1e-9
              and gap <= self.GAP_MAX)
        return ok, {"gap_rel": gap}


class Surface:
    """Genus-2 group: enumerate, build the Dirichlet domain, then query it."""

    name = "surface"
    count_ops = 1

    def __init__(self, seed: int, smoke: bool, work_dir: Path):
        self.rng = np.random.default_rng(seed)
        word_length = 2 if smoke else 4
        self.group = fuchsian.genus2_group(max_word_length=word_length)
        self.n_elements = {2: 64, 4: 3192}[word_length]
        self.n_member, self.n_project, self.n_injectivity = (16, 4, 1) if smoke else (256, 32, 4)

    def draw(self):
        member = np.concatenate([[0j], _disk_points(self.rng, self.n_member - 1, 3.0)])
        return (member, _disk_points(self.rng, self.n_project, 3.0),
                _disk_points(self.rng, self.n_injectivity, 1.0))

    def op(self, points):
        member, project, injectivity = points
        group = self.group
        elements = fuchsian.enumerate_elements(group)
        dom = fuchsian.build_dirichlet_domain(group, elements=elements)
        return (
            elements,
            dom,
            [fuchsian.dirichlet_membership(z, dom) for z in member],
            [fuchsian.project_to_fundamental(z, group, dom, elements) for z in project],
            [fuchsian.injectivity_radius(z, group, elements) for z in injectivity],
        )

    def check(self, points, out):
        _, project, _ = points
        elements, dom, membership, projections, radii = out
        ok = len(elements) == self.n_elements and membership[0] == "inside"
        for z, (rep, word) in zip(project, projections):
            rep = complex(rep)
            ok = (ok and fuchsian.dirichlet_membership(rep, dom) != "outside"
                  and abs(word(complex(z)) - rep) <= 1e-9)
        ok = ok and all(0.0 < r < math.inf for r in radii)
        return ok, {}


WORKLOADS = {w.name: w for w in (Suite, Ring, Overlap, Surface)}
