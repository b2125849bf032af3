"""Phases, saddles, level curves, and global branch maps."""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest

import kernelwave
from kernelwave.cseries import BranchError
from kernelwave.phase import (
    TRANSITION_TABLE,
    BranchPath,
    airy_branch_paths,
    export_level_curve,
    make_branch_path,
    make_phase,
    pearcey_branch_paths,
)


def test_make_phase_saddles_are_critical_points():
    for kind in ("airy-cubic", "pearcey-quartic"):
        ph = make_phase(kind)
        for s in ph.saddles:
            assert abs(ph.df(s)) < 1e-12


def test_make_phase_rejects_unknown_kind():
    with pytest.raises(ValueError):
        make_phase("elliptic-sextic")


@pytest.mark.parametrize("kind", ["airy-cubic", "pearcey-quartic"])
def test_phase_evaluations_match_polyval(kind):
    ph = make_phase(kind)
    P = np.polynomial.polynomial
    c = np.asarray(ph.coeffs)
    rng = np.random.default_rng(11)
    z = rng.uniform(-3, 3, 64) + 1j * rng.uniform(-3, 3, 64)
    for got, want in ((ph.f, P.polyval(z, c)),
                      (ph.df, P.polyval(z, P.polyder(c))),
                      (ph.ddf, P.polyval(z, P.polyder(c, 2)))):
        scale = 1.0 + np.abs(want)
        assert np.max(np.abs(got(z) - want) / scale) < 1e-14
        # Python scalars take the same recurrence
        assert abs(got(complex(z[0])) - want[0]) / scale[0] < 1e-14


def test_export_level_curve_points_sit_on_level():
    ph = make_phase("airy-cubic")
    level = ph.f(1j).imag  # 2/3, the curve through the upper saddle
    segments = export_level_curve(ph, level, window=(-2, 2, 0.1, 2))
    pts = np.concatenate([s for s in segments if len(s)])
    assert len(pts) > 50
    assert np.max(np.abs(np.array([ph.f(z) for z in pts]).imag - level)) < 1e-3


# ---------------------------------------------------------------------------
# global branch maps
# ---------------------------------------------------------------------------


def _branch_defect(path: BranchPath, xs) -> float:
    f = path.phase.f
    zs = path.zeta(np.asarray(xs, dtype=float))
    vals = np.array([f(z) for z in zs])
    return float(np.max(np.abs(vals - path.level - path.sigma * np.asarray(xs) ** 2)))


def test_airy_branch_paths_solve_defining_equation():
    paths = airy_branch_paths()
    xs = np.concatenate([np.linspace(-3, 3, 41), [-0.05, 0.05, 8.0, -8.0]])
    for name in ("S", "T"):
        assert _branch_defect(paths[name], xs) < 1e-10


def test_pearcey_branch_paths_solve_defining_equation():
    paths = pearcey_branch_paths()
    xs = np.linspace(-4, 4, 37)
    for name in ("S", "T"):
        assert _branch_defect(paths[name], xs) < 1e-10


def _all_branch_paths():
    return [*airy_branch_paths().values(), *pearcey_branch_paths().values()]


def test_branch_tables_solve_defining_equation_out_to_x_max():
    for path in _all_branch_paths():
        path.zeta(np.array([path.x_max, -path.x_max]))  # marches both tables to the reach
        for sign, table in zip((+1, -1), path._tables):
            xs = sign * (path.x_switch + path.dx * np.arange(len(table)))
            assert abs(xs[-1]) >= path.x_max
            bound = 1e-14 * (1.0 + xs ** 2)
            target = path.level + path.sigma * xs ** 2
            assert np.all(np.abs(path.phase.f(table) - target) < bound)
            assert np.all(np.abs(path.residual(xs)) < bound)


def _fresh_paths():
    return [make_branch_path(t.phase, t.saddle, *getattr(t, name))
            for t in TRANSITION_TABLE.values() for name in ("S", "T")]


def test_new_branch_path_holds_no_nodes():
    for path in _fresh_paths():
        assert [len(t) for t in path._tables] == [0, 0]
        path.zeta(np.array([-0.1, 0.0, path.x_switch]))  # the series serves these
        assert [len(t) for t in path._tables] == [0, 0]


def test_branch_tables_grow_only_to_the_node_nearest_the_largest_x():
    for path in _fresh_paths():
        for r in (0.5, 2.343, 1.0):  # the last needs no new node
            path.zeta(np.linspace(-r, r, 7))
        nearest = round((2.343 - path.x_switch) / path.dx)
        assert [len(t) for t in path._tables] == [nearest + 1] * 2
        path.zeta(5.004)  # one direction asked for: both grow
        assert [len(t) for t in path._tables] == [489, 489]


def test_branch_tables_grown_in_steps_equal_one_march():
    for stepped, whole in zip(_fresh_paths(), _fresh_paths()):
        for r in (0.3, 1.7, 5.0, -12.25, 33.333, 40.0):
            stepped.zeta(r)
        whole.zeta(-whole.x_max)
        assert len(whole._tables[0]) == round((whole.x_max - whole.x_switch) / whole.dx) + 1
        for a, b in zip(stepped._tables, whole._tables):
            assert np.array_equal(a, b)


def test_zeta_seeds_from_the_tables_it_grew():
    # Another thread may store shorter tables right after this call grew
    # them; every growth is a prefix of one march, so that costs only work.
    x = np.linspace(-5.0, 5.0, 9)
    path, want = _fresh_paths()[0], _fresh_paths()[0].zeta(x)
    march = path._march

    def raced(k):
        tables = march(k)
        path._tables = tuple(t[:10] for t in tables)
        return tables

    path._march = raced
    assert np.array_equal(path.zeta(x), want)
    assert [len(t) for t in path._tables] == [10, 10]


def test_branch_path_raises_beyond_its_reach():
    for path in _all_branch_paths():
        for x in (path.x_max + 1e-9, -np.inf, [0.5, -path.x_max - 1e-9]):
            with pytest.raises(BranchError, match="beyond table range 40.0"):
                path.zeta(x)


def test_rate_study_anchor_marches_fewer_than_400_nodes():
    # A fresh process: the tables of the two paths grow only as far as one
    # rate-study anchor evaluates them (about 2.96 of the reach's 40).
    code = ("from kernelwave.kernels import rescaled_airy_lhs\n"
            "from kernelwave.phase import airy_branch_paths\n"
            "from kernelwave.verify import DEFAULT_STUDY_POINTS\n"
            "u, v, t1, t2 = DEFAULT_STUDY_POINTS[0]\n"
            "rescaled_airy_lhs(4.0, t1, t2, u, v)\n"
            "print(*(len(t) for p in airy_branch_paths().values() for t in p._tables))")
    src = os.path.dirname(os.path.dirname(kernelwave.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120, check=True)
    counts = [int(n) for n in done.stdout.split()]
    assert len(counts) == 4 and 0 < max(counts) < 400, counts


def test_fused_pass_returns_zeta_and_dzeta():
    rng = np.random.default_rng(5)
    for path in _all_branch_paths():
        x = np.concatenate([rng.uniform(-path.x_max, path.x_max, 199),
                            rng.uniform(-path.x_switch, path.x_switch, 20), [0.0]])
        x = x.reshape(11, 20)  # block amplitudes pass 2-D grids
        z, dz = path.zeta(x, with_derivative=True)
        assert np.array_equal(z, path.zeta(x))
        assert np.array_equal(dz, path.dzeta(x))
        far = np.abs(x) > path.x_switch
        assert np.array_equal(dz[far], 2.0 * path.sigma * x[far] / path.phase.df(z[far]))
        zs, dzs = path.zeta(1.5, with_derivative=True)
        assert zs == path.zeta(1.5) and dzs == path.dzeta(1.5)


def test_branch_path_derivative_matches_finite_differences():
    path = airy_branch_paths()["S"]
    for x in (0.03, 0.4, 2.0):
        h = 1e-6
        fd = (path.zeta(x + h) - path.zeta(x - h)) / (2 * h)
        assert abs(path.dzeta(x) - fd) < 1e-7


def test_branch_path_series_and_march_agree_at_switch():
    # values just inside and outside the series radius must line up
    path = pearcey_branch_paths()["T"]
    eps = 1e-6
    x0 = path.x_switch
    assert abs(path.zeta(x0 - eps) - path.zeta(x0 + eps)) < 1e-5


def test_branch_path_builds_its_own_tables():
    # The tables are always marched from the series; one passed in would be
    # discarded, so the constructor takes none, and the reach is fixed.
    path = airy_branch_paths()["S"]
    args = (path.phase, path.center, path.sigma, path.first_coeff, path.series)
    with pytest.raises(TypeError, match="_tables"):
        BranchPath(*args, _tables=path._tables)
    with pytest.raises(TypeError, match="x_max"):
        BranchPath(*args, x_max=10.0)
    with pytest.raises(TypeError, match="x_max"):
        make_branch_path(*args[:4], x_max=10.0)


def test_make_branch_path_rejects_bad_first_coeff():
    ph = make_phase("airy-cubic")
    with pytest.raises(BranchError, match="first_coeff"):
        make_branch_path(ph, 1j, +1, 1.0)
