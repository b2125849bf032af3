"""Phases, saddles, level curves, and global branch maps."""

from __future__ import annotations

import numpy as np
import pytest

from kernelwave.cseries import BranchError
from kernelwave.phase import (
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
        x = path._table_x
        assert x[-1] >= path.x_max
        for sign, table in ((+1, path._table_pos), (-1, path._table_neg)):
            xs = sign * x
            bound = 1e-14 * (1.0 + xs ** 2)
            target = path.level + path.sigma * xs ** 2
            assert np.all(np.abs(path.phase.f(table) - target) < bound)
            assert np.all(np.abs(path.residual(xs)) < bound)


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
    # The tables are always built from the series; one passed in would be
    # discarded, so the constructor takes none.
    path = airy_branch_paths()["S"]
    with pytest.raises(TypeError, match="_table_x"):
        BranchPath(path.phase, path.center, path.sigma, path.first_coeff, path.series,
                   _table_x=path._table_x)


def test_make_branch_path_rejects_bad_first_coeff():
    ph = make_phase("airy-cubic")
    with pytest.raises(BranchError, match="first_coeff"):
        make_branch_path(ph, 1j, +1, 1.0)
