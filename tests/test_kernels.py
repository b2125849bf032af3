"""Kernel evaluation: closed forms, independent oracles, backend agreement."""

from __future__ import annotations

import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import airy as scipy_airy

from kernelwave.kernels import (
    KernelQuery,
    KernelValue,
    eval_kernel,
    eval_kernels,
    heat_term,
    relation_connS,
    relation_connSS,
    rescaled_airy_lhs,
    rescaled_pearcey_lhs,
    transition_interpolation_check,
)
from kernelwave import kernels
from kernelwave.kernels import _direct_airy  # deformation-invariance check
from kernelwave.quadrature import _CHUNK, QuadOptions
from kernelwave.verify import DEFAULT_STUDY_POINTS

# Multiples of 2**-21: common shifts are exact, yet tau1 - tau2 can still be
# 0 or as small as 2**-21, where the segment kernels are steepest.
coord = st.integers(-3 * 2 ** 20, 3 * 2 ** 20).map(lambda k: k * 2.0 ** -21)
shift = st.integers(-(2 ** 20), 2 ** 20).map(lambda k: k * 2.0 ** -21)


def _val(kernel, tau1=0.0, tau2=0.0, u=0.0, v=0.0, a=None, backend="direct"):
    return eval_kernel(
        KernelQuery(kernel, tau1, tau2, u, v, a_param=a, backend=backend)
    )


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def test_heat_term_values():
    assert heat_term(0.0, 1.0, "four-pi") == 0.0
    assert heat_term(-0.5, 1.0, "two-pi") == 0.0
    dt, dx = 0.7, -0.4
    want4 = np.exp(-(dx ** 2) / (4 * dt)) / np.sqrt(4 * np.pi * dt)
    want2 = np.exp(-(dx ** 2) / (2 * dt)) / np.sqrt(2 * np.pi * dt)
    assert abs(heat_term(dt, dx, "four-pi") - want4) < 1e-15
    assert abs(heat_term(dt, dx, "two-pi") - want2) < 1e-15
    with pytest.raises(ValueError):
        heat_term(dt, dx, "six-pi")


@pytest.mark.parametrize("du", [0.5, 1.0, 0.25, -0.8])
def test_sine_ext_equal_times_is_sinc(du):
    kv = _val("sine-ext", 0.3, 0.3, du, 0.0)
    want = np.sin(np.pi * du) / (np.pi * du)
    assert abs(kv.value.real - want) < 1e-10


def test_sine_ext_diagonal_limit():
    kv = _val("sine-ext", -0.2, -0.2, 0.7, 0.7)
    assert abs(kv.value.real - 1.0) < 1e-10


def test_s1_diagonal_value():
    kv = _val("s1", 0.4, 0.4, -0.3, -0.3)
    assert abs(kv.value.real - 1.0 / np.pi) < 1e-12


def test_s2_diagonal_value():
    kv = _val("s2", -0.1, -0.1, 0.6, 0.6)
    assert abs(kv.value.real - np.sqrt(3.0) / (2 * np.pi)) < 1e-12


def test_airy_ext_zero_times_matches_classic_kernel():
    # tau1 = tau2 = 0 reduces to (Ai(u)Ai'(v) - Ai'(u)Ai(v))/(u - v)
    for u, v in [(0.3, -0.2), (0.7, 0.1), (-0.5, -1.1)]:
        Aiu, Aipu, _, _ = scipy_airy(u)
        Aiv, Aipv, _, _ = scipy_airy(v)
        want = (Aiu * Aipv - Aipu * Aiv) / (u - v)
        kv = _val("airy-ext", 0.0, 0.0, u, v)
        assert abs(kv.value.real - want) < 1e-8


def test_airy_ext_origin_is_derivative_squared():
    aip0 = scipy_airy(0.0)[1]
    kv = _val("airy-ext", 0.0, 0.0, 0.0, 0.0)
    assert abs(kv.value.real - aip0 ** 2) < 1e-8


# ---------------------------------------------------------------------------
# realness, symmetry under shifts, deformation invariance
# ---------------------------------------------------------------------------


def test_kernels_are_real_on_sample_points():
    rng = np.random.default_rng(5)
    for kernel in ("sine-ext", "s1", "s2", "airy-ext", "pearcey-ext"):
        t1, t2, u, v = rng.uniform(-1, 1, size=4)
        kv = _val(kernel, t1, t2, u, v)
        assert kv.imag_residual < 1e-9, kernel


@given(coord, coord, coord, coord, shift, shift)
def test_segment_kernels_depend_only_on_differences(t1, t2, u, v, ct, cu):
    # the three segment kernels are invariant under common shifts
    for kernel in ("s1", "s2", "sine-ext"):
        base = _val(kernel, t1, t2, u, v).value
        moved = _val(kernel, t1 + ct, t2 + ct, u + cu, v + cu).value
        assert abs(base - moved) < 1e-10


def test_eval_kernels_matches_one_query_at_a_time():
    # One mixed batch: every kernel, both backends where there are two, the
    # segment kernels at dt > 0, dt < 0 and dt = 0 plus the point where the
    # realness bound was once missed, and more s1 rows than one chunk holds.
    rng = np.random.default_rng(11)
    qs = [KernelQuery(k, 0.3, -0.2, 0.15, 0.05, backend=b)
          for k in ("airy-ext", "pearcey-ext") for b in ("direct", "saddle")]
    qs.append(KernelQuery("transition-a", 0.3, -0.2, 0.15, 0.05, a_param=1.0))
    qs += [KernelQuery(k, t1, t2, 0.7, -0.4) for k in ("sine-ext", "s1", "s2")
           for t1, t2 in ((0.5, 0.1), (-0.3, 0.4), (0.2, 0.2))]
    qs.append(KernelQuery("sine-ext", -1.828, 1.861, -1.878, -1.518))
    rows_per_chunk = _CHUNK // (3 * QuadOptions().nodes_per_panel)
    qs += [KernelQuery("s1", *rng.uniform(-2.0, 2.0, 4))
           for _ in range(rows_per_chunk + 15)]
    qs = [qs[k] for k in rng.permutation(len(qs))]

    batch = eval_kernels(qs)
    assert len(batch) == len(qs)
    for q, got in zip(qs, batch):
        want = eval_kernel(q)
        assert got.backend_used == want.backend_used
        assert abs(got.value - want.value) <= 0.1 * want.error_estimate, q
        assert abs(got.error_estimate - want.error_estimate) <= 0.05 * want.error_estimate, q
        if q.kernel in ("sine-ext", "s1", "s2"):
            assert got.value.imag == want.value.imag == 0.0


def test_eval_kernels_groups_direct_queries_that_share_times(monkeypatch):
    # Direct queries sharing (kernel, tau1, tau2, a) share their contours and
    # one bilinear form; saddle and segment rows sit between them.  Groups
    # of at most 5 split the airy rows in two.
    monkeypatch.setattr(kernels, "_GROUP", 5)
    rng = np.random.default_rng(12)
    qs = [KernelQuery("airy-ext", 0.5, 0.0, *rng.uniform(-3, 3, 2)) for _ in range(8)]
    qs += [KernelQuery("pearcey-ext", -0.2, 0.3, *rng.uniform(-2, 2, 2)) for _ in range(4)]
    qs += [KernelQuery("transition-a", 0.1, 0.2, *rng.uniform(-2, 2, 2), a_param=1.5)
           for _ in range(3)]
    qs += [KernelQuery(k, 0.3, -0.2, 0.15, 0.05, backend="saddle")
           for k in ("airy-ext", "pearcey-ext")]
    qs += [KernelQuery(k, 0.4, 0.1, 0.7, -0.4) for k in ("sine-ext", "s1", "s2")]
    qs = [qs[k] for k in rng.permutation(len(qs))]

    batch = eval_kernels(qs)
    for q, got in zip(qs, batch):
        want = eval_kernel(q)
        assert got.backend_used == want.backend_used, q
        assert abs(got.value - want.value) <= min(got.error_estimate, want.error_estimate), q
        assert 0.5 <= got.error_estimate / want.error_estimate <= 2.0, q


def test_airy_block_matches_scipy_within_its_estimates():
    # The whole equal-time tau = 0 block of the 16-node Gauss-Legendre grid
    # on [-3, 3] in one batch, against scipy's Airy kernel.
    x = 3.0 * np.polynomial.legendre.leggauss(16)[0]
    u, v = (g.ravel() for g in np.meshgrid(x, x, indexing="ij"))
    batch = eval_kernels([KernelQuery("airy-ext", 0.0, 0.0, a, b) for a, b in zip(u, v)])
    ai_u, aip_u, _, _ = scipy_airy(u)
    ai_v, aip_v, _, _ = scipy_airy(v)
    diag = u == v
    with np.errstate(divide="ignore", invalid="ignore"):
        want = np.where(diag, aip_u ** 2 - u * ai_u ** 2,
                        (ai_u * aip_v - aip_u * ai_v) / (u - v))
    got = np.array([kv.value.real for kv in batch])
    err = np.array([kv.error_estimate for kv in batch])
    ratio = np.abs(got - want) / err
    print(f"largest miss / err over the 256-entry block: {ratio.max():.3f}")
    assert (ratio <= 1.0).all()


def test_direct_airy_fails_fast_at_large_negative_times():
    from kernelwave.quadrature import GeometryError

    start = time.perf_counter()
    try:
        kv = _val("airy-ext", -14.0, -14.0)
    except GeometryError:
        pass
    else:  # above the CLI's default warn_tol, so `kernelwave eval` exits 2
        assert kv.error_estimate > 1e-6
    assert time.perf_counter() - start < 5.0
    # the exponentials overflow: rejected, not returned as nan
    with pytest.raises(GeometryError, match="non-finite"):
        _val("airy-ext", -20.0, -20.0)


def test_direct_airy_contour_deformation_invariance():
    opts = QuadOptions()
    vals = [
        _direct_airy(0.2, -0.1, 0.3, -0.4, opts, sigma_vertex=s, gamma_vertex=g)[0]
        for s, g in ((0.25, -0.25), (0.1, -0.3), (0.6, -0.1), (0.35, -0.6))
    ]
    for v in vals[1:]:
        assert abs(v - vals[0]) < 1e-9


def test_direct_airy_rejects_swapped_contours():
    from kernelwave.quadrature import GeometryError

    with pytest.raises(GeometryError):
        _direct_airy(0.0, 0.0, 0.0, 0.0, QuadOptions(),
                     sigma_vertex=-0.3, gamma_vertex=0.3)


# ---------------------------------------------------------------------------
# backends and rescaled left-hand sides
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kernel", ["airy-ext", "pearcey-ext"])
def test_backends_agree(kernel):
    for t1, t2, u, v in [(0.2, -0.1, 0.4, -0.3), (-0.3, 0.25, -0.6, 0.1)]:
        d = _val(kernel, t1, t2, u, v, backend="direct")
        s = _val(kernel, t1, t2, u, v, backend="saddle")
        assert abs(d.value - s.value) < 1e-8
        assert d.backend_used == "direct" and s.backend_used == "saddle"


def test_rescaled_airy_lhs_backends_agree():
    d = rescaled_airy_lhs(3.0, 0.2, -0.1, 0.4, -0.3, "direct")
    s = rescaled_airy_lhs(3.0, 0.2, -0.1, 0.4, -0.3, "saddle")
    assert abs(d.value - s.value) < 1e-8


def test_rescaled_pearcey_lhs_backends_agree():
    d = rescaled_pearcey_lhs(3.0, 0.2, -0.1, 0.4, -0.3, "direct")
    s = rescaled_pearcey_lhs(3.0, 0.2, -0.1, 0.4, -0.3, "saddle")
    assert abs(d.value - s.value) < 1e-8


def test_rescaled_lhs_converges_to_segment_kernel():
    # at large a the rescaled kernels approach their stationary limits
    point = (0.3, -0.2, 0.25, 0.1)
    u, v, t1, t2 = point
    s1 = _val("s1", t1, t2, u, v).value.real
    s2 = _val("s2", t1, t2, u, v).value.real
    for a, tol in ((8.0, 2e-2), (20.0, 4e-3)):
        assert abs(rescaled_airy_lhs(a, t1, t2, u, v).value.real - s1) < tol
    for a, tol in ((8.0, 3e-2), (20.0, 8e-3)):
        assert abs(rescaled_pearcey_lhs(a, t1, t2, u, v).value.real - s2) < tol


@pytest.mark.parametrize("a", [2.0, 4.0, 6.0, 8.0])
def test_saddle_lhs_matches_direct_within_both_estimates(a):
    # the direct backend shares no geometry with the branch-path blocks
    worst = 0.0
    for u, v, t1, t2 in DEFAULT_STUDY_POINTS:
        for lhs in (rescaled_airy_lhs, rescaled_pearcey_lhs):
            d = lhs(a, t1, t2, u, v, "direct")
            s = lhs(a, t1, t2, u, v, "saddle")
            ratio = abs(d.value - s.value) / (d.error_estimate + s.error_estimate)
            worst = max(worst, ratio)
            assert ratio <= 1.0, (lhs.__name__, a, u, v)
    print(f"a={a}: largest |saddle - direct| / (sum of estimates) {worst:.3f}")


@pytest.mark.parametrize("a", [4.0, 8.0, 12.0])
def test_equal_time_saddle_airy_lhs_matches_scipy(a):
    # K(t, t; x, y) = exp(t (x - y)) K_Ai(x + t^2, y + t^2), with the classic
    # K_Ai(x, y) = (Ai(x) Ai'(y) - Ai'(x) Ai(y)) / (x - y)
    worst = 0.0
    for tau, u, v in ((0.0, 0.9, 0.3), (0.4, -0.5, 0.6), (-0.3, 1.2, -0.4)):
        kv = rescaled_airy_lhs(a, tau, tau, u, v)
        t, x, y = tau / a, u / np.sqrt(a) - a, v / np.sqrt(a) - a
        ai_x, aip_x, _, _ = scipy_airy(x + t * t)
        ai_y, aip_y, _, _ = scipy_airy(y + t * t)
        want = np.exp(t * (x - y)) * (ai_x * aip_y - aip_x * ai_y) / (x - y) / np.sqrt(a)
        ratio = abs(kv.value.real - want) / kv.error_estimate
        worst = max(worst, ratio)
        assert ratio <= 1.0, (a, tau, u, v)
    print(f"a={a}: largest |saddle - scipy| / err {worst:.3f}")


def test_saddle_J_evaluates_each_branch_path_once_per_rule(monkeypatch):
    # the blocks gather their factors from one 1-D coordinate vector per
    # rule; the truncation half-width's fixed point probes +-X only
    from kernelwave.phase import BranchPath

    kernels.airy_branch_paths(), kernels.pearcey_branch_paths()  # built already
    shapes = []
    zeta = BranchPath.zeta

    def counted(self, x, *args, **kwargs):
        shapes.append(np.shape(x))
        return zeta(self, x, *args, **kwargs)

    monkeypatch.setattr(BranchPath, "zeta", counted)
    for kind in ("airy-to-s1", "pearcey-to-s2"):
        shapes.clear()
        kernels._saddle_J(kind, 6.0, 0.2, -0.3, 0.9, 0.7, QuadOptions())
        vectors = [shape for shape in shapes if shape != (2,)]
        assert len(vectors) == 4, kind  # 2 branch paths x 2 rules
        assert all(len(shape) == 1 and shape[0] > 2 for shape in vectors), kind
        assert len(shapes) > 4, kind


def test_error_estimates_are_honest():
    # reference: the same query at doubled node count and tighter tolerance
    tight = QuadOptions(rel_tol=1e-13, abs_tol=1e-16, nodes_per_panel=64)
    queries = [
        KernelQuery("sine-ext", 0.3, -0.2, 0.8, 0.1),
        KernelQuery("s1", -0.4, 0.2, 0.3, -0.6),
        KernelQuery("s2", 0.1, -0.3, -0.2, 0.5),
        KernelQuery("airy-ext", 0.15, -0.1, 0.4, -0.25),
        KernelQuery("pearcey-ext", -0.2, 0.1, 0.5, 0.3),
    ]
    for q in queries:
        kv = eval_kernel(q)
        ref = eval_kernel(
            KernelQuery(q.kernel, q.tau1, q.tau2, q.u, q.v, opts=tight)
        )
        true_err = abs(kv.value - ref.value)
        assert true_err <= max(5.0 * kv.error_estimate, 1e-11), q.kernel


# ---------------------------------------------------------------------------
# exact relations
# ---------------------------------------------------------------------------


def test_relation_connS_holds():
    for t1, t2, u, v in [(0.4, -0.2, 0.3, -0.5), (0.0, 0.3, -0.7, 0.2)]:
        lhs, rhs = relation_connS(t1, t2, u, v)
        assert abs(lhs.value - rhs.value) < 1e-10


def test_relation_connSS_holds():
    for t1, t2, u, v in [(0.4, -0.2, 0.3, -0.5), (-0.3, 0.1, 0.6, -0.4)]:
        lhs, rhs = relation_connSS(t1, t2, u, v)
        assert abs(lhs.value - rhs.value) < 1e-10


def test_transition_zero_matches_quartic_kernel():
    lhs, rhs = transition_interpolation_check(0.0, 0.2, -0.1, 0.3, -0.4)
    # the two sides come from independent geometries
    assert (lhs.backend_used, rhs.backend_used) == ("direct", "saddle")
    assert abs(lhs.value - rhs.value) < 1e-10


def test_transition_rejects_negative_a():
    with pytest.raises(ValueError):
        transition_interpolation_check(-1.0, 0.0, 0.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# query plumbing
# ---------------------------------------------------------------------------


def test_query_validation():
    with pytest.raises(ValueError):
        KernelQuery("unknown-kernel")
    with pytest.raises(ValueError):
        KernelQuery("transition-a")  # needs a_param
    with pytest.raises(ValueError):
        KernelQuery("s1", a_param=2.0)  # a_param is transition-only
    with pytest.raises(ValueError):
        KernelQuery("s1", backend="magic")


@pytest.mark.parametrize("field", ["tau1", "tau2", "u", "v", "a_param"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_query_rejects_non_finite_inputs(field, bad):
    with pytest.raises(ValueError, match=field):
        KernelQuery("transition-a", **{"a_param": 1.0, field: bad})
    # the rescaled kernels take the same numbers, with a for a_param
    name = "a" if field == "a_param" else field
    args = {"a": 3.0, "tau1": 0.0, "tau2": 0.0, "u": 0.0, "v": 0.0, name: bad}
    for lhs in (rescaled_airy_lhs, rescaled_pearcey_lhs):
        for backend in ("saddle", "direct"):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                lhs(**args, backend=backend)


def test_kernel_value_wrap_records_imag_residual():
    kv = KernelValue.wrap(1.0 + 1e-12j, 1e-14, "direct")
    assert kv.imag_residual == pytest.approx(1e-12)
    assert kv.backend_used == "direct"


def test_transition_a_runs_and_is_real():
    kv = _val("transition-a", 0.2, -0.1, 0.3, 0.1, a=1.5)
    assert kv.imag_residual < 1e-9
