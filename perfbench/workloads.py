"""The four benchmark workloads: inputs from a seed, one warm-up per kernel
family, the timed operations, and the checks against independent oracles.

Each workload makes a different module do most of the work:

``airy-matrix``      quadrature.integrate_double (direct double contour integrals)
``sine-matrix``      per-query overhead in cli, kernels and integrate_single
``rate-study``       phase.BranchPath (saddle backend of the rescaled kernels)
``expansion-table``  cseries arithmetic inside expansion.build_amplitudes

A workload runs in rounds.  A round is a list of samples; each sample is
one timed call of the program and covers ``ops`` operations (matrix
entries, residual studies or ``expand`` calls).  A run times at least
``min_samples`` samples.
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass, field, replace

import numpy as np

from kernelwave import cli
from kernelwave.expansion import TRANSITIONS
from kernelwave.kernels import KernelQuery, eval_kernel, rescaled_airy_lhs, rescaled_pearcey_lhs
from kernelwave.verify import (
    ACCEPTANCE_WINDOWS,
    DEFAULT_A_GRID,
    DEFAULT_STUDY_POINTS,
    check_windows,
    residual_study,
)

EPS = float(np.finfo(float).eps)
WARN_TOL = 1e-6  # the CLI's default --warn-tol
IM_TOL = 1e-9  # the CLI's realness threshold (exit code 2)
# The quadrature stops refining a panel once its two-level difference is
# below 200 eps times the magnitude integral of |f|: below that floor an
# error estimate resolves nothing, so the floor is part of what the
# program's value claims.
ROUNDOFF = 200.0 * EPS


def run_cli(argv: list[str]) -> tuple[int, str]:
    """One in-process ``kernelwave`` call with stdout captured in memory."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


@dataclass
class Check:
    """Outcome of checking every op of one run."""

    attempted: int = 0
    failures: list = field(default_factory=list)
    checked: int = 0  # ops compared with an oracle
    underestimates: int = 0  # oracle miss above err + oracle err alone
    self_test: str = "not run"

    def fail(self, what: str, why: str, times: int = 1) -> None:
        self.failures.extend([(what, why)] * times)


def judge(value: complex, err: float, ref: float | None = None,
          ref_err: float = 0.0, floor: float = 0.0) -> str | None:
    """Reason the value fails, or None.  ``floor`` is the round-off a
    double-precision evaluation of this value cannot resolve."""
    if not (math.isfinite(value.real) and math.isfinite(value.imag) and math.isfinite(err)):
        return "non-finite value or error estimate"
    if err > WARN_TOL:
        return f"err {err:.3g} above warn_tol {WARN_TOL:g}"
    if abs(value.imag) > IM_TOL:
        return f"|Im| {abs(value.imag):.3g} above {IM_TOL:g}"
    if ref is not None:
        miss = abs(value.real - ref)
        if miss > err + ref_err + floor:
            return (f"misses oracle {ref!r} by {miss:.3g} > err {err:.3g} + "
                    f"oracle err {ref_err:.3g} + round-off {floor:.3g}")
    return None


class Workload:
    name = ""
    op = ""  # what one op is
    headline = ""  # the metric name the workload is reported under
    root = "cli"  # label of the root span around each timed call
    min_samples = 3
    setup_runs = 10  # fresh-process set-ups whose median is setup_s

    def __init__(self, seed: int, workdir):
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir

    @staticmethod
    def warm_up() -> None:
        raise NotImplementedError

    def round(self, k: int) -> list:
        """Samples of round ``k``: a list of ``(ops, thunk)``."""
        raise NotImplementedError

    def check(self, results: list) -> Check:
        """``results`` holds ``(round, index, outcome)`` per sample, where the
        outcome is the thunk's return value or the exception it raised."""
        raise NotImplementedError

    def headline_value(self, ops_per_s: float) -> tuple[float, str]:
        return ops_per_s, "1/s"

    def keep(self, outcome):
        """What the run keeps of an outcome until it is checked."""
        return outcome

    def envelope_counts(self, results) -> tuple[int, int]:
        """Slope fits that used the envelope, and all slope fits."""
        return 0, 0


# ---------------------------------------------------------------------------
# Kernel matrices through `kernelwave eval --input`
# ---------------------------------------------------------------------------


class _Matrix(Workload):
    """``K(t_i, x_i; t_j, x_j)`` over all pairs of (time, node) grid points,
    sent to the CLI as CSV batches written before the timer starts."""

    kernel = ""
    times: tuple = ()
    interval = (0.0, 0.0)
    m = 0
    # Entries per batch, all from one (tau1, tau2) block, in seeded order;
    # None sends the whole matrix, in seeded order, as one batch.
    batch: int | None = None
    headline = "entries_per_s"
    op = "entry"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        x, _ = np.polynomial.legendre.leggauss(self.m)
        lo, hi = self.interval
        nodes = [float(y) for y in lo + 0.5 * (x + 1.0) * (hi - lo)]
        entries = [(t1, t2, u, v) for t1 in self.times for t2 in self.times
                   for u in nodes for v in nodes]  # (tau1, tau2, u, v), block by block
        n = self.m * self.m
        if self.batch:
            order = [b * n + int(i) for b in range(len(self.times) ** 2)
                     for i in self.rng.permutation(n)]
        else:
            order = self.rng.permutation(len(entries))
        size = self.batch or len(entries)
        self.batches = [[entries[i] for i in order[j:j + size]]
                        for j in range(0, len(entries), size)]
        # Round k takes batch k of every block: a list of batch indices.
        per_block = max(1, len(self.batches) // len(self.times) ** 2)
        self.rounds = [list(range(j, len(self.batches), per_block)) for j in range(per_block)]
        self._outputs: dict = {}
        self.paths = []
        for j, queries in enumerate(self.batches):
            path = workdir / f"{self.name}-{j}.csv"
            with open(path, "w") as fh:
                fh.write("kernel,tau1,tau2,u,v\n")
                for t1, t2, u, v in queries:
                    fh.write(f"{self.kernel},{t1!r},{t2!r},{u!r},{v!r}\n")
            self.paths.append(path)

    def round(self, k):
        def call(path):
            return lambda: run_cli(["eval", "--input", str(path)])
        return [(len(self.batches[j]), call(self.paths[j])) for j in self.rounds[k % len(self.rounds)]]

    def keep(self, outcome):
        # Repeated batches print the same text: keep one copy, so stored
        # outputs do not grow the peak memory.
        if isinstance(outcome, tuple):
            return self._outputs.setdefault(outcome, outcome)
        return outcome

    def reference(self, tau1, tau2, u, v):
        """``(ref, ref_err, floor)`` or None when the entry is not compared."""
        raise NotImplementedError

    def check(self, results):
        out = Check()
        distinct: dict = {}
        for k, i, outcome in results:
            key = (self.rounds[k % len(self.rounds)][i],
                   outcome if isinstance(outcome, tuple) else repr(outcome))
            distinct[key] = distinct.get(key, 0) + 1
        refs: dict = {}
        for (j, outcome), times in distinct.items():
            queries = self.batches[j]
            n = len(queries)
            out.attempted += n * times
            if not isinstance(outcome, tuple):
                out.fail(f"{self.name} batch {j} of {n}", f"raised {outcome}", n * times)
                continue
            rc, text = outcome
            rows = text.splitlines()[1:]
            if rc not in (0, 2) or len(rows) != n:
                out.fail(f"{self.name} batch {j} of {n}",
                         f"exit code {rc} with {len(rows)} of {n} rows", n * times)
                continue
            for q, row in zip(queries, rows):
                f = row.split(",")
                t1, t2, u, v = (float(c) for c in f[2:6])
                value, err = complex(float(f[6]), float(f[7])), float(f[8])
                what = f"{f[0]} tau1={t1!r} tau2={t2!r} u={u!r} v={v!r}"
                if (t1, t2, u, v) != q:
                    out.fail(what, "row out of order", times)
                    continue
                if q not in refs:
                    refs[q] = self.reference(*q)
                ref = refs[q]
                why = judge(value, err, *(ref or ()))
                if ref is not None:
                    out.checked += times
                    if abs(value.real - ref[0]) > err + ref[1]:
                        out.underestimates += times
                    if out.self_test == "not run":
                        out.self_test = self._self_test(value, err, ref)
                if why:
                    out.fail(what, why, times)
        return out

    @staticmethod
    def _self_test(value, err, ref) -> str:
        ref_val, ref_err, floor = ref
        bumped = value + 10.0 * (err + ref_err + floor)
        if judge(bumped, err, ref_val, ref_err, floor) is None:
            return "FAILED: a value 10x its error estimate off was accepted"
        return "passed"


class AiryMatrix(_Matrix):
    name = "airy-matrix"
    kernel = "airy-ext"
    times = (0.0, 0.5)
    interval = (-3.0, 3.0)
    # 16 nodes resolve det(I - K_Ai) on [-3, 3] to 1e-14, the accuracy a
    # Fredholm determinant is computed to (Bornemann 2010).  The matrix has
    # 1,024 entries; a sample is one batch of 16 entries of one block, so
    # the queries of a batch share tau1 and tau2.
    m = 16
    batch = 16
    min_samples = 4  # one batch of each block

    @staticmethod
    def warm_up():
        eval_kernel(KernelQuery("airy-ext", 0.0, 0.0, 0.0, 0.0))

    def reference(self, tau1, tau2, u, v):
        # The oracle cannot give the magnitude integral behind the value;
        # |value| <= int |f| makes ROUNDOFF * |value| a lower bound of the
        # quadrature's own floor.
        if tau1 == tau2:
            import oracles
            ref = oracles.airy_equal_time(tau1, u, v)
            return ref, 1e-25 * abs(ref), ROUNDOFF * abs(ref)
        kv = eval_kernel(KernelQuery("airy-ext", tau1, tau2, u, v, backend="saddle"))
        return kv.value.real, kv.error_estimate, ROUNDOFF * abs(kv.value)


class SineMatrix(_Matrix):
    name = "sine-matrix"
    kernel = "sine-ext"
    times = (0.0, 0.5, 1.0)
    interval = (0.0, 4.0)
    m = 33
    cross_sample = 200  # cross-time entries compared with mpmath per run

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        cross = [q for q in self.batches[0] if q[0] != q[1]]
        pick = self.rng.choice(len(cross), size=self.cross_sample, replace=False)
        self.sampled = {cross[i] for i in pick}

    @staticmethod
    def warm_up():
        eval_kernel(KernelQuery("sine-ext", 0.5, 0.0, 0.3, 0.1))

    def reference(self, tau1, tau2, u, v):
        import oracles
        if tau1 == tau2:
            # |exp(i dx w)| = 1, so the magnitude integral is 1.
            return oracles.sine_equal_time(u, v), 1e-25, ROUNDOFF
        if (tau1, tau2, u, v) in self.sampled:
            ref, mag = oracles.sine_cross_time(tau1, tau2, u, v)
            return ref, 1e-25 * mag, ROUNDOFF * mag
        return None


# ---------------------------------------------------------------------------
# Residual rate studies (saddle backend)
# ---------------------------------------------------------------------------


class RateStudy(Workload):
    """Both transitions at the three default study points, in seeded order;
    a round is all six studies."""

    name = "rate-study"
    op = "study"
    headline = "study_s"
    root = "verify"
    min_samples = 6  # all six studies
    setup_runs = 5  # each builds the branch-path tables, about 2.3 s

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        studies = [(t, p) for t in TRANSITIONS for p in DEFAULT_STUDY_POINTS]
        self.studies = [studies[i] for i in self.rng.permutation(len(studies))]

    @staticmethod
    def warm_up():
        u, v, t1, t2 = DEFAULT_STUDY_POINTS[0]
        rescaled_airy_lhs(DEFAULT_A_GRID[0], t1, t2, u, v)
        rescaled_pearcey_lhs(DEFAULT_A_GRID[0], t1, t2, u, v)

    def round(self, k):
        def study(transition, point):
            n_max = max(ACCEPTANCE_WINDOWS[transition])
            return lambda: residual_study(transition, point, DEFAULT_A_GRID, n_max)
        return [(1, study(t, p)) for t, p in self.studies]

    def check(self, results):
        out = Check()
        for _, i, outcome in results:
            transition, point = self.studies[i]
            what = f"{transition} point={point}"
            out.attempted += 1
            if isinstance(outcome, BaseException):
                out.fail(what, f"raised {outcome!r}")
                continue
            for line in check_windows(outcome):
                out.fail(what, line)
            if out.self_test == "not run":
                out.self_test = self._self_test(outcome)
        return out

    @staticmethod
    def _self_test(table) -> str:
        # Move the N=0 slope 10 standard errors beyond its nearer window edge.
        lo, hi = ACCEPTANCE_WINDOWS[table.transition][0]
        s, ci = table.slopes[0], table.slope_ci[0]
        bumped = hi + 10.0 * ci if hi - s < s - lo else lo - 10.0 * ci
        slopes = table.slopes.copy()
        slopes[0] = bumped
        if not check_windows(replace(table, slopes=slopes)):
            return "FAILED: a slope outside its window was accepted"
        return "passed"

    def headline_value(self, ops_per_s):
        return 1.0 / ops_per_s, "s"

    def envelope_counts(self, results):
        tables = [o for _, _, o in results if not isinstance(o, BaseException)]
        return sum(sum(t.envelope_used) for t in tables), sum(len(t.envelope_used) for t in tables)


# ---------------------------------------------------------------------------
# Expansion tables through `kernelwave expand`
# ---------------------------------------------------------------------------


class ExpansionTable(Workload):
    """``expand --N 12 --a 6,10,14`` for both transitions at seeded points in
    [-1, 1]^4; a round is the pair of calls at the next point."""

    name = "expansion-table"
    op = "expand call"
    headline = "expansions_per_s"
    a_values = (6.0, 10.0, 14.0)
    n_top = 12
    residual_rounds = 16  # rounds whose top partial sums are compared with the saddle backend

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.points = self.rng.uniform(-1.0, 1.0, size=(4096, 4))

    @classmethod
    def warm_up(cls):
        # One full call per transition: fills the moment caches up to the
        # order the timed calls use.
        for transition in TRANSITIONS:
            run_cli(cls._argv(transition, (0.1, 0.2, 0.3, -0.4)))

    @classmethod
    def _argv(cls, transition, point):
        return ["expand", "--transition", transition,
                "--point=" + ",".join(repr(float(c)) for c in point),
                "--N", str(cls.n_top), "--a", ",".join(repr(a) for a in cls.a_values)]

    def round(self, k):
        point = self.points[k % len(self.points)]
        return [(2, lambda: [run_cli(self._argv(t, point)) for t in TRANSITIONS])]

    def check(self, results):
        import oracles
        out = Check()
        tested: dict = {}  # kind of comparison -> whether its self-test caught the bump
        for k, _, outcome in results:
            u, v, t1, t2 = (float(c) for c in self.points[k % len(self.points)])
            if isinstance(outcome, BaseException):
                out.attempted += 2
                out.fail(f"expand pair u={u!r} v={v!r} tau1={t1!r} tau2={t2!r}",
                         f"raised {outcome!r}", 2)
                continue
            for transition, (rc, text) in zip(TRANSITIONS, outcome):
                out.attempted += 1
                what = f"expand {transition} u={u!r} v={v!r} tau1={t1!r} tau2={t2!r}"
                rows = [r.split(",") for r in text.splitlines()[1:]]
                want = len(self.a_values) * (self.n_top + 1)
                if rc != 0 or len(rows) != want:
                    out.fail(what, f"exit code {rc} with {len(rows)} of {want} rows")
                    continue
                sums = {(float(r[5]), int(r[6])): float(r[7]) for r in rows}
                if not all(math.isfinite(s) for s in sums.values()):
                    out.fail(what, "non-finite partial sum")
                    continue
                comparisons = []
                for a in self.a_values:
                    ps0, ps1 = sums[(a, 0)], sums[(a, 1)]
                    ref, cond = oracles.fluctuation(transition, u, v, t1, t2, a)
                    # The sums carry no error estimate: allow 8 eps of the
                    # scale that bounds their round-off.
                    err = 8.0 * EPS * (abs(ps0) + abs(ps1) + cond)
                    comparisons.append(("nu=1", f"a={a!r} N=1 - N=0", complex(ps1 - ps0),
                                        err, ref, 1e-25 * cond))
                if k < self.residual_rounds:
                    comparisons.append(("tail", f"a={self.a_values[-1]!r} N={self.n_top}",
                                        *self._top_sum(transition, (u, v, t1, t2), sums)))
                for kind, where, value, err, ref, ref_err in comparisons:
                    why = judge(value, err, ref, ref_err)
                    if why:
                        out.fail(f"{what} {where}", why)
                    elif kind not in tested:
                        bumped = value + 10.0 * (err + ref_err)
                        tested[kind] = judge(bumped, err, ref, ref_err) is not None
        if len(tested) == 2:
            out.self_test = ("passed" if all(tested.values())
                             else "FAILED: a value 10x its error estimate off was accepted")
        return out

    def _top_sum(self, transition, point, sums):
        """``(value, err, ref, ref_err)`` for the N = n_top partial sum at the
        largest ``a``.  The reference is the rescaled kernel from the saddle
        backend, which uses none of the 2-D series arithmetic the expansion
        is built from.  ``err`` is the size of the last two terms, which
        bounds the omitted tail while the terms still decrease, plus 8 eps
        of the sums' round-off scale."""
        u, v, t1, t2 = point
        a, n = self.a_values[-1], self.n_top
        lhs = rescaled_airy_lhs if transition == TRANSITIONS[0] else rescaled_pearcey_lhs
        kv = lhs(a, t1, t2, u, v)
        ps = [sums[(a, i)] for i in range(n + 1)]
        tail = abs(ps[n] - ps[n - 1]) + abs(ps[n - 1] - ps[n - 2])
        err = tail + 8.0 * EPS * max(abs(p) for p in ps)
        return complex(ps[n]), err, kv.value.real, kv.error_estimate

WORKLOADS = {w.name: w for w in (AiryMatrix, SineMatrix, RateStudy, ExpansionTable)}
