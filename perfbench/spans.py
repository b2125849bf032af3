"""Span tracing from outside the program, for the per-layer metrics.

The tracer replaces public functions under the names the calling module
imports them by (for example ``kernels.integrate_double``), records one
span per call and restores the originals on ``uninstall``.  No source file
of the program is changed.

Self time of a span is its duration minus the part of that interval its
child spans cover.  Spans opened in worker threads of the CLI pool, whose
own stack is empty, are children of the open root span (the batch call the
benchmark made), so the root's self time is its duration minus the union
of the intervals its children cover across threads.
"""

from __future__ import annotations

import threading
import time
import warnings
from collections import defaultdict

import numpy as np


class _Frame:
    __slots__ = ("label", "start", "child_s", "intervals")

    def __init__(self, label: str, start: float, root: bool = False):
        self.label = label
        self.start = start
        self.child_s = 0.0
        self.intervals = [] if root else None


def _union_length(intervals, lo: float, hi: float) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class Tracer:
    """Per-label self time, inclusive time, call and work counts."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root: _Frame | None = None
        self._installed: list[tuple[object, str, object]] = []
        self._saved_warnings = None
        self.reset()

    # -- accounting ----------------------------------------------------------

    def reset(self) -> None:
        with self._lock:
            self.self_s: dict[str, float] = defaultdict(float)
            self.incl_s: dict[str, float] = defaultdict(float)
            self.calls: dict[str, int] = defaultdict(int)
            self.counts: dict[str, int] = defaultdict(int)

    def count(self, key: str, n: int) -> None:
        with self._lock:
            self.counts[key] += int(n)

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def _close(self, frame: _Frame, end: float, stack: list) -> None:
        dur = end - frame.start
        if frame.intervals is not None:
            own = dur - _union_length(frame.intervals, frame.start, end)
        else:
            own = dur - frame.child_s
        parent = stack[-1] if stack else self._root
        with self._lock:
            self.self_s[frame.label] += own
            self.incl_s[frame.label] += dur
            self.calls[frame.label] += 1
            if parent is not None and parent is not frame:
                if parent.intervals is not None:
                    parent.intervals.append((frame.start, end))
                else:
                    parent.child_s += dur

    def call(self, label: str, fn, *args, **kwargs):
        stack = self._stack()
        frame = _Frame(label, time.perf_counter())
        stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            stack.pop()
            self._close(frame, time.perf_counter(), stack)

    def root(self, label: str, fn, *args, **kwargs):
        """Run ``fn`` as the root span that worker-thread spans attach to."""
        stack = self._stack()
        frame = _Frame(label, time.perf_counter(), root=True)
        stack.append(frame)
        self._root = frame
        try:
            return fn(*args, **kwargs)
        finally:
            stack.pop()
            self._root = None
            self._close(frame, time.perf_counter(), stack)

    # -- installation --------------------------------------------------------

    def wrap(self, owner, attr: str, label: str, before=None) -> None:
        """Replace ``owner.attr`` by a traced wrapper; ``before(args)`` may
        count work and return replacement positional arguments."""
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            if before is not None:
                args = before(args)
            return tracer.call(label, original, *args, **kwargs)

        setattr(owner, attr, traced)
        self._installed.append((owner, attr, original))

    def _traced_integrand(self, f, double: bool):
        tracer = self

        def integrand(*xs):
            points = np.broadcast(*xs).size if double else np.size(xs[0])
            tracer.count("integrand_points", points)
            return tracer.call("quadrature.integrand", f, *xs)

        return integrand

    def install(self) -> None:
        """Wrap every traced layer of kernelwave."""
        from kernelwave import cli, cseries, expansion, kernels, phase, quadrature, verify

        def before_double(args):
            F, cA, cB, *rest = args
            self.count("panels", len(cA.panels) + len(cB.panels))
            return (self._traced_integrand(F, True), cA, cB, *rest)

        def before_single(args):
            f, c, *rest = args
            self.count("panels", len(c.panels))
            return (self._traced_integrand(f, False), c, *rest)

        def before_zeta(args):
            self.count("zeta_points", np.size(args[1]))
            return args

        def counted(key):
            def before(args):
                self.count(key, 1)
                return args
            return before

        self.wrap(kernels, "integrate_double", "quadrature.integrate_double", before_double)
        self.wrap(kernels, "integrate_single", "quadrature.integrate_single", before_single)
        self.wrap(kernels, "truncate_rays", "quadrature.contour_setup")
        self.wrap(kernels, "refine_panels", "quadrature.contour_setup")
        self.wrap(kernels, "airy_branch_paths", "phase.branch_table")
        self.wrap(kernels, "pearcey_branch_paths", "phase.branch_table")
        self.wrap(phase.BranchPath, "zeta", "phase.branch_eval", before_zeta)
        self.wrap(phase.BranchPath, "dzeta", "phase.branch_eval")
        for mod in (cli, verify, expansion):
            self.wrap(mod, "eval_kernel", "kernels.eval_kernel")
        for name in ("rescaled_airy_lhs", "rescaled_pearcey_lhs"):
            self.wrap(verify, name, "kernels.rescaled_lhs", counted("lhs_evals"))
        for mod in (cli, verify, expansion):
            self.wrap(mod, "build_amplitudes", "expansion.build_amplitudes")
        for mod in (verify, expansion):
            self.wrap(mod, "correction_term", "expansion.correction_term")
        self.wrap(cli, "expansion_partial_sum", "expansion.partial_sum")
        for name in sorted(vars(expansion)):
            obj = getattr(expansion, name)
            if callable(obj) and getattr(obj, "__module__", None) == cseries.__name__ \
                    and not isinstance(obj, type):
                self.wrap(expansion, name, "cseries",
                          counted("s2_ops") if name.startswith("s2_") else None)

        # Count every accuracy warning: the default filter would show each
        # warning location only once.
        saved = warnings.showwarning
        self._saved_warnings = (saved, warnings.filters[:])

        def showwarning(message, category, *args, **kwargs):
            if issubclass(category, quadrature.AccuracyWarning):
                self.count("accuracy_warnings", 1)
            else:
                saved(message, category, *args, **kwargs)

        warnings.showwarning = showwarning
        warnings.simplefilter("always", quadrature.AccuracyWarning)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()
        if self._saved_warnings is not None:
            warnings.showwarning, warnings.filters[:] = self._saved_warnings
            self._saved_warnings = None
