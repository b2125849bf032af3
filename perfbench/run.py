"""kernelwave benchmark: one closed-loop caller, outputs checked against
independent oracles, every metric printed by name and unit.

    python3 perfbench/run.py --workload airy-matrix --seed 1 --seconds 8 --trace 0

Run from the repository root.  ``--trace 0`` reports the end-to-end metrics
(``ops_per_s``, ``setup_s``, ``peak_rss_mb``); ``--trace 1`` reports the
per-layer metrics from a traced run.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _measure(wl, seconds: float, tracer=None):
    """Time samples, round after round, until ``seconds`` have passed and at
    least ``wl.min_samples`` are done.  Returns per-sample (seconds, ops) and
    the ``(round, index, outcome)`` results."""
    samples, results = [], []
    start = time.perf_counter()
    for k in itertools.count():
        for i, (ops, thunk) in enumerate(wl.round(k)):
            t0 = time.perf_counter()
            try:
                outcome = tracer.root(wl.root, thunk) if tracer else thunk()
            except Exception as exc:  # counted as failed ops by the checker
                outcome = exc
            samples.append((time.perf_counter() - t0, ops))
            results.append((k, i, wl.keep(outcome)))
            if len(samples) >= wl.min_samples and time.perf_counter() - start >= seconds:
                return samples, results


def _median_op_s(samples) -> float:
    """Median sample time per op; every sample of a workload covers the same
    number of ops except in rate-study, where each covers one study."""
    return statistics.median(t / ops for t, ops in samples)


def _setup_probe(workload: str) -> float:
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload],
        capture_output=True, text=True, timeout=150, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-400:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def _versions() -> dict:
    import numpy
    out = {"python": platform.python_version(), "numpy": numpy.__version__}
    for mod in ("scipy", "mpmath"):
        try:
            out[mod] = __import__(mod).__version__
        except ImportError:
            out[mod] = None
    return out


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _layer_metrics(tracer, wl, results, ops: float, table_s: float,
                   overhead_s: float) -> dict:
    s, incl, calls, n = tracer.self_s, tracer.incl_s, tracer.calls, tracer.counts
    env_used, fits = wl.envelope_counts(results)
    per_op = {
        "quadrature.integrand_s": (s["quadrature.integrand"], "s"),
        "quadrature.integrate_double_self_s": (s["quadrature.integrate_double"], "s"),
        "quadrature.integrate_single_self_s": (s["quadrature.integrate_single"], "s"),
        "quadrature.integrand_points": (n["integrand_points"], "count"),
        "quadrature.integrand_calls": (calls["quadrature.integrand"], "count"),
        "quadrature.contour_setup_s": (incl["quadrature.contour_setup"], "s"),
        "quadrature.panels": (n["panels"], "count"),
        "quadrature.accuracy_warnings": (n["accuracy_warnings"], "count"),
        "kernels.self_s": (s["kernels.eval_kernel"] + s["kernels.rescaled_lhs"], "s"),
        "cli.self_s": (s["cli"], "s"),
        "phase.branch_eval_s": (s["phase.branch_eval"], "s"),
        "phase.zeta_points": (n["zeta_points"], "count"),
        "verify.lhs_evals": (n["lhs_evals"], "count"),
        "verify.fits": (fits, "count"),
        "verify.self_s": (s["verify"], "s"),
        "cseries.busy_s": (s["cseries"], "s"),
        "cseries.s2_ops": (n["s2_ops"], "count"),
        "expansion.build_amplitudes_s": (incl["expansion.build_amplitudes"], "s"),
    }
    metrics = {k: {"value": v / ops, "unit": u} for k, (v, u) in per_op.items()}
    metrics["verify.envelope_frac"] = {"value": env_used / fits if fits else 0.0,
                                       "unit": "fraction"}
    metrics["phase.branch_table_s"] = {"value": table_s, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": overhead_s, "unit": "s"}
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "kernelwave" / "__init__.py").is_file():
        print(f"error: no kernelwave sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # The CLI pool stays at its default size.
    os.environ.pop("KERNELWAVE_THREADS", None)
    sys.path.insert(0, str(ROOT / "src"))

    t0 = time.perf_counter()
    import kernelwave  # noqa: F401  (import time is part of setup_s)
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    cls = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        tracer.install()
    cls.warm_up()
    setup_times = [time.perf_counter() - t0]

    from kernelwave import cli
    workers = cli._max_workers() if hasattr(cli, "_max_workers") else 1
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-work-", dir=ROOT))
    try:
        wl = cls(args.seed, workdir)
        if tracer is None:
            setup_times += [_setup_probe(args.workload) for _ in range(cls.setup_runs - 1)]
            samples, results = _measure(wl, args.seconds)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        else:
            table_s = tracer.incl_s["phase.branch_table"]
            tracer.uninstall()
            tracer.reset()
            plain, _ = _measure(wl, args.seconds / 2)
            tracer.install()
            samples, results = _measure(wl, args.seconds / 2, tracer)
            tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    op_s = _median_op_s(samples)
    ops = sum(n for _, n in samples)
    check = wl.check(results)
    failed = len(check.failures)

    env = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
           "nproc": os.cpu_count(), "cpu": _cpu_model(), "workers": workers,
           **_versions()}
    print("environment " + json.dumps(env))
    for what, why in check.failures:
        print(f"FAIL {what}: {why}")
    print(f"checker self-test: {check.self_test}")
    print(f"fail_rate = {failed / max(check.attempted, 1):.6g} "
          f"({failed} failed of {check.attempted} attempted {wl.op} ops)")
    print(f"round-off-limited: {check.underestimates} of {check.checked} oracle "
          f"comparisons miss by more than err + oracle err")
    value, unit = wl.headline_value(1.0 / op_s)
    print(f"{wl.headline} = {value:.6g} {unit} (median of {len(samples)} samples, "
          f"{ops} {wl.op} ops)")

    if tracer is None:
        print(f"setup_s samples: {', '.join(f'{t:.4f}' for t in setup_times)}")
        metrics = {
            "ops_per_s": {"value": 1.0 / op_s, "unit": "1/s"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    else:
        overhead_s = op_s - _median_op_s(plain)
        metrics = _layer_metrics(tracer, wl, results, ops, table_s, overhead_s)
        metrics["quadrature.err_underestimate_frac"] = {
            "value": check.underestimates / check.checked if check.checked else 0.0,
            "unit": "fraction"}
        busy = {m: sum(v["value"] for k, v in metrics.items()
                       if k.startswith(m + ".") and k.endswith("_s")
                       and k not in ("phase.branch_table_s", "trace.overhead_s"))
                for m in ("quadrature", "kernels", "phase", "cseries", "expansion",
                          "verify", "cli")}
        busy["expansion"] -= metrics["cseries.busy_s"]["value"]  # build_amplitudes is inclusive
        total = sum(busy.values())
        print("busy share per op: " + ", ".join(
            f"{m} {b / total:.1%}" for m, b in busy.items()) + f" of {total:.4g} s")
    for k, v in metrics.items():
        print(f"metric {k} = {v['value']:.6g} {v['unit']}")

    correct = failed == 0 and check.self_test == "passed"
    print(json.dumps({"correct": correct, "attempted": check.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
