"""Command-line front end: evaluation, expansions, coefficient dumps,
contour tracing, rate verification, and grid sweeps.

Subcommands
-----------
``eval``    one kernel query from flags, or a batch from a JSON-lines / CSV file
``expand``  partial sums of the asymptotic expansion over a list of ``a`` values
``coeffs``  JSON dump of amplitude coefficients (optionally with Gauss moments)
``trace``   steepest-path rays through a saddle, or a level-curve point cloud
``verify``  residual rate studies with slope windows (``--check`` gates exit code)
``sweep``   kernel values over a regular grid or a seeded random cloud

Exit codes: 0 success, 1 error (bad input or a failed ``--check``),
2 completed with accuracy warnings.  A batch or sweep is one
:func:`~kernelwave.kernels.eval_kernels` call (the segment kernels of a
batch are integrated together), and rows come out in input order.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from io import StringIO

import numpy as np

from .expansion import (
    TRANSITIONS,
    build_amplitudes,
    coefficients_to_json,
    expansion_partial_sum,
    gauss_moments,
)
from .kernels import KERNEL_NAMES, KernelQuery, KernelValue, eval_kernels
from .kernels import eval_kernel  # noqa: F401  (perfbench/spans.py traces this name)
from .phase import export_level_curve, make_phase, trace_steepest
from .quadrature import GeometryError, QuadOptions
from .verify import (
    ACCEPTANCE_WINDOWS,
    DEFAULT_A_GRID,
    DEFAULT_STUDY_POINTS,
    check_windows,
    cross_validate,
    residual_study,
    table_summary_json,
    table_to_csv,
)

__all__ = ["RunConfig", "main"]

_EVAL_HEADER = "kernel,a,tau1,tau2,u,v,re,im,err,backend"


@dataclass
class RunConfig:
    """Resolved invocation: one subcommand plus its I/O and numeric options."""

    command: str
    input_path: str | None = None
    output_path: str | None = None
    format: str = "csv"
    quad: QuadOptions = field(default_factory=QuadOptions)
    backend: str = "direct"
    seed: int = 0
    warn_tol: float = 1e-6
    params: dict = field(default_factory=dict)


def _g(x: float) -> str:
    return f"{x:.17g}"


def _write_output(config: RunConfig, text: str) -> None:
    if config.output_path:
        with open(config.output_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_point(text: str) -> tuple[float, float, float, float]:
    parts = [float(p) for p in text.split(",")]
    if len(parts) != 4:
        raise ValueError(f"point must be 'u,v,tau1,tau2', got {text!r}")
    return tuple(parts)  # type: ignore[return-value]


def _parse_floats(text: str) -> list[float]:
    return [float(p) for p in text.split(",") if p.strip()]


def _parse_grid(text: str) -> np.ndarray:
    """A 'lo:hi:n' linspace or a comma list."""
    if ":" in text:
        lo, hi, n = text.split(":")
        return np.linspace(float(lo), float(hi), int(n))
    return np.asarray(_parse_floats(text))


# ---------------------------------------------------------------------------
# eval / sweep rows
# ---------------------------------------------------------------------------


def _query_row(q: KernelQuery, kv: KernelValue) -> str:
    a = "" if q.a_param is None else _g(q.a_param)
    return (
        f"{q.kernel},{a},{_g(q.tau1)},{_g(q.tau2)},{_g(q.u)},{_g(q.v)},"
        f"{_g(kv.value.real)},{_g(kv.value.imag)},{_g(kv.error_estimate)},"
        f"{kv.backend_used}"
    )


def _query_json(q: KernelQuery, kv: KernelValue) -> str:
    obj = {
        "kernel": q.kernel,
        "tau1": q.tau1,
        "tau2": q.tau2,
        "u": q.u,
        "v": q.v,
        "re": kv.value.real,
        "im": kv.value.imag,
        "err": kv.error_estimate,
        "backend": kv.backend_used,
    }
    if q.a_param is not None:
        obj["a"] = q.a_param
    return json.dumps(obj)


def _queries_from_jsonl(lines: list[str], config: RunConfig) -> list[KernelQuery]:
    out = []
    for i, line in enumerate(lines):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
            a = obj.get("a", obj.get("a_param"))
            out.append(
                KernelQuery(
                    kernel=obj["kernel"],
                    tau1=float(obj.get("tau1", 0.0)),
                    tau2=float(obj.get("tau2", 0.0)),
                    u=float(obj.get("u", 0.0)),
                    v=float(obj.get("v", 0.0)),
                    a_param=None if a is None else float(a),
                    backend=obj.get("backend", config.backend),
                    opts=config.quad,
                )
            )
        except (KeyError, ValueError, json.JSONDecodeError) as exc:
            raise ValueError(f"line {i + 1}: malformed query ({exc})") from exc
    return out


def _queries_from_csv(lines: list[str], config: RunConfig) -> list[KernelQuery]:
    header = lines[0].strip().split(",")
    idx = {name: k for k, name in enumerate(header)}
    for col in ("kernel", "tau1", "tau2", "u", "v"):
        if col not in idx:
            raise ValueError(f"CSV header misses required column {col!r}")
    out = []
    for i, line in enumerate(lines[1:], start=2):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        try:
            a_txt = parts[idx["a"]].strip() if "a" in idx else ""
            backend = (
                parts[idx["backend"]].strip()
                if "backend" in idx and parts[idx["backend"]].strip()
                else config.backend
            )
            out.append(
                KernelQuery(
                    kernel=parts[idx["kernel"]].strip(),
                    tau1=float(parts[idx["tau1"]]),
                    tau2=float(parts[idx["tau2"]]),
                    u=float(parts[idx["u"]]),
                    v=float(parts[idx["v"]]),
                    a_param=float(a_txt) if a_txt else None,
                    backend=backend,
                    opts=config.quad,
                )
            )
        except (IndexError, ValueError) as exc:
            raise ValueError(f"line {i}: malformed CSV row ({exc})") from exc
    return out


def _emit_rows(config: RunConfig, queries: list[KernelQuery]) -> int:
    values = eval_kernels(queries)
    buf = StringIO()
    if config.format == "csv":
        buf.write(_EVAL_HEADER + "\n")
        for q, kv in zip(queries, values):
            buf.write(_query_row(q, kv) + "\n")
    else:
        for q, kv in zip(queries, values):
            buf.write(_query_json(q, kv) + "\n")
    _write_output(config, buf.getvalue())
    warned = any(
        kv.error_estimate > config.warn_tol or kv.imag_residual > 1e-9
        for kv in values
    )
    if warned:
        print("warning: some rows exceed the accuracy thresholds", file=sys.stderr)
        return 2
    return 0


def cmd_eval(config: RunConfig) -> int:
    p = config.params
    if config.input_path:
        with open(config.input_path) as fh:
            lines = fh.readlines()
        if not lines:
            raise ValueError("empty batch input")
        first = lines[0].lstrip()
        if first.startswith("{"):
            queries = _queries_from_jsonl(lines, config)
        else:
            queries = _queries_from_csv(lines, config)
    else:
        if p.get("kernel") is None:
            raise ValueError("eval needs --kernel or --input")
        queries = [
            KernelQuery(
                kernel=p["kernel"],
                tau1=p["tau1"],
                tau2=p["tau2"],
                u=p["u"],
                v=p["v"],
                a_param=p.get("a_param"),
                backend=config.backend,
                opts=config.quad,
            )
        ]
    return _emit_rows(config, queries)


def cmd_sweep(config: RunConfig) -> int:
    p = config.params
    kernel = p.get("kernel")
    if kernel is None:
        raise ValueError("sweep needs --kernel")
    queries: list[KernelQuery] = []
    if p.get("random"):
        rng = np.random.default_rng(config.seed)
        lo, hi = p["box_lo"], p["box_hi"]
        pts = rng.uniform(lo, hi, size=(p["random"], 4))
        for u, v, t1, t2 in pts:
            queries.append(
                KernelQuery(
                    kernel=kernel, tau1=float(t1), tau2=float(t2),
                    u=float(u), v=float(v),
                    a_param=p.get("a_param"), backend=config.backend,
                    opts=config.quad,
                )
            )
    else:
        us = _parse_grid(p["grid_u"])
        vs = _parse_grid(p["grid_v"])
        for u in us:
            for v in vs:
                queries.append(
                    KernelQuery(
                        kernel=kernel, tau1=p["tau1"], tau2=p["tau2"],
                        u=float(u), v=float(v),
                        a_param=p.get("a_param"), backend=config.backend,
                        opts=config.quad,
                    )
                )
    return _emit_rows(config, queries)


# ---------------------------------------------------------------------------
# expand / coeffs
# ---------------------------------------------------------------------------


def cmd_expand(config: RunConfig) -> int:
    p = config.params
    if p.get("transition") is None or p.get("point") is None or not p.get("a_values"):
        raise ValueError("expand needs --transition, --point and --a")
    transition = _TRANSITION_ALIASES[p["transition"]]
    u, v, t1, t2 = p["point"]
    n_top = p["N"]
    a_list = p["a_values"]
    coeffs = (
        build_amplitudes(transition, u, v, t1, t2, order=2 * n_top)
        if n_top >= 1
        else None
    )
    base = expansion_partial_sum(transition, 0, u, v, t1, t2, a_list[0], opts=config.quad)
    buf = StringIO()
    rows = []
    for a in a_list:
        for n in range(n_top + 1):
            val = expansion_partial_sum(
                transition, n, u, v, t1, t2, a, coeffs=coeffs, base=base
            )
            rows.append((a, n, val))
    if config.format == "csv":
        buf.write("transition,u,v,tau1,tau2,a,N,partial_sum\n")
        for a, n, val in rows:
            buf.write(
                f"{transition},{_g(u)},{_g(v)},{_g(t1)},{_g(t2)},"
                f"{_g(a)},{n},{_g(val)}\n"
            )
    else:
        for a, n, val in rows:
            buf.write(
                json.dumps(
                    {
                        "transition": transition,
                        "point": [u, v, t1, t2],
                        "a": a,
                        "N": n,
                        "partial_sum": val,
                    }
                )
                + "\n"
            )
    _write_output(config, buf.getvalue())
    return 0


def cmd_coeffs(config: RunConfig) -> int:
    p = config.params
    if p.get("transition") is None or p.get("point") is None:
        raise ValueError("coeffs needs --transition and --point")
    u, v, t1, t2 = p["point"]
    transition = _TRANSITION_ALIASES[p["transition"]]
    coeffs = build_amplitudes(transition, u, v, t1, t2, p["order"])
    text = coefficients_to_json(coeffs)
    if p.get("with_moments"):
        obj = json.loads(text)
        gm = gauss_moments(p["order"])
        obj["B"] = [[[z.real, z.imag] for z in row] for row in gm.B]
        obj["C"] = [float(c) for c in gm.C]
        text = json.dumps(obj)
    _write_output(config, text + "\n")
    return 0


# ---------------------------------------------------------------------------
# trace
# ---------------------------------------------------------------------------

_SADDLES = {
    ("airy", "upper"): (1j, np.pi / 4, 3 * np.pi / 4),
    ("airy", "lower"): (-1j, -np.pi / 4, -3 * np.pi / 4),
    ("pearcey", "upper"): (np.exp(1j * np.pi / 3), 7 * np.pi / 6, 2 * np.pi / 3),
    ("pearcey", "lower"): (np.exp(-1j * np.pi / 3), 5 * np.pi / 6, -2 * np.pi / 3),
    ("pearcey", "real"): (-1.0 + 0j, np.pi / 2, 0.0),
}


def cmd_trace(config: RunConfig) -> int:
    p = config.params
    if p.get("phase") is None:
        raise ValueError("trace needs --phase")
    kind = "airy-cubic" if p["phase"] == "airy" else "pearcey-quartic"
    phase = make_phase(kind)
    buf = StringIO()
    if p["mode"] == "level":
        window = tuple(p["window"])
        segments = export_level_curve(phase, p["level_im"], window=window)
        for seg in segments:
            for z in seg:
                buf.write(f"{_g(z.real)} {_g(z.imag)}\n")
            buf.write("\n")
    else:
        key = (p["phase"], p["level"])
        if key not in _SADDLES:
            raise ValueError(
                f"no saddle named {p['level']!r} for phase {p['phase']!r}"
            )
        saddle, desc_angle, asc_angle = _SADDLES[key]
        rays = [
            (desc_angle, True),
            (desc_angle + np.pi, True),
            (asc_angle, False),
            (asc_angle + np.pi, False),
        ]
        for angle, descent in rays:
            path = trace_steepest(
                phase, saddle, angle, descent=descent,
                max_arclength=p["max_arclength"],
            )
            for z in path.points:
                buf.write(f"{_g(z.real)} {_g(z.imag)}\n")
            buf.write("\n")
    _write_output(config, buf.getvalue())
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

_TRANSITION_ALIASES = {
    "airy": "airy-to-s1",
    "airy-to-s1": "airy-to-s1",
    "pearcey": "pearcey-to-s2",
    "pearcey-to-s2": "pearcey-to-s2",
}


def cmd_verify(config: RunConfig) -> int:
    p = config.params
    if p["transition"] == "both":
        transitions = list(TRANSITIONS)
    else:
        transitions = [_TRANSITION_ALIASES[p["transition"]]]
    points = p["points"] or list(DEFAULT_STUDY_POINTS)
    a_grid = p["a_values"] or list(DEFAULT_A_GRID)
    violations: list[str] = []
    csv_parts: list[str] = []
    json_lines: list[str] = []
    for transition in transitions:
        n_max = p["n_max"]
        if n_max is None:
            n_max = max(ACCEPTANCE_WINDOWS[transition])
        for point in points:
            table = residual_study(
                transition, point, a_grid, n_max,
                backend=config.backend if config.backend != "direct" else "saddle",
                opts=config.quad,
            )
            violations.extend(check_windows(table))
            if config.format == "csv":
                csv_parts.append(table_to_csv(table))
            else:
                json_lines.append(table_summary_json(table))
    if config.format == "csv":
        header, *_ = csv_parts[0].splitlines(keepends=True)
        body = "".join(
            "".join(part.splitlines(keepends=True)[1:]) for part in csv_parts
        )
        _write_output(config, header + body)
    else:
        _write_output(config, "\n".join(json_lines) + "\n")
    if p.get("cross_check"):
        qs = [
            KernelQuery(kernel="airy-ext", tau1=t1, tau2=t2, u=u, v=v, opts=config.quad)
            for (u, v, t1, t2) in points
        ]
        report = cross_validate(qs)
        if report.n_flagged:
            violations.append(
                f"cross-validation flagged {report.n_flagged} of {len(report.rows)} rows"
            )
    if p.get("check"):
        for line in violations:
            print(f"check failed: {line}", file=sys.stderr)
        if violations:
            return 1
        print("all acceptance windows hold", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="kernelwave",
        description="Evaluate universal transition kernels and their expansions.",
    )
    parser.add_argument("--config", help="key=value file; flags override it")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, fmt_default="csv"):
        # Accept --config on the subcommand too; SUPPRESS keeps an absent
        # flag from clobbering a value parsed before the subcommand name.
        sp.add_argument("--config", default=argparse.SUPPRESS)
        sp.add_argument("--input", dest="input_path")
        sp.add_argument("--output", dest="output_path")
        sp.add_argument("--format", choices=("csv", "json"), default=fmt_default)
        sp.add_argument("--backend", choices=("direct", "saddle"), default="direct")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--rel-tol", type=float, default=None)
        sp.add_argument("--abs-tol", type=float, default=None)
        sp.add_argument("--nodes-per-panel", type=int, default=None)
        sp.add_argument("--warn-tol", type=float, default=1e-6)

    se = sub.add_parser("eval", help="evaluate kernel queries")
    common(se)
    se.add_argument("--kernel", choices=KERNEL_NAMES)
    se.add_argument("--tau1", type=float, default=0.0)
    se.add_argument("--tau2", type=float, default=0.0)
    se.add_argument("--u", type=float, default=0.0)
    se.add_argument("--v", type=float, default=0.0)
    se.add_argument("--a-param", type=float, default=None)

    sx = sub.add_parser("expand", help="partial sums of the asymptotic expansion")
    common(sx)
    sx.add_argument("--transition", choices=sorted(_TRANSITION_ALIASES))
    sx.add_argument("--point", type=_parse_point)
    sx.add_argument("--N", type=int, default=1)
    sx.add_argument("--a", dest="a_values", type=_parse_floats)

    sc = sub.add_parser("coeffs", help="dump amplitude coefficients as JSON")
    common(sc, fmt_default="json")
    sc.add_argument("--transition", choices=sorted(_TRANSITION_ALIASES))
    sc.add_argument("--point", type=_parse_point)
    sc.add_argument("--order", type=int, default=4)
    sc.add_argument("--with-moments", action="store_true")

    st = sub.add_parser("trace", help="steepest-path rays or level curves")
    common(st)
    st.add_argument("--phase", choices=("airy", "pearcey"))
    st.add_argument("--level", choices=("upper", "lower", "real"), default="upper")
    st.add_argument("--mode", choices=("rays", "level"), default="rays")
    st.add_argument("--level-im", type=float, default=0.0)
    st.add_argument("--window", type=_parse_floats, default=[-4.0, 4.0, -4.0, 4.0])
    st.add_argument("--max-arclength", type=float, default=8.0)

    sv = sub.add_parser("verify", help="residual rate studies")
    common(sv, fmt_default="json")
    sv.add_argument(
        "--transition",
        choices=sorted(_TRANSITION_ALIASES) + ["both"],
        default="both",
    )
    sv.add_argument(
        "--points",
        type=lambda t: [_parse_point(p) for p in t.split(";") if p.strip()],
        default=None,
        help="semicolon-separated u,v,tau1,tau2 points",
    )
    sv.add_argument("--a-grid", dest="a_values", type=_parse_floats, default=None)
    sv.add_argument("--n-max", type=int, default=None)
    sv.add_argument("--check", action="store_true")
    sv.add_argument("--cross-check", action="store_true")

    sw = sub.add_parser("sweep", help="kernel values over a grid or random cloud")
    common(sw)
    sw.add_argument("--kernel", choices=KERNEL_NAMES)
    sw.add_argument("--tau1", type=float, default=0.0)
    sw.add_argument("--tau2", type=float, default=0.0)
    sw.add_argument("--grid-u", default="-1:1:5")
    sw.add_argument("--grid-v", default="-1:1:5")
    sw.add_argument("--a-param", type=float, default=None)
    sw.add_argument("--random", type=int, default=0)
    sw.add_argument("--box-lo", type=float, default=-1.0)
    sw.add_argument("--box-hi", type=float, default=1.0)

    return parser, {
        "eval": se, "expand": sx, "coeffs": sc,
        "trace": st, "verify": sv, "sweep": sw,
    }


def _load_config_file(path: str) -> dict:
    out: dict = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"config line without '=': {line!r}")
            key, val = (s.strip() for s in line.split("=", 1))
            out[key.replace("-", "_")] = val
    return out


_CONFIG_COERCE = {
    "seed": int,
    "n_max": int,
    "order": int,
    "N": int,
    "random": int,
    "nodes_per_panel": int,
    "rel_tol": float,
    "abs_tol": float,
    "warn_tol": float,
    "tau1": float,
    "tau2": float,
    "u": float,
    "v": float,
    "a_param": float,
    "level_im": float,
    "max_arclength": float,
    "box_lo": float,
    "box_hi": float,
    "point": _parse_point,
    "a_values": _parse_floats,
    "window": _parse_floats,
    "points": lambda t: [_parse_point(p) for p in t.split(";") if p.strip()],
    "with_moments": lambda s: s.lower() in ("1", "true", "yes"),
    "check": lambda s: s.lower() in ("1", "true", "yes"),
    "cross_check": lambda s: s.lower() in ("1", "true", "yes"),
}


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    quad_kwargs = {}
    if getattr(args, "rel_tol", None) is not None:
        quad_kwargs["rel_tol"] = args.rel_tol
    if getattr(args, "abs_tol", None) is not None:
        quad_kwargs["abs_tol"] = args.abs_tol
    if getattr(args, "nodes_per_panel", None) is not None:
        quad_kwargs["nodes_per_panel"] = args.nodes_per_panel
    handled = {
        "command", "config", "input_path", "output_path", "format",
        "backend", "seed", "warn_tol", "rel_tol", "abs_tol",
        "nodes_per_panel",
    }
    params = {k: v for k, v in vars(args).items() if k not in handled}
    return RunConfig(
        command=args.command,
        input_path=getattr(args, "input_path", None),
        output_path=getattr(args, "output_path", None),
        format=getattr(args, "format", "csv"),
        quad=QuadOptions(**quad_kwargs),
        backend=getattr(args, "backend", "direct"),
        seed=getattr(args, "seed", 0),
        warn_tol=getattr(args, "warn_tol", 1e-6),
        params=params,
    )


_COMMANDS = {
    "eval": cmd_eval,
    "expand": cmd_expand,
    "coeffs": cmd_coeffs,
    "trace": cmd_trace,
    "verify": cmd_verify,
    "sweep": cmd_sweep,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, sub_parsers = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            raw = _load_config_file(args.config)
            coerced = {
                k: (_CONFIG_COERCE[k](v) if k in _CONFIG_COERCE else v)
                for k, v in raw.items()
            }
            # Defaults must live on the chosen subparser: subcommands parse
            # into a fresh namespace, so top-level defaults are clobbered.
            sub_parsers[args.command].set_defaults(**coerced)
            args = parser.parse_args(argv)
        config = _config_from_args(args)
        return _COMMANDS[config.command](config)
    except SystemExit as exc:  # argparse usage errors exit 2; remap to 1
        return 1 if exc.code else 0
    except (ValueError, OSError, KeyError, GeometryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
