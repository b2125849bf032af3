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

Each subcommand's parser is the one statement of its options: it takes only
the flags its command reads, and the values of a ``--config`` file pass
through the same actions (type, choices, store_true) as the flags.

Exit codes: 0 success, 1 error (bad input or a failed ``--check``),
2 completed with accuracy warnings.  A batch or sweep is one
:func:`~kernelwave.kernels.eval_kernels` call, and rows come out in input
order.  The segment kernels of a batch are integrated together, and so are
its direct airy-ext, pearcey-ext and transition-a rows that share both
times (and ``a``): each such group is one Cauchy-matrix bilinear form.
"""

from __future__ import annotations

import argparse
import json
import sys
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

__all__ = ["main"]

_EVAL_HEADER = "kernel,a,tau1,tau2,u,v,re,im,err,backend"


def _g(x: float) -> str:
    return f"{x:.17g}"


def _write_output(args: argparse.Namespace, text: str) -> None:
    if args.output:
        with open(args.output, "w") as fh:
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


def _query(kernel, tau1, tau2, u, v, a, backend: str, opts: QuadOptions) -> KernelQuery:
    """The one place the CLI builds a query: numbers become floats, and
    ``a`` stays None when absent."""
    return KernelQuery(
        kernel=kernel, tau1=float(tau1), tau2=float(tau2), u=float(u), v=float(v),
        a_param=None if a is None else float(a), backend=backend, opts=opts,
    )


def _queries_from_jsonl(
    lines: list[str], args: argparse.Namespace, opts: QuadOptions
) -> list[KernelQuery]:
    out = []
    for i, line in enumerate(lines):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
            out.append(
                _query(
                    obj["kernel"], obj.get("tau1", 0.0), obj.get("tau2", 0.0),
                    obj.get("u", 0.0), obj.get("v", 0.0),
                    obj.get("a", obj.get("a_param")),
                    obj.get("backend", args.backend), opts,
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"line {i + 1}: malformed query ({exc})") from exc
    return out


def _queries_from_csv(
    lines: list[str], args: argparse.Namespace, opts: QuadOptions
) -> list[KernelQuery]:
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
            backend = parts[idx["backend"]].strip() if "backend" in idx else ""
            out.append(
                _query(
                    parts[idx["kernel"]].strip(), parts[idx["tau1"]],
                    parts[idx["tau2"]], parts[idx["u"]], parts[idx["v"]],
                    a_txt or None, backend or args.backend, opts,
                )
            )
        except (IndexError, ValueError) as exc:
            raise ValueError(f"line {i}: malformed CSV row ({exc})") from exc
    return out


def _emit_rows(args: argparse.Namespace, queries: list[KernelQuery]) -> int:
    values = eval_kernels(queries)
    buf = StringIO()
    if args.format == "csv":
        buf.write(_EVAL_HEADER + "\n")
        for q, kv in zip(queries, values):
            buf.write(_query_row(q, kv) + "\n")
    else:
        for q, kv in zip(queries, values):
            buf.write(_query_json(q, kv) + "\n")
    _write_output(args, buf.getvalue())
    warned = any(
        kv.error_estimate > args.warn_tol or kv.imag_residual > 1e-9
        for kv in values
    )
    if warned:
        print("warning: some rows exceed the accuracy thresholds", file=sys.stderr)
        return 2
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    opts = _quad_options(args)
    if args.input:
        with open(args.input) as fh:
            lines = fh.readlines()
        if not lines:
            raise ValueError("empty batch input")
        first = lines[0].lstrip()
        if first.startswith("{"):
            queries = _queries_from_jsonl(lines, args, opts)
        else:
            queries = _queries_from_csv(lines, args, opts)
    else:
        if args.kernel is None:
            raise ValueError("eval needs --kernel or --input")
        queries = [
            _query(args.kernel, args.tau1, args.tau2, args.u, args.v,
                   args.a_param, args.backend, opts)
        ]
    return _emit_rows(args, queries)


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.kernel is None:
        raise ValueError("sweep needs --kernel")
    # The grid flags default to None here, so a flag given with --random shows.
    grid = {"--tau1": args.tau1, "--tau2": args.tau2,
            "--grid-u": args.grid_u, "--grid-v": args.grid_v}
    if args.random:
        given = [flag for flag, value in grid.items() if value is not None]
        if given:
            raise ValueError(f"--random draws u, v, tau1 and tau2 from the box; "
                             f"it takes no {', '.join(given)}")
        rng = np.random.default_rng(args.seed)
        points = rng.uniform(args.box_lo, args.box_hi, size=(args.random, 4))
    else:
        t1, t2 = (0.0 if t is None else t for t in (args.tau1, args.tau2))
        us, vs = (_parse_grid("-1:1:5" if g is None else g)
                  for g in (args.grid_u, args.grid_v))
        points = [(u, v, t1, t2) for u in us for v in vs]
    opts = _quad_options(args)
    queries = [
        _query(args.kernel, t1, t2, u, v, args.a_param, args.backend, opts)
        for u, v, t1, t2 in points
    ]
    return _emit_rows(args, queries)


# ---------------------------------------------------------------------------
# expand / coeffs
# ---------------------------------------------------------------------------


def cmd_expand(args: argparse.Namespace) -> int:
    if args.transition is None or args.point is None or not args.a:
        raise ValueError("expand needs --transition, --point and --a")
    transition = _TRANSITION_ALIASES[args.transition]
    u, v, t1, t2 = args.point
    n_top = args.N
    if n_top < 0:
        raise ValueError("--N must be nonnegative")
    a_list = args.a
    coeffs = (
        build_amplitudes(transition, u, v, t1, t2, order=2 * n_top)
        if n_top >= 1
        else None
    )
    base = expansion_partial_sum(
        transition, 0, u, v, t1, t2, a_list[0], opts=_quad_options(args)
    )
    buf = StringIO()
    rows = []
    for a in a_list:
        for n in range(n_top + 1):
            val = expansion_partial_sum(
                transition, n, u, v, t1, t2, a, coeffs=coeffs, base=base
            )
            rows.append((a, n, val))
    if args.format == "csv":
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
    _write_output(args, buf.getvalue())
    return 0


def cmd_coeffs(args: argparse.Namespace) -> int:
    if args.transition is None or args.point is None:
        raise ValueError("coeffs needs --transition and --point")
    u, v, t1, t2 = args.point
    transition = _TRANSITION_ALIASES[args.transition]
    coeffs = build_amplitudes(transition, u, v, t1, t2, args.order)
    text = coefficients_to_json(coeffs)
    if args.with_moments:
        obj = json.loads(text)
        gm = gauss_moments(args.order)
        obj["B"] = [[[z.real, z.imag] for z in row] for row in gm.B]
        obj["C"] = [float(c) for c in gm.C]
        text = json.dumps(obj)
    _write_output(args, text + "\n")
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


def cmd_trace(args: argparse.Namespace) -> int:
    if args.phase is None:
        raise ValueError("trace needs --phase")
    kind = "airy-cubic" if args.phase == "airy" else "pearcey-quartic"
    phase = make_phase(kind)
    buf = StringIO()
    if args.mode == "level":
        window = tuple(args.window)
        segments = export_level_curve(phase, args.level_im, window=window)
        for seg in segments:
            for z in seg:
                buf.write(f"{_g(z.real)} {_g(z.imag)}\n")
            buf.write("\n")
    else:
        key = (args.phase, args.level)
        if key not in _SADDLES:
            raise ValueError(
                f"no saddle named {args.level!r} for phase {args.phase!r}"
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
                max_arclength=args.max_arclength,
            )
            for z in path.points:
                buf.write(f"{_g(z.real)} {_g(z.imag)}\n")
            buf.write("\n")
    _write_output(args, buf.getvalue())
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


def cmd_verify(args: argparse.Namespace) -> int:
    if args.transition == "both":
        transitions = list(TRANSITIONS)
    else:
        transitions = [_TRANSITION_ALIASES[args.transition]]
    points = args.points or list(DEFAULT_STUDY_POINTS)
    a_grid = args.a_grid or list(DEFAULT_A_GRID)
    opts = _quad_options(args)
    violations: list[str] = []
    csv_parts: list[str] = []
    json_lines: list[str] = []
    for transition in transitions:
        n_max = args.n_max
        if n_max is None:
            n_max = max(ACCEPTANCE_WINDOWS[transition])
        for point in points:
            table = residual_study(transition, point, a_grid, n_max, opts=opts)
            violations.extend(check_windows(table))
            if args.format == "csv":
                csv_parts.append(table_to_csv(table))
            else:
                json_lines.append(table_summary_json(table))
    if args.format == "csv":
        header, *_ = csv_parts[0].splitlines(keepends=True)
        body = "".join(
            "".join(part.splitlines(keepends=True)[1:]) for part in csv_parts
        )
        _write_output(args, header + body)
    else:
        _write_output(args, "\n".join(json_lines) + "\n")
    if args.cross_check:
        qs = [
            _query("airy-ext", t1, t2, u, v, None, "direct", opts)
            for (u, v, t1, t2) in points
        ]
        report = cross_validate(qs)
        if report.n_flagged:
            violations.append(
                f"cross-validation flagged {report.n_flagged} of {len(report.rows)} rows"
            )
    if args.check:
        for line in violations:
            print(f"check failed: {line}", file=sys.stderr)
        if violations:
            return 1
        print("all acceptance windows hold", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_output(sp: argparse.ArgumentParser, fmt_default: str | None = None) -> None:
    """``--output``, and ``--format`` for the commands that write either."""
    sp.add_argument("--output")
    if fmt_default is not None:
        sp.add_argument("--format", choices=("csv", "json"), default=fmt_default)


def _add_quad(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--rel-tol", type=float, default=QuadOptions.rel_tol)
    sp.add_argument("--abs-tol", type=float, default=QuadOptions.abs_tol)
    sp.add_argument("--nodes-per-panel", type=int, default=QuadOptions.nodes_per_panel)


def _quad_options(args: argparse.Namespace) -> QuadOptions:
    return QuadOptions(
        rel_tol=args.rel_tol, abs_tol=args.abs_tol,
        nodes_per_panel=args.nodes_per_panel,
    )


def _add_rows(sp: argparse.ArgumentParser) -> None:
    """The options of the commands that write kernel rows (eval, sweep)."""
    _add_output(sp, "csv")
    _add_quad(sp)
    sp.add_argument("--backend", choices=("direct", "saddle"), default="direct")
    sp.add_argument("--warn-tol", type=float, default=1e-6)
    sp.add_argument("--kernel", choices=KERNEL_NAMES)
    sp.add_argument("--tau1", type=float, default=0.0)
    sp.add_argument("--tau2", type=float, default=0.0)
    sp.add_argument("--a-param", type=float, default=None)


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="kernelwave",
        description="Evaluate universal transition kernels and their expansions.",
    )
    parser.add_argument("--config", help="key=value file; flags override it")
    sub = parser.add_subparsers(dest="command", required=True)
    subs: dict[str, argparse.ArgumentParser] = {}

    def add(name: str, summary: str) -> argparse.ArgumentParser:
        sp = subs[name] = sub.add_parser(name, help=summary)
        # Accept --config on the subcommand too; SUPPRESS keeps an absent
        # flag from clobbering a value parsed before the subcommand name.
        sp.add_argument("--config", default=argparse.SUPPRESS)
        return sp

    se = add("eval", "evaluate kernel queries")
    _add_rows(se)
    se.add_argument("--input")
    se.add_argument("--u", type=float, default=0.0)
    se.add_argument("--v", type=float, default=0.0)

    sx = add("expand", "partial sums of the asymptotic expansion")
    _add_output(sx, "csv")
    _add_quad(sx)
    sx.add_argument("--transition", choices=sorted(_TRANSITION_ALIASES))
    sx.add_argument("--point", type=_parse_point)
    sx.add_argument("--N", type=int, default=1)
    sx.add_argument("--a", type=_parse_floats)

    sc = add("coeffs", "dump amplitude coefficients as JSON")
    _add_output(sc)
    sc.add_argument("--transition", choices=sorted(_TRANSITION_ALIASES))
    sc.add_argument("--point", type=_parse_point)
    sc.add_argument("--order", type=int, default=4)
    sc.add_argument("--with-moments", action="store_true")

    st = add("trace", "steepest-path rays or level curves")
    _add_output(st)
    st.add_argument("--phase", choices=("airy", "pearcey"))
    st.add_argument("--level", choices=("upper", "lower", "real"), default="upper")
    st.add_argument("--mode", choices=("rays", "level"), default="rays")
    st.add_argument("--level-im", type=float, default=0.0)
    st.add_argument("--window", type=_parse_floats, default=[-4.0, 4.0, -4.0, 4.0])
    st.add_argument("--max-arclength", type=float, default=8.0)

    sv = add("verify", "residual rate studies")
    _add_output(sv, "json")
    _add_quad(sv)
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
    sv.add_argument("--a-grid", type=_parse_floats, default=None)
    sv.add_argument("--n-max", type=int, default=None)
    sv.add_argument("--check", action="store_true")
    sv.add_argument("--cross-check", action="store_true")

    sw = add("sweep", "kernel values over a grid or random cloud")
    _add_rows(sw)
    sw.set_defaults(tau1=None, tau2=None)
    sw.add_argument("--seed", type=int, default=0)
    sw.add_argument("--grid-u")
    sw.add_argument("--grid-v")
    sw.add_argument("--random", type=int, default=0)
    sw.add_argument("--box-lo", type=float, default=-1.0)
    sw.add_argument("--box-hi", type=float, default=1.0)

    return parser, subs


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
            out[key] = val
    return out


def _apply_config(sp: argparse.ArgumentParser, path: str) -> None:
    """Make the values of a config file the defaults of subcommand ``sp``.

    Each key is a long option of the subcommand, in ``-`` or ``_`` spelling.
    Its value goes through that option's own type and choices; a store_true
    option is set by ``1``, ``true`` or ``yes`` and left off by anything else.
    """
    actions = {opt: a for a in sp._actions for opt in a.option_strings}
    tokens = []
    for key, val in _load_config_file(path).items():
        opt = "--" + key.replace("_", "-")
        action = actions.get(opt)
        if action is None or action.dest in ("help", "config"):
            raise ValueError(f"config file {path}: key {key!r} names no option "
                             f"of {sp.prog}")
        if action.nargs != 0:
            tokens.append(f"{opt}={val}")
        elif val.lower() in ("1", "true", "yes"):
            tokens.append(opt)
    sp.exit_on_error = False
    try:
        values = sp.parse_args(tokens)
    except argparse.ArgumentError as exc:
        raise ValueError(f"config file {path}: {exc}") from exc
    finally:
        sp.exit_on_error = True
    # Defaults must live on the chosen subparser: subcommands parse into a
    # fresh namespace, so top-level defaults are clobbered.
    sp.set_defaults(**vars(values))


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
            _apply_config(sub_parsers[args.command], args.config)
            args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except SystemExit as exc:  # argparse usage errors exit 2; remap to 1
        return 1 if exc.code else 0
    except (ValueError, OSError, KeyError, GeometryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
