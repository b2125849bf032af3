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
the flags its command reads, and it marks the ones a command needs as
required.  A ``--config`` file's options are read as flags placed right
after the subcommand name (:func:`_with_config`), so the one parse checks
them as it checks flags, and later flags override them.

Exit codes: 0 success, 1 error (bad input or a failed ``--check``),
2 completed with accuracy warnings (``eval`` and ``sweep`` rows past
``--warn-tol``, or an ``expand`` base kernel value whose error estimate
exceeds the default ``--warn-tol``).  A batch or sweep goes through as
columns: each field is read for every row at once, the columns are checked
and evaluated by one :func:`~kernelwave.kernels.eval_columns` call, and each
output column is formatted at once; rows come out in input order.  A
malformed batch names the line of its first bad row.  The ``sine-ext`` rows
are a closed form, each other segment kernel's rows are integrated
together, and the other rows that share the backend and both times (and
``a``) form one group: one bilinear form (direct) or one steepest-path rule
(saddle).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
from io import StringIO
from itertools import chain
from operator import itemgetter

import numpy as np

from .expansion import (
    TRANSITIONS,
    build_amplitudes,
    coefficients_to_json,
    expansion_partial_sum,
    gauss_moments,
)
from .kernels import (
    BACKENDS,
    KERNEL_NAMES,
    KernelQuery,
    QueryError,
    check_columns,
    eval_columns,
    eval_kernel,
)
from .phase import TRANSITION_TABLE, export_level_curve, make_branch_path, make_phase
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
_WARN_TOL = 1e-6  # --warn-tol's default, and the gate on expand's base value


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
    """A comma list of at least one number."""
    values = [float(p) for p in text.split(",") if p.strip()]
    if not values:
        raise argparse.ArgumentTypeError(f"must list at least one number, got {text!r}")
    return values


def _parse_points(text: str) -> list[tuple[float, float, float, float]]:
    """Semicolon-separated 'u,v,tau1,tau2' points, at least one."""
    points = [_parse_point(p) for p in text.split(";") if p.strip()]
    if not points:
        raise argparse.ArgumentTypeError(f"must list at least one point, got {text!r}")
    return points


def _finite_float(text: str) -> float:
    x = float(text)
    if not np.isfinite(x):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return x


def _positive_float(text: str) -> float:
    x = _finite_float(text)
    if x <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
    return x


def _positive_int(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
    return n


def _nonnegative_int(text: str) -> int:
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {text!r}")
    return n


def _parse_window(text: str) -> tuple[float, float, float, float]:
    """'xmin,xmax,ymin,ymax': four finite values bounding a non-empty box of
    finite width and height."""
    with contextlib.suppress(ValueError):
        x0, x1, y0, y1 = (float(p) for p in text.split(","))
        if (np.all(np.isfinite([x0, x1, y0, y1, x1 - x0, y1 - y0]))
                and x0 < x1 and y0 < y1):
            return x0, x1, y0, y1
    raise argparse.ArgumentTypeError(
        f"must be xmin,xmax,ymin,ymax, finite, with xmin < xmax and "
        f"ymin < ymax and a finite width and height; got {text!r}"
    )


def _parse_grid(text: str) -> np.ndarray:
    """A 'lo:hi:n' linspace with finite lo, hi and hi - lo and n >= 1, or a
    comma list."""
    if ":" not in text:
        return np.asarray(_parse_floats(text))
    lo, hi, n = text.split(":")
    lo, hi = _finite_float(lo), _finite_float(hi)
    if not np.isfinite(hi - lo):
        raise argparse.ArgumentTypeError(f"must have a finite hi - lo in lo:hi:n, got {text!r}")
    if int(n) < 1:
        raise argparse.ArgumentTypeError(f"must have n >= 1 in lo:hi:n, got {text!r}")
    return np.linspace(lo, hi, int(n))


# ---------------------------------------------------------------------------
# eval / sweep rows
# ---------------------------------------------------------------------------

_PARSE_ERRORS = (KeyError, IndexError, TypeError, ValueError)
_ROW_FIELDS = ("kernel", "a", "tau1", "tau2", "u", "v", "backend")


class _Fields:
    """Reads a batch field by field, each field over every row at once.

    A field that fails on a row ends the batch there: later fields read only
    the rows before it.  So the fault kept is that of the first bad row, and
    within that row, of its first field in reading order.
    """

    def __init__(self, rows: list):
        self.n, self.fault = len(rows), None

    def map(self, fn, values) -> list:
        values = values[:self.n]
        try:
            return list(map(fn, values))
        except _PARSE_ERRORS:
            out = []
            for k, x in enumerate(values):
                try:
                    out.append(fn(x))
                except _PARSE_ERRORS as exc:
                    self.n, self.fault = k, exc
                    return out
            raise  # unreachable: the fault is found above

    def columns(self, kernel, tau1, tau2, u, v, a, backend) -> dict:
        """The columns of the rows read, checked (:func:`check_columns`); then
        the faulty row, if any, raises :class:`QueryError`."""
        a = a[:self.n]
        cols = dict(kernel=kernel[:self.n], tau1=np.array(tau1[:self.n], dtype=float),
                    tau2=np.array(tau2[:self.n], dtype=float),
                    u=np.array(u[:self.n], dtype=float), v=np.array(v[:self.n], dtype=float),
                    a=np.array([np.nan if x is None else x for x in a], dtype=float),
                    a_given=np.array([x is not None for x in a], dtype=bool),
                    backend=backend[:self.n])
        check_columns(**cols)
        if self.fault is not None:
            raise QueryError(str(self.fault), self.n)
        return cols


def _number(x) -> float:
    """``float(x)``, refusing the JSON booleans, which float reads as 1 and 0."""
    if isinstance(x, bool):
        raise TypeError(f"expected a number, got {json.dumps(x)}")
    return float(x)


def _optional_float(x) -> float | None:
    return None if x is None else _number(x)


# Rows read at once: bounds the fields, each a Python object, held at a time.
_READ_ROWS = 1024


def _read_columns(read, lines: list[str], *args) -> dict:
    """``read(chunk, *args)`` over ``_READ_ROWS`` lines at a time, the columns
    joined; a bad row's :class:`QueryError` carries its index in ``lines``."""
    chunks = []
    for start in range(0, max(len(lines), 1), _READ_ROWS):
        try:
            chunks.append(read(lines[start:start + _READ_ROWS], *args))
        except QueryError as exc:
            raise QueryError(str(exc), start + exc.row) from exc
    return {k: list(chain.from_iterable(c[k] for c in chunks)) if isinstance(first, list)
            else np.concatenate([c[k] for c in chunks]) for k, first in chunks[0].items()}


def _columns_from_jsonl(lines: list[str], backend: str) -> dict:
    f = _Fields(lines)
    objs = f.map(json.loads, lines)
    kernel = f.map(lambda obj: obj["kernel"], objs)
    objs = objs[:f.n]
    coords = [f.map(_number, [obj.get(name, 0.0) for obj in objs])
              for name in ("tau1", "tau2", "u", "v")]
    a = f.map(_optional_float, [obj.get("a", obj.get("a_param")) for obj in objs])
    return f.columns(kernel, *coords, a, [obj.get("backend", backend) for obj in objs])


def _header_index(header: str) -> dict:
    idx = {name: k for k, name in enumerate(header.strip().split(","))}
    for col in ("kernel", "tau1", "tau2", "u", "v"):
        if col not in idx:
            raise ValueError(f"CSV header misses required column {col!r}")
    return idx


def _columns_from_csv(lines: list[str], idx: dict, backend: str) -> dict:
    rows = [line.split(",") for line in lines]
    f = _Fields(rows)
    f.map(itemgetter(max(idx[c] for c in _ROW_FIELDS if c in idx)), rows)  # short rows

    def text(name):
        return list(map(itemgetter(idx[name]), rows[:f.n]))

    kernel = list(map(str.strip, text("kernel")))
    backends = ([b.strip() or backend for b in text("backend")] if "backend" in idx
                else [backend] * f.n)
    coords = [f.map(float, text(name)) for name in ("tau1", "tau2", "u", "v")]
    a = (f.map(_optional_float, [t.strip() or None for t in text("a")]) if "a" in idx
         else [None] * f.n)
    return f.columns(kernel, *coords, a, backends)


def _g_column(x: np.ndarray) -> list[str]:
    """``_g`` of every number, each distinct value formatted once."""
    values, inverse = np.unique(np.asarray(x, dtype=float).view(np.int64),
                                return_inverse=True)
    text = np.array([_g(y) for y in values.view(float).tolist()], dtype=object)
    return text[inverse.ravel()].tolist()


def _format_rows(fmt: str, cols: dict, re, im, err, used) -> str:
    """The output rows of a batch: CSV lines (with header) or JSON lines."""
    numbers = (cols["tau1"], cols["tau2"], cols["u"], cols["v"], re, im, err)
    a = zip(cols["a"].tolist(), cols["a_given"])
    if fmt == "csv":
        fields = zip(cols["kernel"], (_g(x) if given else "" for x, given in a),
                     *map(_g_column, numbers), used.tolist())
        return "\n".join([_EVAL_HEADER, *map(",".join, fields), ""])
    lines = []
    for kernel, *row, backend, (x, given) in zip(
            cols["kernel"], *(np.asarray(c).tolist() for c in numbers), used.tolist(), a):
        obj = dict(zip(("kernel", "tau1", "tau2", "u", "v", "re", "im", "err", "backend"),
                       (kernel, *row, backend)))
        lines.append(json.dumps({**obj, "a": x} if given else obj) + "\n")
    return "".join(lines)


def _emit_rows(args: argparse.Namespace, cols: dict) -> int:
    """Evaluate a batch of columns in one :func:`eval_columns` call and write
    its rows."""
    re, im, err, used = eval_columns(opts=_quad_options(args), **cols)
    _write_output(args, _format_rows(args.format, cols, re, im, err, used))
    return _accuracy_warning() if np.any((err > args.warn_tol) | (np.abs(im) > 1e-9)) else 0


def _accuracy_warning() -> int:
    print("warning: some rows exceed the accuracy thresholds", file=sys.stderr)
    return 2


def _single_columns(n: int, args: argparse.Namespace, tau1, tau2, u, v) -> dict:
    """Columns of ``n`` rows of the flags' kernel, ``a`` and backend."""
    a = args.a_param
    return dict(kernel=[args.kernel] * n, tau1=tau1, tau2=tau2, u=u, v=v,
                a=np.full(n, np.nan if a is None else a),
                a_given=np.full(n, a is not None), backend=[args.backend] * n)


def cmd_eval(args: argparse.Namespace) -> int:
    if not args.input:
        if args.kernel is None:
            raise ValueError("eval needs --kernel or --input")
        return _emit_rows(args, _single_columns(
            1, args, *([x] for x in (args.tau1, args.tau2, args.u, args.v))))
    with open(args.input) as fh:
        lines = fh.readlines()
    if not lines:
        raise ValueError("empty batch input")
    jsonl = lines[0].lstrip().startswith("{")
    body = lines[0 if jsonl else 1:]
    rows = list(filter(None, map(str.strip, body)))  # blank lines are skipped
    try:
        if jsonl:
            cols = _read_columns(_columns_from_jsonl, rows, args.backend)
        else:
            cols = _read_columns(_columns_from_csv, rows, _header_index(lines[0]),
                                 args.backend)
        return _emit_rows(args, cols)
    except (QueryError, GeometryError) as exc:
        if exc.row is None:
            raise
        line = [i for i, text in enumerate(body, start=len(lines) - len(body) + 1)
                if text.strip()][exc.row]
        if isinstance(exc, GeometryError):  # the row's message, with its line for its index
            raise GeometryError(f"line {line}: {exc}".replace(f" in row {exc.row},", ",")) from exc
        what = "query" if jsonl else "CSV row"
        raise ValueError(f"line {line}: malformed {what} ({exc})") from exc


def cmd_sweep(args: argparse.Namespace) -> int:
    # The flags of one mode default to None, so one given to the other mode shows.
    grid = {"--tau1": args.tau1, "--tau2": args.tau2,
            "--grid-u": args.grid_u, "--grid-v": args.grid_v}
    cloud = {"--seed": args.seed, "--box-lo": args.box_lo, "--box-hi": args.box_hi}
    given = ", ".join(flag for flag, value in (grid if args.random else cloud).items()
                      if value is not None)
    if given:
        raise ValueError(f"--random draws u, v, tau1 and tau2 from the box; it takes no {given}"
                         if args.random else f"sweep takes {given} only with --random")
    if args.random:
        lo, hi = (d if x is None else x for x, d in ((args.box_lo, -1.0), (args.box_hi, 1.0)))
        if not lo < hi:
            raise ValueError(f"--box-lo must be below --box-hi, got {_g(lo)} and {_g(hi)}")
        if not np.isfinite(hi - lo):
            raise ValueError(f"--box-hi minus --box-lo must be finite, got {_g(lo)} and {_g(hi)}")
        rng = np.random.default_rng(0 if args.seed is None else args.seed)
        u, v, t1, t2 = rng.uniform(lo, hi, size=(args.random, 4)).T
    else:
        us, vs = (np.linspace(-1.0, 1.0, 5) if g is None else g
                  for g in (args.grid_u, args.grid_v))
        u, v = (g.ravel() for g in np.meshgrid(us, vs, indexing="ij"))
        t1, t2 = (np.full(u.size, 0.0 if t is None else t) for t in (args.tau1, args.tau2))
    return _emit_rows(args, _single_columns(u.size, args, t1, t2, u, v))


# ---------------------------------------------------------------------------
# expand / coeffs
# ---------------------------------------------------------------------------


def cmd_expand(args: argparse.Namespace) -> int:
    transition = _TRANSITION_ALIASES[args.transition]
    u, v, t1, t2 = args.point
    n_top = args.N
    if n_top < 0:
        raise ValueError("--N must be nonnegative")
    coeffs = (
        build_amplitudes(transition, u, v, t1, t2, order=2 * n_top)
        if n_top >= 1
        else None
    )
    # The base kernel value is shared by every row, and so is its error.
    kv = eval_kernel(KernelQuery(TRANSITION_TABLE[transition].kernel, t1, t2, u, v),
                     _quad_options(args))
    rows = [(a, n, expansion_partial_sum(transition, n, u, v, t1, t2, a, coeffs=coeffs,
                                         base=kv.value.real))
            for a in args.a for n in range(n_top + 1)]
    if args.format == "csv":
        lines = ["transition,u,v,tau1,tau2,a,N,partial_sum\n"] + [
            f"{transition},{_g(u)},{_g(v)},{_g(t1)},{_g(t2)},{_g(a)},{n},{_g(val)}\n"
            for a, n, val in rows]
    else:
        lines = [json.dumps({"transition": transition, "point": [u, v, t1, t2], "a": a,
                             "N": n, "partial_sum": val}) + "\n" for a, n, val in rows]
    _write_output(args, "".join(lines))
    return _accuracy_warning() if kv.error_estimate > _WARN_TOL else 0


def cmd_coeffs(args: argparse.Namespace) -> int:
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

_SADDLE_NAMES = ("upper", "lower", "real")  # in the order of PhaseSpec.saddles
_RAY_DX = 0.01
_RAY_BUDGET = 60.0  # largest |Re f - level| a ray reaches; it is x**2 there


def _rays(phase, saddle: complex, max_arclength: float):
    """The descent and ascent branch paths through ``saddle``, each split
    at ``x = 0`` into two rays, sampled every ``_RAY_DX`` in ``x``."""
    xs = _RAY_DX * np.arange(int(np.sqrt(_RAY_BUDGET) / _RAY_DX) + 1)
    for sigma in (-1, +1):
        path = make_branch_path(phase, saddle, sigma, np.sqrt(2 * sigma / phase.ddf(saddle)))
        for x in (xs, -xs):
            z = path.zeta(x)
            arclength = np.concatenate(([0.0], np.cumsum(np.abs(np.diff(z)))))
            yield z[arclength <= max_arclength]


def cmd_trace(args: argparse.Namespace) -> int:
    kind = "airy-cubic" if args.phase == "airy" else "pearcey-quartic"
    phase = make_phase(kind)
    # The flags of one mode default to None, so one given to the other mode shows.
    foreign = {"rays": {"--level-im": args.level_im, "--window": args.window},
               "level": {"--level": args.level, "--max-arclength": args.max_arclength}}
    given = [flag for flag, value in foreign[args.mode].items() if value is not None]
    if given:
        raise ValueError(f"--mode {args.mode} takes no {', '.join(given)}")
    if args.mode == "level":
        level_im = 0.0 if args.level_im is None else args.level_im
        window = (-4.0, 4.0, -4.0, 4.0) if args.window is None else args.window
        segments = export_level_curve(phase, level_im, window=window)
    else:
        level = args.level or "upper"
        k = _SADDLE_NAMES.index(level)
        if k >= len(phase.saddles):
            raise ValueError(f"no saddle named {level!r} for phase {args.phase!r}")
        segments = _rays(phase, phase.saddles[k],
                         8.0 if args.max_arclength is None else args.max_arclength)
    buf = StringIO()
    for seg in segments:
        for z in seg:
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
    transitions = (TRANSITIONS if args.transition == "both"
                   else [_TRANSITION_ALIASES[args.transition]])
    opts = _quad_options(args)
    violations: list[str] = []
    parts: list[str] = []
    for transition in transitions:
        n_max = max(ACCEPTANCE_WINDOWS[transition]) if args.n_max is None else args.n_max
        for point in args.points:
            table = residual_study(transition, point, args.a_grid, n_max, opts=opts)
            violations.extend(check_windows(table))
            parts.append(table_to_csv(table) if args.format == "csv"
                         else table_summary_json(table) + "\n")
    if args.format == "csv":  # one header, then the rows of every table
        parts = [parts[0].partition("\n")[0] + "\n", *(p.partition("\n")[2] for p in parts)]
    _write_output(args, "".join(parts))
    if args.cross_check:
        report = cross_validate([KernelQuery("airy-ext", t1, t2, u, v)
                                 for (u, v, t1, t2) in args.points], opts)
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
    sp.add_argument(
        "--nodes-per-panel", type=int, default=QuadOptions.nodes_per_panel,
        help="n: the direct backend's rule per panel is the 2g+1-node Gauss-"
             "Kronrod rule with its embedded g-node Gauss rule, g = max(1, n//2); "
             "the s1 and s2 kernels take n-node Gauss-Legendre panels; the "
             "saddle backend compares rules of m = max(12, n//2) and "
             "m + m//2 + 1 nodes; at most 256")


def _quad_options(args: argparse.Namespace) -> QuadOptions:
    return QuadOptions(
        rel_tol=args.rel_tol, abs_tol=args.abs_tol,
        nodes_per_panel=args.nodes_per_panel,
    )


def _add_rows(sp: argparse.ArgumentParser) -> None:
    """The options of the commands that write kernel rows (eval, sweep)."""
    _add_output(sp, "csv")
    _add_quad(sp)
    sp.add_argument("--backend", choices=BACKENDS, default="direct")
    sp.add_argument("--warn-tol", type=_positive_float, default=_WARN_TOL)
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
    se.add_argument("--kernel", choices=KERNEL_NAMES)
    se.add_argument("--input")
    se.add_argument("--u", type=float, default=0.0)
    se.add_argument("--v", type=float, default=0.0)

    sx = add("expand", "partial sums of the asymptotic expansion")
    _add_output(sx, "csv")
    _add_quad(sx)
    sx.add_argument("--transition", choices=sorted(_TRANSITION_ALIASES), required=True)
    sx.add_argument("--point", type=_parse_point, required=True)
    sx.add_argument("--N", type=int, default=1)
    sx.add_argument("--a", type=_parse_floats, required=True)

    sc = add("coeffs", "dump amplitude coefficients as JSON")
    _add_output(sc)
    sc.add_argument("--transition", choices=sorted(_TRANSITION_ALIASES), required=True)
    sc.add_argument("--point", type=_parse_point, required=True)
    sc.add_argument("--order", type=int, default=4)
    sc.add_argument("--with-moments", action="store_true")

    st = add("trace", "steepest-path rays or level curves")
    _add_output(st)
    st.add_argument("--phase", choices=("airy", "pearcey"), required=True)
    st.add_argument("--level", choices=_SADDLE_NAMES)
    st.add_argument("--mode", choices=("rays", "level"), default="rays")
    st.add_argument("--level-im", type=_finite_float)
    st.add_argument("--window", type=_parse_window)
    st.add_argument("--max-arclength", type=_positive_float)

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
        type=_parse_points,
        default=DEFAULT_STUDY_POINTS,
        help="semicolon-separated u,v,tau1,tau2 points",
    )
    sv.add_argument("--a-grid", type=_parse_floats, default=DEFAULT_A_GRID)
    sv.add_argument("--n-max", type=int, default=None)
    sv.add_argument("--check", action="store_true")
    sv.add_argument("--cross-check", action="store_true")

    sw = add("sweep", "kernel values over a grid or random cloud")
    _add_rows(sw)
    sw.set_defaults(tau1=None, tau2=None)
    sw.add_argument("--kernel", choices=KERNEL_NAMES, required=True)
    sw.add_argument("--seed", type=_nonnegative_int)
    sw.add_argument("--grid-u", type=_parse_grid)
    sw.add_argument("--grid-v", type=_parse_grid)
    sw.add_argument("--random", type=_positive_int)
    sw.add_argument("--box-lo", type=_finite_float)
    sw.add_argument("--box-hi", type=_finite_float)

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


def _names_config(name: str, parser: argparse.ArgumentParser) -> bool:
    """Whether ``parser`` reads the option ``name`` as ``--config``: the
    whole name, or, as argparse abbreviates, a prefix that no other long
    option of the parser shares (argparse rejects a shared one)."""
    if name == "--config":
        return True
    return len(name) > 2 and {opt for a in parser._actions for opt in a.option_strings
                              if opt.startswith(name)} == {"--config"}


def _with_config(argv: list[str]) -> list[str]:
    """``argv`` with the options of its last ``--config`` file inserted as
    flags right after the subcommand name.

    The subcommand is the first token naming one that is not the value of
    ``--config``.  Each key is a long option of that subcommand, in ``-`` or
    ``_`` spelling, and becomes ``--key=value``; a store_true option becomes
    ``--key`` for ``1``, ``true`` or ``yes`` and is left off otherwise.  The
    parse then checks the values as flags, and a later flag overrides one.
    """
    parser, subs = _parser()
    command = path = None
    tokens = iter(enumerate(argv))
    for i, token in tokens:
        name, eq, value = token.partition("=")
        if _names_config(name, parser if command is None else subs[argv[command]]):
            path = value if eq else next(tokens, (i, None))[1]
        elif command is None and token in _COMMANDS:
            command = i
    if command is None or path is None:
        return argv
    sp = subs[argv[command]]
    actions = {opt: a for a in sp._actions for opt in a.option_strings}
    flags = []
    for key, val in _load_config_file(path).items():
        opt = "--" + key.replace("_", "-")
        action = actions.get(opt)
        if action is None or action.dest in ("help", "config"):
            raise ValueError(f"config file {path}: key {key!r} names no option "
                             f"of {sp.prog}")
        if action.nargs != 0:
            flags.append(f"{opt}={val}")
        elif val.lower() in ("1", "true", "yes"):
            flags.append(opt)
    return [*argv[:command + 1], *flags, *argv[command + 1:]]


_COMMANDS = {
    "eval": cmd_eval,
    "expand": cmd_expand,
    "coeffs": cmd_coeffs,
    "trace": cmd_trace,
    "verify": cmd_verify,
    "sweep": cmd_sweep,
}


@functools.cache
def _parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The parser and its subcommand parsers, built on first use."""
    return _build_parser()


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _parser()[0].parse_args(_with_config(argv))
        return _COMMANDS[args.command](args)
    except SystemExit as exc:  # argparse usage errors exit 2; remap to 1
        return 1 if exc.code else 0
    except (ValueError, OSError, KeyError, GeometryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
