"""Command-line front end: subcommands, exit codes, determinism, round trips."""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import kernelwave
from kernelwave import cli
from kernelwave.cli import main
from kernelwave.expansion import fluc_s1
from kernelwave.kernels import BACKENDS, KERNEL_NAMES, KernelQuery, eval_kernels
from kernelwave.phase import make_phase
from kernelwave.quadrature import QuadOptions


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def test_eval_sine_example(capsys):
    code, out, _ = run(
        capsys, "eval", "--kernel", "sine-ext",
        "--tau1", "0", "--tau2", "0", "--u", "0.5", "--v", "0",
    )
    assert code == 0
    header, row = out.strip().splitlines()
    assert header.startswith("kernel,a,tau1,tau2,u,v,re,im,err")
    assert abs(float(row.split(",")[6]) - 2 / np.pi) < 1e-10


def test_eval_s1_diagonal_example(capsys):
    code, out, _ = run(
        capsys, "eval", "--kernel", "s1",
        "--u", "1", "--v", "1", "--tau1", "0", "--tau2", "0",
    )
    assert code == 0
    assert abs(float(out.strip().splitlines()[1].split(",")[6]) - 1 / np.pi) < 1e-12


def test_eval_batch_preserves_order(capsys, tmp_path):
    batch = tmp_path / "queries.jsonl"
    us = [0.01 * k for k in range(100)]
    batch.write_text(
        "".join(json.dumps({"kernel": "s1", "u": u, "v": 0.0}) + "\n" for u in us)
    )
    code, out, _ = run(capsys, "eval", "--input", str(batch))
    assert code == 0
    rows = out.strip().splitlines()[1:]
    assert len(rows) == 100
    assert [float(r.split(",")[4]) for r in rows] == us


def test_eval_malformed_inputs_exit_1(capsys, tmp_path):
    code, _, err = run(capsys, "eval", "--kernel", "nope")
    assert code == 1

    code, _, err = run(capsys, "eval")
    assert code == 1 and "kernel" in err

    bad = tmp_path / "bad.jsonl"
    good = '{"kernel": "s1"}\n'
    for text, line in [
        ('{"kernel": "s1", "u": "much"}\n', 1),
        ('{"kernel": "s1", "u": null}\n', 1),
        ('{"kernel": "s1", "tau1": [0.5]}\n', 1),
        (good + '[1, 2]\n', 2),
        (good + '"s1"\n', 2),
        (good + 'null\n', 2),
    ]:
        bad.write_text(text)
        code, out, err = run(capsys, "eval", "--input", str(bad))
        assert code == 1 and out == ""
        assert err.startswith(f"error: line {line}: malformed query"), text

    code, _, err = run(capsys, "eval", "--input", str(tmp_path / "missing.jsonl"))
    assert code == 1


def test_eval_unknown_backend_exits_1(capsys, tmp_path):
    code, out, err = run(capsys, "eval", "--kernel", "s1", "--backend", "Direct")
    assert code == 1 and "Direct" in err and out == ""
    batch = tmp_path / "queries.jsonl"
    batch.write_text('{"kernel": "airy-ext", "backend": "magic"}\n')
    code, out, err = run(capsys, "eval", "--input", str(batch))
    assert code == 1 and "unknown backend 'magic'" in err and out == ""


@pytest.mark.parametrize("kernel,value", [("s1", "nan"), ("airy-ext", "nan"),
                                          ("airy-ext", "inf")])
def test_eval_non_finite_input_exits_1(capsys, kernel, value):
    code, out, err = run(capsys, "eval", "--kernel", kernel, "--u", value)
    assert code == 1 and "u must be finite" in err
    assert out == ""


@pytest.mark.parametrize("option", ["--rel-tol=nan", "--rel-tol=inf", "--abs-tol=nan",
                                    "--abs-tol=-inf"])
def test_eval_non_finite_tolerance_exits_1(capsys, option):
    code, out, err = run(capsys, "eval", "--kernel", "s1", "--tau1", "0.3", "--u", "0.5",
                         option)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "finite and positive" in err


def test_quad_options_are_exactly_the_cli_flags():
    # A setting no command line can reach is one no caller varies: it
    # belongs in a module constant, not in QuadOptions.
    sp = argparse.ArgumentParser()
    before = {a.dest for a in sp._actions}
    cli._add_quad(sp)
    added = {a.dest for a in sp._actions} - before
    assert {f.name for f in dataclasses.fields(QuadOptions)} == added


@pytest.mark.parametrize("argv,named", [
    # sine-ext's integrand exp(-dt w^2 / 2) overflows for dt = -300
    (["--tau1", "-300"], "non-finite integrand"),
    # tau1 - tau2 or u - v overflows: the row used to print nan and exit 0
    (["--u=1e308", "--v=-1e308"], "non-finite value"),
    (["--tau1=1e308", "--tau2=-1e308"], "non-finite value"),
], ids=["integrand", "space-difference", "time-difference"])
def test_eval_overflowing_integrand_exits_1(capsys, argv, named):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "eval", "--kernel", "sine-ext", *argv)
    assert code == 1 and named in err
    assert out == ""
    assert err.splitlines() == [err.strip()] and err.startswith("error: ")
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_eval_overflowing_direct_airy_exits_1(capsys):
    # the direct Airy exponentials overflow at tau1 = tau2 = -20
    code, out, err = run(capsys, "eval", "--kernel", "airy-ext", "--tau1", "-20",
                         "--tau2", "-20")
    assert code == 1 and "non-finite" in err
    assert out == ""


@pytest.mark.parametrize("argv,needs", [
    (["--tau1", "3", "--tau2", "3", "--u", "0.5", "--v", "-0.3"], "40.19"),
    (["--u", "45", "--v", "45"], "40.06"),
], ids=["times", "coordinates"])
def test_eval_saddle_square_beyond_the_reach_exits_1(capsys, argv, needs):
    # the half-width's fixed point passes the branch paths' reach of 40
    code, out, err = run(capsys, "eval", "--kernel", "airy-ext", "--backend", "saddle", *argv)
    assert code == 1 and out == ""
    assert err == (f"error: the saddle square needs half-width {needs}, beyond the "
                   f"branch paths' reach 40\n")


@pytest.mark.parametrize("fmt,text", [
    ("csv", "kernel,tau1,tau2,u,v\nsine-ext,0,0,0,0\n\nsine-ext,0,0,1e308,-1e308\n"),
    ("jsonl", '{"kernel": "sine-ext"}\n\n\n{"kernel": "sine-ext", "u": 1e308, "v": -1e308}\n'),
], ids=["csv", "jsonl"])
def test_eval_batch_names_the_line_of_a_non_finite_row(capsys, tmp_path, fmt, text):
    # u - v overflows on batch row 1, which sits on line 4 of the file
    batch = tmp_path / f"overflow.{fmt}"
    batch.write_text(text)
    code, out, err = run(capsys, "eval", "--input", str(batch))
    assert code == 1 and out == ""
    assert err == ("error: line 4: non-finite value or error estimate, "
                   "where tau1 - tau2 = 0.0 and u - v = inf\n")


def test_eval_batch_with_non_finite_input_exits_1(capsys, tmp_path):
    batch = tmp_path / "nan.jsonl"
    batch.write_text('{"kernel": "s1", "u": 0.1}\n{"kernel": "s1", "v": NaN}\n')
    code, _, err = run(capsys, "eval", "--input", str(batch))
    assert code == 1 and "line 2" in err and "v must be finite" in err


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
def test_eval_warn_tol_must_be_finite_and_positive(capsys, tmp_path, value):
    # nan would switch the accuracy gate off, and -1 would fire it on every row
    code, out, err = run(capsys, "eval", "--kernel", "s1", f"--warn-tol={value}")
    assert code == 1 and out == "" and "--warn-tol" in err
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"kernel=s1\nwarn-tol={value}\n")
    code, out, err = run(capsys, "eval", "--config", str(cfg))
    assert code == 1 and out == "" and "--warn-tol" in err


def test_eval_accuracy_warning_exits_2(capsys):
    code, out, err = run(
        capsys, "eval", "--kernel", "airy-ext",
        "--u", "0.1", "--v", "0.2", "--warn-tol", "1e-30",
    )
    assert code == 2
    assert "accuracy" in err
    assert len(out.strip().splitlines()) == 2  # output still written


_MIXED_ROWS = [("sine-ext", 0.5, 0.0, 0.3, 0.1), ("s1", -0.2, 0.4, 0.6, -0.5),
               ("airy-ext", 0.0, 0.0, 0.1, 0.2), ("sine-ext", -0.3, 0.2, 1.1, 0.0),
               ("s1", 0.0, 0.0, 1.0, 0.25), ("sine-ext", 0.0, 0.0, 0.5, 0.0)]


def _mixed_batch(tmp_path, extra=()):
    batch = tmp_path / "mixed.csv"
    batch.write_text("kernel,tau1,tau2,u,v\n" + "".join(
        f"{k},{t1},{t2},{u},{v}\n" for k, t1, t2, u, v in [*_MIXED_ROWS, *extra]))
    return batch


def test_eval_mixed_batch_matches_row_by_row_calls(capsys, tmp_path):
    code, out, _ = run(capsys, "eval", "--input", str(_mixed_batch(tmp_path)))
    assert code == 0
    rows = [r.split(",") for r in out.strip().splitlines()[1:]]
    assert [(r[0], *map(float, r[2:6])) for r in rows] == _MIXED_ROWS
    for row, (k, t1, t2, u, v) in zip(rows, _MIXED_ROWS):
        code, one, _ = run(capsys, "eval", "--kernel", k, "--tau1", str(t1),
                           "--tau2", str(t2), "--u", str(u), "--v", str(v))
        want = one.strip().splitlines()[1].split(",")
        assert code == 0 and row[9] == want[9]
        assert abs(float(row[6]) - float(want[6])) <= float(want[8])
        assert abs(float(row[7]) - float(want[7])) <= float(want[8])


def test_eval_mixed_batch_exit_codes(capsys, tmp_path):
    batch = _mixed_batch(tmp_path)
    code, out, err = run(capsys, "eval", "--input", str(batch), "--warn-tol", "1e-30")
    assert code == 2 and "accuracy" in err
    assert len(out.strip().splitlines()) == 1 + len(_MIXED_ROWS)
    # one overflowing sine-ext row rejects the whole batch
    batch = _mixed_batch(tmp_path, [("sine-ext", -300.0, 0.0, 0.0, 0.0)])
    code, out, err = run(capsys, "eval", "--input", str(batch))
    assert code == 1 and "non-finite integrand" in err
    assert out == ""


def test_eval_saddle_batch_matches_row_by_row_calls(capsys, tmp_path):
    # airy-ext and pearcey-ext rows at two shared time pairs form four
    # saddle groups; rows still come out in input order
    rows_in = [(k, t1, t2, u, v) for k, (t1, t2), (u, v) in zip(
        ["airy-ext", "pearcey-ext", "pearcey-ext", "airy-ext"] * 3,
        [(0.3, -0.2), (0.3, -0.2), (-0.1, 0.25)] * 4,
        [(0.5 * i - 1.5, 1.0 - 0.25 * i) for i in range(12)])]
    batch = tmp_path / "saddle.csv"
    batch.write_text("kernel,tau1,tau2,u,v\n" + "".join(
        f"{k},{t1},{t2},{u},{v}\n" for k, t1, t2, u, v in rows_in))
    code, out, _ = run(capsys, "eval", "--backend", "saddle", "--input", str(batch))
    assert code == 0
    rows = [r.split(",") for r in out.strip().splitlines()[1:]]
    assert [(r[0], *map(float, r[2:6])) for r in rows] == rows_in
    for row, (k, t1, t2, u, v) in zip(rows, rows_in):
        code, one, _ = run(capsys, "eval", "--backend", "saddle", "--kernel", k,
                           "--tau1", str(t1), "--tau2", str(t2), "--u", str(u),
                           "--v", str(v))
        want = one.strip().splitlines()[1].split(",")
        assert code == 0 and row[9] == want[9] == "saddle"
        err = min(float(row[8]), float(want[8]))
        assert abs(complex(float(row[6]), float(row[7]))
                   - complex(float(want[6]), float(want[7]))) <= err


def test_eval_json_format(capsys):
    code, out, _ = run(
        capsys, "eval", "--kernel", "s1", "--u", "1", "--v", "1", "--format", "json"
    )
    assert code == 0
    obj = json.loads(out.strip())
    assert obj["kernel"] == "s1"
    assert abs(obj["re"] - 1 / np.pi) < 1e-12


# ---------------------------------------------------------------------------
# batch rows: the bulk formatter against one row at a time
# ---------------------------------------------------------------------------


def _g(x):
    return f"{x:.17g}"


def _query_row(q, kv):
    a = "" if q.a_param is None else _g(q.a_param)
    return (f"{q.kernel},{a},{_g(q.tau1)},{_g(q.tau2)},{_g(q.u)},{_g(q.v)},"
            f"{_g(kv.value.real)},{_g(kv.value.imag)},{_g(kv.error_estimate)},"
            f"{kv.backend_used}")


def _query_json(q, kv):
    obj = {"kernel": q.kernel, "tau1": q.tau1, "tau2": q.tau2, "u": q.u, "v": q.v,
           "re": kv.value.real, "im": kv.value.imag, "err": kv.error_estimate,
           "backend": kv.backend_used}
    if q.a_param is not None:
        obj["a"] = q.a_param
    return json.dumps(obj)


def _expected(queries, fmt):
    """The output of a batch, one row at a time from eval_kernels."""
    values = eval_kernels(queries)
    if fmt == "csv":
        return "".join(["kernel,a,tau1,tau2,u,v,re,im,err,backend\n",
                        *(_query_row(q, kv) + "\n" for q, kv in zip(queries, values))])
    return "".join(_query_json(q, kv) + "\n" for q, kv in zip(queries, values))


# (kernel, tau1, tau2, u, v, a, backend); "" is the default
_ROWS = [("airy-ext", 0.3, -0.2, 0.15, 0.05, "", "direct"),
         ("airy-ext", 0.3, -0.2, -0.6, 0.5, "", "saddle"),
         ("pearcey-ext", -0.1, 0.2, 0.4, 0.3, "", ""),
         ("pearcey-ext", -0.1, 0.2, 0.4, -0.3, "", "saddle"),
         ("transition-a", 0.2, -0.1, 0.3, 0.1, "1.5", ""),
         ("transition-a", 0.2, -0.1, -0.3, 0.1, "0", "direct"),
         ("s1", -0.2, 0.4, 0.6, -0.5, "", ""), ("s2", 0.1, -0.3, -0.2, 0.5, "", ""),
         ("sine-ext", 0.5, 0.0, 0.3, 0.1, "", ""), ("sine-ext", -1.0, 0.0, 3.7, -0.2, "", ""),
         ("airy-ext", 0.3, -0.2, 0.7, 0.05, "", ""), ("s1", 0.0, 0.0, 1.0, 0.25, "", "direct")]
_QUERIES = [KernelQuery(k, t1, t2, u, v, a_param=float(a) if a else None,
                        backend=b or "direct") for k, t1, t2, u, v, a, b in _ROWS]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_eval_csv_batch_equals_rows_formatted_one_at_a_time(monkeypatch, tmp_path, fmt):
    # blank lines and fields padded with spaces, with a and backend columns;
    # the rows are read five at a time
    monkeypatch.setattr(cli, "_READ_ROWS", 5)
    batch = tmp_path / "mixed.csv"
    lines = ["kernel,tau1,tau2,u,v,a,backend", ""]
    for k, (kernel, t1, t2, u, v, a, b) in enumerate(_ROWS):
        lines += [f" {kernel} , {t1},{t2} , {u},{v}, {a} ,{b} "] + ["  "] * (k % 3 == 1)
    batch.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out.txt"
    assert main(["eval", "--input", str(batch), "--format", fmt, "--output", str(out)]) == 0
    assert out.read_text() == _expected(_QUERIES, fmt)


def test_eval_jsonl_batch_equals_rows_formatted_one_at_a_time(tmp_path):
    batch = tmp_path / "mixed.jsonl"
    with open(batch, "w") as fh:
        for kernel, t1, t2, u, v, a, b in _ROWS:
            obj = {"kernel": kernel, "tau1": t1, "tau2": t2, "u": u, "v": v}
            obj.update({"a": float(a)} if a else {}, **({"backend": b} if b else {}))
            fh.write(json.dumps(obj) + "\n\n")
    out = tmp_path / "out.txt"
    assert main(["eval", "--input", str(batch), "--output", str(out)]) == 0
    assert out.read_text() == _expected(_QUERIES, "csv")


@pytest.mark.parametrize("kernel,extra", [("sine-ext", []), ("s2", []),
                                          ("airy-ext", ["--backend", "saddle"]),
                                          ("transition-a", ["--a-param", "0.75"])])
def test_sweep_random_equals_rows_formatted_one_at_a_time(tmp_path, kernel, extra):
    out = tmp_path / "out.txt"
    assert main(["sweep", "--kernel", kernel, "--random", "6", "--seed", "3",
                 "--output", str(out), *extra]) == 0
    points = np.random.default_rng(3).uniform(-1.0, 1.0, size=(6, 4))
    backend = extra[1] if extra[:1] == ["--backend"] else "direct"
    a = 0.75 if kernel == "transition-a" else None
    queries = [KernelQuery(kernel, t1, t2, u, v, a_param=a, backend=backend)
               for u, v, t1, t2 in points.tolist()]
    assert out.read_text() == _expected(queries, "csv")


_NUMBER = st.one_of(st.floats(-1.0, 1.0),
                    st.sampled_from([float("nan"), float("inf"), -float("inf")]))


@given(kernel=st.sampled_from(KERNEL_NAMES + ("nope",)),
       backend=st.sampled_from(BACKENDS + ("magic",)),
       coords=st.tuples(_NUMBER, _NUMBER, _NUMBER, _NUMBER),
       a=st.one_of(st.none(), st.floats(-1.0, 1.0), st.just(float("nan"))),
       fmt=st.sampled_from(["csv", "jsonl"]))
def test_cli_accepts_the_rows_kernel_query_accepts(tmp_path_factory, kernel, backend,
                                                   coords, a, fmt):
    try:
        KernelQuery(kernel, *coords, a_param=a, backend=backend)
        accepted = True
    except ValueError:
        accepted = False
    batch = tmp_path_factory.mktemp("parity") / f"row.{fmt}"
    if fmt == "csv":
        batch.write_text("kernel,tau1,tau2,u,v,a,backend\n" + ",".join(
            [kernel, *map(repr, coords), "" if a is None else repr(a), backend]) + "\n")
    else:
        obj = dict(zip(("kernel", "tau1", "tau2", "u", "v", "backend"),
                       (kernel, *coords, backend)))
        batch.write_text(json.dumps(obj if a is None else {**obj, "a": a}) + "\n")
    code = main(["eval", "--input", str(batch), "--output", str(batch.with_suffix(".out"))])
    assert (code in (0, 2)) == accepted and code in (0, 1, 2)


_GOOD_CSV = "s1,0,0,0.5,0.1,,"
_BAD_CSV = [
    ("s1,0,0,nan,0.1,,", "u must be finite, got nan"),
    ("s1,inf,0,0,0,,", "tau1 must be finite, got inf"),
    ("nope,0,0,0,0,,", "unknown kernel 'nope'"),
    ("s1,0,0,0,0,,magic", "unknown backend 'magic'"),
    ("s1,0,0,0,0,1.5,", "a_param is only meaningful for transition-a"),
    ("transition-a,0,0,0,0,-1,", "transition-a requires a_param >= 0"),
    ("transition-a,0,0,0,0,,", "transition-a requires a_param >= 0"),
    ("s1,0,0", "list index out of range"),
    ("s1,0,0,much,0,,", "could not convert string to float: 'much'"),
]
_GOOD_JSON = '{"kernel": "s1", "u": 0.5}'
_BAD_JSON = [
    ('{"kernel": "s1", "u": NaN}', "u must be finite, got nan"),
    ('{"kernel": "s1", "tau1": Infinity}', "tau1 must be finite, got inf"),
    ('{"kernel": "nope"}', "unknown kernel 'nope'"),
    ('{"kernel": "s1", "backend": "magic"}', "unknown backend 'magic'"),
    ('{"kernel": "s1", "a": 1.5}', "a_param is only meaningful for transition-a"),
    ('{"kernel": "transition-a", "a": -1}', "transition-a requires a_param >= 0"),
    ('{"kernel": "transition-a"}', "transition-a requires a_param >= 0"),
    ('{"u": 0.5}', "'kernel'"),
    ('{"kernel": "s1", "u": "much"}', "could not convert string to float: 'much'"),
    ('{"kernel": "s1", "u": true, "v": false}', "expected a number, got true"),
    ('{"kernel": "transition-a", "a_param": false}', "expected a number, got false"),
]


@pytest.mark.parametrize("read_rows", [1, 1024])
@pytest.mark.parametrize("fmt,row,message", [("csv", *c) for c in _BAD_CSV]
                         + [("jsonl", *c) for c in _BAD_JSON])
def test_eval_batch_names_the_line_of_its_bad_row(monkeypatch, capsys, tmp_path, fmt, row,
                                                  message, read_rows):
    # a good row, a blank line, the bad row, and a good row after it
    monkeypatch.setattr(cli, "_READ_ROWS", read_rows)
    good = _GOOD_CSV if fmt == "csv" else _GOOD_JSON
    lines = [good, "", row, good]
    if fmt == "csv":
        lines.insert(0, "kernel,tau1,tau2,u,v,a,backend")
    batch = tmp_path / f"bad.{fmt}"
    batch.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, "eval", "--input", str(batch))
    what = "CSV row" if fmt == "csv" else "query"
    assert code == 1 and out == ""
    assert err.startswith(f"error: line {len(lines) - 1}: malformed {what} ({message}")
    assert err.endswith(")\n") and err.count("\n") == 1


@pytest.mark.parametrize("read_rows", [1, 2, 1024])
def test_eval_batch_reports_its_first_bad_row(monkeypatch, capsys, tmp_path, read_rows):
    # A row that cannot be read after one that breaks a query rule, and the
    # other way round: the earlier line is named, whether or not the two
    # rows are read together.  Within a row, a number that cannot be read
    # comes before the kernel's name.
    monkeypatch.setattr(cli, "_READ_ROWS", read_rows)
    header = "kernel,tau1,tau2,u,v\n"
    for body, line, message in [
            ("s1,0,0,0,0\nnope,0,0,0,0\ns1,0,0,much,0\n", 3, "unknown kernel 'nope'"),
            ("s1,0,0,much,0\nnope,0,0,0,0\n", 2, "could not convert"),
            ("nope,0,0,much,0\n", 2, "could not convert"),
            ("s1,0,nan,0,0\ns1,0\n", 2, "tau2 must be finite")]:
        batch = tmp_path / "bad.csv"
        batch.write_text(header + body)
        code, out, err = run(capsys, "eval", "--input", str(batch))
        assert code == 1 and out == ""
        assert err.startswith(f"error: line {line}: malformed CSV row (") and message in err


# ---------------------------------------------------------------------------
# coeffs / expand
# ---------------------------------------------------------------------------


def test_coeffs_example_b10(capsys):
    code, out, _ = run(
        capsys, "coeffs", "--transition", "airy-to-s1",
        "--point", "0,0,0,0", "--order", "4",
    )
    assert code == 0
    obj = json.loads(out)
    re, im = obj["b"][1][0]
    assert abs(complex(re, im) - (-1j / 6)) < 1e-12


def test_coeffs_accepts_short_transition_name(capsys):
    code, out, _ = run(
        capsys, "coeffs", "--transition", "pearcey", "--point", "0,0,0,0",
        "--order", "2", "--with-moments",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["transition"] == "pearcey-to-s2"
    assert "B" in obj and "C" in obj


def test_expand_rows_match_library(capsys):
    point = (0.3, 0.1, 0.2, -0.1)
    code, out, _ = run(
        capsys, "expand", "--transition", "airy", "--point",
        ",".join(str(x) for x in point), "--N", "1", "--a", "6",
    )
    assert code == 0
    rows = [r.split(",") for r in out.strip().splitlines()[1:]]
    assert [int(r[6]) for r in rows] == [0, 1]
    p0, p1 = (float(r[7]) for r in rows)
    assert abs((p1 - p0) - fluc_s1(*point, 6.0)) < 1e-12


def test_expand_requires_point(capsys):
    code, _, err = run(capsys, "expand", "--transition", "airy", "--a", "6")
    assert code == 1 and "the following arguments are required: --point" in err
    # and a finite positive a, and a nonnegative N
    for extra in (["--a", "5,inf"], ["--a", "5,nan"], ["--a", "0"], ["--N", "-1"]):
        argv = ["expand", "--transition", "airy", "--point", "0,0,0,0", "--a", "6"]
        code, out, err = run(capsys, *argv, *extra)
        assert code == 1 and out == "" and err.startswith("error:"), extra


def test_expand_exits_2_when_the_base_kernel_value_misses_its_tolerance(capsys):
    # s1 at u = 1e200 comes with err 0.044, as `eval --kernel s1 --u 1e200` reports
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code, out, err = run(capsys, "expand", "--transition", "airy",
                             "--point=1e200,0,0,0", "--N", "0", "--a", "6")
    assert code == 2 and "accuracy" in err
    assert len(out.strip().splitlines()) == 2  # header and the N = 0 row
    code, out, err = run(capsys, "expand", "--transition", "airy",
                         "--point=0.9,-0.7,0.2,-0.3", "--N", "2", "--a", "6,10")
    assert code == 0 and err == ""
    assert len(out.strip().splitlines()) == 1 + 6


@pytest.mark.parametrize("argv", [
    ["expand", "--transition", "airy", "--point=0.1,0.2,0.3,0.4", "--N", "2", "--a", "1e-300"],
    ["expand", "--transition", "airy", "--point=0.1,0.2,0.3,0.4", "--N", "2", "--a", "1e300"],
    ["expand", "--transition", "pearcey", "--point=0.1,0.2,0.3,0.4", "--N", "2",
     "--a", "1e300"],
    ["verify", "--transition", "airy", "--n-max", "0", "--points=0.9,0.7,0.2,-0.3",
     "--a-grid", "1e-300,1e-299,1e-298"],
], ids=["expand-tiny", "expand-huge", "expand-pearcey-huge", "verify-tiny"])
def test_a_whose_scale_leaves_the_floats_exits_1(capsys, argv):
    # a**beta underflows or overflows: before, NaN rows or a traceback
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: a=")


@pytest.mark.parametrize("argv,named", [
    (["coeffs", "--point=nan,0,0,0", "--order", "2"], "u must be finite"),
    (["coeffs", "--point=0,0,1e200,0", "--order", "2"], "overflow"),
    (["expand", "--point=1e200,0,0,0", "--N", "1", "--a", "6"], "overflow"),
    (["expand", "--point=inf,0,0,0", "--a", "6"], "u must be finite"),
], ids=["coeffs-nan", "coeffs-overflow", "expand-overflow", "expand-inf"])
def test_coefficients_reject_non_finite_points(capsys, argv, named):
    # A NaN table is not JSON and an overflowed partial sum is garbage: both exit 1.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, argv[0], "--transition", "airy", *argv[1:])
    assert code == 1 and out == "" and named in err
    assert not caught, [str(w.message) for w in caught]


# ---------------------------------------------------------------------------
# trace
# ---------------------------------------------------------------------------


def test_trace_airy_upper_contains_saddle(capsys):
    code, out, _ = run(capsys, "trace", "--phase", "airy", "--level", "upper")
    assert code == 0
    pts = [tuple(map(float, l.split())) for l in out.splitlines() if l.strip()]
    assert any(abs(x) < 1e-12 and abs(y - 1) < 1e-12 for x, y in pts)
    # four rays -> four blank-line-separated segments
    assert out.count("\n\n") >= 4


def test_trace_level_mode(capsys):
    code, out, _ = run(
        capsys, "trace", "--phase", "airy", "--mode", "level",
        "--level-im", "0.6666666666666666", "--window=-2,2,0.1,2",
    )
    assert code == 0
    assert len([l for l in out.splitlines() if l.strip()]) > 20


def test_trace_level_mode_places_no_point_next_to_an_overflow(capsys):
    # Only the grid's first row, at y = 1, is finite: f overflows on the
    # next, at y = 2.5e297.  Points placed between the two would all sit at
    # y = 1, where |Im f| = 0.67, far from the level 0.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "trace", "--phase", "airy", "--mode", "level",
                             "--window", "0,1,1,1e300")
    assert (code, out, err) == (0, "", "")


def test_trace_rejects_unknown_saddle(capsys):
    code, _, err = run(capsys, "trace", "--phase", "airy", "--level", "real")
    assert code == 1 and "saddle" in err


def _rays(out: str) -> list[np.ndarray]:
    return [np.array([complex(*map(float, line.split())) for line in block.splitlines()])
            for block in out.split("\n\n") if block.strip()]


@pytest.mark.parametrize("phase,level", [
    ("airy", "upper"), ("airy", "lower"),
    ("pearcey", "upper"), ("pearcey", "lower"), ("pearcey", "real"),
])
def test_trace_rays_are_steepest_paths(capsys, phase, level):
    ph = make_phase("airy-cubic" if phase == "airy" else "pearcey-quartic")
    saddle = ph.saddles[("upper", "lower", "real").index(level)]
    f0 = ph.f(saddle)
    for max_arclength in ("8", "3"):
        code, out, _ = run(capsys, "trace", "--phase", phase, "--level", level,
                           "--max-arclength", max_arclength)
        assert code == 0
        rays = _rays(out)
        assert len(rays) == 4
        for k, z in enumerate(rays):
            assert z[0] == saddle
            f = ph.f(z)
            assert np.max(np.abs(f.imag - f0.imag)) < 1e-12 * (1 + abs(f0))
            assert np.max(np.abs(f.real - f0.real)) < 60 + 1e-9  # the decay budget
            # two descent rays, then two ascent rays
            assert np.all(np.diff(f.real) < 0 if k < 2 else np.diff(f.real) > 0)
            assert np.sum(np.abs(np.diff(z))) <= float(max_arclength)


@pytest.mark.parametrize("argv,flag", [
    (["--max-arclength", "nan"], "--max-arclength"),
    (["--max-arclength", "-1"], "--max-arclength"),
    (["--mode", "level", "--window=nan,2,0,1"], "--window"),
    (["--mode", "level", "--window=2,-2,0,1"], "--window"),
    (["--mode", "level", "--window=1,2"], "--window"),
    (["--mode", "level", "--window=-1e308,1e308,-1,1"], "--window"),
    (["--mode", "level", "--level-im", "nan"], "--level-im"),
], ids=["arclength-nan", "arclength-negative", "window-nan", "window-reversed",
        "window-two-values", "window-width-overflows", "level-im-nan"])
def test_trace_rejects_bad_numbers(capsys, argv, flag):
    code, out, err = run(capsys, "trace", "--phase", "airy", *argv)
    assert code == 1 and out == "" and flag in err


@pytest.mark.parametrize("argv,config,named", [
    (["--mode", "level", "--level", "real"], "", "--level"),
    (["--mode", "level", "--max-arclength", "3"], "", "--max-arclength"),
    (["--window=1,2,3,4", "--level-im", "5"], "", "--level-im, --window"),
    (["--mode", "rays"], "window=-2,2,0.1,2\n", "--window"),
    ([], "mode=level\nlevel=upper\n", "--level"),
], ids=["level-with-saddle", "level-with-arclength", "rays-with-window",
        "config-rays-with-window", "config-level-with-saddle"])
def test_trace_rejects_the_other_modes_flags(capsys, tmp_path, argv, config, named):
    if config:
        cfg = tmp_path / "trace.cfg"
        cfg.write_text(config)
        argv = [*argv, "--config", str(cfg)]
    code, out, err = run(capsys, "trace", "--phase", "airy", *argv)
    assert code == 1 and out == "" and named in err


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_check_single_point_passes(capsys):
    code, out, err = run(
        capsys, "verify", "--transition", "airy",
        "--points", "0.9,0.7,0.2,-0.3", "--n-max", "1", "--check",
    )
    assert code == 0
    assert "windows hold" in err
    summary = json.loads(out.strip())
    assert summary["windows"]["0"]["pass"] and summary["windows"]["1"]["pass"]


def test_verify_check_flags_preasymptotic_point(capsys):
    # on anchors 1..3 the higher-order terms still rival the first neglected
    # one, so the fitted N=0 slope for the quartic transition sits outside
    # its window
    code, out, err = run(
        capsys, "verify", "--transition", "pearcey",
        "--points=-0.5,0.8,-0.7,0.4", "--n-max", "1", "--check",
        "--a-grid", "1,1.25,1.5,1.75,2,2.5,3",
    )
    assert code == 1
    assert "check failed" in err and "N=0" in err


def test_verify_without_a_rate_fit_exits_1(capsys):
    # coarse tolerances leave too few residuals above the noise floor to fit
    code, out, err = run(
        capsys, "verify", "--transition", "airy", "--n-max", "0",
        "--points=0.9,0.7,0.2,-0.3", "--rel-tol", "1e-1", "--abs-tol", "1e-1",
        "--nodes-per-panel", "2",
    )
    assert code == 1 and out == ""
    assert err.startswith("error: N=0: ")


def test_verify_csv_format(capsys):
    code, out, _ = run(
        capsys, "verify", "--transition", "airy",
        "--points", "0.9,0.7,0.2,-0.3", "--n-max", "0", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "transition,u,v,tau1,tau2,N,a,residual"
    assert len(lines) == 1 + 7  # default grid has seven anchors


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_sweep_grid_dimensions(capsys):
    code, out, _ = run(
        capsys, "sweep", "--kernel", "sine-ext",
        "--grid-u=0:1:3", "--grid-v=0:1:2",
    )
    assert code == 0
    assert len(out.strip().splitlines()) == 1 + 6


def test_sweep_seeded_determinism(tmp_path):
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for f in (f1, f2):
        assert main([
            "sweep", "--kernel", "s1", "--random", "6", "--seed", "9",
            "--box-lo=-1", "--box-hi", "1", "--output", str(f),
        ]) == 0
    assert f1.read_bytes() == f2.read_bytes()


@pytest.mark.parametrize("flag,value", [("--tau1", "0"), ("--tau2", "0.5"),
                                        ("--grid-u", "0:1:3"), ("--grid-v", "0,1")])
def test_sweep_random_rejects_grid_flags(capsys, flag, value):
    # --random draws all four coordinates, so these flags would be ignored
    code, out, err = run(capsys, "sweep", "--kernel", "s1", "--random", "2",
                         "--seed", "1", f"{flag}={value}")
    assert code == 1 and out == "" and flag in err


@pytest.mark.parametrize("argv,config,named", [
    (["--random", "2", "--box-hi", "inf"], "", "--box-hi"),
    (["--random", "2", "--box-lo", "nan"], "", "--box-lo"),
    (["--random", "-3"], "", "--random"),
    (["--random", "0"], "", "--random"),
    (["--random", "2", "--box-lo", "1", "--box-hi", "0"], "", "--box-lo"),
    (["--random", "2", "--seed", "-1"], "", "--seed"),
    (["--seed", "5", "--box-lo", "3"], "", "--seed, --box-lo"),
    ([], "box-hi=3\n", "--box-hi"),
    (["--random", "3", "--box-lo=-1e308", "--box-hi=1e308"], "", "--box-hi minus --box-lo"),
], ids=["infinite-box", "nan-box", "negative-count", "zero-count", "empty-box",
        "negative-seed", "cloud-flags-on-grid", "config-cloud-flag-on-grid",
        "overflowing-box-width"])
def test_sweep_rejects_bad_or_unused_cloud_flags(capsys, tmp_path, argv, config, named):
    if config:
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(config)
        argv = [*argv, "--config", str(cfg)]
    code, out, err = run(capsys, "sweep", "--kernel", "s1", *argv)
    assert code == 1 and out == "" and named in err


def test_sweep_round_trip_through_eval(tmp_path):
    sw, re_out = tmp_path / "sweep.csv", tmp_path / "re.csv"
    assert main([
        "sweep", "--kernel", "sine-ext", "--grid-u=-1:1:4", "--grid-v=0:1:3",
        "--tau1", "0.2", "--output", str(sw),
    ]) == 0
    assert main(["eval", "--input", str(sw), "--output", str(re_out)]) == 0
    rows1 = sw.read_text().strip().splitlines()[1:]
    rows2 = re_out.read_text().strip().splitlines()[1:]
    assert len(rows1) == len(rows2) == 12
    for r1, r2 in zip(rows1, rows2):
        a, b = r1.split(","), r2.split(",")
        assert abs(float(a[6]) - float(b[6])) < 1e-12
        assert abs(float(a[7]) - float(b[7])) < 1e-12


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------


def test_config_file_supplies_defaults_and_flags_override(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# sample config\nkernel=s1\nu=1\nv=1\n")
    code, out, _ = run(capsys, "eval", "--config", str(cfg))
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    assert row[0] == "s1" and float(row[4]) == 1.0

    code, out, _ = run(capsys, "eval", "--config", str(cfg), "--u", "0.25")
    assert code == 0
    assert float(out.strip().splitlines()[1].split(",")[4]) == 0.25


def test_config_before_subcommand_also_works(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("kernel=sine-ext\nu=0.5\n")
    code, out, _ = run(capsys, "--config", str(cfg), "eval")
    assert code == 0
    assert abs(float(out.strip().splitlines()[1].split(",")[6]) - 2 / np.pi) < 1e-10


def test_config_does_not_leak_into_later_calls(capsys, tmp_path):
    # The parser is built once per process; a config applies to the call
    # that names it and to no later one, and leaves the parser as built.
    before = run(capsys, "eval", "--kernel", "sine-ext", "--v", "0.5")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("kernel=s1\nu=1\ntau1=0.25\nformat=json\nnodes_per_panel=24\n")
    code, out, _ = run(capsys, "eval", "--config", str(cfg))
    assert code == 0 and json.loads(out)["kernel"] == "s1"
    assert run(capsys, "eval", "--kernel", "sine-ext", "--v", "0.5") == before

    def defaults(subs):
        return {name: [(a.dest, a.default) for a in sp._actions]
                for name, sp in subs.items()}

    assert defaults(cli._parser()[1]) == defaults(cli._build_parser()[1])


def test_config_rejects_malformed_line(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("kernel s1\n")
    code, _, err = run(capsys, "eval", "--config", str(cfg))
    assert code == 1 and "config" in err


@pytest.mark.parametrize("argv,text,named", [
    (["eval"], "kernel=s1\nformat=xml\n", "xml"),
    (["trace"], "phase=airy\nmode=bogus\n", "bogus"),
    (["eval"], "kernel=s1\nu=much\n", "much"),
    (["eval"], "kernel=s1\nbogus-key=1\n", "bogus-key"),
    (["eval"], "kernel=s1\nseed=3\n", "seed"),  # an option of sweep only
    (["sweep"], "kernel=s1\nrandom=2\ntau1=0.5\n", "--tau1"),  # ignored by --random
], ids=["choice", "trace-choice", "type", "unknown-key", "other-command-key",
        "random-ignores"])
def test_config_rejects_what_the_flag_would(capsys, tmp_path, argv, text, named):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    code, out, err = run(capsys, *argv, "--config", str(cfg))
    assert code == 1 and named in err
    assert out == ""


@pytest.mark.parametrize("argv,text", [
    (["expand", "--N", "0"], "transition=airy\npoint=0.9,0.7,0.2,-0.3\na=6,10\n"),
    (["coeffs"], "transition=pearcey\npoint=0,0,0,0\norder=2\n"),
    (["trace", "--max-arclength", "1"], "phase=airy\n"),
    (["sweep", "--grid-u=0,1"], "kernel=s1\ngrid-v=0\n"),
], ids=["expand", "coeffs", "trace", "sweep"])
def test_config_supplies_required_options(capsys, tmp_path, argv, text):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == "" and "the following arguments are required" in err
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    for config in (["--config", str(cfg)], [f"--config={cfg}"], ["--conf", str(cfg)]):
        code, out, err = run(capsys, *argv, *config)
        assert code == 0 and out and err == "", config
        assert run(capsys, *config, *argv) == (code, out, err)


def test_config_abbreviation_is_read_only_where_argparse_reads_it(capsys, tmp_path):
    # --c also abbreviates verify's --check and --cross-check, so argparse
    # reports the ambiguity; it is not taken as --config and opened
    code, out, err = run(capsys, "verify", "--c", "nofile")
    assert code == 1 and out == ""
    assert "ambiguous option: --c could match --config, --check, --cross-check" in err
    cfg = tmp_path / "run.cfg"
    cfg.write_text("kernel=s1\nu=1\n")
    code, out, err = run(capsys, "eval", "--conf", str(cfg))
    assert code == 0 and err == ""
    assert (code, out, err) == run(capsys, "eval", "--kernel", "s1", "--u", "1")


@pytest.mark.parametrize("argv", [
    ["expand", "--transition", "airy", "--point", "0,0,0,0", "--a="],
    ["verify", "--a-grid=", "--transition", "airy"],
    ["verify", "--points=", "--transition", "airy"],
    ["verify", "--points=;", "--transition", "airy"],
    ["sweep", "--kernel", "s1", "--grid-u="],
    ["sweep", "--kernel", "s1", "--grid-v=0:1:0"],
], ids=["expand-a", "verify-a-grid", "verify-points", "verify-points-separator",
        "sweep-grid-u", "sweep-grid-v-linspace"])
def test_empty_lists_are_rejected_when_parsed(capsys, argv):
    # before, verify ran its default grid or points, and sweep printed no rows
    code, out, err = run(capsys, *argv)
    flag = next(a for a in argv if a.startswith("--") and "=" in a).split("=")[0]
    assert code == 1 and out == "" and f"argument {flag}" in err


@pytest.mark.parametrize("grid", ["-1e308:1e308:3", "0:inf:3", "nan:1:3"])
def test_sweep_grid_bounds_and_width_must_be_finite(capsys, grid):
    # before, linspace overflowed and a NaN coordinate was reported per row
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "sweep", "--kernel", "s1", f"--grid-u={grid}")
    assert code == 1 and out == "" and "argument --grid-u" in err


def test_config_value_after_the_subcommand_name_is_overridden_by_a_flag(capsys, tmp_path):
    # the file's options sit right after the subcommand name, so every flag,
    # before or after --config, comes later and wins
    cfg = tmp_path / "run.cfg"
    cfg.write_text("kernel=s1\nu=1\n")
    code, out, _ = run(capsys, "eval", "--u", "0.25", "--config", str(cfg))
    assert code == 0 and float(out.strip().splitlines()[1].split(",")[4]) == 0.25


@pytest.mark.parametrize("value,checked", [("false", False), ("yes", True)])
def test_config_store_true_values(capsys, tmp_path, value, checked):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"transition=airy\npoints=0.9,0.7,0.2,-0.3\nn-max=0\ncheck={value}\n")
    code, _, err = run(capsys, "verify", "--config", str(cfg))
    assert code == 0
    assert ("windows hold" in err) == checked


@pytest.mark.parametrize("argv", [
    ["eval", "--kernel", "s1", "--seed", "1"],
    ["sweep", "--kernel", "s1", "--input", "x.csv"],
    ["expand", "--transition", "airy", "--point", "0,0,0,0", "--a", "6",
     "--backend", "saddle"],
    ["coeffs", "--transition", "airy", "--point", "0,0,0,0", "--format", "csv"],
    ["trace", "--phase", "airy", "--format", "json"],
    ["trace", "--phase", "airy", "--rel-tol", "1e-8"],
    ["verify", "--backend", "direct"],
    ["verify", "--warn-tol", "1e-3"],
], ids=lambda argv: f"{argv[0]}{argv[-2]}")
def test_flags_a_command_does_not_read_are_rejected(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and "unrecognized arguments" in err
    assert out == ""


def test_usage_error_exits_1(capsys):
    assert main(["eval", "--no-such-flag"]) == 1
    assert main([]) == 1


def test_commands_import_neither_scipy_nor_mpmath(tmp_path):
    # numpy is the one runtime dependency: no command may pull in the test oracles
    code = """import sys
from kernelwave.cli import main
batch, out = sys.argv[1:]
point = ["--transition", "airy", "--point", "0.9,0.7,0.2,-0.3"]
runs = [["eval", "--kernel", "airy-ext", "--u", "0.3"],
        ["eval", "--kernel", "airy-ext", "--backend", "saddle", "--u", "0.3"],
        ["eval", "--input", batch],
        ["sweep", "--kernel", "s1"],
        ["expand", *point, "--N", "2", "--a", "4"],
        ["coeffs", *point, "--with-moments"],
        ["trace", "--phase", "airy"],
        ["trace", "--phase", "pearcey", "--mode", "level"],
        ["verify", "--transition", "airy", "--points", "0.9,0.7,0.2,-0.3",
         "--a-grid", "4,5.5,7,8.5", "--n-max", "1"]]
print(*(main([*argv, "--output", out]) for argv in runs))
print(*sorted(m for m in sys.modules if m.partition(".")[0] in ("scipy", "mpmath")))
"""
    batch = tmp_path / "batch.csv"
    batch.write_text("kernel,tau1,tau2,u,v,backend\ns1,0,0,0.5,0.1,\n"
                     "airy-ext,0,0.5,0.1,0.2,direct\npearcey-ext,0,0,0.3,0.2,saddle\n")
    src = os.path.dirname(os.path.dirname(kernelwave.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code, str(batch), str(tmp_path / "out")],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
                          timeout=300, check=True)
    codes, modules = done.stdout.split("\n")[:2]
    assert codes.split() == ["0"] * 9, done.stderr
    assert modules == ""
