"""Command-line front end: subcommands, exit codes, determinism, round trips."""

from __future__ import annotations

import json
import warnings

import numpy as np
import pytest

from kernelwave.cli import main
from kernelwave.expansion import fluc_s1


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


@pytest.mark.parametrize("kernel,value", [("s1", "nan"), ("airy-ext", "nan"),
                                          ("airy-ext", "inf")])
def test_eval_non_finite_input_exits_1(capsys, kernel, value):
    code, out, err = run(capsys, "eval", "--kernel", kernel, "--u", value)
    assert code == 1 and "u must be finite" in err
    assert out == ""


def test_eval_overflowing_integrand_exits_1(capsys):
    # sine-ext's integrand exp(-dt w^2 / 2) overflows for dt = -300
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "eval", "--kernel", "sine-ext", "--tau1", "-300")
    assert code == 1 and "non-finite integrand" in err
    assert out == ""
    assert err.splitlines() == [err.strip()] and err.startswith("error: ")
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_eval_overflowing_direct_airy_exits_1(capsys):
    # the direct Airy exponentials overflow at tau1 = tau2 = -20
    code, out, err = run(capsys, "eval", "--kernel", "airy-ext", "--tau1", "-20",
                         "--tau2", "-20")
    assert code == 1 and "non-finite" in err
    assert out == ""


def test_eval_batch_with_non_finite_input_exits_1(capsys, tmp_path):
    batch = tmp_path / "nan.jsonl"
    batch.write_text('{"kernel": "s1", "u": 0.1}\n{"kernel": "s1", "v": NaN}\n')
    code, _, err = run(capsys, "eval", "--input", str(batch))
    assert code == 1 and "line 2" in err and "v must be finite" in err


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


def test_eval_json_format(capsys):
    code, out, _ = run(
        capsys, "eval", "--kernel", "s1", "--u", "1", "--v", "1", "--format", "json"
    )
    assert code == 0
    obj = json.loads(out.strip())
    assert obj["kernel"] == "s1"
    assert abs(obj["re"] - 1 / np.pi) < 1e-12


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
    assert code == 1
    # and a finite positive a, and a nonnegative N
    for extra in (["--a", "5,inf"], ["--a", "5,nan"], ["--a", "0"], ["--N", "-1"]):
        argv = ["expand", "--transition", "airy", "--point", "0,0,0,0", "--a", "6"]
        code, out, err = run(capsys, *argv, *extra)
        assert code == 1 and out == "" and err.startswith("error:"), extra


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


def test_trace_rejects_unknown_saddle(capsys):
    code, _, err = run(capsys, "trace", "--phase", "airy", "--level", "real")
    assert code == 1 and "saddle" in err


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
    # at this point the next-order term still dominates at a=4, so the
    # fitted N=1 slope for the quartic transition sits outside its window
    code, out, err = run(
        capsys, "verify", "--transition", "pearcey",
        "--points=-0.5,0.8,-0.7,0.4", "--n-max", "1", "--check",
    )
    assert code == 1
    assert "check failed" in err


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
