import ast
import json
import os
import subprocess
import sys
import warnings

import pytest

import sharplp
from sharplp import audit, cli
from sharplp.cli import CommandConfig, main, parse_config, run


def _run(argv, tmp_path, name="out"):
    out = tmp_path / name
    config = parse_config(argv + ["--out", str(out)])
    code = run(config)
    return code, out


def test_contour_small_grid(tmp_path):
    code, out = _run(
        [
            "contour",
            "--alpha-min", "0.5", "--alpha-max", "1.0",
            "--p-min", "2.0", "--p-max", "4.0",
            "--na", "3", "--np", "3",
        ],
        tmp_path,
        "grid.csv",
    )
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "alpha,p,value"
    assert len(lines) == 10
    rows = [line.split(",") for line in lines[1:]]
    # alpha varies fastest within each exponent row
    assert [r[0] for r in rows[:3]] == ["0.5", "0.75", "1"]
    assert [r[1] for r in rows[:3]] == ["2", "2", "2"]
    # boundary values are exactly 1 at alpha = 1/2 and alpha = 1
    for r in rows:
        if r[0] in ("0.5", "1"):
            assert float(r[2]) == pytest.approx(1.0, abs=1e-12)
    # interior value at (0.75, 4) is the frozen factor value
    row = [r for r in rows if r[0] == "0.75" and r[1] == "4"]
    assert float(row[0][2]) == pytest.approx(1.014412575842875, rel=1e-14)


def test_contour_rejects_near_special_p(tmp_path, capsys):
    config = parse_config(
        [
            "contour",
            "--p-min", "1.9999999996", "--p-max", "2.0000000004",
            "--np", "3", "--na", "2",
        ]
    )
    assert run(config) == 2
    assert "within 1e-9" in capsys.readouterr().err


def test_contour_usage_errors(tmp_path):
    config = parse_config(["contour", "--na", "1"])
    assert run(config) == 2
    config = parse_config(["contour", "--alpha-min", "0.9", "--alpha-max", "0.5"])
    assert run(config) == 2


def test_verify_small_campaign(tmp_path):
    code, out = _run(
        ["verify", "--seed", "0", "--trials", "50"], tmp_path, "verify.json"
    )
    assert code == 0
    summary = json.loads(out.read_text(encoding="utf-8"))
    assert summary["passed"] is True
    assert summary["per_region_failures"] == {
        "forward": 0, "reverse": 0, "dominance": 0, "equality": 0,
    }
    assert summary["seed"] == 0


def test_verify_deterministic(tmp_path):
    _, out1 = _run(["verify", "--trials", "30"], tmp_path, "a.json")
    _, out2 = _run(["verify", "--trials", "30"], tmp_path, "b.json")
    assert out1.read_bytes() == out2.read_bytes()


def test_verify_p_list(tmp_path):
    code, out = _run(
        ["verify", "--trials", "20", "--p-list", "3.0,-2.0"], tmp_path, "v.json"
    )
    assert code == 0
    summary = json.loads(out.read_text(encoding="utf-8"))
    assert summary["forward_ps"] == [3.0]
    assert summary["reverse_ps"] == [-2.0]


def test_audit_single_c(tmp_path):
    code, out = _run(
        ["audit", "--c-grid=0.3", "--points", "2000"], tmp_path, "audit.json"
    )
    assert code == 0
    reports = json.loads(out.read_text(encoding="utf-8"))
    assert len(reports) == 1
    rep = reports[0]
    assert rep["all_match"] is True
    assert rep["fraction_ok"] is True
    assert set(rep["patterns"]) == {"f_prime", "g", "h", "v", "v_dprime"}
    for entry in rep["patterns"].values():
        assert entry["match"] is True


def test_audit_large_c_matches(tmp_path):
    # the v'' crossing sits in the truncated band (1 - 1e-6, 1) at c = 1e7:
    # it is a found crossing, not a failed check
    code, out = _run(["audit", "--c-grid=1e7", "--points", "1000"], tmp_path, "audit.json")
    assert code == 0
    (rep,) = json.loads(out.read_text(encoding="utf-8"))
    entry = rep["patterns"]["v_dprime"]
    assert entry["observed"]["overall"] == "minus_to_plus" and entry["match"] is True


@pytest.mark.parametrize("c, fraction_min", [(-9.99e8, 999.000001), (-7e8, 700.000001)])
def test_audit_large_negative_c_keeps_its_fraction(c, fraction_min, tmp_path, capsys):
    # t^c overflows near t = 1 - delta, where the fraction is smallest: there
    # it is read divided through by t^c instead of as inf or NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = _run(["audit", f"--c-grid={c}", "--points", "1000"], tmp_path, "audit.json")
    assert code == 0
    assert capsys.readouterr().err == ""
    (rep,) = json.loads(out.read_text(encoding="utf-8"))
    assert rep["fraction_ok"] is True
    assert rep["fraction_min"] == pytest.approx(fraction_min, rel=1e-10)


def test_bad_precision_mode_exits_2(monkeypatch, capsys):
    monkeypatch.setenv("SHARPLP_PRECISION", "quad")
    assert run(parse_config(["means", "--trials", "2"])) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: SHARPLP_PRECISION must be one of")


def test_audit_rejects_special_c(tmp_path, capsys):
    config = parse_config(["audit", "--c-grid=0.5"])
    assert run(config) == 2


def test_sharpness_command(tmp_path):
    code, out = _run(
        ["sharpness", "--p-list", "3.0", "--r", "1.1"], tmp_path, "s.json"
    )
    assert code == 0
    results = json.loads(out.read_text(encoding="utf-8"))
    assert results[0]["witness_s"] is not None
    assert results[0]["witness_expected"] is True
    assert results[0]["passed"] is True


def test_schatten_command(tmp_path):
    code, out = _run(
        ["schatten", "--trials", "5", "--dim", "2", "--p-list", "4.0"],
        tmp_path,
        "sch.json",
    )
    assert code == 0
    summary = json.loads(out.read_text(encoding="utf-8"))
    assert summary["passed"] is True
    assert summary["dims"] == [2]


def test_means_command(tmp_path):
    code, out = _run(
        ["means", "--p-list", "3.0", "--trials", "25"], tmp_path, "m.json"
    )
    assert code == 0
    summary = json.loads(out.read_text(encoding="utf-8"))
    assert summary["passed"] is True
    assert summary["example_chain"] is not None
    terms = summary["example_chain"]["terms"]
    assert terms[0] >= terms[1] >= terms[2] >= terms[3] >= -1e-12


def test_parse_config_defaults():
    config = parse_config(["contour"])
    assert isinstance(config, CommandConfig)
    assert config.command == "contour"
    assert config.format == "csv"
    assert config.options["n_alpha"] == 400 and config.options["n_p"] == 400
    config = parse_config(["verify"])
    assert config.format == "json"
    assert config.options["seed"] == 0

    with pytest.raises(SystemExit) as exc:
        parse_config(["bogus"])
    assert exc.value.code == 2


def test_parser_is_reused_after_a_rejection(capsys):
    assert cli.build_parser() is cli.build_parser()
    with pytest.raises(SystemExit) as exc:
        parse_config(["verify", "--seed", "x"])
    assert exc.value.code == 2
    assert "invalid int value" in capsys.readouterr().err
    first = parse_config(["verify", "--seed", "3", "--trials", "7", "--out", "a.json"])
    second = parse_config(["audit", "--c-grid=0.35"])
    assert first == CommandConfig(
        "verify", "json", "a.json",
        {"p_list": None, "seed": 3, "trials": 7, "points": cli.campaigns.MAX_POINTS},
    )
    assert second == CommandConfig(
        "audit", "json", None, {"c_grid": "0.35", "points": 10_000}
    )
    # the first parse left nothing behind: defaults are back
    assert parse_config(["verify"]).options["seed"] == 0


def test_contour_json_format(tmp_path):
    out = tmp_path / "grid.json"
    config = parse_config(
        ["contour", "--na", "2", "--np", "2", "--format", "json", "--out", str(out)]
    )
    assert run(config) == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["header"] == ["alpha", "p", "value"]
    assert len(payload["rows"]) == 4


def test_json_commands_reject_csv_format(tmp_path, capsys):
    # --format belongs to contour only; argparse rejects it elsewhere
    with pytest.raises(SystemExit) as exc:
        parse_config(["verify", "--trials", "1", "--format", "csv"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --format csv" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [["--p-list", "700"], ["--p-list", "1100"], ["--p-list", "1e-8", "--trials", "3"]],
)
def test_verify_exponent_beyond_double_range(argv, capsys):
    # a side overflows double precision: a usage-level error, not a verdict
    assert run(parse_config(["verify"] + argv)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "not finite in double precision" in err[0]


def test_contour_stdout_matches_out_file(tmp_path, capsys):
    argv = ["contour", "--alpha-min", "0.0", "--p-min", "0.5", "--na", "7", "--np", "5"]
    assert run(parse_config(argv)) == 0
    streamed = capsys.readouterr().out
    code, out = _run(argv, tmp_path, "grid.csv")
    assert code == 0
    assert out.read_bytes() == streamed.encode("utf-8")
    lines = streamed.splitlines()
    assert lines[0] == "alpha,p,value" and len(lines) == 1 + 7 * 5
    for line in lines[1:]:
        for tok in line.split(","):
            assert f"{float(tok):.17g}" == tok


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--points", "1"],
        ["verify", "--points", "0"],
        ["verify", "--trials", "0"],
        ["schatten", "--trials", "0"],
        ["audit", "--points", "999"],
        ["verify", "--seed", "-1", "--trials", "2"],
        ["schatten", "--seed", "-1", "--trials", "2"],
        ["means", "--seed", "-1"],
        ["verify", "--p-list", "nan"],
        ["verify", "--p-list", ","],
        ["means", "--p-list", "nan"],
        ["means", "--trials", "0"],
        ["means", "--trials", "-3"],
        ["sharpness", "--p-list", "nan"],
        ["sharpness", "--r", "nan"],
        ["audit", "--c-grid=nan"],
        ["audit", "--c", "inf"],  # argparse reads --c as the prefix of --c-grid
        ["contour", "--p-max", "inf"],
        ["verify", "--p-list", "abc"],
        ["contour", "--alpha-min=-0.5"],
    ],
    ids=" ".join,
)
def test_bad_input_is_a_usage_error(argv, capsys):
    # exit 1 means a check failed; bad input is exit 2 with one error line
    assert run(parse_config(argv)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [
        # argparse reads --c as the prefix of --c-grid
        ["audit", "--c", "1e300"],
        ["audit", "--c", "1e200"],
        ["audit", "--c=-1e9"],
        ["audit", "--c", "0.5000000001"],
        ["audit", "--c", "1e-320"],
        ["audit", "--c-grid=0.3,1e300"],
        # below |c| = 1e-5 the double scan's signs are roundoff near t = 1
        ["audit", "--c-grid=1e-7"],
        ["audit", "--c-grid=-1e-7"],
        ["audit", "--c-grid=1e-8"],
        ["audit", "--c-grid=1e-10"],
        ["audit", "--c-grid=-1e-10"],
        ["audit", "--c-grid=1e-300"],
        ["means", "--p-list=1e20", "--trials", "2"],
        ["means", "--p-list=-1e20", "--trials", "2"],
    ],
    ids=" ".join,
)
def test_exponent_out_of_range_exits_2(argv, capsys):
    # through the entry point: exit 2 with one error line, never a traceback
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("c", [2 * audit._C_MIN, -2 * audit._C_MIN])
def test_audit_at_twice_the_smallest_c_exits_0(c, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["audit", f"--c-grid={c!r}"])
    assert exc.value.code == 0
    assert json.loads(capsys.readouterr().out)[0]["c"] == c


def _p_argv(command, p):
    """The argv that hands the one exponent p to a p-taking command."""
    return {
        "verify": ["verify", f"--p-list={p!r}", "--trials", "2"],
        "means": ["means", f"--p-list={p!r}", "--trials", "2"],
        "sharpness": ["sharpness", f"--p-list={p!r}"],
        "contour": ["contour", f"--p-min={p!r}", f"--p-max={p + 1.0!r}", "--na", "2", "--np", "2"],
        "audit": ["audit", f"--c-grid={1.0 / p!r}", "--points", "1000"],
    }[command]


P_COMMANDS = ("verify", "means", "sharpness", "contour", "audit")


@pytest.mark.parametrize("mode", ["double", "high"])
@pytest.mark.parametrize("p", [1e-10, -1e-10, 1.0 + 1e-10, 2.0 - 1e-10])
@pytest.mark.parametrize("command", P_COMMANDS)
def test_exponent_near_miss_exits_2(command, p, mode, monkeypatch, capsys):
    # every p-taking command applies the one exponent rule of the library
    monkeypatch.setenv("SHARPLP_PRECISION", mode)
    assert run(parse_config(_p_argv(command, p))) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


@pytest.mark.parametrize("p", [1.0, 2.0])
@pytest.mark.parametrize("command, code", zip(P_COMMANDS, (0, 0, 2, 0, 2)))
def test_exact_identity_exponents_keep_their_exit_codes(command, code, p, capsys):
    # sharpness probes away from p in {1, 2}; the audit claims no pattern at c in {1/2, 1}
    assert run(parse_config(_p_argv(command, p))) == code


# Run in a fresh interpreter: prints a JSON list, first which scipy and mpmath
# modules are loaded after each step, then the stdout of each 50-digit
# command.  With FIRST set, mpmath is imported before sharplp and only the
# 50-digit commands run.
_IMPORT_PROBE = """
import contextlib, io, json, os, sys
sys.modules["scipy"] = None
if os.environ.get("FIRST"):
    import mpmath
import sharplp
import sharplp.cli as cli

def loaded():
    return sorted(m for m, mod in sys.modules.items() if m.startswith(("scipy", "mpmath")) and mod)

def out_of(args, mode="double"):
    os.environ["SHARPLP_PRECISION"] = mode
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(cli.parse_config(args))
    return [code, out.getvalue()]

steps = [["import", loaded()]]
if not os.environ.get("FIRST"):
    for args in (["verify", "--trials", "3"], ["contour", "--na", "4", "--np", "4"],
                 ["schatten", "--trials", "2"], ["means", "--trials", "3"], ["sharpness"]):
        assert out_of(args)[0] == 0
        steps.append([args[0], loaded()])
    with contextlib.redirect_stderr(io.StringIO()), contextlib.suppress(SystemExit):
        cli.parse_config(["verify", "--no-such-option"])
    steps.append(["rejection", loaded()])
audit = out_of(["audit", "--c-grid=0.35", "--points", "1000"])
steps.append(["audit", "mpmath" in sys.modules])
verify = out_of(["verify", "--trials", "1"], "high")
print(json.dumps([steps, audit, verify]))
"""


def _import_probe(first):
    src = os.path.dirname(os.path.dirname(sharplp.__file__))
    env = {**os.environ, "PYTHONPATH": src, "FIRST": "1" if first else ""}
    env.pop("SHARPLP_PRECISION", None)
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE], capture_output=True, text=True, env=env, check=False
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_cli_imports_without_scipy():
    # the package depends on numpy and mpmath only: with every scipy import
    # made to fail, the CLI still imports and loads no scipy module.  mpmath
    # is loaded at the first 50-digit value, never by a double command or an
    # argparse rejection, and what it computes then equals the output of a
    # process that imported mpmath before sharplp
    steps, audit_out, verify_out = _import_probe(first=False)
    assert steps[:-1] == [
        [step, []]
        for step in ("import", "verify", "contour", "schatten", "means", "sharpness", "rejection")
    ]
    assert steps[-1] == ["audit", True]
    _, first_audit, first_verify = _import_probe(first=True)
    assert audit_out == first_audit and audit_out[0] == 0
    assert verify_out == first_verify and verify_out[0] == 0


def test_only_precision_imports_mpmath():
    package = os.path.dirname(sharplp.__file__)
    paths = [
        os.path.join(root, name)
        for root, _, names in os.walk(package)
        for name in names
        if name.endswith(".py")
    ]
    importers = set()
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m == "mpmath" or m.startswith("mpmath.") for m in modules):
                importers.add(os.path.relpath(path, package))
    assert importers == {"precision.py"}


@pytest.mark.parametrize(
    "argv",
    [
        # sizes beyond numpy's index range, refused before anything is allocated
        ["verify", "--points", "1000000000000000000", "--trials", "2"],
        # argparse reads --c as the prefix of --c-grid
        ["audit", "--c", "0.3", "--points", "10000000000000000000"],
        ["contour", "--np", "10000000000000000000"],
        ["contour", "--na", "10000000000000000000"],
    ],
    ids=" ".join,
)
def test_sizes_numpy_refuses_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "do not fit in memory" in err[0]


@pytest.mark.parametrize("error", [MemoryError(), MemoryError("Unable to allocate 44.7 GiB")])
def test_allocation_failure_exits_2(error, monkeypatch, capsys):
    # a size numpy indexes but the host cannot hold, stood in for by a runner
    def runner(config):
        raise error

    monkeypatch.setitem(cli._RUNNERS, "verify", runner)
    assert run(parse_config(["verify"])) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "do not fit in memory" in err[0]


def test_other_value_errors_still_raise(monkeypatch):
    # only numpy's size refusals become usage errors; a program fault stays loud
    def runner(config):
        raise ValueError("some other fault")

    monkeypatch.setitem(cli._RUNNERS, "verify", runner)
    with pytest.raises(ValueError, match="some other fault"):
        run(parse_config(["verify"]))
