"""Command-line interface: argument handling, outputs, exit codes."""
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spincat
from spincat import cli
from spincat.cli import main, parse_angle
from spincat.scan import MAX_SEEDS, NoHlFoundError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_angle_tokens():
    assert parse_angle("0.75pi") == pytest.approx(0.75 * math.pi)
    assert parse_angle("pi") == math.pi
    assert parse_angle("-pi") == -math.pi
    assert parse_angle("0.5") == 0.5
    assert parse_angle("0.5", pi_units=True) == pytest.approx(0.5 * math.pi)
    assert parse_angle("2pi", pi_units=True) == pytest.approx(2 * math.pi)
    for bad in ("", "pi pi", "0.5tau", "1..2"):
        with pytest.raises(Exception):
            parse_angle(bad)


def test_crb_json_golden(capsys):
    code, out, _ = run(
        capsys,
        "crb", "--j", "1", "--generator", "z",
        "--theta1", "0.25pi", "--theta2", "0.75pi",
        "--phi1", "0.75pi", "--phi2", "0",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["crb"] == pytest.approx(0.525, abs=1e-3)
    assert doc["divergent"] is False
    assert doc["generator"] == "Z"
    assert doc["overlap"].keys() == {"re", "im"}


def test_crb_text_with_gen_alias(capsys):
    # antipodal pair at the poles: exact Heisenberg limit for spin 1/2
    code, out, _ = run(
        capsys,
        "crb", "--j", "0.5", "--gen", "z",
        "--theta1", "0", "--theta2", "pi",
    )
    assert code == 0
    assert "crb = 1" in out
    assert "generator = Z" in out


def test_angle_spellings_agree_byte_for_byte(capsys):
    base = [
        "crb", "--j", "1", "--generator", "z",
        "--theta1", "0.25pi", "--theta2", "0.75pi", "--phi1", "0.75pi",
    ]
    code_a, out_a, _ = run(capsys, *base)
    alt = [
        "crb", "--j", "1", "--generator", "z", "--pi-units",
        "--theta1", "0.25", "--theta2", "0.75", "--phi1", "0.75",
    ]
    code_b, out_b, _ = run(capsys, *alt)
    assert code_a == code_b == 0
    assert out_a == out_b


def test_config_supplies_defaults_flags_win(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# defaults for the sweep point\n"
        "j = 1\n"
        "generator = z\n"
        "theta1 = 0.25pi\n"
        "theta2 = 0.75pi\n"
        "phi1 = 0.75pi\n"
    )
    code_a, out_a, _ = run(capsys, "crb", "--config", str(cfg))
    assert code_a == 0
    assert "0.525" in out_a
    # a flag on the command line overrides the file value
    code_b, out_b, _ = run(capsys, "crb", "--config", str(cfg), "--theta2", "0.25pi")
    assert code_b == 0
    assert out_b != out_a


def test_config_rejects_unknown_keys(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("j = 1\ngenerator = z\ntheta1 = 0\ntheta2 = 0\nresolution = 5\n")
    code, _, err = run(capsys, "crb", "--config", str(cfg))
    assert code == 1
    assert "resolution" in err


def test_config_missing_file_is_io_error(capsys, tmp_path):
    code, _, err = run(capsys, "crb", "--config", str(tmp_path / "nope.cfg"))
    assert code == 4
    assert err


@pytest.mark.parametrize(
    "argv",
    [
        ("crb", "--j", "1", "--generator", "q", "--theta1", "0", "--theta2", "0"),
        ("crb", "--j", "1", "--generator", "z", "--theta1", "0"),
        ("crb", "--j", "1", "--generator", "z", "--theta1", "xpi", "--theta2", "0"),
        ("crb", "--nonsense",),
        ("verify", "--family", "no_such_family"),
        ("find-hl", "--j", "0.5", "--generator", "z", "--tolerance", "0.5"),
        ("scan", "--j", "0.5", "--generator", "z", "--res", "1"),
        ("crb", "--j", "inf", "--generator", "z", "--theta1", "0", "--theta2", "0"),
        ("crb", "--j", "1e400", "--generator", "z", "--theta1", "0", "--theta2", "0"),
        ("verify", "--family", "half_z_equator", "--tol", "inf"),
    ],
)
def test_usage_errors_exit_one(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert err


@pytest.mark.parametrize(
    "argv",
    [
        ("scan", "--j", "0.5", "--generator", "z", "--res", "2002"),
        ("verify", "--all", "--res", "2002"),
    ],
)
def test_resolution_above_the_cap_exits_one_unrun(capsys, monkeypatch, argv):
    def never(*args):
        raise AssertionError("the job ran")

    monkeypatch.setattr(cli, "grid_scan", never)
    monkeypatch.setattr(cli, "sweep_family", never)
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert "2001" in err
    assert out == ""


def test_non_finite_tol_exits_one_unrun(capsys, monkeypatch, tmp_path):
    # an infinite tolerance would pass every family whatever the deviation
    def never(*args):
        raise AssertionError("the job ran")

    monkeypatch.setattr(cli, "sweep_family", never)
    cfg = tmp_path / "verify.cfg"
    cfg.write_text("tol = inf\n")
    for argv in (["verify", "--tol", "inf"], ["verify", "--config", str(cfg)]):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert "--tol must be positive and finite" in err
        assert out == ""


@pytest.mark.parametrize(
    "argv,message",
    [
        # a missing option before a bad value
        (
            ("crb", "--j", "x", "--generator", "q", "--theta1", "0"),
            "--theta2 is required",
        ),
        # bad values in --help order
        (
            ("crb", "--j", "x", "--generator", "q", "--theta1", "0", "--theta2", "0"),
            "invalid spin 'x'",
        ),
        (
            ("crb", "--j", "1", "--gen", "q", "--theta1", "0", "--theta2", "0", "--format", "xml"),
            "generator must be x, y or z, got 'q'",
        ),
        # angles last, because they need --pi-units
        (
            ("crb", "--j", "1", "--gen", "z", "--theta1", "zz", "--theta2", "0", "--format", "xml"),
            "format must be text or json, got 'xml'",
        ),
        (
            ("scan", "--j", "x", "--gen", "q", "--phi1", "zz", "--res", "y"),
            "invalid spin 'x'",
        ),
        # an out-of-range value before a later value that does not parse
        (
            ("scan", "--j", "0.5", "--gen", "z", "--res", "5000", "--cap", "x"),
            "resolution must be an integer in [2, 2001], got 5000",
        ),
        (
            ("scan", "--j", "0.5", "--gen", "z", "--res", "5000", "--phi1", "zz"),
            "resolution must be an integer in [2, 2001], got 5000",
        ),
        (
            ("find-hl", "--j", "0.5", "--gen", "z", "--tolerance", "0.5", "--seeds", "x"),
            "tolerance must lie in (0, 0.1]",
        ),
        (
            ("verify", "--res", "1", "--tol", "x"),
            "resolution must be an integer in [2, 2001], got 1",
        ),
        (
            ("crb", "--j", "1", "--gen", "z", "--theta1", "5", "--theta2", "zz"),
            "theta must lie in [0, pi], got 5.0",
        ),
    ],
)
def test_several_errors_report_the_first_in_a_fixed_order(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {message}")
    assert len(err.splitlines()) == 1


def test_an_unknown_config_key_is_reported_before_a_missing_option(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("j = x\nresolution = 5\n")
    code, _, err = run(capsys, "crb", "--config", str(cfg))
    assert code == 1
    assert err == "error: config key 'resolution' not valid for 'crb'\n"


def test_several_errors_give_the_same_report_under_any_hash_seed():
    # hash seeds 0 and 1 once reported different errors for this input
    argv = ["crb", "--j", "x", "--generator", "q", "--theta1", "zz", "--theta2", "0"]
    src = str(Path(spincat.__file__).resolve().parents[1])
    script = "import sys; from spincat.cli import main; sys.exit(main(sys.argv[1:]))"
    errs = set()
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", script, *argv], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        errs.add(proc.stderr)
    assert len(errs) == 1
    assert errs.pop().startswith("error: invalid spin 'x'")


def test_workers_flag_is_gone(capsys, tmp_path):
    code, _, _ = run(capsys, "scan", "--j", "0.5", "--generator", "z", "--workers", "2")
    assert code == 1
    cfg = tmp_path / "scan.cfg"
    cfg.write_text("workers = 2\n")
    code, _, err = run(capsys, "scan", "--config", str(cfg), "--j", "0.5", "--generator", "z")
    assert code == 1
    assert "workers" in err


def test_degenerate_cat_exits_two(capsys):
    code, _, err = run(
        capsys,
        "crb", "--j", "0.5", "--generator", "z",
        "--theta1", "pi", "--theta2", "pi", "--phi2", "pi",
    )
    assert code == 2
    assert "degenerate" in err


def test_verify_single_family(capsys):
    code, out, _ = run(capsys, "verify", "--family", "half_z_equator", "--res", "12")
    assert code == 0
    assert "half_z_equator" in out
    assert "PASS" in out
    assert "1/1 families passed" in out


def test_verify_reports_honest_failure(capsys):
    # an unreachable tolerance must fail loudly, not silently clamp
    code, out, _ = run(
        capsys, "verify", "--family", "one_z_phihalf", "--res", "12", "--tol", "1e-17"
    )
    assert code == 3
    assert "FAIL" in out


def test_scan_csv_to_stdout(capsys):
    code, out, _ = run(
        capsys,
        "scan", "--j", "0.5", "--generator", "z",
        "--phi1", "0", "--phi2", "pi", "--res", "5",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "theta1,theta2,crb,overflow,degenerate"
    assert len(lines) == 26


def test_scan_to_file_prints_summary(capsys, tmp_path):
    out_path = tmp_path / "grid.csv"
    code, out, _ = run(
        capsys,
        "scan", "--j", "0.5", "--generator", "z",
        "--phi2", "pi", "--res", "5", "--output", str(out_path),
    )
    assert code == 0
    assert "min crb" in out
    assert "degenerate" in out
    text = out_path.read_text()
    assert text.startswith("theta1,theta2,crb,overflow,degenerate")
    assert len(text.splitlines()) == 26


def test_scan_unwritable_output_exits_four(capsys, tmp_path):
    code, _, err = run(
        capsys,
        "scan", "--j", "0.5", "--generator", "z",
        "--res", "5", "--output", str(tmp_path / "no" / "dir" / "grid.csv"),
    )
    assert code == 4
    assert err


def test_find_hl_json(capsys):
    code, out, _ = run(
        capsys,
        "find-hl", "--j", "0.5", "--generator", "z", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["target"] == 1.0
    assert doc["points"]
    for p in doc["points"]:
        assert p["crb"] <= 1.0 * (1 + 1e-3)


def test_find_hl_none_found_exits_five(capsys, monkeypatch):
    def refuse(spec):
        raise NoHlFoundError("no point reached the requested bound")

    monkeypatch.setattr(cli, "find_hl", refuse)
    code, _, err = run(capsys, "find-hl", "--j", "0.5", "--generator", "z")
    assert code == 5
    assert "no point" in err


def test_seeds_above_the_seed_grid_exit_one_unrun(capsys, monkeypatch):
    def never(spec):
        raise AssertionError("the search ran")

    monkeypatch.setattr(cli, "find_hl", never)
    assert MAX_SEEDS == 2592
    code, out, err = run(capsys, "find-hl", "--j", "0.5", "--gen", "z", "--seeds", "2593")
    assert (code, out) == (1, "")
    assert err == "error: seeds must be at most 2592, the points of the seed grid, got 2593\n"
    with pytest.raises(AssertionError, match="the search ran"):
        run(capsys, "find-hl", "--j", "0.5", "--gen", "z", "--seeds", "2592")


def _spincat_process(argv, buffered):
    src = str(Path(spincat.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.Popen(
        [sys.executable, "-m", "spincat.cli", *argv],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )


@pytest.mark.parametrize("buffered", [True, False])
def test_a_closed_stdout_pipe_ends_the_run_quietly(buffered):
    # `spincat scan ... | head -1`: the reader goes after the first line
    with _spincat_process(["scan", "--j", "0.5", "--gen", "z", "--res", "201"], buffered) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        assert proc.wait(timeout=120) == 4
        assert first == b"theta1,theta2,crb,overflow,degenerate\n"
        assert proc.stderr.read() == b""
    # a short report whose reader is gone before it is written
    crb = ["crb", "--j", "1", "--gen", "z", "--theta1", "0.3", "--theta2", "pi"]
    with _spincat_process(crb, buffered) as proc:
        proc.stdout.close()
        assert proc.wait(timeout=120) == 4
        assert proc.stderr.read() == b""


def _roundtrips(node) -> bool:
    if isinstance(node, float):
        return float(f"{node:.15g}") == node
    if isinstance(node, dict):
        return all(_roundtrips(v) for v in node.values())
    if isinstance(node, list):
        return all(_roundtrips(v) for v in node)
    return True


def test_json_floats_roundtrip_at_15_digits(capsys):
    code, out, _ = run(
        capsys,
        "crb", "--j", "2.5", "--generator", "x",
        "--theta1", "0.3pi", "--theta2", "0.8pi",
        "--phi1", "1.1", "--phi2", "4.0",
        "--format", "json",
    )
    assert code == 0
    assert _roundtrips(json.loads(out))


def test_crb_json_floats_are_library_values_at_15_digits(capsys):
    # the printed floats are the computed doubles rounded to 15 significant
    # digits, not the doubles themselves
    from spincat import CatParams, CoherentParams, Generator, SpinJ, cat_crb, normalization

    code, out, _ = run(
        capsys,
        "crb", "--j", "2.5", "--generator", "x",
        "--theta1", "0.3", "--theta2", "2.5",
        "--phi1", "1.1", "--phi2", "4.0",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    cat = CatParams(SpinJ(5), CoherentParams(0.3, 1.1), CoherentParams(2.5, 4.0))
    result = cat_crb(cat, Generator.X)
    for key, value in (
        ("qfi", result.qfi), ("crb", result.crb), ("normalization", normalization(cat)),
    ):
        assert doc[key] == float(f"{value:.15g}"), key


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "crb" in capsys.readouterr().out
