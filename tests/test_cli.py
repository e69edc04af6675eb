"""Command-line interface: argument handling, outputs, exit codes."""
import hashlib
import json
import math
import os
import re
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


# one small config per subcommand, since each reads its file the same way
_CONFIGS = {
    "crb": "j = 1\ngenerator = z\ntheta1 = 0.25pi\ntheta2 = 0.75pi\nphi1 = 0.75pi\n",
    "scan": "j = 0.5\ngenerator = x\nphi2 = pi\nres = 5\n",
    "verify": "family = half_z_equator\nres = 5\n",
    "find-hl": "j = 0.5\ngenerator = z\nseeds = 2\n",
}


@pytest.mark.parametrize("command", list(_CONFIGS))
def test_config_with_a_byte_order_mark_reads_as_without(capsys, tmp_path, command):
    text = _CONFIGS[command]
    plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
    plain.write_bytes(text.encode("utf-8"))
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    code_a, out_a, _ = run(capsys, command, "--config", str(plain))
    code_b, out_b, err_b = run(capsys, command, "--config", str(marked))
    assert code_a == code_b == 0, err_b
    assert out_a.encode() == out_b.encode()


@pytest.mark.parametrize("command", list(_CONFIGS))
def test_a_config_that_is_not_utf8_is_a_usage_error(capsys, tmp_path, command):
    # an undecodable byte used to end the run with a UnicodeDecodeError traceback
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes(_CONFIGS[command].encode("utf-8") + b"# \xe9\n")
    code, out, err = run(capsys, command, "--config", str(cfg))
    assert (code, out) == (1, "")
    assert err == f"error: {cfg}: not UTF-8 text\n"


def test_config_rejects_unknown_keys(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("j = 1\ngenerator = z\ntheta1 = 0\ntheta2 = 0\nresolution = 5\n")
    code, _, err = run(capsys, "crb", "--config", str(cfg))
    assert code == 1
    assert "resolution" in err


def test_a_config_key_given_twice_is_a_usage_error(capsys, tmp_path):
    # keys are compared as the loader normalises them, so J repeats j
    cfg = tmp_path / "twice.cfg"
    cfg.write_text("j = 1\ngenerator = z\nJ = 0.5\n")
    code, out, err = run(capsys, "find-hl", "--config", str(cfg))
    assert (code, out) == (1, "")
    assert err == f"error: {cfg}:3: duplicate key 'j'\n"


@pytest.mark.parametrize(
    "word,theta1",
    [("1", "0.25pi"), ("TRUE", "0.25pi"), ("yes", "0.25pi"), ("On", "0.25pi"),
     ("0", "0.25"), ("false", "0.25"), ("NO", "0.25"), ("off", "0.25")],
)
def test_config_on_off_words(capsys, tmp_path, word, theta1):
    cfg = tmp_path / "units.cfg"
    cfg.write_text(f"pi-units = {word}\n")
    argv = ("crb", "--j", "1", "--gen", "z", "--theta2", "0.75pi")
    got = run(capsys, *argv, "--theta1", "0.25", "--config", str(cfg))
    assert got == run(capsys, *argv, "--theta1", theta1)
    assert got[0] == 0


def test_a_config_on_off_value_that_is_no_word_is_a_usage_error(capsys, tmp_path):
    cfg = tmp_path / "units.cfg"
    cfg.write_text("pi_units = maybe\n")
    code, out, err = run(capsys, "crb", "--j", "1", "--gen", "z", "--theta1", "0", "--theta2", "1",
                         "--config", str(cfg))
    assert (code, out, err) == (1, "", "error: invalid boolean 'maybe'\n")


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
            "theta1 must lie in [0, pi], got 5.0",
        ),
        # a spin too large to round, and one whose 2j has 201 digits
        (
            ("crb", "--j", "1e308", "--gen", "z", "--theta1", "0", "--theta2", "1"),
            "invalid spin '1e308': j must lie in [1/2, 32], got 1e+308",
        ),
        (
            ("scan", "--j", "1e200", "--gen", "z"),
            "invalid spin '1e200': j must lie in [1/2, 32], got 1e+200",
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


# sha256 of find-hl stdout, text and JSON, recorded from the damped Newton
# polish that merges accepted points within 1e-5; at j = 1/2, 1 and 32 the
# points reported are seed-grid points, which no polish moves
@pytest.mark.parametrize(
    "j,gen,fmt,digest",
    [
        ("0.5", "z", "text", "f78ea45217b98f0a71f1fb01192f4c2c1a4e13d418582d26ee667e270f6de9db"),
        ("0.5", "z", "json", "f433b8109b91c06a8e0984b2c789c8cf8569b7644e441f7c0b21c1919b7dbf2e"),
        ("1", "z", "text", "7c53a7b26aff5b615256c1a419b89f77e2d1442800a5f82125eb2582ea8dfe45"),
        ("1", "z", "json", "5bb405e1ce41a79dede8c3b708f359825aaaf8e3ff69b54f9a396582de356401"),
        ("1.5", "y", "text", "6eecc9678f936b9dc90b678cb7b056e615136e2d224d034ca8e62c2e50f0aa77"),
        ("1.5", "y", "json", "b9e4c226421893ceb2581fa268df3d090e05e1edb7b309b4cd113dbf30388e8b"),
        ("32", "y", "text", "e84c886b4f1ce18017f4292dc6bbdb09b6823961fae0896074523f88745e60b5"),
        ("32", "y", "json", "eaf046ad488dab42baf409ad75c0c86c4a3f6ba15d08232a9d5b69dc48fcf7b3"),
        ("1", "x", "text", "f15025b01fd91145f6d746ab613bc747da1868af33a0fac950bb96df440ae3cc"),
        ("1", "x", "json", "7c8f7f66b2d9da22676de1611bab187b91f82d010a47a94bbb428dacfb92aef0"),
        ("2", "x", "text", "e1cb8cc3bdd0421554e523144c19ca6551832264e75de48d7dced0e3ed625fa6"),
        ("2", "x", "json", "52112b4873b5a53c84c13e71424d0a156482d1e89dddc88a2b2d994d798448d0"),
    ],
)
def test_find_hl_stdout_is_pinned(capsys, j, gen, fmt, digest):
    code, out, _ = run(capsys, "find-hl", "--j", j, "--gen", gen, "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_verify_all_stdout_is_pinned(capsys):
    # sha256 of verify --all --res 50 stdout with the elapsed time masked,
    # recorded from the batched kernel's chunk loop
    code, out, _ = run(capsys, "verify", "--all", "--res", "50")
    assert code == 0
    masked = re.sub(r', [0-9.]+s\)', ', <elapsed>)', out)
    digest = "c1a7e83049edfe37ae13f488d8a0db71958619f45bcbf032cfcec46cd085556f"
    assert hashlib.sha256(masked.encode()).hexdigest() == digest


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "crb" in capsys.readouterr().out


# scan, verify, find-hl and crb interleaved, a usage error before a valid
# call, and help after a run
REUSE_RUNS = [
    ("scan", "--j", "0.5", "--gen", "z", "--res", "5"),
    ("verify", "--family", "half_z_equator", "--res", "5"),
    ("find-hl", "--j", "0.5", "--gen", "z", "--format", "json"),
    ("crb", "--j", "1", "--gen", "z", "--theta1", "0.25pi", "--theta2", "0.75pi"),
    ("scan", "--j", "1", "--gen", "x", "--res", "4", "--phi2", "pi"),
    ("crb", "--nonsense"),
    ("crb", "--j", "0.5", "--gen", "y", "--theta1", "0", "--theta2", "pi", "--format", "json"),
    ("find-hl", "--j", "1", "--gen", "z"),
    ("verify", "--res", "3", "--family", "one_z_phi0", "--all"),
    ("--help",),
    ("crb", "--help"),
    ("verify", "--family", "half_z_general", "--res", "4"),
]


def _reuse_transcript(capsys) -> list[tuple[int, str, str]]:
    transcript = []
    for argv in REUSE_RUNS:
        code, out, err = run(capsys, *argv)
        transcript.append((code, re.sub(r', [0-9.]+s\)', ', <elapsed>)', out), err))
    return transcript


def test_repeated_calls_match_a_freshly_built_parser(capsys, monkeypatch):
    reused = _reuse_transcript(capsys)
    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    fresh = _reuse_transcript(capsys)
    assert [code for code, _, _ in reused] == [0, 0, 0, 0, 0, 1, 0, 0, 1, 0, 0, 0]
    for argv, got, want in zip(REUSE_RUNS, reused, fresh):
        assert got == want, argv


def test_main_calls_share_one_parser(capsys, monkeypatch):
    parsers = []
    parse_args = cli._Parser.parse_args

    def recording(self, *args, **kwargs):
        parsers.append(self)
        return parse_args(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "parse_args", recording)
    run(capsys, "crb", "--j", "1", "--gen", "z", "--theta1", "0", "--theta2", "pi")
    run(capsys, "crb", "--nonsense")
    assert len(parsers) == 2 and parsers[0] is parsers[1]


def test_importing_the_cli_builds_no_parser():
    # the first main() call builds it; a fresh import leaves it unbuilt
    src = str(Path(spincat.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    script = (
        "import spincat.cli\n"
        "print(spincat.cli._build_parser.cache_info().currsize)\n"
        "spincat.cli.main(['crb', '--nonsense'])\n"
        "print(spincat.cli._build_parser.cache_info().currsize)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["0", "1"]
