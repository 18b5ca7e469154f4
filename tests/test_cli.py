import ast
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bml
import bml.cli
from bml import extremal_function
from bml.cli import CLIError, main, parse_function_spec
from bml.membership import phase_grid

ROOT = Path(__file__).resolve().parents[1]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseFunctionSpec:
    def test_explicit(self):
        f = parse_function_spec("principal 1 0\ncoef 1 0 0\ncoef 2 1 0")
        assert f.principal == 1.0
        assert np.array_equal(f.tail, np.array([0.0, 1.0], dtype=complex))

    def test_default_principal_and_sparse(self):
        f = parse_function_spec("coef 3 2 -1\n")
        assert f.principal == 1.0
        assert f.coefficient(1) == 0.0
        assert f.coefficient(3) == 2.0 - 1.0j

    def test_builtin_extremal(self):
        f = parse_function_spec("builtin extremal alpha=0.5 lambda=0 N=32")
        ref = extremal_function(0.5, 0.0, 32)
        assert f.order == 32
        assert np.array_equal(f.tail, ref.tail)

    def test_comments_and_blank_lines(self):
        f = parse_function_spec("# header\n\nprincipal 1 0  # trailing\ncoef 1 2 0\n")
        assert f.coefficient(1) == 2.0

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("coef 2 1 0\ncoef 2 1 0", "duplicate coefficient index"),
            ("coef 0 1 0", "must be >= 1"),
            ("coef 1 nan 0", "non-finite"),
            ("weird 1 2", "unknown directive"),
            ("principal 1", "expected"),
            ("builtin unknown a=1", "unknown builtin"),
            ("builtin extremal alpha=0.5", "missing keys"),
            ("builtin extremal alpha=0.5 lambda=0 N=8 alpha=1", "duplicate key"),
            ("builtin extremal alpha=0.5 lambda=0 N=8\ncoef 1 1 0", "cannot be mixed"),
        ],
    )
    def test_errors_carry_context(self, text, fragment):
        with pytest.raises(CLIError) as err:
            parse_function_spec(text)
        assert fragment in str(err.value)


class TestMlEval:
    def test_exponential_print(self, capsys):
        code, out, err = run(
            capsys, "ml-eval", "--K", "1", "--theta", "1", "--a", "1", "--s", "0", "--z", "1,0"
        )
        assert code == 0
        assert out == "2.718281828459045\n"

    def test_complex_output(self, capsys):
        code, out, _ = run(capsys, "ml-eval", "--z", "0,1")
        assert code == 0
        re, im = out.strip().split(",")
        assert complex(float(re), float(im)) == pytest.approx(
            complex(np.cos(1.0), np.sin(1.0)), abs=1e-12
        )

    def test_overflowing_series_exits_2(self, capsys):
        code, out, err = run(capsys, "ml-eval", "--z=200,0")
        assert code == 2 and not out
        assert err.startswith("error: tail certification") and "radius=200.0" in err
        assert len(err.strip().splitlines()) == 1

    def test_bad_complex_exits_2(self, capsys):
        code, out, err = run(capsys, "ml-eval", "--z", "buzz")
        assert code == 2
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1


class TestOpCoeffs:
    def test_csv_contract(self, capsys):
        code, out, _ = run(capsys, "op-coeffs", "--N", "6")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,h"
        assert len(lines) == 7
        assert all(len(row.split(",")) == 2 for row in lines[1:])
        assert lines[1] == "1,1"
        assert float(lines[3].split(",")[1]) == pytest.approx(0.5, rel=1e-12)

    def test_file_output_deterministic(self, capsys, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for p in (p1, p2):
            code, _, _ = run(capsys, "op-coeffs", "--N", "12", "--K", "1.3", "--out", str(p))
            assert code == 0
        assert p1.read_bytes() == p2.read_bytes()


class TestApply:
    def test_apply_roundtrips_through_parser(self, capsys, tmp_path):
        src = tmp_path / "f.spec"
        src.write_text("principal 1 0\ncoef 1 0 0\ncoef 2 1 0\ncoef 3 1 0\n")
        code, out, _ = run(capsys, "apply", str(src))
        assert code == 0
        g = parse_function_spec(out)
        assert g.coefficient(2) == pytest.approx(1.0, rel=1e-12)
        assert g.coefficient(3) == pytest.approx(0.5, rel=1e-12)

    def test_order_past_the_gamma_range_exits_2(self, capsys, tmp_path):
        # K = theta = a = 1 keeps 170 weights inside the Gamma range: a
        # 400-coefficient spec must not come back 170 coefficients long
        src = tmp_path / "f.spec"
        src.write_text("principal 1 0\ncoef 2 0.5 0\ncoef 400 1e-3 0\n")
        code, out, err = run(capsys, "apply", str(src), "--K", "1", "--theta", "1", "--a", "1")
        assert code == 2 and out == ""
        assert len(err.strip().splitlines()) == 1
        assert "order 400" in err and " 170," in err and "K=1.0, theta=1.0, a=1.0, s=0.0" in err
        src.write_text("principal 1 0\ncoef 2 0.5 0\ncoef 170 1e-3 0\n")
        code, out, _ = run(capsys, "apply", str(src), "--K", "1", "--theta", "1", "--a", "1")
        assert code == 0 and parse_function_spec(out).order == 170

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run(capsys, "apply", "/nonexistent/path.spec")
        assert code == 2
        assert "error:" in err


class TestCheck:
    def test_member_exit_zero_and_fields(self, capsys, tmp_path):
        src = tmp_path / "f.spec"
        src.write_text("builtin extremal alpha=0.5 lambda=0 N=16\n")
        code, out, _ = run(
            capsys, "check", str(src), "--A", "0", "--B", "-1",
            "--angles", "64", "--xsamples", "64",
        )
        assert code == 0
        keys = [line.split("=")[0] for line in out.strip().splitlines()]
        assert keys == ["verdict", "margin", "witness_z", "method", "skipped"]
        assert out.startswith("verdict=member\n")

    def test_nonmember_exit_one(self, capsys, tmp_path):
        src = tmp_path / "f.spec"
        src.write_text("principal 1 0\ncoef 2 40 0\n")
        code, out, _ = run(
            capsys, "check", str(src), "--A", "0", "--B", "-1",
            "--angles", "64", "--xsamples", "64",
        )
        assert code == 1
        assert out.startswith("verdict=non-member\n")

    def test_conv_method_reports_witness_x(self, capsys, tmp_path):
        src = tmp_path / "f.spec"
        src.write_text("builtin extremal alpha=0.5 lambda=0 N=16\n")
        code, out, _ = run(
            capsys, "check", str(src), "--A", "0", "--B", "-1", "--method", "conv-t1",
            "--angles", "32", "--xsamples", "32",
        )
        assert code == 0
        keys = [line.split("=")[0] for line in out.strip().splitlines()]
        assert keys == ["verdict", "margin", "witness_z", "witness_x", "method", "skipped"]
        assert "method=conv_t1" in out

    def test_alexander_requires_convex(self, capsys, tmp_path):
        src = tmp_path / "f.spec"
        src.write_text("principal 1 0\ncoef 1 0.1 0\n")
        code, _, err = run(capsys, "check", str(src), "--method", "alexander")
        assert code == 2
        code, out, _ = run(
            capsys, "check", str(src), "--method", "alexander", "--class", "convex",
            "--angles", "32", "--xsamples", "32",
        )
        assert code in (0, 1)
        assert "method=alexander" in out

    @pytest.mark.parametrize("radii", ["0", "-3"])
    def test_nonpositive_radii_exit_2(self, capsys, tmp_path, radii):
        src = tmp_path / "f.spec"
        src.write_text("principal 1 0\n")
        code, out, err = run(capsys, "boundary-curve", str(src), "--radii", radii)
        assert code == 2 and not out
        assert "--radii" in err
        # the checks sample |z| = rmax alone, so check takes no --radii
        code, out, err = run(capsys, "check", str(src), "--radii", "6")
        assert code == 2 and not out
        assert "--radii" in err

    def test_angles_above_the_cap_exit_2(self, capsys, tmp_path):
        src = tmp_path / "f.spec"
        src.write_text("principal 1 0\n")
        code, out, err = run(capsys, "check", str(src), "--angles", "16385")
        assert code == 2 and out == ""
        assert len(err.strip().splitlines()) == 1
        assert "16384" in err and "16385" in err

    def test_each_command_takes_only_the_grid_flags_it_reads(self):
        (subparsers,) = [a.choices for a in bml.cli._build_parser()._actions if isinstance(a.choices, dict)]
        options = {
            name: {opt for action in subparsers[name]._actions for opt in action.option_strings}
            for name in ("check", "boundary-curve")
        }
        assert {"--rmax", "--angles", "--delta", "--xsamples"} <= options["check"]
        assert "--radii" not in options["check"]
        assert {"--rmax", "--angles", "--delta", "--radii"} <= options["boundary-curve"]
        assert "--xsamples" not in options["boundary-curve"]

    def test_big_grid_check_peak_rss(self, tmp_path):
        # Linux carries a process's peak RSS across exec into its child, so
        # the CLI is started from a small launcher, not from this process.
        launcher = (
            "import os, subprocess, sys\n"
            "proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)\n"
            "_, status, usage = os.wait4(proc.pid, 0)\n"
            "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)\n"
        )
        src = tmp_path / "f.spec"
        src.write_text("builtin extremal alpha=0.5 lambda=0 N=64\n")
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(bml.__file__)))
        done = subprocess.run(
            [
                sys.executable, "-c", launcher, sys.executable, "-m", "bml.cli",
                "check", str(src), "--A", "0", "--B", "-1", "--method", "conv-t1",
                "--angles", "1024", "--xsamples", "1024",
            ],
            env=env, capture_output=True, text=True, check=True,
        )
        code, rss_kb = map(int, done.stdout.split())
        assert code == 0
        assert rss_kb < 100 * 1024  # the dense scan peaked at 415 MB

    def test_check_deterministic(self, capsys, tmp_path):
        src = tmp_path / "f.spec"
        src.write_text("builtin extremal alpha=0.25 lambda=0.5 N=32\n")
        args = (
            "check", str(src), "--A", "0.5", "--B", "-1", "--lambda", "0.5",
            "--K", "1e-8", "--angles", "64", "--xsamples", "64",
        )
        code, out1, _ = run(capsys, *args)
        assert code in (0, 1)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2


class TestExtremalAndReconstruct:
    def test_extremal_output_parses(self, capsys):
        code, out, _ = run(capsys, "extremal", "--alpha", "0.5", "--lambda", "0", "--N", "8")
        assert code == 0
        f = parse_function_spec(out)
        assert f.order == 8
        assert f.coefficient(1) == pytest.approx(-1.0)

    def test_reconstruct_spiral(self, capsys):
        code, out, _ = run(
            capsys, "reconstruct", "--omega", "1", "--kind", "spiral",
            "--A", "1", "--B", "-1", "--N", "8",
        )
        assert code == 0
        f = parse_function_spec(out)
        assert f.coefficient(1) == pytest.approx(-2.0, abs=1e-12)
        assert f.coefficient(2) == pytest.approx(1.0, abs=1e-12)

    def test_reconstruct_convex_obstruction_exits_2(self, capsys):
        code, _, err = run(
            capsys, "reconstruct", "--omega", "1", "--kind", "convex",
            "--A", "1", "--B", "-1", "--N", "8",
        )
        assert code == 2
        assert "antiderivative" in err

    def test_reconstruct_past_the_gamma_range_exits_2(self, capsys):
        # K = theta = 1 keeps 170 weights inside the Gamma range; asking
        # for 400 must not print a shorter series and exit 0
        code, out, err = run(
            capsys, "reconstruct", "--omega", "0.5", "--A", "0.5", "--B", "-0.5", "--N", "400",
        )
        assert code == 2 and out == ""
        assert len(err.strip().splitlines()) == 1
        assert "--N 400" in err and " 170," in err and "K=1.0, theta=1.0, a=1.0, s=0.0" in err
        code, out, _ = run(
            capsys, "reconstruct", "--omega", "0.5", "--A", "0.5", "--B", "-0.5", "--N", "170",
        )
        assert code == 0 and parse_function_spec(out).order == 170

    def test_schwarz_bound_rejected(self, capsys):
        code, _, err = run(capsys, "reconstruct", "--omega", "1.5", "--N", "8")
        assert code == 2
        assert "Schwarz" in err


class TestBoundaryCurve:
    def test_csv_shape_and_determinism(self, capsys, tmp_path):
        src = tmp_path / "f.spec"
        src.write_text("builtin extremal alpha=0.5 lambda=0 N=16\n")
        args = (
            "boundary-curve", str(src), "--A", "0", "--B", "-1",
            "--radii", "3", "--angles", "16",
        )
        code, out1, _ = run(capsys, *args)
        assert code == 0
        lines = out1.strip().splitlines()
        assert lines[0] == "r,theta,q_re,q_im,inside"
        assert len(lines) == 1 + 3 * 16
        assert all(len(row.split(",")) == 5 for row in lines[1:])
        assert all(row.split(",")[4] in ("0", "1") for row in lines[1:])
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_17_digit_serialization(self, capsys, tmp_path):
        src = tmp_path / "f.spec"
        src.write_text("principal 1 0\ncoef 1 0.1 0\n")
        code, out, _ = run(
            capsys, "boundary-curve", str(src), "--radii", "2", "--angles", "8",
        )
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        # 1/3-like values keep 17 significant digits
        assert any(len(cell.replace("-", "").replace(".", "").lstrip("0")) >= 16 for cell in row)

    @pytest.mark.parametrize("angles", [64, 1024])
    def test_last_circle_is_the_checks_circle(self, capsys, tmp_path, angles):
        # the outer rows are |z| = rmax with the q values the checks decide on
        src = tmp_path / "f.spec"
        src.write_text("builtin extremal alpha=0.25 lambda=0.5 N=64\n")
        flags = ("--A", "0.5", "--B", "-1", "--lambda", "0.5", "--K", "1e-8", "--angles", str(angles))
        code, out, _ = run(capsys, "boundary-curve", str(src), *flags, "--radii", "5")
        assert code == 0
        rows = out.strip().splitlines()[1:]
        assert len(rows) == 5 * angles
        f = bml.extremal_function(0.25, 0.5, 64)
        spec = bml.ClassSpec(0.5, bml.JanowskiTheta(0.5, -1.0), "spirallike", bml.BMLParams(1e-8, 1, 1, 0))
        grid = bml.GridSpec(angles=angles)
        zs = grid.circle_points()
        q, skip, *_ = phase_grid(f, spec, zs, grid.min_modulus)
        assert not skip.any()
        want = [
            f"{abs(z):.17g},{math.atan2(z.imag, z.real):.17g},{v.real:.17g},{v.imag:.17g}"
            for z, v in zip(zs, q)
        ]
        assert [row.rsplit(",", 1)[0] for row in rows[-angles:]] == want


class TestUsage:
    def test_no_command_exits_2(self, capsys):
        code, _, err = run(capsys)
        assert code == 2
        assert err.strip()

    def test_unknown_flag_exits_2(self, capsys):
        code, _, err = run(capsys, "ml-eval", "--zz", "1,0")
        assert code == 2


def child_env():
    """Environment of a child that imports this bml, with block-buffered
    stdout (no PYTHONUNBUFFERED): a short output then stays in the stream's
    buffer until the flush before `os._exit`."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(bml.__file__)))
    env.pop("PYTHONUNBUFFERED", None)
    return env


def spawn(*argv):
    """`python -m bml.cli argv` as a child process, its stdout and stderr
    read through pipes: (exit code, stdout, stderr)."""
    done = subprocess.run(
        [sys.executable, "-m", "bml.cli", *argv],
        stdin=subprocess.DEVNULL, env=child_env(), capture_output=True, text=True,
    )
    return done.returncode, done.stdout, done.stderr


class TestEntry:
    """The `bml` process ends through `os._exit` once its output is flushed:
    what it prints, writes and returns is what `main` gives in-process."""

    @pytest.mark.parametrize(
        "text,code",
        [("builtin extremal alpha=0.5 lambda=0 N=16\n", 0), ("principal 1 0\ncoef 2 40 0\n", 1)],
        ids=["member", "non-member"],
    )
    def test_check_matches_main(self, capsys, tmp_path, text, code):
        src = tmp_path / "f.spec"
        src.write_text(text)
        argv = ("check", str(src), "--A", "0", "--B", "-1", "--angles", "64")
        expected = run(capsys, *argv)
        assert expected[0] == code
        assert spawn(*argv) == expected

    def test_usage_error_exits_2_with_one_line(self, capsys):
        argv = ("ml-eval", "--zz", "1,0")
        code, out, err = spawn(*argv)
        assert (code, out, err) == run(capsys, *argv)
        assert code == 2 and out == "" and len(err.splitlines()) == 1

    def test_out_file_is_complete(self, capsys, tmp_path):
        argv = ("op-coeffs", "--K", "0.5", "--theta", "0.3", "--N", "170")
        assert run(capsys, *argv, "--out", str(tmp_path / "main.csv")) == (0, "", "")
        assert spawn(*argv, "--out", str(tmp_path / "child.csv")) == (0, "", "")
        assert (tmp_path / "child.csv").read_bytes() == (tmp_path / "main.csv").read_bytes()

    def test_pipe_output_larger_than_a_pipe_buffer_arrives(self, capsys):
        # about 91 KB, more than a pipe holds: the child blocks on the pipe
        # until this process reads, and every line still arrives
        argv = ("extremal", "--alpha", "0.5", "--N", "5000")
        code, out, err = spawn(*argv)
        assert (code, out, err) == run(capsys, *argv)
        assert len(out.splitlines()) == 5001 and len(out) > 65536

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a device that refuses writes")
    def test_failed_flush_is_not_swallowed(self):
        with open("/dev/full", "w") as full:
            done = subprocess.run(
                [sys.executable, "-m", "bml.cli", "ml-eval", "--z", "1,0"],
                stdout=full, stderr=subprocess.PIPE, env=child_env(), text=True,
            )
        assert done.returncode == 2
        assert "Traceback" in done.stderr and "No space left on device" in done.stderr

    # exit 1 means "non-member", so an escaping exception exits 2; a
    # MemoryError is what a huge --angles raises, injected here rather
    # than allocated
    @pytest.mark.parametrize(
        "error,text", [("KeyError", "'boom'"), ("MemoryError", "boom")], ids=["KeyError", "MemoryError"]
    )
    def test_exception_from_main_is_not_swallowed(self, error, text):
        script = (
            "import bml.cli\n"
            "def boom(argv):\n"
            f"    raise {error}('boom')\n"
            "bml.cli.main = boom\n"
            "bml.cli.run([])\n"
        )
        done = subprocess.run([sys.executable, "-c", script], env=child_env(), capture_output=True, text=True)
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr.startswith("Traceback") and done.stderr.endswith(f"{error}: {text}\n")

    def test_help_still_exits_0(self):
        # argparse ends --help with SystemExit(0), which `run` lets through
        code, out, err = spawn("--help")
        assert code == 0 and out.startswith("usage: bml") and err == ""

    def test_installed_command_is_the_module_entry(self):
        # the console script and `python -m bml.cli` call one function
        pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
        scripts = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", pyproject, re.M | re.S)
        target = re.search(r'^bml\s*=\s*"([\w.]+):(\w+)"\s*$', scripts.group(1), re.M)
        assert target.group(1) == "bml.cli"
        tree = ast.parse((ROOT / "src" / "bml" / "cli.py").read_text(encoding="utf-8"))
        (block,) = [
            node for node in tree.body
            if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
        ]
        (statement,) = block.body
        assert ast.unparse(statement) == f"{target.group(2)}()"
        assert callable(getattr(bml.cli, target.group(2)))
