import os
import subprocess
import sys
from pathlib import Path

import pytest

import linkhomotopy
from linkhomotopy.cli import EXIT_INPUT, main

DATA = Path(__file__).parent / "data"


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_word_reduce(capsys):
    code, out, _ = run_cli(capsys, "word", "reduce", "x1 x1^-1 x2")
    assert (code, out) == (0, "x2\n")


def test_word_reduce_empty_prints_identity(capsys):
    code, out, _ = run_cli(capsys, "word", "reduce", "")
    assert (code, out) == (0, "1\n")


def test_word_parse(capsys):
    code, out, _ = run_cli(capsys, "word", "parse", "[x1*x2, x1]")
    assert (code, out) == (0, "x1 x2 x1 x2^-1 x1^-2\n")


def test_word_commutate(capsys):
    code, out, _ = run_cli(capsys, "word", "commutate", "x1", "x2")
    assert (code, out) == (0, "x1 x2 x1^-1 x2^-1\n")


def test_word_parse_error_exit_code(capsys):
    code, out, err = run_cli(capsys, "word", "parse", "[x1, x0]")
    assert code == 2
    assert out == ""
    assert "position" in err


def test_word_parse_deep_nesting_is_input_error(capsys):
    code, out, err = run_cli(capsys, "word", "parse", "(" * 3000 + "x1" + ")" * 3000)
    assert (code, out) == (EXIT_INPUT, "")
    assert err.startswith("error: nesting deeper than")


def test_hatf_tower(capsys):
    code, out, _ = run_cli(capsys, "hatf", "tower", "2")
    assert (code, out) == (0, "degree=2; word=x1 x2 x1 x2^-1 x1^-2\n")


def test_hatf_cycle(capsys):
    code, out, _ = run_cli(capsys, "hatf", "cycle", "--degree", "2", "[x1*x2, x1]")
    assert (code, out) == (0, "true\n")
    code, out, _ = run_cli(capsys, "hatf", "cycle", "--degree", "2", "x1")
    assert (code, out) == (0, "false\n")


def test_hatf_face_and_degen(capsys):
    code, out, _ = run_cli(capsys, "hatf", "face", "--degree", "2", "-i", "0",
                           "[x1*x2, x1]")
    assert (code, out) == (0, "degree=1; word=1\n")
    code, out, _ = run_cli(capsys, "hatf", "degen", "--degree", "1", "-i", "0", "x1")
    assert (code, out) == (0, "degree=2; word=x1 x2\n")


def test_hatf_eta(capsys):
    code, out, _ = run_cli(capsys, "hatf", "eta", "--degree", "1", "x1")
    assert (code, out) == (0, "degree=2; word=x1 x2 x1 x2^-1 x1^-2\n")


def test_hatf_eta_non_cycle_exit_code(capsys):
    code, out, err = run_cli(capsys, "hatf", "eta", "--degree", "2", "x1")
    assert code == 3
    assert "cycle" in err


def test_hatf_range_violations_exit_code(capsys):
    code, _, err = run_cli(capsys, "hatf", "face", "--degree", "2", "-i", "5", "x1")
    assert code == 2 and "out of range" in err
    code, _, err = run_cli(capsys, "hatf", "face", "--degree", "0", "-i", "0", "")
    assert code == 2
    code, _, err = run_cli(capsys, "hatf", "meridian", "6")
    assert code == 2


def test_hatf_meridian(capsys):
    code, out, _ = run_cli(capsys, "hatf", "meridian", "4")
    expected = ("a1 a2 a3 a1 a2 a3^-1 a2^-1 a1^-1 a3 a1 a3^-1 a2^-1 a1^-1 "
                "a2 a1 a2 a3 a2^-1 a1^-1 a3^-1 a2^-1 a1 a2 a3 a1^-1 a3^-1 a2^-1 a1^-1")
    assert (code, out) == (0, expected + "\n")


def test_magnus_expand(capsys):
    code, out, _ = run_cli(capsys, "magnus", "expand", "[x1,x2]", "--trunc", "2")
    assert (code, out) == (0, "1 + X1X2 - X2X1\n")


def test_magnus_gamma(capsys):
    code, out, _ = run_cli(capsys, "magnus", "gamma", "[[x1,x2],[x1,x3]]",
                           "--trunc", "3")
    assert (code, out) == (0, ">= 4\n")
    code, out, _ = run_cli(capsys, "magnus", "gamma", "[x1,x2]", "--trunc", "3")
    assert (code, out) == (0, "2\n")


def test_magnus_mu(capsys):
    code, out, _ = run_cli(capsys, "magnus", "mu", "[x1,x2]", "1,2")
    assert (code, out) == (0, "1\n")


def test_magnus_mu_repeated_index_exit_code(capsys):
    code, _, err = run_cli(capsys, "magnus", "mu", "[x1,x2]", "1,1")
    assert code == 2 and "distinct" in err


@pytest.mark.parametrize("argv", [
    ("expand", "[[x1,x2],[x3,x4]]", "--trunc", "14"),
    ("gamma", " ".join(f"x{i}" for i in range(1, 21)), "--trunc", "8"),
])
def test_magnus_over_slot_limit_is_input_error(capsys, argv):
    code, out, err = run_cli(capsys, "magnus", *argv)
    assert (code, out) == (EXIT_INPUT, "")
    assert err.startswith("error: dense Magnus expansion needs")


def test_magnus_verify51_three_pass_lines(capsys):
    code, out, _ = run_cli(capsys, "magnus", "verify51", "4")
    lines = out.strip().splitlines()
    assert code == 0
    assert len(lines) == 3
    assert all(line.startswith("PASS") for line in lines)


def test_magnus_verify51_variant_flag(capsys):
    code, out, _ = run_cli(capsys, "magnus", "verify51", "5", "--variant")
    lines = out.strip().splitlines()
    assert code == 0
    assert len(lines) == 6
    assert sum("FAIL" in line for line in lines) == 1
    assert any(line.startswith("variant: FAIL moore cycle") for line in lines)


def test_link_chi_commands(capsys):
    code, out, _ = run_cli(capsys, "link", "chi3",
                           "--profile", DATA / "brunnian3.lnk", "1", "2", "3")
    assert (code, out) == (0, "2\n")
    code, out, _ = run_cli(capsys, "link", "chi2",
                           "--profile", DATA / "hopf3.lnk", "1", "2")
    assert (code, out) == (0, "0\n")


def test_link_classify_hopf4(capsys):
    code, out, err = run_cli(capsys, "link", "classify",
                             "--profile", DATA / "hopf4.lnk",
                             "--L0", "empty", "--sub", "full")
    assert (code, out, err) == (0, "pi_4(S^3) = Z/2\n", "")


def test_link_classify_trivial3(capsys):
    code, out, err = run_cli(capsys, "link", "classify",
                             "--profile", DATA / "trivial3.lnk",
                             "--L0", "empty", "--sub", "full")
    assert (code, out) == (0, "0 (trivial)\n")
    assert "note:" in err  # bar-quotient caveat goes to the error stream


def test_link_classify_brunnian3(capsys):
    code, out, _ = run_cli(capsys, "link", "classify",
                           "--profile", DATA / "brunnian3.lnk",
                           "--L0", "empty", "--sub", "full")
    assert (code, out) == (0, "pi_3(S^2 v S^2) = Z + Z + Z\n")


def test_link_classify_is_deterministic(capsys):
    outputs = set()
    for _ in range(2):
        _, out, _ = run_cli(capsys, "link", "classify",
                            "--profile", DATA / "chain3.lnk",
                            "--L0", "empty", "--sub", "full")
        outputs.add(out)
    assert outputs == {"0 (trivial)\n"}


def test_link_check_ok(capsys):
    code, out, _ = run_cli(capsys, "link", "check", "--profile", DATA / "hopf3.lnk")
    assert (code, out) == (0, "ok\n")


def test_link_check_flags_unrealizable(capsys, tmp_path):
    path = tmp_path / "impossible.lnk"
    path.write_text(
        "components 3\npreset hopf\nnu full 2\n"
    )
    code, out, _ = run_cli(capsys, "link", "check", "--profile", path)
    assert code == 4
    assert "< -1" in out


def test_link_missing_file_exit_code(capsys):
    code, _, err = run_cli(capsys, "link", "check", "--profile", "no-such.lnk")
    assert code == 2 and "no-such.lnk" in err


def test_link_malformed_profile_exit_code(capsys, tmp_path):
    path = tmp_path / "broken.lnk"
    path.write_text("components 2\nnu full 1\n")
    code, _, err = run_cli(capsys, "link", "check", "--profile", path)
    assert code == 2 and "sublinks" in err


def test_spheres_pi(capsys):
    assert run_cli(capsys, "spheres", "pi", "6", "3")[:2] == (0, "Z/12\n")
    assert run_cli(capsys, "spheres", "pi", "3", "5")[:2] == (0, "0\n")
    assert run_cli(capsys, "spheres", "pi", "4", "4")[:2] == (0, "Z\n")
    assert run_cli(capsys, "spheres", "pi", "7", "3")[:2] == (
        0, "pi_7(S^3) [unknown]\n")


def test_spheres_wedge(capsys):
    assert run_cli(capsys, "spheres", "wedge", "3", "2,2")[:2] == (0, "Z + Z + Z\n")
    code, out, _ = run_cli(capsys, "spheres", "wedge", "4", "2,2")
    assert (code, out) == (0, "Z/2 + Z/2 + Z/2 + Z + Z\n")


def test_spheres_wedge_bad_dims_exit_code(capsys):
    code, _, err = run_cli(capsys, "spheres", "wedge", "4", "2,x")
    assert code == 2
    code, _, err = run_cli(capsys, "spheres", "wedge", "4", "1,2")
    assert code == 2


def test_spheres_wedge_over_summand_limit_is_input_error(capsys):
    code, out, err = run_cli(capsys, "spheres", "wedge", "30", "2,2,2")
    assert (code, out) == (EXIT_INPUT, "")
    assert err.startswith("error: Hilton-Milnor splitting needs")


def test_spheres_with_table_file(capsys, tmp_path):
    table = tmp_path / "extra.tab"
    table.write_text("pi 7 3 Z/2 classical tables\n")
    code, out, _ = run_cli(capsys, "spheres", "pi", "7", "3", "--table", table)
    assert (code, out) == (0, "Z/2 [classical tables]\n")
    # loaded entries are echoed even when their note reads like a builtin one
    echoed = tmp_path / "echoed.tab"
    echoed.write_text("pi 7 3 Z/2 builtin\npi 7 4 Z+Z/12 connectivity\n")
    code, out, _ = run_cli(capsys, "spheres", "pi", "7", "3", "--table", echoed)
    assert (code, out) == (0, "Z/2 [builtin]\n")
    code, out, _ = run_cli(capsys, "spheres", "pi", "7", "4", "--table", echoed)
    assert (code, out) == (0, "Z + Z/12 [connectivity]\n")
    code, out, _ = run_cli(capsys, "spheres", "pi", "6", "3", "--table", echoed)
    assert (code, out) == (0, "Z/12\n")
    # builtin values are not annotated even when a table file is supplied
    code, out, _ = run_cli(capsys, "spheres", "pi", "6", "3", "--table", table)
    assert (code, out) == (0, "Z/12\n")
    code, out, _ = run_cli(capsys, "link", "classify",
                           "--profile", DATA / "hopf4.lnk",
                           "--L0", "empty", "--sub", "full", "--table", table)
    assert (code, out) == (0, "pi_4(S^3) = Z/2\n")


@pytest.mark.parametrize(
    "content, n, m",
    [
        ("pi 3 5 Z/2 wrong\n", 3, 5),
        ("pi 6 3 Z/5 x\n", 6, 3),
        ("pi 7 3 Z/2 first\npi 7 3 Z/2 second\n", 7, 3),
    ],
    ids=["structural", "builtin", "repeated"],
)
def test_spheres_table_rejects_known_indices(capsys, tmp_path, content, n, m):
    table = tmp_path / "restated.tab"
    table.write_text(content)
    code, out, err = run_cli(capsys, "spheres", "pi", n, m, "--table", table)
    assert (code, out) == (EXIT_INPUT, "")
    assert "already given" in err


def test_module_entry_point():
    # the child process runs the same package these tests imported
    package_root = str(Path(linkhomotopy.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (package_root, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "linkhomotopy", "word", "reduce", "x2 x2^-1"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout == "1\n"
