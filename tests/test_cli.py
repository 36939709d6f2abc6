import os
import resource
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


def test_link_chi_non_decimal_label_is_input_error(capsys):
    # a superscript passes str.isdigit, but int() cannot read it
    code, out, err = run_cli(capsys, "link", "chi2",
                             "--profile", DATA / "hopf3.lnk", "1", "\u00b2")
    assert (code, out, err) == (EXIT_INPUT, "", "error: bad component label '\u00b2'\n")


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
    # int() would read "2_0" as 20 and print pi_3(S^20) = 0
    code, out, err = run_cli(capsys, "spheres", "wedge", "3", "2_0")
    assert (code, out, err) == (EXIT_INPUT, "", "error: bad integer list '2_0'\n")


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


def fresh_python(*args, timeout=None) -> subprocess.CompletedProcess:
    """``python *args`` in a new interpreter, on the package these tests
    imported, from the repository root."""
    package_root = str(Path(linkhomotopy.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (package_root, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=timeout,
        env={**os.environ, "PYTHONPATH": path}, cwd=DATA.parent.parent,
    )


def test_spheres_wedge_with_a_far_heavy_letter_is_fast():
    # two summands, but the light letter's periodic extension is 10^12 letters
    # long; the generator stops extending where no letter can be incremented
    n = 10**12
    before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_utime
    proc = fresh_python("-m", "linkhomotopy", "spheres", "wedge", str(n), f"2,{n}",
                        timeout=5)
    assert resource.getrusage(resource.RUSAGE_CHILDREN).ru_utime - before < 1
    assert (proc.returncode, proc.stdout) == (0, f"pi_{n}(S^2) [unknown] + Z\n")


def test_spheres_wedge_over_letter_limit_is_fast():
    # 100,002 summands pass the count, but the longest word has 100,001 letters
    before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_utime
    proc = fresh_python("-m", "linkhomotopy", "spheres", "wedge", "200001", "2,100001",
                        timeout=5)
    assert resource.getrusage(resource.RUSAGE_CHILDREN).ru_utime - before < 1
    assert (proc.returncode, proc.stdout) == (EXIT_INPUT, "")
    assert proc.stderr == ("error: Hilton-Milnor splitting may need 10000300002 letters "
                           "(100002 Lyndon words of up to 100001 letters); "
                           "the limit is 16777216\n")


def test_link_profile_with_a_huge_component_count_is_fast(tmp_path):
    # the sublink count is compared by bit length before 2^size is formed
    profile = tmp_path / "huge.lnk"
    profile.write_text("components 1000000000000\nnu empty -1\n")
    before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_utime
    proc = fresh_python("-m", "linkhomotopy", "link", "check", "--profile", str(profile),
                        timeout=5)
    assert resource.getrusage(resource.RUSAGE_CHILDREN).ru_utime - before < 1
    assert (proc.returncode, proc.stdout) == (EXIT_INPUT, "")
    assert proc.stderr == (f"error: {profile}: profile must assign a genus to all "
                           "2^1000000000000 sublinks, got 1\n")


def test_link_profile_over_component_limit_is_fast(tmp_path):
    # a preset would assign all 2^40 sublinks; it is refused before any
    profile = tmp_path / "large.lnk"
    profile.write_text("components 40\npreset hopf\n")
    before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_utime
    proc = fresh_python("-m", "linkhomotopy", "link", "check", "--profile", str(profile),
                        timeout=5)
    assert resource.getrusage(resource.RUSAGE_CHILDREN).ru_utime - before < 1
    assert (proc.returncode, proc.stdout) == (EXIT_INPUT, "")
    assert proc.stderr == (f"error: {profile}: preset profiles have at most 12 "
                           "components (4096 sublinks), got 40\n")


def test_module_entry_point():
    proc = fresh_python("-m", "linkhomotopy", "word", "reduce", "x2 x2^-1")
    assert proc.returncode == 0
    assert proc.stdout == "1\n"


LAYERS = ("homotopy", "links", "magnus", "simplicial", "words")

SHOW_MODULES = """
import runpy, sys
sys.argv[0] = "linkhomotopy"
try:
    runpy.run_module("linkhomotopy", run_name="__main__", alter_sys=True)
finally:
    print(*sys.modules, file=sys.stderr)
"""


@pytest.mark.parametrize("argv, layers", [
    (("word", "parse", "[x1*x2, x1]"), {"words"}),
    (("hatf", "tower", "2"), {"words", "simplicial"}),
    (("magnus", "verify51", "4"), {"words", "simplicial", "magnus"}),
    (("link", "classify", "--profile", "tests/data/hopf4.lnk", "--L0", "empty",
      "--sub", "full"), {"homotopy", "links"}),
    (("spheres", "wedge", "3", "2,2"), {"homotopy"}),
], ids=["word", "hatf", "magnus", "link", "spheres"])
def test_each_subcommand_loads_only_its_layers(argv, layers):
    # runs the package as ``python -m`` does, then lists every loaded module
    proc = fresh_python("-c", SHOW_MODULES, *argv)
    assert proc.returncode == 0
    loaded = set(proc.stderr.splitlines()[-1].split())
    assert {layer for layer in LAYERS if f"linkhomotopy.{layer}" in loaded} == layers


@pytest.mark.parametrize("argv, code, message", [
    (("hatf", "eta", "--degree", "2", "x1"), 3, "error: not a Moore cycle"),
    (("link", "classify", "--profile", "{profile}", "--L0", "empty", "--sub", "full"),
     4, "error: chi3(1,2,3) = -3 < -1"),
    (("word", "parse", "[x1, x0]"), 2, "error: "),
], ids=["precondition", "unrealizable", "input"])
def test_exit_codes_in_a_fresh_process(tmp_path, argv, code, message):
    # each handler maps its own layer's errors, whatever else is imported
    profile = tmp_path / "impossible.lnk"
    profile.write_text("components 3\npreset hopf\nnu full 2\n")
    proc = fresh_python("-m", "linkhomotopy", *(a.format(profile=profile) for a in argv))
    assert (proc.returncode, proc.stdout) == (code, "")
    assert proc.stderr.startswith(message)


def test_package_namespace_is_every_layers_public_names():
    layers = [getattr(linkhomotopy, name) for name in LAYERS]
    public = [name for layer in layers for name in layer.__all__]
    assert len(public) == len(set(public)) == 63
    expected = sorted(public + list(LAYERS))
    # the first lookup in a fresh process loads the layers
    listed = fresh_python("-c", "import linkhomotopy; print(*(n for n in dir(linkhomotopy)"
                          " if not n.startswith('_')))")
    starred = fresh_python("-c", "ns = {}; exec('from linkhomotopy import *', ns); "
                           "print(*sorted(n for n in ns if not n.startswith('_')))")
    assert listed.stdout.split() == expected
    assert starred.stdout.split() == expected
    # importing a submodule by name from the package loads only that module
    some = fresh_python("-c", "import sys; from linkhomotopy import cli, words; "
                        "print(*sys.modules)")
    assert {layer for layer in LAYERS if f"linkhomotopy.{layer}" in some.stdout.split()} == {
        "words"}
    for layer in layers:
        for name in layer.__all__:
            assert getattr(linkhomotopy, name) is getattr(layer, name)


@pytest.mark.parametrize("module, layers", [
    ("words", {"words"}),
    ("simplicial", {"words", "simplicial"}),
    ("magnus", {"words", "simplicial", "magnus"}),
    ("homotopy", {"homotopy"}),
    ("links", {"homotopy", "links"}),
    ("cli", set()),
])
def test_submodule_attribute_loads_only_that_module(module, layers):
    # ``linkhomotopy.<module>`` right after ``import linkhomotopy``, as a
    # package that imported its layers eagerly would allow
    proc = fresh_python("-c", f"import linkhomotopy, sys; print(linkhomotopy.{module}.__name__); "
                        "print(*sys.modules)")
    assert proc.returncode == 0, proc.stderr
    name, modules = proc.stdout.splitlines()
    assert name == f"linkhomotopy.{module}"
    assert {layer for layer in LAYERS if f"linkhomotopy.{layer}" in modules.split()} == layers
