import argparse
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import linkhomotopy
from linkhomotopy.cli import EXIT_INPUT, build_parser, main
from conftest import LONG_DIGITS, TOO_LONG

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


TWENTY = " ".join(f"x{i}" for i in range(1, 21))
# weight-4 commutators on x1..x64: truncation 3 is the largest that fits
# the slot limit, and the first nonzero degree is 4
WEIGHT4_ON_64 = " ".join(
    f"[[[x{i},x{i + 1}],x{i + 2}],x{i + 3}]" for i in range(1, 65, 4))


def test_magnus_gamma(capsys):
    code, out, _ = run_cli(capsys, "magnus", "gamma", "[[x1,x2],[x1,x3]]",
                           "--trunc", "3")
    assert (code, out) == (0, ">= 4\n")
    code, out, _ = run_cli(capsys, "magnus", "gamma", "[x1,x2]", "--trunc", "3")
    assert (code, out) == (0, "2\n")
    # truncation 8 on 20 generators is over the slot limit, but degree 1 fits
    code, out, _ = run_cli(capsys, "magnus", "gamma", TWENTY, "--trunc", "8")
    assert (code, out) == (0, "1\n")


def test_magnus_mu(capsys):
    code, out, _ = run_cli(capsys, "magnus", "mu", "[x1,x2]", "1,2")
    assert (code, out) == (0, "1\n")


def test_magnus_mu_repeated_index_exit_code(capsys):
    code, _, err = run_cli(capsys, "magnus", "mu", "[x1,x2]", "1,1")
    assert code == 2 and "distinct" in err


@pytest.mark.parametrize("argv", [
    ("expand", "[[x1,x2],[x3,x4]]", "--trunc", "14"),
    ("gamma", WEIGHT4_ON_64, "--trunc", "5"),
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


@pytest.mark.parametrize("text, message", [
    ("components 2\npreset hopf\nnu 1,2 5\n", "genus of [1, 2] must lie in 0..1, got 5"),
    ("components 2\nnu empty -1\nnu 1 0\nnu 2 0\n",
     "profile must assign a genus to all 4 sublinks, got 3"),
])
def test_profile_constraint_errors_name_only_the_file(capsys, tmp_path, text, message):
    # these come from building the profile, after every line is read
    path = tmp_path / "constrained.lnk"
    path.write_text(text)
    code, out, err = run_cli(capsys, "link", "check", "--profile", path)
    assert (code, out, err) == (2, "", f"error: {path}: {message}\n")


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


# Every integer token is an optional "-" and decimal digits, at most the
# interpreter's int/str limit of them; int() alone would also read a "+",
# underscores and non-decimal digits such as a superscript.
GRAMMAR_TOKENS = {"plus": "+3", "underscore": "1_2", "superscript": "\u00b2",
                  "double-minus": "--1", "long": LONG_DIGITS}

# surface: argv, the text of the file {path} names (None for no file), and
# the stderr message for each token in GRAMMAR_TOKENS order, with its
# position or file:line; a tuple is the stdout of a token that is read
GRAMMAR_SURFACES = {
    "word-index": (("word", "parse", "x{t}"), None, (
        "expected a generator index after 'x' (at position 1)",
        "unexpected character '_' (at position 2)",
        "expected a generator index after 'x' (at position 1)",
        "expected a generator index after 'x' (at position 1)",
        f"{TOO_LONG} (at position 1)")),
    "word-exponent": (("word", "parse", "x1^{t}"), None, (
        ("x1^3\n",),  # the grammar's exponent is a signed integer
        "unexpected character '_' (at position 4)",
        "expected an integer (at position 3)",
        "expected an integer (at position 4)",
        f"{TOO_LONG} (at position 3)")),
    "profile-components": (("link", "check", "--profile", "{path}"), "components {t}\n", (
        "{path}:1: expected 'components <positive integer>'",
        "{path}:1: expected 'components <positive integer>'",
        "{path}:1: expected 'components <positive integer>'",
        "{path}:1: expected 'components <positive integer>'",
        f"{{path}}:1: {TOO_LONG}")),
    "profile-genus": (("link", "check", "--profile", "{path}"),
                      "components 2\npreset hopf\nnu 1,2 {t}\n", (
        "{path}:3: bad genus '+3'",
        "{path}:3: bad genus '1_2'",
        "{path}:3: bad genus '\u00b2'",
        "{path}:3: bad genus '--1'",
        f"{{path}}:3: {TOO_LONG}")),
    "sublink-label": (("link", "check", "--profile", "{path}"),
                      "components 2\npreset hopf\nnu 1,{t} 0\n", (
        "{path}:3: bad sublink '1,+3'",
        "{path}:3: bad sublink '1,1_2'",
        "{path}:3: bad sublink '1,\u00b2'",
        "{path}:3: bad sublink '1,--1'",
        f"{{path}}:3: {TOO_LONG}")),
    "table-index": (("spheres", "pi", "9", "3", "--table", "{path}"), "pi {t} 3 Z/2 src\n", (
        "{path}:1: bad indices",
        "{path}:1: bad indices",
        "{path}:1: bad indices",
        "{path}:1: bad indices",
        f"{{path}}:1: {TOO_LONG}")),
    # "+" joins the summands of a group token
    "cyclic-order": (("spheres", "pi", "9", "3", "--table", "{path}"), "pi 9 3 Z/{t} src\n", (
        "{path}:1: unrecognized group token 'Z/'",
        "{path}:1: unrecognized group token 'Z/1_2'",
        "{path}:1: unrecognized group token 'Z/\u00b2'",
        "{path}:1: unrecognized group token 'Z/--1'",
        f"{{path}}:1: {TOO_LONG}")),
    "free-rank": (("spheres", "pi", "9", "3", "--table", "{path}"), "pi 9 3 Z^{t} src\n", (
        "{path}:1: unrecognized group token 'Z^'",
        "{path}:1: unrecognized group token 'Z^1_2'",
        "{path}:1: unrecognized group token 'Z^\u00b2'",
        "{path}:1: unrecognized group token 'Z^--1'",
        f"{{path}}:1: {TOO_LONG}")),
    # "--" passes a label that starts with "--" to the label reader
    "chi2-label": (("link", "chi2", "--profile", "tests/data/hopf3.lnk", "--", "1", "{t}"),
                   None, (
        "bad component label '+3'",
        "bad component label '1_2'",
        "bad component label '\u00b2'",
        "bad component label '--1'",
        TOO_LONG)),
    "wedge-list": (("spheres", "wedge", "3", "2,{t}"), None, (
        "bad integer list '2,+3'",
        "bad integer list '2,1_2'",
        "bad integer list '2,\u00b2'",
        "bad integer list '2,--1'",
        TOO_LONG)),
    "mu-list": (("magnus", "mu", "x1", "1,{t}"), None, (
        "bad integer list '1,+3'",
        "bad integer list '1,1_2'",
        "bad integer list '1,\u00b2'",
        "bad integer list '1,--1'",
        TOO_LONG)),
}


@pytest.mark.parametrize("surface, token", [
    (surface, token) for surface in GRAMMAR_SURFACES for token in GRAMMAR_TOKENS
], ids=lambda name: name)
def test_integer_token_grammar(capsys, monkeypatch, tmp_path, surface, token):
    argv, text, expected = GRAMMAR_SURFACES[surface]
    expected = expected[list(GRAMMAR_TOKENS).index(token)]
    t, path = GRAMMAR_TOKENS[token], tmp_path / "input.txt"
    if text is not None:
        path.write_text(text.format(t=t), encoding="utf-8")
    monkeypatch.chdir(DATA.parent.parent)
    result = run_cli(capsys, *(arg.format(t=t, path=path) for arg in argv))
    if isinstance(expected, tuple):
        assert result == (0, *expected, "")
    else:
        assert result == (EXIT_INPUT, "", f"error: {expected.format(path=path)}\n")


# argparse's integer arguments read the same grammar; int() alone would also
# read a "+", underscores and surrounding spaces.  A refused token gets
# argparse's own message, as int() gave for the tokens it refused too.
ARGPARSE_TOKENS = {"plus": "+3", "underscore": "1_2", "space": " 3",
                   "superscript": "\u00b2", "letters": "abc"}

# surface: argv and the argument's name in argparse's message
ARGPARSE_SURFACES = {
    "face-degree": (("hatf", "face", "--degree", "{t}", "-i", "0", "x1"), "--degree"),
    "face-index": (("hatf", "face", "--degree", "2", "-i", "{t}", "x1"), "--index/-i"),
    "degen-index": (("hatf", "degen", "--degree", "2", "-i", "{t}", "x1"), "--index/-i"),
    "cycle-degree": (("hatf", "cycle", "--degree", "{t}", "x1"), "--degree"),
    "tower": (("hatf", "tower", "{t}"), "k"),
    "meridian": (("hatf", "meridian", "{t}"), "k"),
    "trunc": (("magnus", "expand", "x1", "--trunc", "{t}"), "--trunc"),
    "verify51": (("magnus", "verify51", "{t}"), "n"),
    "pi-n": (("spheres", "pi", "{t}", "3"), "n"),
    "pi-m": (("spheres", "pi", "9", "{t}"), "m"),
    "wedge-n": (("spheres", "wedge", "{t}", "2,2"), "n"),
}


@pytest.mark.parametrize("surface, token", [
    (surface, token) for surface in ARGPARSE_SURFACES for token in ARGPARSE_TOKENS
], ids=lambda name: name)
def test_argparse_integer_grammar(capsys, surface, token):
    argv, name = ARGPARSE_SURFACES[surface]
    t = ARGPARSE_TOKENS[token]
    with pytest.raises(SystemExit) as exit_info:
        main([arg.format(t=t) for arg in argv])
    captured = capsys.readouterr()
    assert (exit_info.value.code, captured.out) == (EXIT_INPUT, "")
    assert captured.err.endswith(f": error: argument {name}: invalid int value: {t!r}\n")


def test_argparse_integers_pass_negative_values_to_the_handlers(capsys):
    code, out, err = run_cli(capsys, "hatf", "face", "--degree", "2", "-i", "-1", "x1")
    assert (code, out, err) == (EXIT_INPUT, "", "error: face index -1 out of range 0..2\n")
    code, out, err = run_cli(capsys, "spheres", "pi", "-3", "-2")
    assert (code, out, err) == (EXIT_INPUT, "", "error: sphere homotopy indices must be >= 1\n")


def fresh_python(*args, timeout=None, address_space=None) -> subprocess.CompletedProcess:
    """``python *args`` in a new interpreter, on the package these tests
    imported, from the repository root; ``address_space`` caps the child's
    virtual memory in bytes, so a runaway allocation fails fast."""
    package_root = str(Path(linkhomotopy.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (package_root, os.environ.get("PYTHONPATH"))))

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=timeout,
        env={**os.environ, "PYTHONPATH": path}, cwd=DATA.parent.parent,
        preexec_fn=cap if address_space else None,
    )


FAR = 10**12
NESTED = "[" * 30 + "x1" + ", x2]" * 30  # each level doubles the word

# argv ({profile} is a file holding the profile text), profile text, exit
# code, stdout, stderr, CPU seconds: 1 for a refusal from a closed-form
# bound or an instant answer, 2 where the word is built up to the limit first
BUDGET_CASES = {
    # the count visits only the two letters' weights: the sum of the two
    # letters weighs 10^12, past the budget of 10^12 - 1
    "far-heavy-wedge": (("spheres", "wedge", str(FAR), f"2,{FAR}"), None,
                        0, f"pi_{FAR}(S^2) [unknown] + Z\n", "", 1),
    # 100,002 summands pass the count, but each has its own sphere dimension
    "wedge-letter-limit": (
        ("spheres", "wedge", "200001", "2,100001"), None, EXIT_INPUT, "",
        "error: Hilton-Milnor splitting needs at least 65537 sphere dimensions "
        "(2 letters, weight <= 200000); the limit is 65536\n", 1),
    # millions of weights carry one word each: the dimension bound trips long
    # before the summand count, and before the count's tables fill the memory
    "wedge-dimension-limit": (
        ("spheres", "wedge", "10000000", "2,5000001"), None, EXIT_INPUT, "",
        "error: Hilton-Milnor splitting needs at least 65537 sphere dimensions "
        "(2 letters, weight <= 9999999); the limit is 65536\n", 1),
    # the same with the budget at twice the heavy letter's weight
    "wedge-dimension-limit-at-double": (
        ("spheres", "wedge", "8000001", "2,4000001"), None, EXIT_INPUT, "",
        "error: Hilton-Milnor splitting needs at least 65537 sphere dimensions "
        "(2 letters, weight <= 8000000); the limit is 65536\n", 1),
    # 8,000 letters and the 31,996,000 pairs of them that fit each spell a
    # Lyndon word: refused from that count, before any pair's sum is formed
    "wedge-letter-pairs": (
        ("spheres", "wedge", "100000", ",".join(map(str, range(2, 8002)))), None,
        EXIT_INPUT, "", "error: Hilton-Milnor splitting needs at least 32004000 Lyndon "
        "words (8000 letters, weight <= 99999); the limit is 4194304\n", 1),
    # no two of 5,000 letters fit together, so each weighs its own word, and
    # no word is light enough to extend another
    "wedge-heavy-letters": (
        ("spheres", "wedge", "10002", ",".join(map(str, range(5002, 10002)))), None, 0,
        " + ".join(f"pi_10002(S^{m}) [unknown]" for m in range(5002, 10002)) + "\n", "", 1),
    # one light letter before 5,000 heavy ones: its powers x1^k x_b alone are
    # 12,502,500 words, bounded in closed form before any weight is visited
    "wedge-light-before-heavy": (
        ("spheres", "wedge", "10002", ",".join(map(str, (2, *range(5002, 10002))))), None,
        EXIT_INPUT, "", "error: Hilton-Milnor splitting needs at least 12507501 Lyndon "
        "words (5001 letters, weight <= 10001); the limit is 4194304\n", 1),
    # the sublink count is compared by bit length before 2^size is formed
    "huge-profile": (
        ("link", "check", "--profile", "{profile}"), f"components {FAR}\nnu empty -1\n",
        EXIT_INPUT, "", f"error: {{profile}}: profile must assign a genus to all 2^{FAR} "
        "sublinks, got 1\n", 1),
    # a preset would assign all 2^40 sublinks; it is refused before any
    "preset-component-limit": (
        ("link", "check", "--profile", "{profile}"), "components 40\npreset hopf\n",
        EXIT_INPUT, "", "error: {profile}: preset profiles have at most 12 components "
        "(4096 sublinks), got 40\n", 1),
    # 'full' would list 10^12 labels, and no file that short can be complete
    "huge-profile-full": (
        ("link", "check", "--profile", "{profile}"), f"components {FAR}\nnu full 0\n",
        EXIT_INPUT, "", f"error: {{profile}}:2: a profile of {FAR} components needs "
        f"all 2^{FAR} sublinks, and this one has 2 lines\n", 1),
    "huge-preset-full": (
        ("link", "check", "--profile", "{profile}"),
        f"components {FAR}\npreset hopf\nnu full 0\n",
        EXIT_INPUT, "", f"error: {{profile}}:3: a profile of {FAR} components needs "
        f"all 2^{FAR} sublinks, and this one has 3 lines\n", 1),
    "power": (("word", "parse", "(x1 x2)^-99999999999"), None, EXIT_INPUT, "",
              "error: the power may have 199999999998 syllables; the limit is 1048576\n", 1),
    # an exponent of as many digits as str() writes: the bound 2e has one more
    "power-past-digit-limit": (
        ("word", "parse", f"(x1 x2)^{LONG_DIGITS[1:]}"), None, EXIT_INPUT, "",
        f"error: the power may have over 10^{len(LONG_DIGITS) - 1} syllables; "
        "the limit is 1048576\n", 1),
    "one-syllable-power": (("word", "parse", f"x1^{FAR}"), None, 0, f"x1^{FAR}\n", "", 1),
    "conjugated-one-syllable-power": (
        ("word", "parse", f"(x2 x1 x2^-1)^{FAR}"), None, 0, f"x2 x1^{FAR} x2^-1\n", "", 1),
    # the canonical image of x3 is (x1 x2)^-1
    "canonical-image": (
        ("hatf", "cycle", "--degree", "2", f"x3^{FAR}"), None, EXIT_INPUT, "",
        "error: the image may have 2000000000000 syllables; the limit is 1048576\n", 1),
    # only a word holding x_{degree+1} needs the prefix product
    "prefix-product": (
        ("hatf", "face", "--degree", "99999999", "-i", "0", "x100000000"), None, EXIT_INPUT,
        "", "error: the prefix product may have 99999999 syllables; the limit is 1048576\n", 1),
    # d_3 rewrites x3, the eliminated generator at degree 2, as (x1 x2)^-1
    "last-face-image": (
        ("hatf", "face", "--degree", "3", "-i", "3", f"x3^{FAR}"), None, EXIT_INPUT, "",
        "error: the image may have 2000000000000 syllables; the limit is 1048576\n", 1),
    # d_1 sends every degree-1 word to the degree-0 identity without
    # building a run, however large its exponent
    "last-face-degree-0": (("hatf", "face", "--degree", "1", "-i", "1", f"x1^{2 ** 63}"),
                           None, 0, "degree=0; word=1\n", "", 1),
    # the last face of a word without x_n builds no prefix product
    "last-face-far-degree": (("hatf", "face", "--degree", "2000000", "-i", "2000000", "x1"),
                             None, 0, "degree=1999999; word=x1\n", "", 1),
    # faces and degeneracies touch only the generators the word holds
    "face-far-degree": (("hatf", "face", "--degree", "1000000", "-i", "0", "x1"), None,
                        0, "degree=999999; word=1\n", "", 1),
    "degen-far-degree": (("hatf", "degen", "--degree", "1000000", "-i", "0", "x1"), None,
                         0, "degree=1000001; word=x1 x2\n", "", 1),
    # the identity is a cycle at every degree without a pass per face
    "cycle-far-degree": (("hatf", "cycle", "--degree", str(FAR), "1"), None,
                         0, "true\n", "", 1),
    "degen-power": (
        ("hatf", "degen", "--degree", "2", "-i", "0", f"x1^{FAR}"), None, EXIT_INPUT, "",
        "error: the image may have 2000000000000 syllables; the limit is 1048576\n", 1),
    # each factor passes the limit, but the parsed word adds them up
    "parsed-factors": (
        ("word", "parse", "(x1 x2)^500000 x3 " * 40), None, EXIT_INPUT, "",
        "error: the word may have 2000001 syllables; the limit is 1048576\n", 1),
    # the field width is refused from C(n, k) >= (n/k)^k before the exact
    # binomial C(10^7 + 999999, 10^7); gamma then finds degree 1 at truncation 1
    "expand-width-bound": (
        ("magnus", "expand", "x1^1000000", "--trunc", "10000000"), None, EXIT_INPUT, "",
        "error: dense Magnus expansion needs at least 4324290432429 bytes (10000001 "
        "coefficient slots of at least 3459432 bits); the limit is 67108864\n", 1),
    "gamma-width-bound": (("magnus", "gamma", "x1^1000000", "--trunc", "10000000"), None,
                          0, "1\n", "", 1),
    # 30,001 slots of one byte, but their monomials would hold 450,015,000
    # letters: counted from the nonzero fields before any is built
    "expand-decoded-letters": (
        ("magnus", "expand", "x1^-1", "--trunc", "30000"), None, EXIT_INPUT, "",
        "error: Magnus expansion has 30001 terms of 450015000 letters in all; "
        "the limit is 16777216\n", 1),
    # one generator: the nonzero degrees are 1..T for a negative exponent,
    # so terms and letters are counted in closed form before any is decoded
    "expand-one-generator-letters": (
        ("magnus", "expand", "x1^-1", "--trunc", "1000000"), None, EXIT_INPUT, "",
        "error: Magnus expansion has 1000001 terms of 500000500000 letters in all; "
        "the limit is 16777216\n", 1),
    "expand-one-generator-letters-millions": (
        ("magnus", "expand", "x1^-1", "--trunc", "3000000"), None, EXIT_INPUT, "",
        "error: Magnus expansion has 3000001 terms of 4500001500000 letters in all; "
        "the limit is 16777216\n", 1),
    # one generator: only the nonzero degrees are decoded, and the degrees
    # are binomials found one at a time, none past the exponent, and never
    # a list of millions
    "expand-one-generator": (("magnus", "expand", "x1", "--trunc", "30000"), None,
                             0, "1 + X1\n", "", 1),
    "expand-one-generator-millions": (
        ("magnus", "expand", "x1^2", "--trunc", "16000000"), None,
        0, "1 + 2*X1 + X1X1\n", "", 1),
    # values the program builds past the int/str digit limit cannot be written
    "word-output-digits": (
        ("word", "parse", f"((x1^{'9' * 4000})^{'9' * 4000})"), None,
        EXIT_INPUT, "", "error: an integer in the output has 8000 digits; the limit is 4300\n", 1),
    "expand-output-digits": (
        ("magnus", "expand", f"x1^{'9' * 1200}", "--trunc", "4"), None,
        EXIT_INPUT, "", "error: an integer in the output has 4799 digits; the limit is 4300\n", 1),
    "mu-output-digits": (
        ("magnus", "mu", f"x1^{'9' * 3000} x2^{'9' * 3000}", "1,2"), None,
        EXIT_INPUT, "", "error: an integer in the output has 6000 digits; the limit is 4300\n", 1),
    "nested-brackets": (
        ("word", "parse", NESTED), None, EXIT_INPUT, "",
        "error: the commutator may have 1048578 syllables; the limit is 1048576\n", 2),
    "tower": (("hatf", "tower", "14"), None, EXIT_INPUT, "",
              "error: the tower step may have 3560640 syllables; the limit is 1048576\n", 2),
}


@pytest.mark.parametrize("case", BUDGET_CASES)
def test_budget_in_a_fresh_process(tmp_path, case):
    argv, text, code, stdout, stderr, seconds = BUDGET_CASES[case]
    profile = tmp_path / "case.lnk"
    if text is not None:
        profile.write_text(text)
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = fresh_python("-m", "linkhomotopy", *(a.format(profile=profile) for a in argv),
                        timeout=5, address_space=800 * 2**20)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    assert "Traceback" not in proc.stderr
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        code, stdout, stderr.format(profile=profile))
    assert after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime < seconds


def test_module_entry_point():
    proc = fresh_python("-m", "linkhomotopy", "word", "reduce", "x2 x2^-1")
    assert proc.returncode == 0
    assert proc.stdout == "1\n"


def test_every_subcommand_is_listed_in_its_parents_help():
    # a subparser without help= shows only in its parent's {a,b,...} choices,
    # with no line of its own; walk every level from the top parser
    pending, listed = [build_parser()], []
    while pending:
        parser = pending.pop()
        text = parser.format_help()
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for name, child in action.choices.items():
                    assert re.search(rf"^ +{name} +\S", text, re.M), (parser.prog, name)
                    listed.append(child.prog)
                    pending.append(child)
    assert len(listed) == 24
    assert {"linkhomotopy magnus expand", "linkhomotopy spheres wedge"} <= set(listed)


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
    # both read integer tokens: a reader kept in a layer would load it here
    (("magnus", "mu", "[x1,x2]", "1,2"), {"words", "magnus"}),
    (("link", "chi2", "--profile", "tests/data/hopf3.lnk", "1", "2"), {"homotopy", "links"}),
], ids=["word", "hatf", "magnus", "link", "spheres", "magnus-mu", "link-chi2"])
def test_each_subcommand_loads_only_its_layers(argv, layers):
    # runs the package as ``python -m`` does, then lists every loaded module
    proc = fresh_python("-c", SHOW_MODULES, *argv)
    assert proc.returncode == 0
    loaded = set(proc.stderr.splitlines()[-1].split())
    assert {layer for layer in LAYERS if f"linkhomotopy.{layer}" in loaded} == layers
    # dataclasses pulls in inspect, ast, dis and tokenize on every start
    assert not {"dataclasses", "inspect"} & loaded


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
    assert len(public) == len(set(public)) == 61
    # build_profile is the one profile builder and PiOfSphere.evaluate reads
    # the table itself; the removed wrappers stay gone
    for removed in ("preset_profile", "homotopy_table_lookup"):
        assert removed not in public and not hasattr(linkhomotopy, removed)
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
    ("magnus", {"words", "magnus"}),
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
