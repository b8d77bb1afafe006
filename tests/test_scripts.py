"""The scripts under ``scripts/`` run their documented invocations."""

import re
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _main(script):
    return runpy.run_path(str(SCRIPTS / script))["main"]


@pytest.mark.parametrize("family", [["--family", "t", "--tau", "4"], ["--family", "student_t"]])
def test_type1_study_runs(family, capsys):
    code = _main("type1_study.py")(family + ["--sizes", "20", "--replicates", "2"])
    assert code == 0
    assert capsys.readouterr().out.startswith("family student_t(tau=4)")


@pytest.mark.parametrize("family", [["--family", "t", "--tau", "4"], ["--family", "student_t"]])
def test_recovery_study_runs(family, capsys):
    code = _main("recovery_study.py")(family + ["--n", "100", "--replicates", "2"])
    assert code == 0
    assert capsys.readouterr().out.startswith("family student_t(tau=4)")


@pytest.mark.parametrize("script", ["type1_study.py", "recovery_study.py"])
@pytest.mark.parametrize(
    "flags, message",
    [
        (["--family", "slash", "--tau", "3"], "slash does not take --tau"),
        (["--family", "t", "--tau", "3", "--q", "5"], "give --tau or --q, not both"),
    ],
)
def test_study_scripts_check_the_family_flags(script, flags, message, capsys):
    with pytest.raises(SystemExit) as exc:
        _main(script)(flags + ["--replicates", "2"])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_output_digest_prints_the_same_digests_twice():
    ops = {"type1_t4_n50": 3, "recovery_t4_n500": 2, "compare_n1000": 1}
    cmd = [sys.executable, str(SCRIPTS / "output_digest.py"), "--checkout", str(SCRIPTS.parent),
           "--seed", "7302"]
    for name, n in ops.items():
        cmd += ["--ops", f"{name}={n}"]
    runs = [
        subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=300).stdout
        for _ in range(2)
    ]
    lines = runs[0].splitlines()
    assert [line.split()[:2] for line in lines] == [[name, str(n)] for name, n in ops.items()]
    assert all(re.fullmatch(r"\S+ \d+ ops [0-9a-f]{64}", line) for line in lines)
    assert runs[1] == runs[0]


def test_fit_moves_finds_no_move_between_a_checkout_and_itself():
    ops = {"compare_n1000": 1, "type1_t4_n50": 3, "recovery_t4_n500": 2}
    root = str(SCRIPTS.parent)
    cmd = [sys.executable, str(SCRIPTS / "fit_moves.py"), "--parent", root, "--change", root,
           "--seed", "7302"]
    for name, n in ops.items():
        cmd += ["--ops", f"{name}={n}"]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=300).stdout
    heads = [line for line in out.splitlines() if not line.startswith(" ")]
    fits = {"compare_n1000": 9, "type1_t4_n50": 6, "recovery_t4_n500": 2}
    assert heads == [f"{name}: {n} fits, {n} bit-identical, 0 convergence flips"
                     for name, n in fits.items()]
    assert " op " not in out
    decisions = [line for line in out.splitlines() if line.startswith("  LR decisions: ")]
    assert len(decisions) == 1
    assert re.fullmatch(r"  LR decisions: 0 of 3 changed accept/reject \((\d) -> \1 rejections\)", decisions[0])
    assert all(" max |dl| 0 (largest rise 0)" in line for line in out.splitlines()[1:]
               if line.startswith("  ") and line not in decisions)


def test_call_counts_prints_the_same_counts_twice():
    ops = {"type1_t4_n50": 3, "recovery_t4_n500": 2, "compare_n1000": 1}
    cmd = [sys.executable, str(SCRIPTS / "call_counts.py"), "--checkout", str(SCRIPTS.parent),
           "--seed", "7302"]
    for name, n in ops.items():
        cmd += ["--ops", f"{name}={n}"]
    runs = [
        subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=300).stdout
        for _ in range(2)
    ]
    heads = [line for line in runs[0].splitlines() if not line.startswith(" ")]
    assert [line.split()[:3] for line in heads] == [[name, str(n), "ops"] for name, n in ops.items()]
    assert all(re.fullmatch(r"\S+ \d+ ops \d+\.\d calls/op", line) for line in heads)
    # a head line and the ten most-called functions per workload
    assert len(runs[0].splitlines()) == 11 * len(ops)
    assert runs[1] == runs[0]


@pytest.mark.parametrize("verify", [[], ["--verify"]])
def test_tail_gallery_runs(verify, capsys):
    assert _main("tail_gallery.py")(verify) == 0
    lines = capsys.readouterr().out.splitlines()
    # a header, then nine families at three lambdas
    assert len(lines) == 28
    assert ("probe 1/xi" in lines[0]) == bool(verify)


def test_quantile_accuracy_runs(capsys):
    argv = ["--checkout", str(SCRIPTS.parent), "--families", "t:4,slash:2", "--tail", "6", "--centre", "2"]
    assert _main("quantile_accuracy.py")(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    # per family a head line, then the two t bands and all tail draws
    assert [line.split(":")[0] for line in lines[::4]] == ["student_t(tau=4)", "slash(q=2)"]
    rows = [line for line in lines if line.startswith("  ")]
    assert len(rows) == 6 and all(" n " in row for row in rows)
    # every quantile lies within tens of ulps of the mpmath root
    maxima = [float(re.search(r"max +(\S+)", row).group(1)) for row in rows if "max" in row]
    assert maxima and max(maxima) < 100.0


def test_loc_counts_code_lines_without_comments_or_docstrings(tmp_path, capsys):
    package = tmp_path / "src" / "bcsym"
    package.mkdir(parents=True)
    (package / "a.py").write_text(
        '"""Module docstring,\n\nover three lines."""\n'
        "\n"
        "# a comment\n"
        "import math  # a trailing comment\n"
        "\n"
        "\n"
        "def f(x):\n"
        '    """One-line docstring."""\n'
        '    "a bare string statement"\n'
        "    return (x +\n"
        "            math.pi)\n"
        "\n"
        'TEXT = """a string\n'
        'that is a value"""\n'
    )
    (package / "b.py").write_text("x = 1\n")
    assert _main("loc.py")(["--checkout", str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    # a.py: import, def, the two return lines and the two lines of TEXT
    assert rows == [["a.py", "6"], ["b.py", "1"], ["total", "7"]]


def test_interleave_runs_one_checkout_against_itself():
    root = str(SCRIPTS.parent)
    cmd = [sys.executable, str(SCRIPTS / "interleave.py"), "--parent", root, "--change", root,
           "--workload", "type1_t4_n50", "--batches", "2", "--ops", "2"]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=300).stdout
    lines = out.splitlines()
    assert lines[0].startswith("type1_t4_n50, seed 0: 2 batches of 2 ops per side")
    assert [line.split()[0] for line in lines[1:3]] == ["parent", "change"]
    assert all(line.endswith("0 check problems, 0 failed fits") for line in lines[1:3])
    assert re.fullmatch(r"op time change/parent: median \S+ \(quartiles \S+, \S+\); "
                        r"change faster in \d of 2 batches", lines[3])
    assert lines[4] == "outputs: 4 of 4 ops identical on both sides"
