"""The study scripts under ``scripts/`` run their documented invocations."""

import runpy
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
