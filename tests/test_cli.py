"""Command-line entry points: exit codes and what they print."""

import pytest

from catl.cli import main
from catl.formulas import horizon, print_formula
from catl.scenario import BUILTIN_SCENARIOS, builtin

NAMES = sorted(BUILTIN_SCENARIOS)


@pytest.mark.parametrize("name", NAMES)
def test_parse_inline_builtin_spec(name, capsys):
    # The case-study text is longer than a file name may be; it is still
    # read as an inline formula.
    _, phi, text = builtin(name)
    assert main(["parse", text, "--scenario", name]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == [print_formula(phi), f"horizon: {horizon(phi)}"]


@pytest.mark.parametrize("name", NAMES)
def test_exported_scenario_parses_its_spec(name, tmp_path, capsys):
    _, phi, _ = builtin(name)
    assert main(["scenario", "--name", name, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    spec, scenario = tmp_path / "spec.catl", tmp_path / "scenario.json"
    assert main(["parse", str(spec), "--scenario", str(scenario)]) == 0
    assert f"horizon: {horizon(phi)}" in capsys.readouterr().out


@pytest.mark.parametrize("text", [
    "task(in(Goal), Robot, )",
    "task(in(Nowhere), Robot, 1)",
    "F[0,99] task(in(Goal), Robot, 1)",
    "in(Goal)",
], ids=["syntax", "unknown_region", "horizon", "inner_atom_at_team_level"])
def test_malformed_spec_exits_1(text, capsys):
    assert main(["parse", text, "--scenario", "toy"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
