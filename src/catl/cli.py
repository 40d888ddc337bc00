"""Command-line interface.

Exit codes: 0 success, 1 errors (including failed synthesis/repair),
2 spec violation (monitor command only).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .dnf import dnf_to_json, to_dnf
from .evaluate import evaluate
from .formulas import SpecError, horizon, print_formula
from .monitor import outer_rho, outer_sat
from .parsing import parse_inner, parse_spec
from .plots import emit_plots, load_comm_mask_csv
from .policy import load_policy
from .repair import repair
from .scenario import BUILTIN_SCENARIOS, Scenario, builtin, load_scenario, save_scenario
from .synth import synthesize
from .train import TrainConfig, run_pipeline
from .trajectories import load_team_csv, load_team_json, save_team_csv, save_team_json


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are "errors", exit code 1
        self.print_usage(sys.stderr)
        raise _CliError(message)


class _CliError(Exception):
    pass


def _load_scenario(value: str) -> Scenario:
    if value in BUILTIN_SCENARIOS:
        return builtin(value)[0]
    return load_scenario(value)


def _file_or_inline(value: str) -> str:
    """Contents of the file named by value, else value itself as formula text."""
    path = Path(value)
    try:
        exists = path.exists()
    except OSError:  # not a usable file name, e.g. a formula longer than NAME_MAX
        exists = False
    return path.read_text() if exists else value


def _load_spec(value: str, scenario: Scenario):
    """Spec from a .catl file or an inline formula string."""
    return scenario.parse_spec(_file_or_inline(value))


def _seed(value: str) -> int:
    """argparse type of ``--seed``: an integer of at least 0, as numpy seeds are."""
    if not value.isdecimal():
        raise argparse.ArgumentTypeError(f"{value!r} is not an integer of at least 0")
    return int(value)


def _load_team(path: str, caps: str | None):
    if path.endswith(".json"):
        return load_team_json(path)
    return load_team_csv(path, caps)


def _add_scenario_arg(p: argparse.ArgumentParser):
    p.add_argument(
        "--scenario",
        required=True,
        help="scenario JSON file or builtin name "
             f"({', '.join(sorted(BUILTIN_SCENARIOS))})",
    )


def cmd_parse(args) -> int:
    if args.scenario:
        phi = _load_spec(args.spec, _load_scenario(args.scenario))
    else:
        phi = parse_spec(_file_or_inline(args.spec))
    print(print_formula(phi))
    print(f"horizon: {horizon(phi)}")
    return 0


def cmd_monitor(args) -> int:
    scenario = _load_scenario(args.scenario)
    phi = _load_spec(args.spec, scenario)
    team = _load_team(args.traj, args.caps)
    rho = outer_rho(team, phi, args.time, args.tau if args.smooth else None)
    sat = outer_sat(team, phi, args.time)
    print(json.dumps({"satisfied": sat, "robustness": rho, "time": args.time}))
    return 0 if sat else 2


def cmd_dnf(args) -> int:
    scenario = _load_scenario(args.scenario)
    phi = _load_spec(args.spec, scenario)
    dnf = to_dnf(phi, scenario.jc_sizes(), clause_cap=args.cap)
    print(f"clauses: {dnf.clause_count}")
    print(f"atoms: {dnf.atom_count()}")
    if args.json:
        Path(args.json).write_text(json.dumps(dnf_to_json(dnf), indent=1) + "\n")
        print(f"wrote {args.json}")
    return 0


def cmd_synth(args) -> int:
    scenario = _load_scenario(args.scenario)
    agent = next((a for a in scenario.agents if a.agent_id == args.agent), None)
    if agent is None:
        raise _CliError(f"no agent {args.agent} in scenario")
    target = parse_inner(_file_or_inline(args.formula), regions=scenario.regions)
    if args.x0:
        try:
            x0 = np.array([float(v) for v in args.x0.split(",")])
        except ValueError:
            x0 = np.array([np.nan])
        if x0.shape != (2,) or not np.isfinite(x0).all():
            raise _CliError(f"--x0 is {args.x0!r}, want two finite numbers x,y")
    else:
        rng = np.random.default_rng(args.seed)
        roster_index = scenario.agents.index(agent)
        x0 = scenario.sample_initial(rng)[roster_index]
    res = synthesize(x0, target, scenario.horizon, np.array(agent.u_max),
                     iterations=args.iterations, restarts=args.restarts, seed=args.seed)
    print(json.dumps({"success": res.success, "robustness": res.robustness}))
    if args.out:
        from .trajectories import TeamMember, TeamTrajectory

        team = TeamTrajectory([TeamMember(agent.agent_id, res.trajectory,
                                          agent.capabilities)])
        save_team_csv(team, args.out)
        print(f"wrote {args.out}")
    return 0 if res.success else 1


def cmd_repair(args) -> int:
    scenario = _load_scenario(args.scenario)
    phi = _load_spec(args.spec, scenario)
    team = _load_team(args.traj, args.caps)
    outcome = repair(team, phi, scenario, iterations=args.iterations,
                     restarts=args.restarts, seed=args.seed)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_team_json(outcome.trajectory, out_dir / "repaired.json")
    save_team_csv(outcome.trajectory, out_dir / "repaired.csv")
    report = {
        "verdict": outcome.verdict,
        "clause": outcome.clause,
        "robustness": outcome.robustness,
        "repaired_agents": outcome.repaired_agents,
        "syntheses": [
            {
                "clause": s.clause,
                "agent": s.agent_id,
                "pinned": s.pinned,
                "success": s.success,
                "robustness": s.robustness,
            }
            for s in outcome.syntheses
        ],
    }
    (out_dir / "report.json").write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps({"verdict": outcome.verdict, "robustness": outcome.robustness}))
    return 0 if outcome.success else 1


def cmd_train(args) -> int:
    scenario = _load_scenario(args.scenario)
    phi = _load_spec(args.spec, scenario)
    cfg = TrainConfig.from_json(args.config) if args.config else TrainConfig()
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    result = run_pipeline(scenario, phi, cfg, out_dir=args.out, stages=args.stages)
    summary = {"stage_success": result.stage_success, "dataset_size": len(result.dataset)}
    print(json.dumps(summary, sort_keys=True))
    return 0


def cmd_eval(args) -> int:
    scenario = _load_scenario(args.scenario)
    phi = _load_spec(args.spec, scenario)
    params = load_policy(args.params)
    report = evaluate(
        params, scenario, phi, trials=args.trials, seed=args.seed,
        gate_mode=args.gate_mode,
    )
    print(json.dumps(report.to_json(), sort_keys=True))
    print(f"wall clock per rollout: {report.wall_clock_per_rollout * 1e3:.2f} ms",
          file=sys.stderr)
    if args.out:
        report.save(args.out)
    return 0


def cmd_plot(args) -> int:
    scenario = _load_scenario(args.scenario)
    team = _load_team(args.traj, args.caps) if args.traj else None
    overlay = _load_team(args.overlay, None) if args.overlay else None
    mask, ids = load_comm_mask_csv(args.comm) if args.comm else (None, None)
    written = emit_plots(args.out, scenario, team=team, comm_mask=mask,
                         agent_ids=ids, overlay=overlay)
    for path in written:
        print(f"wrote {path}")
    return 0


def cmd_scenario(args) -> int:
    scenario, phi, text = builtin(args.name)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_scenario(scenario, out / "scenario.json")
    (out / "spec.catl").write_text(text)
    print(f"wrote {out / 'scenario.json'} and {out / 'spec.catl'} "
          f"(horizon {horizon(phi)})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="catl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse a spec and print its normal form")
    p.add_argument("spec", help=".catl file or inline formula")
    p.add_argument("--scenario", help="bind against a scenario (file or builtin)")
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("monitor", help="check a trajectory against a spec")
    _add_scenario_arg(p)
    p.add_argument("--spec", required=True)
    p.add_argument("--traj", required=True, help="trajectory CSV or JSON")
    p.add_argument("--caps", help="capability sidecar JSON (CSV form)")
    p.add_argument("--time", type=int, default=0)
    p.add_argument("--smooth", action="store_true")
    p.add_argument("--tau", type=float, default=10.0)
    p.set_defaults(func=cmd_monitor)

    p = sub.add_parser("dnf", help="normalize a spec to timed-task DNF")
    p.add_argument("spec", help=".catl file or inline formula")
    _add_scenario_arg(p)
    p.add_argument("--cap", type=int, default=10000, help="clause-count cap")
    p.add_argument("--json", help="write the clause list to this file")
    p.set_defaults(func=cmd_dnf)

    p = sub.add_parser("synth", help="synthesize one agent's trajectory")
    _add_scenario_arg(p)
    p.add_argument("--agent", type=int, required=True)
    p.add_argument("--formula", required=True, help="inner formula (inline or file)")
    p.add_argument("--x0", help="initial state 'x,y' (default: sample init region)")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--iterations", type=int, default=500)
    p.add_argument("--restarts", type=int, default=8)
    p.add_argument("--out", help="write trajectory CSV here")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("repair", help="repair a violating team trajectory")
    _add_scenario_arg(p)
    p.add_argument("--spec", required=True)
    p.add_argument("--traj", required=True)
    p.add_argument("--caps")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--iterations", type=int, default=300)
    p.add_argument("--restarts", type=int, default=4)
    p.add_argument("--out", default="repair-out")
    p.set_defaults(func=cmd_repair)

    p = sub.add_parser("train", help="run the training pipeline")
    _add_scenario_arg(p)
    p.add_argument("--spec", required=True)
    p.add_argument("--config", help="TrainConfig JSON file")
    p.add_argument("--out", required=True)
    p.add_argument("--stages", default="abcde",
                   help="letters of the stages to run, from abcde; stage A always runs")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="Monte-Carlo evaluation of a checkpoint")
    _add_scenario_arg(p)
    p.add_argument("--spec", required=True)
    p.add_argument("--params", required=True, help="policy checkpoint JSON")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--gate-mode", default="full", choices=["full", "none", "learned"])
    p.add_argument("--out", help="write the report JSON here")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("plot", help="render workspace/trajectory/communication SVGs")
    _add_scenario_arg(p)
    p.add_argument("--traj")
    p.add_argument("--caps")
    p.add_argument("--overlay", help="second trajectory drawn dashed (JSON)")
    p.add_argument("--comm", help="communication mask CSV (t,agent,comm)")
    p.add_argument("--out", default="plots")
    p.set_defaults(func=cmd_plot)

    p = sub.add_parser("scenario", help="export a builtin scenario and spec")
    p.add_argument("--name", required=True, choices=sorted(BUILTIN_SCENARIOS))
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_scenario)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (_CliError, SpecError, ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
