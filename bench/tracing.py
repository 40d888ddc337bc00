"""Spans and counters recorded around catl's public names, from outside the package.

A ``Tracer`` replaces module attributes (``catl.train.rollout``) and class
attributes (``catl.autodiff.Tensor.backward``) with wrappers that record one
span per call: name, start, end, index of the enclosing span, and, once
``count_tensors()`` has added counters to ``Tensor.__init__`` and
``RecurrentCell.step``, how many grad-recording tensors had been created at
the start and at the end. ``remove()`` restores every original. Spans stay
in memory; ``layer_metrics`` and ``counts`` reduce them to the per-layer
metrics of ``BENCHMARK.json`` and ``dump`` writes them out.

Wrappers only observe arguments and results, so a traced run computes the
same values as an untraced one; the benchmark checks that bitwise.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from catl import autodiff, dnf, evaluate, nn, repair, scenario, synth, train

# counts read off spans, so both the timed replay and the counting pass
# have them; the benchmark checks that they repeat
SPAN_COUNTS = ("synth.iterations", "synth.restarts_used", "repair.syntheses_per_repair",
               "policy.rollout_nograd_calls")

NAME, START, END, PARENT, NODES, NODES_END = range(6)


class Tracer:
    """``install()`` puts the wrappers in place; every wrapped call then
    appends a span. Counters that fire too often for a span are plain
    integers."""

    def __init__(self):
        self.spans: list[list] = []  # see NAME, START, ... for the fields
        self.stack: list[int] = []
        self.nodes = 0  # tensors created while grad recording was on
        self.cell_steps = 0
        self.rows = {True: 0, False: 0}  # rollout batch rows, keyed by grad on
        self.comm_on = 0.0
        self.comm_slots = 0.0
        self.synth_results: list[tuple[bool, int]] = []
        self.repairs: list[tuple] = []  # (team, outcome), for the output checks
        self._undo: list[tuple] = []

    def _wrap(self, owner, attr: str, name, after=None) -> None:
        orig = getattr(owner, attr)
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            rec = [label, time.perf_counter(), 0.0, stack[-1] if stack else -1, self.nodes, 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = orig(*args, **kwargs)
            finally:
                rec[END] = time.perf_counter()
                rec[NODES_END] = self.nodes
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, orig))

    def count_tensors(self) -> None:
        """Count grad-recording tensors and cell steps from now on. Both
        wrappers sit on the hottest calls, so timings taken with them on
        are not the program's."""
        self._count_init()
        self._count_cell_steps()

    def _count_init(self) -> None:
        orig = autodiff.Tensor.__init__

        def init(tensor, value, parents=(), backward=None):
            orig(tensor, value, parents, backward)
            if autodiff._GRAD_ENABLED:
                self.nodes += 1

        autodiff.Tensor.__init__ = init
        self._undo.append((autodiff.Tensor, "__init__", orig))

    def _count_cell_steps(self) -> None:
        orig = nn.RecurrentCell.step

        def step(cell, x, h, c):
            self.cell_steps += 1
            return orig(cell, x, h, c)

        nn.RecurrentCell.step = step
        self._undo.append((nn.RecurrentCell, "step", orig))

    def _rollout_done(self, args, kwargs, res) -> None:
        self.rows[autodiff.grad_enabled()] += res.batch
        self.comm_on += float(res.comm_mask.sum())
        self.comm_slots += float(res.comm_mask.size)

    def install(self) -> "Tracer":
        def rollout_name(args, kwargs):
            return "policy.rollout_grad" if autodiff.grad_enabled() else "policy.rollout_nograd"

        for mod in (train, evaluate):
            self._wrap(mod, "rollout", rollout_name, after=self._rollout_done)
            self._wrap(mod, "outer_rho_batch", "monitor.batch")
        self._wrap(scenario, "parse_spec", "parsing.parse_spec")
        self._wrap(dnf, "to_dnf", "dnf.to_dnf")
        self._wrap(repair, "to_dnf", "dnf.to_dnf")
        self._wrap(autodiff.Tensor, "backward", "autodiff.backward")
        self._wrap(nn.Adam, "step", "nn.adam_step")
        self._wrap(train, "outer_rho_tensor", "monitor.smooth_grad")
        self._wrap(synth, "inner_rho_tensor", "monitor.smooth_grad")
        self._wrap(synth, "inner_rho", "monitor.scalar")
        for fn in ("count", "inner_rho", "inner_sat", "outer_rho", "outer_sat"):
            self._wrap(repair, fn, "monitor.scalar")
        self._wrap(repair, "synthesize_conjunction", "synth",
                   after=lambda a, k, res: self.synth_results.append(
                       (res.success, res.restarts_used)))
        self._wrap(train, "repair", "repair",
                   after=lambda a, k, out: self.repairs.append((a[0], out)))
        self._wrap(train, "train_policy", lambda a, k: "train.stage_" + k["stage"][0])
        self._wrap(train, "robustness_objective", "train.objective")
        self._wrap(train, "aggregate_dataset", "train.aggregate")
        self._wrap(train, "build_gate_dataset", "train.gate_label")
        self._wrap(train, "train_gate", "train.gate_fit")
        self._wrap(train, "success_rate", "train.validate")
        return self

    def remove(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    # -- reduction --

    def mark(self) -> dict:
        """Position of every span list and counter; two marks bound a pass."""
        return {"spans": len(self.spans), "cell_steps": self.cell_steps,
                "rows_grad": self.rows[True], "rows_nograd": self.rows[False],
                "comm_on": self.comm_on, "comm_slots": self.comm_slots,
                "synth": len(self.synth_results), "repairs": len(self.repairs)}

    def _ancestor(self, index: int, names: tuple[str, ...]) -> int:
        """Index of the nearest enclosing span with one of ``names``, or -1."""
        parent = self.spans[index][PARENT]
        while parent >= 0 and self.spans[parent][NAME] not in names:
            parent = self.spans[parent][PARENT]
        return parent

    def _indexed(self, lo: dict, hi: dict):
        return ((i, self.spans[i]) for i in range(lo["spans"], hi["spans"]))

    def counts(self, lo: dict, hi: dict) -> dict[str, float]:
        """The counts between two marks that must repeat exactly when the
        same units run again (with ``dnf.clauses`` and ``dnf.atoms``, which
        the benchmark reads off the DNF itself). Only ``SPAN_COUNTS`` are
        right without ``count_tensors()``."""
        objective_starts = [
            s[NODES] for i, s in self._indexed(lo, hi)
            if s[NAME] == "train.objective" and self._ancestor(i, ("train.stage_a",)) >= 0
        ]
        synth_iters = sum(
            1 for i, s in self._indexed(lo, hi)
            if s[NAME] == "nn.adam_step" and self._ancestor(i, ("synth",)) >= 0
        )
        synths = self.synth_results[lo["synth"]:hi["synth"]]
        syntheses = [len(out.syntheses) for _, out in self.repairs[lo["repairs"]:hi["repairs"]]]
        synth_nodes = sum(s[NODES_END] - s[NODES] for _, s in self._indexed(lo, hi)
                          if s[NAME] == "synth")
        return {
            # grad tensors created from the start of one stage-A step to the next
            "autodiff.tape_nodes_per_step": float(objective_starts[1] - objective_starts[0])
            if len(objective_starts) > 1 else 0.0,
            "autodiff.tape_nodes_per_synth_iter":
                synth_nodes / synth_iters if synth_iters else 0.0,
            "nn.cell_steps": float(hi["cell_steps"] - lo["cell_steps"]),
            "synth.iterations": float(synth_iters),
            "synth.restarts_used": float(sum(r for _, r in synths)),
            "repair.syntheses_per_repair": float(np.mean(syntheses)) if syntheses else 0.0,
            "policy.rollout_nograd_calls": float(
                sum(1 for _, s in self._indexed(lo, hi) if s[NAME] == "policy.rollout_nograd")),
        }

    def layer_metrics(self, lo: dict, hi: dict, units: int) -> dict[str, float]:
        """Per-layer metrics of ``units`` units run between two marks. Times,
        calls and rows are per unit; ratios, percentiles and per-step or
        per-iteration figures are over the whole stretch."""
        total: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        durations: dict[str, list[float]] = defaultdict(list)
        child_time: dict[int, float] = defaultdict(float)
        for _, s in self._indexed(lo, hi):
            if s[PARENT] >= 0:
                child_time[s[PARENT]] += s[END] - s[START]
        for i, s in self._indexed(lo, hi):
            dur = s[END] - s[START]
            total[s[NAME]] += dur
            self_time[s[NAME]] += dur - child_time[i]
            calls[s[NAME]] += 1
            durations[s[NAME]].append(dur)

        synths = self.synth_results[lo["synth"]:hi["synth"]]
        repair_s = durations.get("repair", [])
        stages = ("train.stage_a", "train.stage_b", "train.stage_c", "train.stage_e")
        validate_in_stages = sum(
            s[END] - s[START] for i, s in self._indexed(lo, hi)
            if s[NAME] == "train.validate" and self._ancestor(i, stages) >= 0
        )
        steps = calls["train.objective"]
        comm_slots = hi["comm_slots"] - lo["comm_slots"]
        per_unit = {
            "parsing.parse_spec_s": total["parsing.parse_spec"],
            "dnf.to_dnf_s": total["dnf.to_dnf"],
            "dnf.to_dnf_calls": float(calls["dnf.to_dnf"]),
            "autodiff.backward_s": self_time["autodiff.backward"],
            "autodiff.backward_calls": float(calls["autodiff.backward"]),
            "nn.adam_step_s": total["nn.adam_step"],
            "policy.rollout_grad_s": total["policy.rollout_grad"],
            "policy.rollout_grad_rows": float(hi["rows_grad"] - lo["rows_grad"]),
            "policy.rollout_nograd_s": total["policy.rollout_nograd"],
            "policy.rollout_nograd_rows": float(hi["rows_nograd"] - lo["rows_nograd"]),
            "monitor.smooth_grad_s": total["monitor.smooth_grad"],
            "monitor.batch_s": total["monitor.batch"],
            "monitor.scalar_calls": float(calls["monitor.scalar"]),
            "monitor.scalar_s": total["monitor.scalar"],
            "synth.calls": float(len(synths)),
            "synth.self_s": self_time["synth"],
            "repair.calls": float(len(repair_s)),
            "train.stage_a_s": total["train.stage_a"],
            "train.aggregate_s": total["train.aggregate"],
            "train.stage_b_train_s": total["train.stage_b"],
            "train.stage_c_s": total["train.stage_c"],
            "train.gate_label_s": total["train.gate_label"],
            "train.gate_fit_s": total["train.gate_fit"],
            "train.stage_e_s": total["train.stage_e"],
            "train.validate_s": total["train.validate"],
        }
        out = {name: value / units for name, value in per_unit.items()}
        out.update({
            "policy.comm_fraction":
                (hi["comm_on"] - lo["comm_on"]) / comm_slots if comm_slots else 0.0,
            "synth.success_ratio": sum(ok for ok, _ in synths) / len(synths) if synths else 0.0,
            "repair.s_p50": float(np.median(repair_s)) if repair_s else 0.0,
            "repair.s_max": max(repair_s, default=0.0),
            "train.step_s": (sum(total[s] for s in stages) - validate_in_stages) / steps
            if steps else 0.0,
        })
        return out

    def dump(self, path: Path, extra: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            **extra,
            "spans": [
                {"name": s[NAME], "start": s[START], "end": s[END], "parent": s[PARENT]}
                for s in self.spans
            ],
        }
        path.write_text(json.dumps(doc) + "\n")
