"""Normalization of team formulas into negation-free DNF over timed tasks.

Two steps. ``negation_free`` expands bounded temporal operators into boolean
combinations of timed tasks, carrying negation down to the tasks and
replacing each negated task by its complement-counting form; ``_distribute``
then distributes conjunction over disjunction. A clause is a conjunction of
timed tasks; satisfying any clause satisfies the source formula.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .formulas import (
    INot,
    OAlways,
    OAnd,
    OEventually,
    ONot,
    OOr,
    OTrue,
    OuterFormula,
    OUntil,
    SpecError,
    Task,
    TimedTask,
    print_formula,
)

# Canonical false: the negation-free pipeline only needs it transiently.
FALSE = ONot(OTrue())

DEFAULT_CLAUSE_CAP = 10_000


class DnfSizeError(SpecError):
    """Distribution crossed the clause cap; ``estimate`` is the clause count
    at which it did, a lower bound on the full form's."""

    def __init__(self, estimate: int, cap: int):
        super().__init__(f"DNF would have at least {estimate} clauses (cap {cap})")
        self.estimate = estimate
        self.cap = cap


@dataclass
class DnfForm:
    """Clauses in canonical order; each clause is a tuple of timed tasks."""

    clauses: list[tuple[TimedTask, ...]]

    @property
    def clause_count(self) -> int:
        return len(self.clauses)

    def atom_count(self) -> int:
        return sum(len(c) for c in self.clauses)


# -- constant folding ---------------------------------------------------------


def _fold_and(children: list[OuterFormula]) -> OuterFormula:
    kept = []
    for c in children:
        if c == FALSE:
            return FALSE
        if c == OTrue():
            continue
        kept.append(c)
    return OAnd.of(kept, OTrue())


def _fold_or(children: list[OuterFormula]) -> OuterFormula:
    kept = []
    for c in children:
        if c == OTrue():
            return OTrue()
        if c == FALSE:
            continue
        kept.append(c)
    return OOr.of(kept, FALSE)


# -- step 1: negation-free form ------------------------------------------------


def negation_free(
    Phi: OuterFormula,
    jc_sizes: Mapping[str, int],
    offset: int = 0,
    positive: bool = True,
) -> OuterFormula:
    """Phi (negated unless ``positive``) with its bounded temporal operators
    expanded into timed tasks at absolute offsets and its negations removed.

    Negation is carried down as the polarity, which swaps conjunction and
    disjunction. A negated task <phi, c, m> becomes <!phi, c, |J_c|-m+1>:
    "fewer than m holders satisfy phi" is "at least |J_c|-m+1 holders violate
    phi". Tasks requiring more agents than the team has fold to constants (a
    positive occurrence can never hold; its negation always does). The result
    holds no ONot other than FALSE.
    """
    both, either = (_fold_and, _fold_or) if positive else (_fold_or, _fold_and)

    def at(node: OuterFormula, time: int) -> OuterFormula:
        return negation_free(node, jc_sizes, time, positive)

    match Phi:
        case OTrue():
            return OTrue() if positive else FALSE
        case Task() | TimedTask():
            task, time = (Phi, offset) if isinstance(Phi, Task) else (Phi.task, offset + Phi.time)
            size = _jc(jc_sizes, task.cap)
            if task.count > size:
                return FALSE if positive else OTrue()
            if positive:
                return TimedTask(task, time)
            inner = task.inner.child if isinstance(task.inner, INot) else INot(task.inner)
            return TimedTask(Task(inner, task.cap, size - task.count + 1), time)
        case ONot(child=c):
            return negation_free(c, jc_sizes, offset, not positive)
        case OAnd(children=cs):
            return both([at(c, offset) for c in cs])
        case OOr(children=cs):
            return either([at(c, offset) for c in cs])
        case OEventually(child=c, a=a, b=b):
            return either([at(c, offset + s) for s in range(a, b + 1)])
        case OAlways(child=c, a=a, b=b):
            return both([at(c, offset + s) for s in range(a, b + 1)])
        case OUntil(left=l, right=r, a=a, b=b):
            return either([
                both([at(r, offset + s)] + [at(l, offset + k) for k in range(s)])
                for s in range(a, b + 1)
            ])
        case _:
            raise TypeError(f"not a team formula: {Phi!r}")


def _jc(jc_sizes: Mapping[str, int], cap_name: str) -> int:
    if cap_name not in jc_sizes:
        raise SpecError(f"capability {cap_name!r} absent from the scenario")
    return jc_sizes[cap_name]


# -- step 2: distribution ----------------------------------------------------------


def _atom_key(atom: TimedTask):
    return (atom.time, atom.task.cap, atom.task.count, print_formula(atom.task.inner))


def _distribute(node: OuterFormula, cap: int) -> list[frozenset[TimedTask]]:
    match node:
        case OTrue():
            return [frozenset()]
        case ONot(child=OTrue()):
            return []
        case TimedTask():
            return [frozenset((node,))]
        case OOr(children=cs):
            out: list[frozenset[TimedTask]] = []
            for c in cs:
                out.extend(_distribute(c, cap))
                if len(out) > cap:
                    raise DnfSizeError(len(out), cap)
            return out
        case OAnd(children=cs):
            acc: list[frozenset[TimedTask]] = [frozenset()]
            for c in cs:
                child_clauses = _distribute(c, cap)
                if len(acc) * len(child_clauses) > cap:  # before the product is built
                    raise DnfSizeError(len(acc) * len(child_clauses), cap)
                acc = [a | b for a in acc for b in child_clauses]
            return acc
        case _:
            raise TypeError(f"unexpected node in negation-free form: {node!r}")


_SUBSUMPTION_LIMIT = 2000  # O(K^2) pruning is skipped for very large forms


def to_dnf(
    Phi: OuterFormula,
    jc_sizes: Mapping[str, int],
    clause_cap: int = DEFAULT_CLAUSE_CAP,
) -> DnfForm:
    """Negation-free DNF equivalent to Phi for any team with the given
    per-capability holder counts. Deduplicates atoms and drops subsumed
    clauses; clause order is canonical for reproducibility."""
    clauses = set(_distribute(negation_free(Phi, jc_sizes), clause_cap))
    ordered = sorted(
        (tuple(sorted(c, key=_atom_key)) for c in clauses),
        key=lambda c: (len(c), [_atom_key(a) for a in c]),
    )
    if len(ordered) <= _SUBSUMPTION_LIMIT:
        kept: list[tuple[TimedTask, ...]] = []
        kept_sets: list[frozenset[TimedTask]] = []
        for clause in ordered:  # ascending size: subsets arrive first
            cset = frozenset(clause)
            if any(k <= cset for k in kept_sets):
                continue
            kept.append(clause)
            kept_sets.append(cset)
        ordered = kept
    return DnfForm(list(ordered))


# -- helpers -------------------------------------------------------------------


def clause_formula(atoms: tuple[TimedTask, ...]) -> OuterFormula:
    return OAnd.of(atoms, OTrue())


def dnf_to_formula(dnf: DnfForm) -> OuterFormula:
    return OOr.of([clause_formula(c) for c in dnf.clauses], FALSE)


def dnf_to_json(dnf: DnfForm) -> dict:
    return {
        "clause_count": dnf.clause_count,
        "clauses": [[print_formula(atom) for atom in clause] for clause in dnf.clauses],
    }
