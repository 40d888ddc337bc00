"""Normalization of team formulas into negation-free DNF over timed tasks.

Pipeline: expand bounded temporal operators into boolean combinations of
timed tasks, push negations to the atoms and replace each negated task by
its complement-counting form, then distribute conjunction over disjunction.
A clause is a conjunction of timed tasks; satisfying any clause satisfies
the source formula.
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
    """Estimated clause count exceeds the configured cap."""

    def __init__(self, estimate: int, cap: int):
        super().__init__(f"DNF would have about {estimate} clauses (cap {cap})")
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


def _fold_not(node: OuterFormula) -> OuterFormula:
    if node == OTrue():
        return FALSE
    if node == FALSE:
        return OTrue()
    if isinstance(node, ONot):
        return node.child
    return ONot(node)


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


# -- step 1: temporal expansion -------------------------------------------------


def expand_temporal(Phi: OuterFormula, offset: int = 0) -> OuterFormula:
    """Rewrite bounded temporal operators into boolean combinations of
    timed tasks anchored at absolute offsets."""
    match Phi:
        case OTrue():
            return OTrue()
        case Task():
            return TimedTask(Phi, offset)
        case TimedTask(task=task, time=t):
            return TimedTask(task, offset + t)
        case ONot(child=c):
            return _fold_not(expand_temporal(c, offset))
        case OAnd(children=cs):
            return _fold_and([expand_temporal(c, offset) for c in cs])
        case OOr(children=cs):
            return _fold_or([expand_temporal(c, offset) for c in cs])
        case OEventually(child=c, a=a, b=b):
            return _fold_or([expand_temporal(c, offset + s) for s in range(a, b + 1)])
        case OAlways(child=c, a=a, b=b):
            return _fold_and([expand_temporal(c, offset + s) for s in range(a, b + 1)])
        case OUntil(left=l, right=r, a=a, b=b):
            terms = []
            for s in range(a, b + 1):
                parts = [expand_temporal(r, offset + s)]
                parts += [expand_temporal(l, offset + k) for k in range(s)]
                terms.append(_fold_and(parts))
            return _fold_or(terms)
        case _:
            raise TypeError(f"not a team formula: {Phi!r}")


# -- step 2: negation elimination ------------------------------------------------


def eliminate_negation(node: OuterFormula, jc_sizes: Mapping[str, int]) -> OuterFormula:
    """Push negations to the atoms of an expanded formula and remove them.

    A negated task <phi, c, m> becomes <!phi, c, |J_c|-m+1>: "fewer than m
    holders satisfy phi" is "at least |J_c|-m+1 holders violate phi". Tasks
    requiring more agents than the team has fold to constants (a positive
    occurrence can never hold; its negation always does).
    """
    match node:
        case OTrue():
            return OTrue()
        case TimedTask(task=task, time=t):
            if task.count > _jc(jc_sizes, task.cap.name):
                return FALSE
            return node
        case ONot(child=TimedTask(task=task, time=t)):
            size = _jc(jc_sizes, task.cap.name)
            if task.count > size:
                return OTrue()
            complement = size - task.count + 1
            negated_inner = task.inner.child if isinstance(task.inner, INot) \
                else INot(task.inner)
            return TimedTask(Task(negated_inner, task.cap, complement), t)
        case ONot(child=ONot(child=inner)):
            return eliminate_negation(inner, jc_sizes)
        case ONot(child=OTrue()):
            return FALSE
        case ONot(child=OAnd(children=cs)):
            return _fold_or([eliminate_negation(_fold_not(c), jc_sizes) for c in cs])
        case ONot(child=OOr(children=cs)):
            return _fold_and([eliminate_negation(_fold_not(c), jc_sizes) for c in cs])
        case OAnd(children=cs):
            return _fold_and([eliminate_negation(c, jc_sizes) for c in cs])
        case OOr(children=cs):
            return _fold_or([eliminate_negation(c, jc_sizes) for c in cs])
        case _:
            raise TypeError(f"unexpected node after expansion: {node!r}")


def _jc(jc_sizes: Mapping[str, int], cap_name: str) -> int:
    if cap_name not in jc_sizes:
        raise SpecError(f"capability {cap_name!r} absent from the scenario")
    return jc_sizes[cap_name]


# -- step 3: distribution ----------------------------------------------------------


def estimate_clauses(node: OuterFormula) -> int:
    """Clause count the distribution step would produce (before dedup)."""
    match node:
        case OTrue() | TimedTask():
            return 1
        case ONot(child=OTrue()):
            return 0
        case OAnd(children=cs):
            est = 1
            for c in cs:
                est *= estimate_clauses(c)
            return est
        case OOr(children=cs):
            return sum(estimate_clauses(c) for c in cs)
        case _:
            raise TypeError(f"unexpected node in negation-free form: {node!r}")


def _atom_key(atom: TimedTask):
    return (atom.time, atom.task.cap.name, atom.task.count, print_formula(atom.task.inner))


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
                acc = [a | b for a in acc for b in child_clauses]
                if len(acc) > cap:
                    raise DnfSizeError(len(acc), cap)
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
    expanded = expand_temporal(Phi, 0)
    negfree = eliminate_negation(expanded, jc_sizes)
    estimate = estimate_clauses(negfree)
    if estimate > clause_cap:
        raise DnfSizeError(estimate, clause_cap)
    clauses = set(_distribute(negfree, clause_cap))
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


def jc_sizes_of(members_caps) -> dict[str, int]:
    """Holder counts per capability from an iterable of capability sets."""
    sizes: dict[str, int] = {}
    for caps in members_caps:
        for c in caps:
            sizes[c] = sizes.get(c, 0) + 1
    return sizes


def clause_formula(atoms: tuple[TimedTask, ...]) -> OuterFormula:
    return OAnd.of(atoms, OTrue())


def dnf_to_formula(dnf: DnfForm) -> OuterFormula:
    return OOr.of([clause_formula(c) for c in dnf.clauses], FALSE)


def dnf_to_json(dnf: DnfForm) -> dict:
    return {
        "clause_count": dnf.clause_count,
        "clauses": [[print_formula(atom) for atom in clause] for clause in dnf.clauses],
    }
