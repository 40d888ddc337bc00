"""Independent oracles the test suite checks the library against.

Deliberately different algorithms from the production code: satisfaction is
computed bottom-up as boolean tables over all start times (the library
recurses top-down / evaluates value signals), matchings by exhaustive
permutation search, gradients by central finite differences.
"""

from __future__ import annotations

import itertools

import numpy as np

from catl.formulas import (
    IAlways,
    IAnd,
    IEventually,
    INot,
    IOr,
    ITrue,
    IUntil,
    OAlways,
    OAnd,
    OEventually,
    ONot,
    OOr,
    OTrue,
    OUntil,
    Predicate,
    Task,
    TimedTask,
)


def sat_table_inner(states: np.ndarray, phi) -> np.ndarray:
    """Boolean table s[t] = (x, t) |= phi for every t where it is decidable.

    states is (T, 2); entries beyond the decidable range are absent (the
    table is trimmed to the valid prefix).
    """
    T = len(states)
    if isinstance(phi, ITrue):
        return np.ones(T, dtype=bool)
    if isinstance(phi, Predicate):
        return np.array([phi.evaluate(states[t]) >= 0.0 for t in range(T)])
    if isinstance(phi, INot):
        return ~sat_table_inner(states, phi.child)
    if isinstance(phi, IAnd):
        tables = [sat_table_inner(states, c) for c in phi.children]
        n = min(len(tb) for tb in tables)
        out = np.ones(n, dtype=bool)
        for tb in tables:
            out &= tb[:n]
        return out
    if isinstance(phi, IOr):
        tables = [sat_table_inner(states, c) for c in phi.children]
        n = min(len(tb) for tb in tables)
        out = np.zeros(n, dtype=bool)
        for tb in tables:
            out |= tb[:n]
        return out
    if isinstance(phi, IEventually):
        child = sat_table_inner(states, phi.child)
        n = len(child) - phi.b
        return np.array([child[t + phi.a : t + phi.b + 1].any() for t in range(n)])
    if isinstance(phi, IAlways):
        child = sat_table_inner(states, phi.child)
        n = len(child) - phi.b
        return np.array([child[t + phi.a : t + phi.b + 1].all() for t in range(n)])
    if isinstance(phi, IUntil):
        left = sat_table_inner(states, phi.left)
        right = sat_table_inner(states, phi.right)
        n = min(len(left), len(right)) - phi.b
        out = np.zeros(n, dtype=bool)
        for t in range(n):
            for s in range(phi.a, phi.b + 1):
                if right[t + s] and left[t : t + s].all():
                    out[t] = True
                    break
        return out
    raise TypeError(f"not an inner formula: {phi!r}")


def sat_table_outer(member_states: list[tuple[np.ndarray, frozenset]], Phi) -> np.ndarray:
    """Boolean table for the team formula via per-agent tables and counting."""
    T = len(member_states[0][0])
    if isinstance(Phi, OTrue):
        return np.ones(T, dtype=bool)
    if isinstance(Phi, Task):
        tables = [
            sat_table_inner(states, Phi.inner)
            for states, caps in member_states
            if Phi.cap in caps
        ]
        assert len(tables) >= Phi.count, "oracle misuse: not enough capability holders"
        n = min(len(tb) for tb in tables)
        counts = np.zeros(n, dtype=int)
        for tb in tables:
            counts += tb[:n].astype(int)
        return counts >= Phi.count
    if isinstance(Phi, TimedTask):
        table = sat_table_outer(member_states, Phi.task)
        return table[Phi.time :]
    if isinstance(Phi, ONot):
        return ~sat_table_outer(member_states, Phi.child)
    if isinstance(Phi, OAnd):
        tables = [sat_table_outer(member_states, c) for c in Phi.children]
        n = min(len(tb) for tb in tables)
        out = np.ones(n, dtype=bool)
        for tb in tables:
            out &= tb[:n]
        return out
    if isinstance(Phi, OOr):
        tables = [sat_table_outer(member_states, c) for c in Phi.children]
        n = min(len(tb) for tb in tables)
        out = np.zeros(n, dtype=bool)
        for tb in tables:
            out |= tb[:n]
        return out
    if isinstance(Phi, OEventually):
        child = sat_table_outer(member_states, Phi.child)
        n = len(child) - Phi.b
        return np.array([child[t + Phi.a : t + Phi.b + 1].any() for t in range(n)])
    if isinstance(Phi, OAlways):
        child = sat_table_outer(member_states, Phi.child)
        n = len(child) - Phi.b
        return np.array([child[t + Phi.a : t + Phi.b + 1].all() for t in range(n)])
    if isinstance(Phi, OUntil):
        left = sat_table_outer(member_states, Phi.left)
        right = sat_table_outer(member_states, Phi.right)
        n = min(len(left), len(right)) - Phi.b
        out = np.zeros(n, dtype=bool)
        for t in range(n):
            for s in range(Phi.a, Phi.b + 1):
                if right[t + s] and left[t : t + s].all():
                    out[t] = True
                    break
        return out
    raise TypeError(f"not a team formula: {Phi!r}")


def team_sat(team, Phi, t: int = 0) -> bool:
    member_states = [(m.trajectory.states, m.capabilities) for m in team.members]
    return bool(sat_table_outer(member_states, Phi)[t])


def individual_sat(states: np.ndarray, phi, t: int = 0) -> bool:
    return bool(sat_table_inner(states, phi)[t])


def finite_difference(f, x: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Central finite-difference gradient of a scalar function of an array."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        hi = f(x)
        flat[i] = orig - step
        lo = f(x)
        flat[i] = orig
        gflat[i] = (hi - lo) / (2 * step)
    return grad


def best_permutation(cost: np.ndarray) -> tuple[tuple[int, ...], float]:
    """Exhaustive minimum-cost assignment: rows to columns of a square matrix."""
    n = cost.shape[0]
    best, best_val = None, np.inf
    for perm in itertools.permutations(range(n)):
        val = sum(cost[i, perm[i]] for i in range(n))
        if val < best_val:
            best, best_val = perm, val
    return best, best_val
