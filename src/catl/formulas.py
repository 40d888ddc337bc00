"""Abstract syntax for the two-layer specification logic.

Inner formulas constrain one agent's trajectory (classic bounded STL over
differentiable predicates). Outer formulas replace predicates with counting
tasks over the team. All ASTs are immutable after construction and safe to
share across threads.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass, fields, replace

import numpy as np

from .geometry import Region


class SpecError(Exception):
    """Malformed specification (bad interval, unknown name, bad count)."""


def capability_vector(agent_caps: set[str] | frozenset[str], vocab: list[str]) -> np.ndarray:
    """Binary membership vector of the agent's capabilities over the vocabulary."""
    unknown = set(agent_caps) - set(vocab)
    if unknown:
        raise SpecError(f"capabilities not in vocabulary: {sorted(unknown)}")
    return np.array([1.0 if c in agent_caps else 0.0 for c in vocab])


# -- node shapes ---------------------------------------------------------------
#
# Both layers use the same operators. Each shape is declared once below; the
# inner and outer node kinds are empty subclasses of a shape and of their
# layer's marker. Dataclass equality compares classes exactly, so
# IAnd(cs) != OAnd(cs). Empty __slots__ all the way down keep every node
# frozen: no field can be reassigned and no attribute added.


def _refuse(self, name, *value):
    raise FrozenInstanceError(f"cannot assign to or delete {name!r}: formulas are immutable")


def _shape(cls):
    """Frozen, slotted dataclass shape. The __setattr__ that dataclass
    generates for it calls super() on the class that slots=True replaced, so
    on a subclass it raises TypeError for a name that is not a field; every
    assignment and deletion raises FrozenInstanceError instead."""
    cls = dataclass(frozen=True, slots=True)(cls)
    cls.__setattr__ = cls.__delattr__ = _refuse
    return cls


class InnerFormula:
    """Marker base of single-agent formulas."""

    __slots__ = ()


class OuterFormula:
    """Marker base of team formulas."""

    __slots__ = ()


@_shape
class _True:
    pass


@_shape
class _Not:
    child: InnerFormula | OuterFormula


@_shape
class _NAry:
    children: tuple

    def __post_init__(self):
        if len(self.children) < 2:
            raise SpecError(f"{self.noun} needs at least 2 children")

    @classmethod
    def of(cls, parts, empty):
        """The node over parts; a lone part stands for itself, no part for empty."""
        if not parts:
            return empty
        return parts[0] if len(parts) == 1 else cls(tuple(parts))


class _And(_NAry):
    __slots__ = ()
    noun, symbol = "conjunction", "&"


class _Or(_NAry):
    __slots__ = ()
    noun, symbol = "disjunction", "|"


class _Interval:
    """Checks the time window [a, b] of the two temporal shapes."""

    __slots__ = ()

    def __post_init__(self):
        if self.a != int(self.a) or self.b != int(self.b):
            raise SpecError("interval bounds must be integers")
        if self.a < 0 or self.b < self.a:
            raise SpecError(f"bad interval [{self.a},{self.b}]: need 0 <= a <= b")


@_shape
class _Window(_Interval):
    child: InnerFormula | OuterFormula
    a: int
    b: int


class _Eventually(_Window):
    __slots__ = ()
    symbol = "F"


class _Always(_Window):
    __slots__ = ()
    symbol = "G"


@_shape
class _Until(_Interval):
    left: InnerFormula | OuterFormula
    right: InnerFormula | OuterFormula
    a: int
    b: int


# -- inner formulas ----------------------------------------------------------


class ITrue(_True, InnerFormula):
    __slots__ = ()


class Predicate(InnerFormula):
    """Marker base of the inner-formula leaves, which every monitor backend
    reads through two functions of states x (..., 2): ``evaluate(x)``, the
    signed margin, >= 0 where the predicate holds, and ``vjp(x, g)``, g times
    its gradient. ``vjp`` runs at backward time on the forward pass's array,
    so a states array must not change between the forward pass and
    ``backward()``; no code in catl mutates one."""

    __slots__ = ()


@dataclass(frozen=True)
class InRegion(Predicate):
    """f(x) = margin of the named region; >= 0 iff the point is inside it."""

    region_name: str
    region: Region | None = None

    def geometry(self) -> Region:
        """The bound region; the one place an unbound predicate is rejected."""
        if self.region is None:
            raise SpecError(f"region {self.region_name!r} is unbound; bind to a scenario first")
        return self.region

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        return self.geometry().margin(x)

    def vjp(self, x: np.ndarray, g: np.ndarray) -> np.ndarray:
        return self.geometry().margin_vjp(x, g)

    def bound(self, regions: dict[str, Region]) -> "InRegion":
        if self.region_name not in regions:
            raise SpecError(f"unknown region {self.region_name!r}")
        return InRegion(self.region_name, regions[self.region_name])


@dataclass(frozen=True)
class HalfPlane(Predicate):
    """f(x) = offset - normal . x; >= 0 on the closed half-plane."""

    normal: tuple[float, float]
    offset: float

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        return self.offset - (x[..., 0] * self.normal[0] + x[..., 1] * self.normal[1])

    def vjp(self, x: np.ndarray, g: np.ndarray) -> np.ndarray:
        return -g[..., None] * self.normal

    def bound(self, regions: dict[str, Region]) -> "HalfPlane":
        return self


class INot(_Not, InnerFormula):
    __slots__ = ()


class IAnd(_And, InnerFormula):
    __slots__ = ()


class IOr(_Or, InnerFormula):
    __slots__ = ()


class IUntil(_Until, InnerFormula):
    __slots__ = ()


class IEventually(_Eventually, InnerFormula):
    __slots__ = ()


class IAlways(_Always, InnerFormula):
    __slots__ = ()


# -- outer formulas ----------------------------------------------------------


class OTrue(_True, OuterFormula):
    __slots__ = ()


@dataclass(frozen=True)
class Task(OuterFormula):
    """At least ``count`` agents holding the capability named ``cap`` satisfy
    ``inner`` at the eval time."""

    inner: InnerFormula
    cap: str
    count: int

    def __post_init__(self):
        if self.count < 1:
            raise SpecError(f"task count must be >= 1, got {self.count}")


@dataclass(frozen=True)
class TimedTask(OuterFormula):
    """A task anchored ``time`` steps after the evaluation time."""

    task: Task
    time: int

    def __post_init__(self):
        if self.time < 0 or self.time != int(self.time):
            raise SpecError(f"timed task offset must be a nonnegative integer, got {self.time}")


class ONot(_Not, OuterFormula):
    __slots__ = ()


class OAnd(_And, OuterFormula):
    __slots__ = ()


class OOr(_Or, OuterFormula):
    __slots__ = ()


class OUntil(_Until, OuterFormula):
    __slots__ = ()


class OEventually(_Eventually, OuterFormula):
    __slots__ = ()


class OAlways(_Always, OuterFormula):
    __slots__ = ()


# -- traversal -------------------------------------------------------------------


def _subformula_fields(phi) -> dict:
    """Fields of phi that hold a subformula or, for n-ary nodes, a tuple of them."""
    if not isinstance(phi, (InnerFormula, OuterFormula)):
        raise TypeError(f"not a formula: {phi!r}")
    if isinstance(phi, Predicate):  # a leaf: a half-plane's normal is no child
        return {}
    return {
        f.name: value for f in fields(phi)
        if isinstance(value := getattr(phi, f.name), (tuple, InnerFormula, OuterFormula))
    }


def map_children(phi, fn):
    """Copy of phi with fn applied to each direct subformula."""
    changes = {
        name: tuple(map(fn, value)) if isinstance(value, tuple) else fn(value)
        for name, value in _subformula_fields(phi).items()
    }
    return replace(phi, **changes)


def walk(phi):
    """phi and every formula below it, in pre-order."""
    yield phi
    for value in _subformula_fields(phi).values():
        for child in value if isinstance(value, tuple) else (value,):
            yield from walk(child)


# -- horizon ------------------------------------------------------------------


def horizon(phi: InnerFormula | OuterFormula) -> int:
    """Latest future offset needed to decide satisfaction at the evaluation time."""
    match phi:
        case _True() | Predicate():
            return 0
        case Task(inner=inner):
            return horizon(inner)
        case TimedTask(task=task, time=t):
            return t + horizon(task)
        case _Not(child=c):
            return horizon(c)
        case _NAry(children=cs):
            return max(horizon(c) for c in cs)
        case _Window(child=c, b=b):
            return b + horizon(c)
        case _Until(left=l, right=r, b=b):
            return b + max(horizon(l), horizon(r))
        case _:
            raise TypeError(f"not a formula: {phi!r}")


# -- pretty printing ----------------------------------------------------------


def _format_number(x: float) -> str:
    if x == int(x):
        return str(int(x))
    return repr(float(x))


def print_formula(phi: InnerFormula | OuterFormula) -> str:
    """Render in the surface grammar; parsing the result reproduces the AST."""
    match phi:
        case _True():
            return "true"
        case InRegion(region_name=name):
            return f"in({name})"
        case HalfPlane(normal=n, offset=c):
            return f"halfplane({_format_number(n[0])},{_format_number(n[1])},{_format_number(c)})"
        case Task(inner=inner, cap=cap, count=m):
            return f"task({print_formula(inner)}, {cap}, {m})"
        case TimedTask(task=task, time=t):
            return f"{print_formula(task)} @ {t}"
        case _Not(child=c):
            return f"!{_child_str(c)}"
        case _NAry(children=cs):
            return "(" + f" {phi.symbol} ".join(print_formula(c) for c in cs) + ")"
        case _Until(left=l, right=r, a=a, b=b):
            return f"({print_formula(l)} U[{a},{b}] {print_formula(r)})"
        case _Window(child=c, a=a, b=b):
            return f"{phi.symbol}[{a},{b}] {_child_str(c)}"
        case _:
            raise TypeError(f"not a formula: {phi!r}")


def _child_str(c) -> str:
    """Unary operators bind one atom-or-unary unit. A timed task's postfix
    ``@`` binds looser, so it is wrapped; And/Or/Until already parenthesize."""
    text = print_formula(c)
    return f"({text})" if isinstance(c, TimedTask) else text


def bind(phi, regions: dict[str, Region]):
    """Resolve region names against concrete geometry, returning a new AST."""
    if isinstance(phi, Predicate):
        return phi.bound(regions)
    return map_children(phi, lambda c: bind(c, regions))
