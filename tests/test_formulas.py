"""AST construction, horizon, capability vectors, and parse/print round trips."""

import copy
import pickle
from dataclasses import fields

import numpy as np
import pytest

from catl.formulas import (
    IAnd,
    IEventually,
    InRegion,
    ITrue,
    OAlways,
    OAnd,
    OEventually,
    ONot,
    OTrue,
    OUntil,
    Predicate,
    SpecError,
    Task,
    TimedTask,
    capability_vector,
    horizon,
    print_formula,
    walk,
)
from catl.parsing import SpecSyntaxError, parse_inner, parse_spec

from generators import CAPS, REGIONS, random_inner, random_outer


class TestParsing:
    def test_task_with_eventually(self):
        phi = parse_spec("task(F[0,8] in(C), Delivery, 6)")
        assert isinstance(phi, Task)
        assert phi.count == 6
        assert phi.cap == "Delivery"
        ev = phi.inner
        assert isinstance(ev, IEventually)
        assert (ev.a, ev.b) == (0, 8)
        assert isinstance(ev.child, Predicate)
        assert ev.child == InRegion("C")

    def test_true(self):
        assert parse_spec("true") == OTrue()

    def test_always_not_task(self):
        phi = parse_spec("G[0,25] !task(in(B), Ground, 2)")
        assert phi == OAlways(ONot(Task(InRegion("B"), "Ground", 2)), 0, 25)

    def test_until_between_tasks(self):
        phi = parse_spec("!task(in(B), Ground, 1) U[0,5] task(in(B), Inspection, 2)")
        assert isinstance(phi, OUntil)
        assert (phi.a, phi.b) == (0, 5)
        assert isinstance(phi.left, ONot)

    def test_timed_task_postfix(self):
        phi = parse_spec("task(in(B), Ground, 1) @ 7")
        assert phi == TimedTask(Task(InRegion("B"), "Ground", 1), 7)

    def test_nary_flattening_vs_parens(self):
        flat = parse_spec("true & true & true")
        assert isinstance(flat, OAnd) and len(flat.children) == 3
        nested = parse_spec("(true & true) & true")
        assert isinstance(nested, OAnd) and len(nested.children) == 2
        assert isinstance(nested.children[0], OAnd)

    def test_syntax_error_carries_position(self):
        with pytest.raises(SpecSyntaxError) as exc:
            parse_spec("task(in(B), Ground, )")
        assert exc.value.line == 1
        assert exc.value.col == 21

    def test_non_decimal_digit_is_a_syntax_error(self):
        # '²' is a digit to str.isdigit, but int() cannot read it
        with pytest.raises(SpecSyntaxError, match="unexpected character '²'") as exc:
            parse_spec("task(F[0,²] in(Goal), Robot, 1)\n")
        assert (exc.value.line, exc.value.col) == (1, 10)
        with pytest.raises(SpecSyntaxError) as exc:
            parse_spec("true &\n halfplane(1.²,0,1)")
        assert (exc.value.line, exc.value.col) == (2, 14)

    def test_reversed_interval_rejected(self):
        with pytest.raises(SpecSyntaxError, match="reversed"):
            parse_spec("F[3,1] true")

    def test_negative_interval_rejected(self):
        with pytest.raises(SpecSyntaxError):
            parse_spec("F[-1,3] true")

    def test_unknown_capability_with_vocabulary(self):
        with pytest.raises(SpecSyntaxError, match="unknown capability"):
            parse_spec("task(true, Lifting, 1)", capabilities=["Delivery"])

    def test_vocabulary_does_not_change_the_task(self):
        bare = parse_spec("task(true, Delivery, 2)")
        assert bare == parse_spec("task(true, Delivery, 2)", capabilities=["Lifting", "Delivery"])

    def test_unknown_region_with_table(self):
        with pytest.raises(SpecSyntaxError, match="unknown region"):
            parse_spec("task(in(Z), red, 1)", regions=REGIONS)

    def test_halfplane_numbers(self):
        phi = parse_inner("halfplane(-1,0.5,2.25)")
        assert phi.normal == (-1.0, 0.5)
        assert phi.offset == 2.25

    def test_comments_and_whitespace(self):
        phi = parse_spec("# mission\n  true\n")
        assert phi == OTrue()


class TestRoundTrip:
    def test_random_outer_round_trips(self):
        rng = np.random.default_rng(2024)
        for _ in range(300):
            phi = random_outer(rng, depth=int(rng.integers(0, 6)), budget=6)
            text = print_formula(phi)
            reparsed = parse_spec(text, regions=REGIONS, capabilities=CAPS)
            assert reparsed == phi, text

    def test_random_inner_round_trips(self):
        rng = np.random.default_rng(77)
        for _ in range(200):
            phi = random_inner(rng, depth=int(rng.integers(0, 6)), budget=6)
            text = print_formula(phi)
            assert parse_inner(text, regions=REGIONS) == phi, text


class TestHorizon:
    def test_true_is_zero(self):
        assert horizon(OTrue()) == 0
        assert horizon(ITrue()) == 0

    def test_until_over_atomic_tasks(self):
        phi = parse_spec("!task(in(B), Ground, 1) U[0,5] task(in(B), Inspection, 2)")
        assert horizon(phi) == 5

    def test_task_inherits_inner_horizon(self):
        phi = parse_spec("task(F[0,8] in(C), Delivery, 6)")
        assert horizon(phi) == 8

    def test_timed_task_adds_offset(self):
        phi = parse_spec("task(F[0,8] in(C), Delivery, 6) @ 4")
        assert horizon(phi) == 12

    def test_temporal_adds_bound(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            phi = random_outer(rng, depth=2, budget=4)
            assert horizon(OEventually(phi, 2, 5)) == 5 + horizon(phi)
            other = random_outer(rng, depth=2, budget=4)
            assert horizon(OAnd((phi, other))) == max(horizon(phi), horizon(other))

    def test_case_study_horizon_is_25(self):
        from catl.scenario import case_study

        _, phi = case_study()
        assert horizon(phi) == 25


class TestCapabilityVector:
    def test_ground_vehicle(self):
        vec = capability_vector({"Delivery", "Ground"}, ["Delivery", "Ground", "Inspection"])
        assert np.array_equal(vec, [1, 1, 0])

    def test_aerial_vehicle(self):
        vec = capability_vector({"Delivery", "Inspection"}, ["Delivery", "Ground", "Inspection"])
        assert np.array_equal(vec, [1, 0, 1])

    def test_empty(self):
        assert np.array_equal(capability_vector(set(), ["a", "b"]), [0, 0])

    def test_number_of_ones(self):
        rng = np.random.default_rng(3)
        vocab = [f"c{i}" for i in range(6)]
        for _ in range(50):
            pick = {c for c in vocab if rng.random() < 0.5}
            assert capability_vector(pick, vocab).sum() == len(pick)

    def test_unknown_capability_rejected(self):
        with pytest.raises(SpecError):
            capability_vector({"z"}, ["a"])


class TestValidation:
    def test_task_count_must_be_positive(self):
        with pytest.raises(SpecError):
            Task(ITrue(), "red", 0)

    def test_and_needs_two_children(self):
        with pytest.raises(SpecError):
            IAnd((ITrue(),))

    def test_bad_interval(self):
        with pytest.raises(SpecError):
            IEventually(ITrue(), 3, 1)


class TestBindSpec:
    """Scenario.bind_spec resolves names and checks counts and the horizon."""

    @staticmethod
    def toy():
        from catl.scenario import toy_benchmark

        return toy_benchmark()[0]

    @pytest.mark.parametrize("text, message", [
        ("task(in(Goal), Flying, 1)", "absent from the scenario"),
        ("task(in(Goal), Robot, 2)", "task needs 2 agents"),
        ("F[0,11] task(in(Goal), Robot, 1)", "exceeds scenario horizon"),
        ("task(in(Nowhere), Robot, 1)", "unknown region"),
    ], ids=["absent_capability", "count", "horizon", "unknown_region"])
    def test_rejects_bad_spec(self, text, message):
        with pytest.raises(SpecError, match=message):
            self.toy().bind_spec(parse_spec(text))

    @pytest.mark.parametrize("wrap", [
        lambda bad: ONot(bad),
        lambda bad: OUntil(OTrue(), bad, 0, 1),
        lambda bad: OUntil(bad, OTrue(), 0, 1),
        lambda bad: OAlways(bad, 0, 1),
        lambda bad: TimedTask(bad, 1),
        lambda bad: OAnd((OTrue(), ONot(OEventually(bad, 0, 1)))),
    ], ids=["not", "until_right", "until_left", "always", "timed", "deep"])
    def test_nested_bad_task_is_caught(self, wrap):
        bad = Task(InRegion("Goal"), "Robot", 2)
        with pytest.raises(SpecError, match="task needs 2 agents"):
            self.toy().bind_spec(wrap(bad))

    def test_binding_fills_regions_and_keeps_the_rest(self):
        sc = self.toy()
        phi = sc.bind_spec(parse_spec("G[0,3] !task(in(Obs) & true, Robot, 1) @ 2"))
        pred = phi.child.child.task.inner.children[0]
        assert pred.region is sc.regions["Obs"]
        assert print_formula(phi) == "G[0,3] !(task((in(Obs) & true), Robot, 1) @ 2)"

    @pytest.mark.parametrize("name", ["toy", "triple-toy", "reduced", "case-study"])
    def test_builtin_spec_round_trips(self, name):
        from catl.scenario import builtin

        sc, phi, _ = builtin(name)
        assert sc.parse_spec(print_formula(phi)) == phi


class TestLayerSeparation:
    def test_task_is_not_an_inner_atom(self):
        with pytest.raises(SpecSyntaxError, match="expected an inner formula"):
            parse_inner("task(true, a, 1)")

    def test_predicate_is_not_a_team_atom(self):
        with pytest.raises(SpecSyntaxError, match="expected a team formula"):
            parse_spec("in(A)")

    def test_same_shape_different_layer_differs(self):
        assert IAnd((ITrue(), ITrue())) != OAnd((OTrue(), OTrue()))
        assert parse_inner("true & true") == IAnd((ITrue(), ITrue()))
        assert parse_spec("true & true") == OAnd((OTrue(), OTrue()))
        assert IEventually(ITrue(), 0, 1) != OEventually(ITrue(), 0, 1)

    @pytest.mark.parametrize("make", [
        lambda: OAnd((OTrue(),)),
        lambda: OUntil(OTrue(), OTrue(), 2, 1),
        lambda: OAlways(OTrue(), -1, 1),
        lambda: IEventually(ITrue(), 0, 1.5),
    ], ids=["one_child", "reversed", "negative", "fractional"])
    def test_shapes_validate_in_both_layers(self, make):
        with pytest.raises(SpecError):
            make()


class TestImmutability:
    # every node kind of both layers
    SPEC = ("(F[0,2] task((in(A) U[0,1] !halfplane(1,0,0)), red, 1) | G[0,1] !true)"
            " & (task(G[0,1] (true | in(B)) & F[0,1] in(A), blue, 2) @ 1 U[0,1] true)")

    @pytest.mark.parametrize("spec", ["inline", "case-study"])
    def test_nodes_refuse_assignment_and_deletion(self, spec):
        from catl.scenario import builtin

        phi = parse_spec(self.SPEC) if spec == "inline" else builtin(spec)[1]
        for node in walk(phi):
            if not isinstance(node, (Predicate, Task, TimedTask)):
                assert not hasattr(node, "__dict__")
            for name in [f.name for f in fields(node)] + ["x"]:
                with pytest.raises(AttributeError):
                    setattr(node, name, None)
                with pytest.raises(AttributeError):
                    delattr(node, name)
        for copied in (pickle.loads(pickle.dumps(phi)), copy.deepcopy(phi)):
            assert copied == phi and hash(copied) == hash(phi)
