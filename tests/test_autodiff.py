"""Gradient checks for the autodiff engine and the layer zoo."""

import numpy as np
import pytest

from catl import autodiff as ad
from catl.autodiff import Tensor
from catl.formulas import HalfPlane, IAlways, IAnd, IEventually, InRegion, OAnd, Task, TimedTask
from catl.geometry import Region
from catl.monitor import inner_rho_tensor, outer_rho_tensor
from catl.nn import Adam, Dense, RecurrentCell, bidirectional_scan, load_checkpoint, save_checkpoint

from oracles import finite_difference


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    scale = max(np.abs(a).max(), np.abs(b).max(), 1e-8)
    return np.abs(a - b).max() / scale


def test_tanh_at_zero():
    x = Tensor(0.0)
    y = ad.tanh(x)
    y.backward()
    assert y.item() == 0.0
    assert x.grad == pytest.approx(1.0)


def test_matmul_identity():
    v = np.array([[1.5, -2.0, 0.25]])
    x = Tensor(v)
    y = ad.matmul(x, Tensor(np.eye(3)))
    assert np.array_equal(y.value, v)


def test_composite_graph_matches_finite_differences():
    rng = np.random.default_rng(7)
    w1 = rng.normal(size=(4, 5))
    w2 = rng.normal(size=(5, 3))
    x0 = rng.normal(size=(2, 4))

    def value(xv: np.ndarray) -> float:
        x = Tensor(xv)
        h = ad.tanh(ad.matmul(x, Tensor(w1)))
        g = ad.sigmoid(ad.matmul(h, Tensor(w2)))
        mixed = ad.concat([h, g], axis=-1)
        s = ad.softmax_lse(mixed, tau=3.0, axis=-1)
        return ad.sum_(ad.square(s) + s * 0.5).item()

    x = Tensor(x0.copy())
    h = ad.tanh(ad.matmul(x, Tensor(w1)))
    g = ad.sigmoid(ad.matmul(h, Tensor(w2)))
    mixed = ad.concat([h, g], axis=-1)
    s = ad.softmax_lse(mixed, tau=3.0, axis=-1)
    out = ad.sum_(ad.square(s) + s * 0.5)
    out.backward()

    fd = finite_difference(value, x0.copy())
    assert rel_err(x.grad, fd) < 1e-6


# a predicate whose margin is a state's x coordinate
X_COORD = HalfPlane((-1.0, 0.0), 0.0)


def signal_states(x: Tensor) -> Tensor:
    """States (..., T, 2) whose X_COORD margins are the signal x (..., T)."""
    return ad.stack([x, x * 0.0], axis=-1)


@pytest.mark.parametrize("op,extra", [
    ("softmin", {}),
    ("softmax", {}),
    ("kth", {"k": 2}),
    ("stack_slice", {}),
    ("relu", {}),
    ("windows", {}),
    ("cumsum", {}),
    ("gather", {}),
])
def test_primitive_gradients(op, extra):
    rng = np.random.default_rng(hash(op) % 2**31)
    x0 = rng.normal(size=(3, 6))

    def build(x: Tensor) -> Tensor:
        if op == "softmin":
            return ad.sum_(ad.softmin_lse(x, tau=4.0, axis=-1))
        if op == "softmax":
            return ad.sum_(ad.softmax_lse(x, tau=4.0, axis=-1))
        if op == "kth":  # the smooth node's task op: the 2nd largest of 3 rows per step
            members = [(signal_states(x[j]), frozenset({"red"})) for j in range(3)]
            pick = Task(X_COORD, "red", extra["k"])
            return outer_rho_tensor(members, OAnd(tuple(TimedTask(pick, t) for t in range(6))),
                                    tau=4.0)
        if op == "stack_slice":
            parts = [x[..., i : i + 2] for i in range(3)]
            return ad.sum_(ad.square(ad.stack(parts, axis=-1)))
        if op == "windows":  # the smooth node's window ops: G of width 3 at 3 starts, then F
            phi = IEventually(IAlways(X_COORD, 0, 2), 1, 3)
            return ad.sum_(inner_rho_tensor(signal_states(x), phi, tau=4.0))
        if op == "cumsum":
            return ad.sum_(ad.square(ad.cumsum(x, axis=0)))
        if op == "gather":  # entries read twice and three times
            index = np.array([[1, 1, 4], [0, 5, 5], [5, 2, 1]])
            return ad.sum_(ad.square(ad.getitem(x, (Ellipsis, index))))
        return ad.sum_(ad.relu(x - 0.1))

    x = Tensor(x0.copy())
    y = build(x)
    y.backward()
    fd = finite_difference(lambda xv: build(Tensor(xv)).item(), x0.copy())
    assert rel_err(x.grad, fd) < 1e-6


def test_getitem_adds_the_gradient_of_every_repeated_index():
    a = Tensor(np.arange(4.0))
    ad.sum_(a[np.array([1, 1, 2])]).backward()
    assert np.array_equal(a.grad, [0.0, 2.0, 1.0, 0.0])
    x0 = np.random.default_rng(23).normal(size=5)
    index = np.array([3, 0, 3, 3, 1])

    def build(x: Tensor) -> Tensor:
        return ad.sum_(ad.square(x[index]) * Tensor(np.arange(1.0, 6.0)))

    x = Tensor(x0.copy())
    build(x).backward()
    assert rel_err(x.grad, finite_difference(lambda v: build(Tensor(v)).item(), x0.copy())) < 1e-6


def test_getitem_with_a_slice_stores_its_gradient_as_is():
    # a basic key writes g into zeros, so even a negative zero comes back as is
    y = Tensor(np.ones(4))[1:3]
    full, = y._backward(np.array([-0.0, 2.5]))
    assert full.tobytes() == np.array([0.0, -0.0, 2.5, 0.0]).tobytes()


def test_softmin_is_negated_softmax_of_negation_bitwise():
    # softmin_lse(x) == -softmax_lse(-x) in value and gradient, ties included
    rng = np.random.default_rng(21)
    x0 = rng.integers(-2, 3, size=(5, 7)) * 0.5
    x0[:, :3] += rng.normal(size=(5, 3))
    for axis in (0, -1):
        a, b = Tensor(x0.copy()), Tensor(x0.copy())
        lo = ad.softmin_lse(a, tau=4.0, axis=axis)
        neg_hi = -ad.softmax_lse(-b, tau=4.0, axis=axis)
        weights = Tensor(rng.normal(size=lo.shape))
        ad.sum_(lo * weights).backward()
        ad.sum_(neg_hi * weights).backward()
        assert np.array_equal(lo.value, neg_hi.value)
        assert np.array_equal(a.grad, b.grad)


# two rectangles of the case study's river R, with a gap at 4.4 < x < 5.6
BOX = (((0.0, 0.0), (2.0, 1.0)),)
RIVER = (((0.0, 4.5), (4.4, 6.0)), ((5.6, 4.5), (10.0, 6.0)))
SHARED = (((0.0, 0.0), (1.0, 1.0)), ((1.0, 0.0), (2.0, 1.0)))


def predicate_node(states: Tensor, pred) -> Tensor:
    """The smooth monitor's node for pred at states (..., 1, 2): a one-step
    signal whose robustness at time 0 is the margin."""
    return inner_rho_tensor(states, pred, tau=10.0)


def in_rects(rects) -> InRegion:
    return InRegion("X", Region("X", rects))


def kth_largest(a: Tensor, k: int) -> Tensor:
    """The k-th largest entry along the last axis as a gather of a's entries,
    ties going to the first tied entry: the index is a stable sort's."""
    index = np.argsort(-a.value, axis=-1, kind="stable")[..., k - 1 : k]
    rows = np.indices(index.shape)[:-1]
    return ad.getitem(a, (*rows, index))[..., 0]


def composed_region_margin(states: Tensor, rects) -> Tensor:
    """The region margin as separate nodes: the four faces stacked, their 4th
    largest per rectangle, the largest rectangle."""
    x, y = states[..., 0], states[..., 1]
    rect_margins = [
        kth_largest(ad.stack([x - lo[0], y - lo[1], hi[0] - x, hi[1] - y], axis=-1), k=4)
        for lo, hi in rects
    ]
    if len(rect_margins) == 1:
        return rect_margins[0]
    return kth_largest(ad.stack(rect_margins, axis=-1), k=1)


def check_predicate_gradient(pred, x0: np.ndarray, weights: Tensor) -> None:
    def build(x: Tensor) -> Tensor:
        return ad.sum_(predicate_node(x, pred) * weights)

    x = Tensor(x0.copy())
    build(x).backward()
    fd = finite_difference(lambda xv: build(Tensor(xv)).item(), x0.copy())
    assert rel_err(x.grad, fd) < 1e-6


@pytest.mark.parametrize("rects", [BOX, RIVER], ids=["box", "two_rects"])
def test_region_margin_gradient(rects):
    rng = np.random.default_rng(5)
    x0 = rng.uniform(-1.0, 11.0, size=(3, 7, 1, 2))
    check_predicate_gradient(in_rects(rects), x0, Tensor(rng.normal(size=(3, 7))))


def test_halfplane_margin_gradient():
    rng = np.random.default_rng(6)
    x0 = rng.uniform(-3.0, 3.0, size=(3, 7, 1, 2))
    check_predicate_gradient(HalfPlane((0.6, -0.8), 0.25), x0, Tensor(rng.normal(size=(3, 7))))


@pytest.mark.parametrize("rects, point", [
    (BOX, (2.0, 1.0)),  # corner: the faces hi_x - x and hi_y - y tie at 0
    (RIVER, (5.0, 5.0)),  # gap of R: both rectangles' margins are -0.6
    (SHARED, (1.0, 0.5)),  # on the face both rectangles share: both margins 0
], ids=["box_corner", "river_gap", "shared_face"])
def test_region_margin_ties_match_composition_bitwise(rects, point):
    # the predicate node and the composed margin pick the same face and
    # rectangle at a tie
    states = np.array([point, (point[0] + 0.25, point[1]), (point[0], point[1] - 0.25)])
    states = states[:, None, :]
    weights = Tensor(np.array([1.5, -0.5, 2.0]))
    fused, composed = Tensor(states.copy()), Tensor(states.copy())
    a = predicate_node(fused, in_rects(rects))
    b = composed_region_margin(composed, rects)[..., 0]
    ad.sum_(a * weights).backward()
    ad.sum_(b * weights).backward()
    assert np.array_equal(a.value, b.value)
    assert np.array_equal(fused.grad, composed.grad)


def test_region_margin_gradient_takes_last_tied_face_and_first_tied_rectangle():
    # below R's gap at (5, 4.5 - d), d = 5 - 4.4 = 5.6 - 5 in floating point,
    # each rectangle's margin is -d with two tied faces: y - lo_y and hi_x - x
    # on the first, x - lo_x and y - lo_y on the second; the gradient is the
    # first rectangle's last tied face, hi_x - x
    d = 5.0 - 4.4
    assert d == 5.6 - 5.0
    states = Tensor(np.array([[5.0, 4.5 - d]]))
    rho = predicate_node(states, in_rects(RIVER))
    rho.backward()
    assert rho.item() == -d
    assert np.array_equal(states.grad, [[-1.0, 0.0]])


@pytest.mark.parametrize("count", [1, 2, 3, 5])
def test_windows_match_stacked_slices_bitwise(count):
    # the smooth node's window op sums its gradient in the order W stacked
    # slices do: G[2,5] p against the conjunction of p pinned at 2..5, each
    # read at count start times
    rng = np.random.default_rng(count)
    x0 = rng.normal(size=(3, count + 6, 1, 2))
    p = HalfPlane((0.6, -0.8), 0.25)
    start, width = 2, 4
    windowed = IAlways(p, start, start + width - 1)
    stacked = IAnd(tuple(IEventually(p, start + k, start + k) for k in range(width)))
    weights = Tensor(rng.normal(size=3))
    grads, values = [], []
    for inner in (windowed, stacked):
        x = Tensor(x0[..., 0, :].copy())
        rho = inner_rho_tensor(x, IEventually(inner, 0, count - 1), tau=3.0)
        ad.sum_(rho * weights).backward()
        grads.append(x.grad)
        values.append(rho.value)
    assert np.array_equal(values[0], values[1])
    assert np.array_equal(grads[0], grads[1])


def test_cumsum_matches_chained_adds_bitwise():
    # ((x0 + u0) + u1) + ..., the rows a loop of adds builds, and the same gradient
    rng = np.random.default_rng(8)
    rows0 = rng.normal(size=(9, 2))
    fused, chained = Tensor(rows0.copy()), Tensor(rows0.copy())
    a = ad.cumsum(fused, axis=0)
    acc = [chained[0:1]]
    for t in range(1, 9):
        acc.append(acc[-1] + chained[t : t + 1])
    b = ad.concat(acc, axis=0)
    weights = Tensor(rng.normal(size=(9, 2)))
    ad.sum_(a * weights).backward()
    ad.sum_(b * weights).backward()
    assert np.array_equal(a.value, b.value)
    assert np.array_equal(fused.grad, chained.grad)


def composed_lstm_step(x, h, c, w_x, w_h, b) -> tuple[Tensor, Tensor]:
    """The recurrent update as separate nodes, as the cell built it before
    the fused step: one affine map, three sigmoid gates and a tanh candidate."""
    n = h.shape[-1]
    z = ad.matmul(x, w_x) + ad.matmul(h, w_h) + b
    gi, gf, go = (ad.sigmoid(z[..., k * n : (k + 1) * n]) for k in range(3))
    c_next = gf * c + gi * ad.tanh(z[..., 3 * n :])
    return go * ad.tanh(c_next), c_next


def lstm_inputs(rng, batch=3, n_in=4, n=5) -> list[np.ndarray]:
    """x, the [h, c] state, w_x, w_h and b, in ``lstm_step``'s order."""
    return [rng.normal(size=(batch, n_in)), rng.normal(size=(2, batch, n)),
            rng.normal(size=(n_in, 4 * n)), rng.normal(size=(n, 4 * n)),
            rng.normal(size=4 * n)]


LSTM_ARGS = ["x", "state", "w_x", "w_h", "b"]
STATE_HALVES = {"h": 0, "c": 1}
MIXED_CARRY = np.array([[1.0], [0.0], [1.0]])


@pytest.mark.parametrize(
    "wrt, carry",
    [(name, None) for name in LSTM_ARGS + list(STATE_HALVES)]
    + [(name, MIXED_CARRY) for name in LSTM_ARGS],
    ids=LSTM_ARGS + list(STATE_HALVES) + [f"{name}-carry" for name in LSTM_ARGS],
)
def test_lstm_step_gradient(wrt, carry):
    # "h" and "c" check each half of the stacked state on its own, so a
    # gradient routed to the wrong half cannot hide in the whole-state case
    rng = np.random.default_rng(12)
    values = lstm_inputs(rng)
    weights = Tensor(rng.normal(size=(2, 3, 5)))  # on [h', c'], so both halves get g
    half = STATE_HALVES.get(wrt)
    k = LSTM_ARGS.index("state" if half is not None else wrt)

    def build(v: np.ndarray) -> tuple[Tensor, Tensor]:
        inputs = [Tensor(a) for a in values]
        if half is None:
            inputs[k] = Tensor(v)
        else:
            state = values[k].copy()
            state[half] = v
            inputs[k] = Tensor(state)
        return inputs[k], ad.sum_(ad.lstm_step(*inputs, carry) * weights)

    start = values[k] if half is None else values[k][half]
    leaf, out = build(start.copy())
    out.backward()
    grad = leaf.grad if half is None else leaf.grad[half]
    fd = finite_difference(lambda v: build(v)[1].item(), start.copy())
    assert rel_err(grad, fd) < 1e-6


def test_lstm_step_forward_matches_composition_bitwise():
    rng = np.random.default_rng(13)
    x, hc, w_x, w_h, b = lstm_inputs(rng, batch=7, n_in=3, n=6)
    state = ad.lstm_step(*[Tensor(a) for a in (x, hc, w_x, w_h, b)])
    h_next, c_next = composed_lstm_step(*[Tensor(a) for a in (x, hc[0], hc[1], w_x, w_h, b)])
    assert state.shape == (2, 7, 6)
    assert state.value[0].flags.c_contiguous and state.value[1].flags.c_contiguous
    assert np.array_equal(state.value[0], h_next.value)
    assert np.array_equal(state.value[1], c_next.value)


def test_lstm_step_carry_keeps_masked_rows():
    # rows 1 and 3 sit out: their state carries over bitwise and their input
    # gets no gradient; rows 0 and 2 step exactly as without a carry
    rng = np.random.default_rng(14)
    values = lstm_inputs(rng, batch=4)
    carry = np.array([[1.0], [0.0], [1.0], [0.0]])
    inputs = [Tensor(a) for a in values]
    out = ad.lstm_step(*inputs, carry)
    free = ad.lstm_step(*[Tensor(a) for a in values])
    assert np.array_equal(out.value[:, [1, 3]], values[1][:, [1, 3]])
    assert np.array_equal(out.value[:, [0, 2]], free.value[:, [0, 2]])
    ad.sum_(ad.square(out) * Tensor(rng.normal(size=(2, 4, 5)))).backward()
    assert np.all(inputs[0].grad[[1, 3]] == 0.0)
    assert np.all(inputs[0].grad[[0, 2]] != 0.0)


def composed_bidirectional_lstm(x, mask, fwd, bwd) -> Tensor:
    """The masked scan as separate nodes, as ``bidirectional_scan`` built it
    before the fused scan: per element and direction one ``lstm_step`` from
    zero states, the reads of h stacked, the directions added and masked."""
    batch, length, _ = x.shape
    elements = [x[:, i] for i in range(length)]

    def directional(weights, order) -> Tensor:
        state = Tensor(np.zeros((2, batch, weights[1].shape[0])))
        outs = [None] * length
        for i in order:
            state = ad.lstm_step(elements[i], state, *weights, mask[:, i : i + 1])
            outs[i] = state[0]
        return ad.stack(outs, axis=1)

    both = directional(fwd, range(length)) + directional(bwd, range(length - 1, -1, -1))
    return Tensor(mask[..., None]) * both


def scan_inputs(rng, batch=3, length=4, m=2, n=3) -> list[np.ndarray]:
    """x, then w_x, w_h and b of the forward and of the backward cell."""
    cell = [rng.normal(size=(m, 4 * n)), rng.normal(size=(n, 4 * n)), rng.normal(size=4 * n)]
    return [rng.normal(size=(batch, length, m))] + cell + [rng.normal(size=a.shape) for a in cell]


def run_scan(scan, values, mask) -> tuple[list[Tensor], Tensor]:
    leaves = [Tensor(a) for a in values]
    return leaves, scan(leaves[0], mask, leaves[1:4], leaves[4:])


SCAN_ARGS = ["x", "fwd.w_x", "fwd.w_h", "fwd.b", "bwd.w_x", "bwd.w_h", "bwd.b"]
# row 0 skips the first element, row 1 the last and row 2 the two inner ones
SKIPPING_MASK = np.array([[0.0, 1.0, 1.0, 1.0], [1.0, 1.0, 1.0, 0.0], [1.0, 0.0, 0.0, 1.0]])


@pytest.mark.parametrize("wrt", SCAN_ARGS)
def test_bidirectional_lstm_gradient(wrt):
    rng = np.random.default_rng(21)
    values = scan_inputs(rng)
    weights = Tensor(rng.normal(size=(3, 4, 3)))
    k = SCAN_ARGS.index(wrt)

    def value(v: np.ndarray) -> float:
        inputs = list(values)
        inputs[k] = v
        return ad.sum_(run_scan(ad.bidirectional_lstm, inputs, SKIPPING_MASK)[1] * weights).item()

    leaves, out = run_scan(ad.bidirectional_lstm, values, SKIPPING_MASK)
    ad.sum_(out * weights).backward()
    fd = finite_difference(value, values[k].copy())
    assert rel_err(leaves[k].grad, fd) < 1e-6


@pytest.mark.parametrize("batch, length", [(3, 4), (5, 5), (2, 1)])
def test_bidirectional_lstm_matches_composition(batch, length):
    # values and x's gradient bitwise, with J = 1 among the shapes; the
    # weights' gradients are one matmul over all steps, so they differ from
    # the per-step sums in rounding only
    rng = np.random.default_rng(22)
    values = scan_inputs(rng, batch=batch, length=length, m=4, n=5)
    mask = (rng.random((batch, length)) < 0.6).astype(np.float64)
    weights = rng.normal(size=(batch, length, 5))
    fused, out = run_scan(ad.bidirectional_lstm, values, mask)
    composed, want = run_scan(composed_bidirectional_lstm, values, mask)
    assert np.array_equal(out.value, want.value)
    ad.sum_(out * Tensor(weights)).backward()
    ad.sum_(want * Tensor(weights)).backward()
    assert np.array_equal(fused[0].grad, composed[0].grad)
    for got, ref in zip(fused[1:], composed[1:]):
        assert rel_err(got.grad, ref.grad) < 1e-14


def test_bidirectional_lstm_masked_elements_are_silent():
    rng = np.random.default_rng(23)
    values = scan_inputs(rng)
    leaves, out = run_scan(ad.bidirectional_lstm, values, SKIPPING_MASK)
    ad.sum_(ad.square(out)).backward()
    off = SKIPPING_MASK == 0.0
    assert np.all(out.value[off] == 0.0) and np.all(out.value[~off] != 0.0)
    assert np.all(leaves[0].grad[off] == 0.0) and np.all(leaves[0].grad[~off] != 0.0)


def test_backward_does_not_mutate_consumed_gradients():
    # y feeds an add, whose backward hands both parents the same array g, and
    # a reshape, whose backward hands back a view of g: a first contribution
    # stored without a copy would alias them, and the later += would change
    # z's gradient and the add's own
    rng = np.random.default_rng(15)
    x0, w0 = rng.normal(size=(2, 3)), rng.normal(size=6)

    def build(x: Tensor, w: Tensor) -> Tensor:
        y = ad.tanh(x)
        s = y + ad.sigmoid(x)
        return ad.sum_(ad.square(s)) + ad.sum_(ad.reshape(y, (6,)) * w)

    x, w = Tensor(x0.copy()), Tensor(w0.copy())
    out = build(x, w)
    consumed: list[tuple[np.ndarray, np.ndarray]] = []
    for node in ad._toposort(out):
        if node._backward is not None:
            def spy(g, bwd=node._backward):
                consumed.append((g, g.copy()))
                return bwd(g)
            node._backward = spy
    out.backward()
    assert len(consumed) == 9
    for g, at_use in consumed:
        assert np.array_equal(g, at_use)
    fd_x = finite_difference(lambda v: build(Tensor(v), Tensor(w0)).item(), x0.copy())
    fd_w = finite_difference(lambda v: build(Tensor(x0), Tensor(v)).item(), w0.copy())
    assert rel_err(x.grad, fd_x) < 1e-6
    assert rel_err(w.grad, fd_w) < 1e-6


def test_softmax_lse_bound():
    # max <= smooth max <= max + log(n)/tau
    val = ad.softmax_lse(Tensor(np.array([1.0, 0.0])), tau=10.0).item()
    assert 1.0 <= val <= 1.0 + np.log(2) / 10.0


def test_recurrent_zero_parameters():
    cell = RecurrentCell(
        w_x=Tensor(np.zeros((3, 8))), w_h=Tensor(np.zeros((2, 8))),
        b=Tensor(np.zeros(8)), hidden_dim=2,
    )
    state = Tensor(np.zeros((2, 1, 2)))
    h2, c2 = cell.step(Tensor(np.ones((1, 3))), state, None).value
    assert np.all(h2 == 0.0)  # output gate 0.5 * tanh(0)
    assert np.all(c2 == 0.0)


def test_recurrent_zero_input_zero_bias_keeps_cell_zero():
    rng = np.random.default_rng(3)
    cell = RecurrentCell.create(rng, input_dim=3, hidden_dim=4)
    cell.b = Tensor(np.zeros(16))
    state = Tensor(np.zeros((2, 1, 4)))
    _, c2 = cell.step(Tensor(np.zeros((1, 3))), state, None).value
    assert np.all(c2 == 0.0)


def test_recurrent_gradient_through_unrolled_steps():
    rng = np.random.default_rng(11)
    cell = RecurrentCell.create(rng, input_dim=2, hidden_dim=3)
    xs = rng.normal(size=(5, 1, 2))
    w0 = cell.w_x.value.copy()

    def run(w: np.ndarray) -> float:
        cell.w_x = Tensor(w)
        state = Tensor(np.zeros((2, 1, 3)))
        for t in range(5):
            state = cell.step(Tensor(xs[t]), state, None)
        return ad.sum_(state[0]).item()

    cell.w_x = leaf = Tensor(w0.copy())
    state = Tensor(np.zeros((2, 1, 3)))
    for t in range(5):
        state = cell.step(Tensor(xs[t]), state, None)
    ad.sum_(state[0]).backward()
    fd = finite_difference(run, w0.copy())
    assert rel_err(leaf.grad, fd) < 1e-6


def test_bidirectional_single_element():
    rng = np.random.default_rng(5)
    fwd = RecurrentCell.create(rng, 3, 3)
    bwd = RecurrentCell.create(rng, 3, 3)
    x = Tensor(rng.normal(size=(1, 3)))
    out = bidirectional_scan(fwd, bwd, ad.reshape(x, (1, 1, 3)), np.ones((1, 1)))
    hf, _ = fwd.step(x, Tensor(np.zeros((2, 1, 3))), None).value
    hb, _ = bwd.step(x, Tensor(np.zeros((2, 1, 3))), None).value
    assert out.shape == (1, 1, 3)
    assert np.allclose(out.value[:, 0], hf + hb)


def test_bidirectional_reversal_symmetry():
    rng = np.random.default_rng(6)
    fwd = RecurrentCell.create(rng, 3, 3)
    bwd = RecurrentCell.create(rng, 3, 3)
    xs = rng.normal(size=(2, 4, 3))
    # row 0 takes part everywhere, row 1 only at elements 1 and 3
    mask = np.array([[1.0, 1.0, 1.0, 1.0], [0.0, 1.0, 0.0, 1.0]])
    outs = bidirectional_scan(fwd, bwd, Tensor(xs), mask)
    swapped = bidirectional_scan(bwd, fwd, Tensor(xs[:, ::-1]), mask[:, ::-1])
    for i in range(4):
        assert np.allclose(outs.value[:, i], swapped.value[:, 3 - i])


def test_bidirectional_gradient():
    rng = np.random.default_rng(8)
    fwd = RecurrentCell.create(rng, 2, 3)
    bwd = RecurrentCell.create(rng, 2, 3)
    xs = rng.normal(size=(4, 2, 2)).transpose(1, 0, 2)  # (B, J, n)
    # row 0 skips element 1, so the backward scan carries a state that
    # depends on w_h across it; row 1 skips element 0
    mask = np.array([[1.0, 0.0, 1.0, 1.0], [0.0, 1.0, 1.0, 1.0]])
    w0 = bwd.w_h.value.copy()

    def run(w: np.ndarray) -> float:
        bwd.w_h = Tensor(w)
        return ad.sum_(ad.square(bidirectional_scan(fwd, bwd, Tensor(xs), mask))).item()

    bwd.w_h = leaf = Tensor(w0.copy())
    ad.sum_(ad.square(bidirectional_scan(fwd, bwd, Tensor(xs), mask))).backward()
    fd = finite_difference(run, w0.copy())
    assert rel_err(leaf.grad, fd) < 1e-6


def test_bidirectional_empty_sequence_rejected():
    rng = np.random.default_rng(0)
    cell = RecurrentCell.create(rng, 2, 2)
    with pytest.raises(ValueError):
        bidirectional_scan(cell, cell, Tensor(np.zeros((1, 0, 2))), np.zeros((1, 0)))


def test_adam_zero_gradient_keeps_parameters():
    p = Tensor(np.array([1.0, -2.0]))
    opt = Adam({"p": p}, lr=0.1)
    p.grad = np.zeros(2)
    opt.step()
    assert np.array_equal(p.value, [1.0, -2.0])


def test_adam_first_step_is_signed_lr():
    p = Tensor(np.array([1.0, -2.0, 3.0]))
    opt = Adam({"p": p}, lr=0.05)
    p.grad = np.array([0.3, -4.0, 1e-6])
    opt.step()
    # bias-corrected first step ~= lr * sign(g)
    assert np.allclose(p.value, [1.0 - 0.05, -2.0 + 0.05, 3.0 - 0.05], atol=1e-3)


def test_adam_converges_on_quadratic_bowl():
    target = np.array([0.3, -1.2, 2.0])
    p = Tensor(np.array([5.0, 5.0, -5.0]))
    opt = Adam({"p": p}, lr=0.05)
    for _ in range(2000):
        opt.zero_grad()
        loss = ad.sum_(ad.square(p - Tensor(target)))
        loss.backward()
        opt.step()
        if np.abs(p.value - target).max() < 1e-3:
            break
    assert np.abs(p.value - target).max() < 1e-3


def test_seeded_training_is_bitwise_deterministic():
    def run() -> np.ndarray:
        rng = np.random.default_rng(42)
        net = Dense.create(rng, 3, 8, 2)
        opt = Adam(net.named("d"), lr=0.01)
        data = rng.normal(size=(16, 3))
        for _ in range(50):
            opt.zero_grad()
            out = net(Tensor(data))
            ad.sum_(ad.square(out)).backward()
            opt.step()
        return net.w1.value.copy()

    a, b = run(), run()
    assert np.array_equal(a, b)


def test_checkpoint_roundtrip_bitwise(tmp_path):
    rng = np.random.default_rng(9)
    params = {"a.w": Tensor(rng.normal(size=(3, 4))), "a.b": Tensor(rng.normal(size=4))}
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, params, {"n": 4})
    loaded, dims = load_checkpoint(path)
    assert dims == {"n": 4}
    for name in params:
        assert np.array_equal(loaded[name].value, params[name].value)
    save_checkpoint(tmp_path / "ckpt2.json", loaded, dims)
    assert (tmp_path / "ckpt.json").read_bytes() == (tmp_path / "ckpt2.json").read_bytes()


def test_no_grad_skips_recording():
    x = Tensor(np.ones(3))
    with ad.no_grad():
        y = ad.tanh(x) + x
    assert y._parents == ()
    z = ad.tanh(x)
    assert z._parents != ()
