"""Tests for the numpy Q-network stack, DQN pieces, and model container."""

import hashlib
import struct

import numpy as np
import pytest

from chainfolio.container import (
    ChecksumMismatchError,
    ContainerFormatError,
    UnsupportedVersionError,
    decode_container,
    encode_container,
)
from chainfolio.errors import ConfigError, DataError
from chainfolio.rlcore.network import Conv1D, Dense, QNetwork, param_shapes
from chainfolio.rlcore.replay import Batch, ReplayBuffer
from chainfolio.rlcore.training import DivergenceError, TargetTable, TrainConfig, epsilon_at, epsilon_greedy, train_step

EAM_SHAPE = (3, 1, 6)
SAM_SHAPE = (2, 2, 5)


def rand_state(rng, shape):
    return rng.normal(size=shape)


# ---------------------------------------------------------------------------
# Network construction


def test_build_qnetwork_validation():
    with pytest.raises(ConfigError):
        QNetwork("mystery", (2, 1, 8), 0)
    with pytest.raises(ConfigError):
        QNetwork("eam-1d", (2, 1, 2), 0)  # shorter than the kernel
    with pytest.raises(ConfigError):
        QNetwork("sam-4layer", (2, 1, 4), 0)  # two stacked kernels need 5
    with pytest.raises(ConfigError):
        QNetwork("eam-1d", (0, 1, 8), 0)


def test_network_action_counts_and_seeding():
    eam = QNetwork("eam-1d", EAM_SHAPE, seed=7)
    sam = QNetwork("sam-4layer", SAM_SHAPE, seed=7)
    assert eam.n_actions == 3 and sam.n_actions == 2
    twin = QNetwork("eam-1d", EAM_SHAPE, seed=7)
    assert np.array_equal(eam.params, twin.params)
    other = QNetwork("eam-1d", EAM_SHAPE, seed=8)
    assert not np.array_equal(eam.params, other.params)


@pytest.mark.parametrize("arch,shape", [("eam-1d", EAM_SHAPE), ("sam-4layer", SAM_SHAPE)])
def test_layer_parameters_are_views_of_the_network_vectors(arch, shape):
    """Each layer's w, b, dw and db lie in net.params and net.grads, in the
    order and with the shapes param_shapes lists, covering both vectors."""
    net = QNetwork(arch, shape, seed=4)
    layers = [layer for layer in net.layers if isinstance(layer, (Conv1D, Dense))]
    assert [s for layer in layers for s in (layer.w.shape, layer.b.shape)] == param_shapes(arch, shape)
    assert net.grads.shape == net.params.shape == (net.params.size,)
    offset = 0
    for layer in layers:
        for p, g in ((layer.w, layer.dw), (layer.b, layer.db)):
            assert np.shares_memory(p, net.params) and np.shares_memory(g, net.grads)
            assert np.array_equal(p.ravel(), net.params[offset : offset + p.size])
            g[...] = 1.0
            assert np.all(net.grads[offset : offset + g.size] == 1.0)
            offset += p.size
    assert offset == net.params.size
    net.zero_grads()
    assert not net.grads.any()


def test_zeroed_head_gives_zero_q(rng):
    net = QNetwork("sam-4layer", SAM_SHAPE, seed=1)
    head = net.layers[-1]
    head.w[...] = 0.0
    head.b[...] = 0.0
    q = net.forward(rand_state(rng, SAM_SHAPE)[None])[0]
    assert np.array_equal(q, np.zeros(2))


def test_batched_forward_matches_single(rng):
    net = QNetwork("eam-1d", EAM_SHAPE, seed=3)
    states = rng.normal(size=(6, *EAM_SHAPE))
    batched = net.forward(states)
    for i in range(6):
        assert np.allclose(batched[i], net.forward(states[i : i + 1])[0], atol=1e-12)


def test_forward_shape_check(rng):
    net = QNetwork("eam-1d", EAM_SHAPE, seed=3)
    with pytest.raises(DataError):
        net.forward(rng.normal(size=(2, 3, 1, 7)))
    with pytest.raises(DataError):
        net.forward(rng.normal(size=EAM_SHAPE))  # one state without its batch axis


# ---------------------------------------------------------------------------
# Gradient correctness (finite differences)


def _td_loss_grads(net, states, actions, targets):
    q_all = net.forward(states)
    q_sa = q_all[np.arange(len(actions)), actions]
    err = q_sa - targets
    loss = float(np.mean(err * err))
    d_q = np.zeros_like(q_all)
    d_q[np.arange(len(actions)), actions] = 2.0 * err / len(actions)
    net.zero_grads()
    net.backward(d_q)
    return loss, net.grads.copy()


def _td_loss_only(net, theta, states, actions, targets):
    net.params[:] = theta
    q_all = net.forward(states)
    q_sa = q_all[np.arange(len(actions)), actions]
    err = q_sa - targets
    return float(np.mean(err * err))


class ReLULayer:
    """ReLU as its own layer, keeping its mask from the forward."""

    def forward(self, x):
        self.mask = x > 0
        return np.maximum(x, 0.0)

    def backward(self, dy):
        return dy * self.mask


class FlattenLayer:
    """(B, C, m, L) to (B, m * L * C), a view of channel-last memory."""

    def forward(self, x):
        self.shape = x.shape
        return x.transpose(0, 2, 3, 1).reshape(len(x), -1)

    def backward(self, dy):
        batch, c, m, length = self.shape
        return dy.reshape(batch, m, length, c).transpose(0, 3, 1, 2)


class ChainNet(QNetwork):
    """A Q-network run as a chain of separate layers: its own conv and dense
    layers, with a ReLU layer after every one but the head and a flatten
    layer before the first dense one, each ReLU building its mask in every
    forward.  The reference for QNetwork's in-place ReLU."""

    def __init__(self, arch, input_shape, seed):
        super().__init__(arch, input_shape, seed)
        chain = []
        for layer in self.layers:
            if isinstance(layer, Dense) and isinstance(chain[-2], Conv1D):
                chain.append(FlattenLayer())
            chain += [layer, ReLULayer()]
        self.chain = chain[:-1]

    def forward(self, x):
        for layer in self.chain:
            x = layer.forward(x)
        return x

    def backward(self, d_out, input_grad=False):
        for layer in self.chain[:0:-1]:
            d_out = layer.backward(d_out)
        return self.chain[0].backward(d_out, input_grad=input_grad)

    def clone(self):
        twin = ChainNet(self.arch, self.input_shape, self.seed)
        np.copyto(twin.params, self.params)
        return twin


#: (arch, input shape) of the default signal net and of the default
#: allocation net without and with the signal channel
CHAIN_CASES = [("eam-1d", (15, 1, 32)), ("sam-4layer", (15, 1, 32)), ("sam-4layer", (16, 1, 32))]


@pytest.mark.parametrize("batch", [1, 16, 32, 33])
@pytest.mark.parametrize("arch,shape", CHAIN_CASES)
def test_forward_and_backward_match_a_chain_of_separate_layers(arch, shape, batch, rng):
    """Outputs and parameter gradients are bit-identical to the layer chain
    with its own ReLU and flatten layers."""
    net, chain = QNetwork(arch, shape, seed=3), ChainNet(arch, shape, seed=3)
    states = rng.normal(size=(batch, *shape))
    d_q = rng.normal(size=(batch, net.n_actions))
    outputs = []
    for source in (net, chain):
        outputs.append(source.forward(states))
        source.zero_grads()
        source.backward(d_q)
    assert np.array_equal(*outputs)
    assert np.array_equal(net.grads, chain.grads)


@pytest.mark.parametrize("arch,shape", CHAIN_CASES)
def test_training_matches_a_chain_of_separate_layers(arch, shape):
    """200 train_steps with target syncs leave the parameters bit-identical
    to training the layer chain on the same transitions."""
    rng = np.random.default_rng(8)
    states = rng.normal(size=(240, *shape))
    cfg = TrainConfig(gamma=0.9, lr=1e-2, batch=32, target_sync=25)
    nets = [QNetwork(arch, shape, seed=5), ChainNet(arch, shape, seed=5)]
    tables = [TargetTable(net, states, cfg.batch) for net in nets]
    buffers = [ReplayBuffer(states, 500, seed=4) for _ in nets]
    for step in range(232):
        action, reward = int(rng.integers(nets[0].n_actions)), float(rng.normal())
        for buffer in buffers:
            buffer.push(step, action, reward, False)
        if step >= cfg.batch:
            for net, table, buffer in zip(nets, tables, buffers):
                train_step(net, table, buffer.sample(cfg.batch), cfg)
                if step % cfg.target_sync == 0:
                    table.sync(net)
    assert not np.array_equal(nets[0].params, QNetwork(arch, shape, seed=5).params)
    assert np.array_equal(nets[0].params, nets[1].params)


@pytest.mark.parametrize("arch,shape", [("eam-1d", (4, 1, 9)), ("sam-4layer", (6, 1, 9)), ("sam-4layer", (6, 2, 9))])
def test_backward_without_state_gradient_keeps_parameter_gradients(arch, shape, rng):
    """QNetwork.backward skips the first layer's input gradient; every
    parameter gradient is bit-identical to a full chain through each layer."""
    net = QNetwork(arch, shape, seed=3)
    chain = ChainNet(arch, shape, seed=3)
    states = rng.normal(size=(16, *shape))
    d_q = rng.normal(size=(16, net.n_actions))
    net.forward(states)
    net.zero_grads()
    net.backward(d_q)
    chain.forward(states)
    chain.zero_grads()
    d = chain.backward(d_q, input_grad=True)
    assert d.shape == states.shape
    assert np.array_equal(net.grads, chain.grads)


@pytest.mark.parametrize("arch,shape", [("eam-1d", (2, 1, 5)), ("sam-4layer", (2, 1, 5)), ("sam-4layer", (2, 2, 5))])
def test_backprop_matches_finite_differences(arch, shape, rng):
    net = QNetwork(arch, shape, seed=11)
    batch = 3
    states = rng.normal(size=(batch, *shape))
    actions = rng.integers(net.n_actions, size=batch)
    targets = rng.normal(size=batch)
    theta = net.params.copy()
    _, analytic = _td_loss_grads(net, states, actions, targets)
    for j in range(theta.size):
        h = 1e-5 * max(1.0, abs(theta[j]))
        up, dn = theta.copy(), theta.copy()
        up[j] += h
        dn[j] -= h
        numeric = (
            _td_loss_only(net, up, states, actions, targets)
            - _td_loss_only(net, dn, states, actions, targets)
        ) / (2.0 * h)
        assert abs(analytic[j] - numeric) <= 1e-4 * max(abs(analytic[j]), abs(numeric), 1e-3)
    net.params[:] = theta


def test_allocation_net_refuses_two_row_states(rng):
    """The allocation net reads the crypto row only: a state that also
    writes out a cash row does not fit its input."""
    net = QNetwork("sam-4layer", (4, 1, 9), seed=0)
    with pytest.raises(DataError, match="incompatible"):
        net.forward(rng.normal(size=(2, 4, 2, 9)))


@pytest.mark.parametrize("arch", ["eam-1d", "sam-4layer"])
@pytest.mark.parametrize("states", [(4, 1, 9), (2, 5, 1, 9), (2, 4, 1, 8)], ids=["unbatched", "channels", "intervals"])
def test_forward_refuses_states_of_another_shape(arch, states, rng):
    """A state batch must be (B, f, 1, n) for a net built for (f, 1, n)."""
    net = QNetwork(arch, (4, 1, 9), seed=0)
    with pytest.raises(DataError, match="incompatible"):
        net.forward(rng.normal(size=states))


# ---------------------------------------------------------------------------
# Epsilon schedule and policy


def test_epsilon_at_endpoints_and_midpoint():
    cfg = TrainConfig(eps_start=1.0, eps_end=0.0, eps_decay_steps=100)
    assert epsilon_at(cfg, 0) == 1.0
    assert epsilon_at(cfg, 50) == pytest.approx(0.5, abs=1e-12)
    assert epsilon_at(cfg, 100) == 0.0
    assert epsilon_at(cfg, 10_000) == 0.0


def test_epsilon_greedy_exploit_and_ties(rng):
    assert epsilon_greedy(lambda: np.array([1.0, 3.0, 2.0]), 3, 0.0, rng) == 1
    assert epsilon_greedy(lambda: np.array([2.0, 2.0]), 2, 0.0, rng) == 0
    assert epsilon_greedy(lambda: np.array([5.0, 5.0, 5.0]), 3, 0.0, rng) == 0
    with pytest.raises(DataError):
        epsilon_greedy(lambda: np.array([]), 0, 0.0, rng)


def test_epsilon_greedy_explores_uniformly():
    rng = np.random.default_rng(123)
    q = np.array([0.0, 10.0, 0.0])
    counts = np.zeros(3)
    n = 10_000
    for _ in range(n):
        counts[epsilon_greedy(lambda: q, q.size, 1.0, rng)] += 1
    chi2 = float(np.sum((counts - n / 3) ** 2 / (n / 3)))
    assert chi2 < 13.8  # df=2 at p ~ 0.001


def test_epsilon_greedy_reproducible():
    q = np.array([0.0, 1.0, 2.0])
    a = [epsilon_greedy(lambda: q, q.size, 0.5, np.random.default_rng(9)) for _ in range(1)]
    seq1 = []
    r1 = np.random.default_rng(9)
    r2 = np.random.default_rng(9)
    for _ in range(50):
        seq1.append((epsilon_greedy(lambda: q, q.size, 0.5, r1), epsilon_greedy(lambda: q, q.size, 0.5, r2)))
    assert all(x == y for x, y in seq1)
    assert a[0] == seq1[0][0]


def test_epsilon_greedy_computes_action_values_only_when_greedy():
    """An exploring step draws a uniform action and never calls ``q_of``; the
    generator's draws are those of a policy that always has the values."""
    q = np.array([0.0, 1.0, 0.5])
    calls = []

    def q_of():
        calls.append(1)
        return q

    rng, twin = np.random.default_rng(3), np.random.default_rng(3)
    for step in range(300):
        eps = 1.0 - step / 300
        explore = twin.random() < eps
        want = int(twin.integers(3)) if explore else 1
        before = len(calls)
        assert epsilon_greedy(q_of, 3, eps, rng) == want
        assert len(calls) - before == (not explore)
    assert epsilon_greedy(q_of, 3, 0.0, rng) == 1 and epsilon_greedy(q_of, 3, 0.0, twin) == 1
    assert rng.random() == twin.random()  # eps 0 draws nothing


# ---------------------------------------------------------------------------
# Training step


def make_batch(rng, shape, n_actions, size, terminal=False, reward=None):
    """``size`` random transitions, and the array their next indices point into."""
    batch = Batch(
        states=rng.normal(size=(size, *shape)),
        actions=rng.integers(n_actions, size=size),
        rewards=rng.normal(size=size) if reward is None else np.full(size, reward),
        next_indices=np.arange(size),
        terminals=np.full(size, terminal),
    )
    return batch, rng.normal(size=(size, *shape))


def test_train_step_gamma_zero_loss_is_reward_mse(rng):
    net = QNetwork("eam-1d", EAM_SHAPE, seed=2)
    batch, next_states = make_batch(rng, EAM_SHAPE, 3, 4)
    expect = np.mean(
        [(net.forward(s[None])[0][a] - r) ** 2 for s, a, r in zip(batch.states, batch.actions, batch.rewards)]
    )
    cfg = TrainConfig(gamma=0.0, lr=1e-3)
    loss = train_step(net, TargetTable(net, next_states, 4), batch, cfg)
    assert loss == pytest.approx(float(expect), rel=1e-12)


def test_train_step_terminal_ignores_next_state(rng):
    cfg = TrainConfig(gamma=0.9, lr=1e-3)
    batch, next_states = make_batch(rng, EAM_SHAPE, 3, 4, terminal=True)
    other_next_states = rng.normal(size=next_states.shape)
    net1 = QNetwork("eam-1d", EAM_SHAPE, seed=5)
    net2 = QNetwork("eam-1d", EAM_SHAPE, seed=5)
    l1 = train_step(net1, TargetTable(net1, next_states, 4), batch, cfg)
    l2 = train_step(net2, TargetTable(net2, other_next_states, 4), batch, cfg)
    assert l1 == l2
    assert np.array_equal(net1.params, net2.params)


def test_train_step_converges_on_single_transition(rng):
    net = QNetwork("eam-1d", (2, 1, 3), seed=4)
    tr, next_states = make_batch(rng, (2, 1, 3), 1, 1, terminal=True, reward=1.0)
    table = TargetTable(net, next_states, 1)
    cfg = TrainConfig(gamma=0.5, lr=0.05)
    loss = None
    for i in range(5000):
        loss = train_step(net, table, tr, cfg)
        if loss < 1e-6:
            break
    assert loss < 1e-6
    assert net.forward(tr.states[0][None])[0][0] == pytest.approx(1.0, abs=1e-2)


def test_train_step_clips_global_gradient_norm(rng):
    net = QNetwork("eam-1d", EAM_SHAPE, seed=6)
    # enormous rewards force the unclipped gradient norm far above the cap
    batch, next_states = make_batch(rng, EAM_SHAPE, 1, 4, terminal=True, reward=1e6)
    cfg = TrainConfig(gamma=0.9, lr=1e-3, grad_clip=10.0)
    before = net.params.copy()
    train_step(net, TargetTable(net, next_states, 4), batch, cfg)
    step_norm = float(np.linalg.norm(net.params - before))
    assert step_norm == pytest.approx(cfg.lr * cfg.grad_clip, rel=1e-9)


@pytest.mark.parametrize("arch,shape", [("eam-1d", EAM_SHAPE), ("sam-4layer", SAM_SHAPE)])
def test_train_step_updates_the_parameter_vector_in_place(arch, shape, rng):
    net = QNetwork(arch, shape, seed=6)
    params, grads = net.params, net.grads
    before = params.copy()
    batch, next_states = make_batch(rng, shape, net.n_actions, 4)
    train_step(net, TargetTable(net, next_states, 4), batch, TrainConfig(gamma=0.9, lr=1e-2, grad_clip=1e12))
    assert net.params is params and net.grads is grads
    assert not np.array_equal(params, before)
    assert np.array_equal(params, before - 1e-2 * grads)
    assert all(np.shares_memory(layer.w, params) for layer in net.layers if isinstance(layer, (Conv1D, Dense)))


def test_train_step_empty_batch(rng):
    net = QNetwork("eam-1d", EAM_SHAPE, seed=6)
    batch, next_states = make_batch(rng, EAM_SHAPE, 3, 0)
    with pytest.raises(DataError):
        train_step(net, TargetTable(net, next_states, 1), batch, TrainConfig())


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_step_divergence_error(rng):
    net = QNetwork("eam-1d", EAM_SHAPE, seed=6)
    net.params.fill(1e200)
    batch, next_states = make_batch(rng, EAM_SHAPE, 3, 2)
    with pytest.raises(DivergenceError):
        train_step(net, TargetTable(net, next_states, 2), batch, TrainConfig())


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(gamma=1.0)
    with pytest.raises(ConfigError):
        TrainConfig(lr=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(eps_start=0.2, eps_end=0.5)
    with pytest.raises(ConfigError):
        TrainConfig(grad_clip=0.0)


@pytest.mark.parametrize("name", ["gamma", "lr", "eps_start", "eps_end", "grad_clip"])
def test_train_config_refuses_nan(name):
    """NaN fails every comparison, so each check is written to fail with it."""
    with pytest.raises(ConfigError):
        TrainConfig(**{name: float("nan")})


# ---------------------------------------------------------------------------
# Target-value table


def test_target_table_sync_is_bit_exact(rng):
    net = QNetwork("sam-4layer", SAM_SHAPE, seed=1)
    states = rng.normal(size=(10, *SAM_SHAPE))
    everything = np.arange(10)

    def max_q(source):  # the table's blocks: 5 states per forward
        return np.concatenate([source.forward(states[:5]).max(axis=1), source.forward(states[5:]).max(axis=1)])

    table = TargetTable(net, states, block=5)
    frozen = max_q(net)
    # fills are lazy, yet an online update before the first one does not leak in
    net.layers[-1].b[...] += 1.0
    assert np.array_equal(table.max_q(everything), frozen)
    table.sync(net)
    assert np.array_equal(table.net.params, net.params)
    synced = table.max_q(everything[::-1])[::-1]
    assert np.array_equal(synced, max_q(net))
    assert not np.array_equal(synced, frozen)
    # a later online update does not leak into the filled table either
    net.layers[-1].b[...] += 1.0
    assert np.array_equal(table.max_q(everything), synced)
    assert np.array_equal(table.max_q(np.array([7, 7, 2])), synced[[7, 7, 2]])


def test_target_table_sync_rejects_another_network():
    states = np.zeros((4, *EAM_SHAPE))
    table = TargetTable(QNetwork("eam-1d", EAM_SHAPE, seed=0), states, block=2)
    with pytest.raises(DataError):
        table.sync(QNetwork("sam-4layer", SAM_SHAPE, seed=0))
    with pytest.raises(DataError):
        table.sync(QNetwork("eam-1d", (3, 1, 8), seed=0))


def _reference_step(net, target_net, states, batch, cfg):
    """train_step with a target network forwarded over each batch's gathered
    next states: the formulation the table replaces."""
    size = len(batch.actions)
    live = 1.0 - np.asarray(batch.terminals, dtype=np.float64)
    rows = np.arange(size)
    next_q = target_net.forward(states[batch.next_indices])
    targets = batch.rewards + cfg.gamma * next_q.max(axis=1) * live
    q_all = net.forward(batch.states)
    err = q_all[rows, batch.actions] - targets
    d_q = np.zeros_like(q_all)
    d_q[rows, batch.actions] = 2.0 * err / size
    net.zero_grads()
    net.backward(d_q)
    norm = float(np.linalg.norm(net.grads))
    scale = cfg.grad_clip / norm if norm > cfg.grad_clip else 1.0
    net.params -= cfg.lr * scale * net.grads
    return float(np.mean(err * err))


# the eam-1d and sam-4layer (with signal channel) states of the default settings
DEFAULT_SHAPES = {"eam-1d": (15, 1, 32), "sam-4layer": (16, 1, 32)}


@pytest.mark.parametrize("batch_size,capacity", [(16, 1000), (32, 1000), (16, 8)])
@pytest.mark.parametrize("arch", list(DEFAULT_SHAPES))
def test_target_table_training_is_bit_identical_to_a_target_forward_every_step(arch, batch_size, capacity):
    """Losses and parameters of the table path equal, bit for bit, those of a
    cloned target network forwarded every step: over 3 syncs, with terminal
    transitions, a padded last block, and (capacity 8) sampling with replacement."""
    rng = np.random.default_rng(batch_size + capacity)
    shape = DEFAULT_SHAPES[arch]
    episode = 45  # 46 states; transition 44 is terminal
    states = rng.normal(size=(episode + 1, *shape))
    cfg = TrainConfig(gamma=0.9, lr=0.01, batch=batch_size, target_sync=20)
    net = QNetwork(arch, shape, seed=3)
    ref_net, ref_target = net.clone(), net.clone()
    table = TargetTable(net, states, cfg.batch)
    buffer = ReplayBuffer(states, capacity, seed=4)
    for step in range(70):
        j = step % episode
        buffer.push(j, int(rng.integers(net.n_actions)), float(rng.normal()), j == episode - 1)
        batch = buffer.sample(cfg.batch)
        assert train_step(net, table, batch, cfg) == _reference_step(ref_net, ref_target, states, batch, cfg)
        if (step + 1) % cfg.target_sync == 0:
            table.sync(net)
            np.copyto(ref_target.params, ref_net.params)
    assert np.array_equal(net.params, ref_net.params)


@pytest.mark.parametrize("batch_size", [16, 32])
def test_target_table_on_crypto_only_states_is_bit_identical_to_a_target_forward_every_step(batch_size):
    """As above for the default allocation net, with a run of identical
    states, which puts batches of copies of one state through both paths."""
    rng = np.random.default_rng(batch_size)
    episode = 45
    states = rng.normal(size=(episode + 1, 16, 1, 32))
    states[5:30] = states[5]
    cfg = TrainConfig(gamma=0.9, lr=0.01, batch=batch_size, target_sync=20)
    net = QNetwork("sam-4layer", DEFAULT_SHAPES["sam-4layer"], seed=3)
    ref_net, ref_target = net.clone(), net.clone()
    table = TargetTable(net, states, cfg.batch)
    buffer = ReplayBuffer(states, 1000, seed=4)
    for step in range(70):
        j = step % episode
        buffer.push(j, int(rng.integers(net.n_actions)), float(rng.normal()), j == episode - 1)
        batch = buffer.sample(cfg.batch)
        assert train_step(net, table, batch, cfg) == _reference_step(ref_net, ref_target, states, batch, cfg)
        if (step + 1) % cfg.target_sync == 0:
            table.sync(net)
            np.copyto(ref_target.params, ref_net.params)
    assert np.array_equal(net.params, ref_net.params)


# ---------------------------------------------------------------------------
# Replay buffer


def _filled(capacity: int, count: int, seed: int = 0) -> ReplayBuffer:
    """A buffer after ``count`` pushes; transition i has state value i and reward i."""
    states = np.broadcast_to(np.arange(count + 1.0)[:, None, None, None], (count + 1, 1, 1, 3))
    buf = ReplayBuffer(states, capacity=capacity, seed=seed)
    for i in range(count):
        buf.push(i, i % 3, float(i), i == count - 1)
    return buf


def test_replay_fifo_eviction():
    buf = _filled(capacity=3, count=5)
    assert len(buf) == 3
    assert sorted(buf.sample(3).rewards) == [2.0, 3.0, 4.0]


def test_replay_sampling_rules():
    buf = _filled(capacity=8, count=4, seed=1)
    full = buf.sample(4)
    assert sorted(full.rewards) == [0.0, 1.0, 2.0, 3.0]
    assert np.array_equal(full.states[:, 0, 0, 0], full.rewards)
    assert np.array_equal(full.next_indices, full.rewards + 1)
    assert np.array_equal(full.actions, full.rewards.astype(int) % 3)
    assert np.array_equal(full.terminals, full.rewards == 3.0)
    over = buf.sample(6)
    assert len(over.rewards) == 6 and set(over.rewards) <= {0.0, 1.0, 2.0, 3.0}


def test_replay_seeded_reproducibility():
    def drive(seed):
        buf = _filled(capacity=16, count=10, seed=seed)
        return [tuple(buf.sample(3).rewards) for _ in range(5)]

    assert drive(42) == drive(42)
    assert drive(42) != drive(43)


def test_replay_draws_after_wraparound_are_pinned():
    # draw i is the i-th oldest live transition; these draws were recorded
    # from the deque-based buffer this one replaced
    buf = _filled(capacity=5, count=13, seed=11)
    draws = [list(buf.sample(4).rewards) for _ in range(3)]
    assert draws == [[8.0, 12.0, 10.0, 11.0], [11.0, 8.0, 9.0, 10.0], [9.0, 11.0, 8.0, 12.0]]
    assert list(buf.sample(7).rewards) == [9.0, 8.0, 10.0, 10.0, 11.0, 12.0, 9.0]


def test_replay_validation():
    states = np.zeros((2, 1, 1, 3))
    with pytest.raises(ConfigError):
        ReplayBuffer(states, capacity=0, seed=0)
    with pytest.raises(DataError):
        ReplayBuffer(states, capacity=4, seed=0).sample(1)


# ---------------------------------------------------------------------------
# Container serialization


HEADER, BODY = {"note": [1, "two"]}, bytes(range(40))


def sealed(prefix: bytes) -> bytes:
    return prefix + hashlib.sha256(prefix).digest()


def test_container_round_trip_and_layout(tmp_path):
    path = tmp_path / "box.crlm"
    path.write_bytes(encode_container(HEADER, BODY))
    blob = path.read_bytes()
    assert decode_container(blob) == (HEADER, BODY)
    header = b'{"note":[1,"two"]}'
    assert blob == sealed(b"CRLM" + struct.pack("<HI", 3, len(header)) + header + BODY)


def test_container_writing_is_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.crlm", tmp_path / "b.crlm"
    p1.write_bytes(encode_container(HEADER, BODY))
    p2.write_bytes(encode_container(dict(HEADER), bytes(BODY)))
    assert p1.read_bytes() == p2.read_bytes()


def test_container_detects_corruption(tmp_path):
    path = tmp_path / "box.crlm"
    path.write_bytes(encode_container(HEADER, BODY))
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    with pytest.raises(ChecksumMismatchError):
        decode_container(bytes(blob))


@pytest.mark.parametrize("version", [0, 1, 2, 4, 0xFFFF])
def test_container_rejects_another_version(tmp_path, version):
    """Only version 3 is read; files written before it carry version 1."""
    path = tmp_path / "box.crlm"
    path.write_bytes(encode_container(HEADER, BODY))
    prefix = bytearray(path.read_bytes()[:-32])
    struct.pack_into("<H", prefix, 4, version)
    with pytest.raises(UnsupportedVersionError, match=f"version {version} unsupported"):
        decode_container(sealed(bytes(prefix)))


def test_container_structure_checks(tmp_path):
    path = tmp_path / "box.crlm"
    path.write_bytes(encode_container(HEADER, BODY))
    blob = path.read_bytes()
    with pytest.raises(ContainerFormatError):
        decode_container(b"JUNKJUNKJUNK")
    with pytest.raises(ChecksumMismatchError):
        decode_container(blob[:-1])
    # a header length that runs into the trailer, with a fixed-up digest
    prefix = bytearray(blob[:-32])
    struct.pack_into("<I", prefix, 6, len(prefix) - 9)
    with pytest.raises(ContainerFormatError, match="runs past"):
        decode_container(sealed(bytes(prefix)))
    for header in (b"[1]", b"{", b"\xff"):
        with pytest.raises(ContainerFormatError):
            decode_container(sealed(b"CRLM" + struct.pack("<HI", 3, len(header)) + header))
