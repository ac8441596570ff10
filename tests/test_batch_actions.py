"""Batch actions (``Loads``, ``TimedLoads``, ``Flushes``) against the
same sweep yielded one action per address.

A batch must be indistinguishable from its expansion: same simulated
times bit for bit, same RNG draws, same machine state, same counters,
same results.  :func:`unbatched` expands every batch a body yields, so
each attack can run both ways and be compared end to end.
"""

import pytest

from repro.attacks.aes_first_round import run_aes_attack
from repro.attacks.btb_gcd import random_prime_pairs, run_btb_gcd_attack
from repro.attacks.sgx_base64 import run_sgx_pem_experiment
from repro.experiments.setup import build_env
from repro.kernel import actions as act
from repro.kernel.kernel import Kernel
from repro.kernel.threads import CoroutineBody
from repro.obs.collect import publish_kernel_metrics
from repro.obs.manifest import result_digest
from repro.obs.metrics import MetricsRegistry
from repro.sched.task import Task
from repro.victims.layout import ATTACKER_LLC_ARENA

#: Batch action → the single action it stands for, per address.
SINGLE = {act.Loads: act.Load, act.TimedLoads: act.TimedLoad,
          act.Flushes: act.Flush}


def unbatched(gen):
    """``gen`` with every batch expanded into one single-address action
    per address, in order; the list of their results goes back into
    ``gen`` in one send, as the kernel does for a batch."""
    value = None
    try:
        while True:
            action = gen.send(value)
            single = SINGLE.get(type(action))
            if single is None:
                value = yield action
                continue
            value = []
            for addr in action.addrs:
                value.append((yield single(addr)))
    except StopIteration as stop:
        return stop.value


def counting(gen, seen):
    """``gen`` unchanged, tallying the addresses of the batches it yields."""
    value = None
    try:
        while True:
            action = gen.send(value)
            if isinstance(action, act.Batch):
                seen.append(len(action.addrs))
            value = yield action
    except StopIteration as stop:
        return stop.value


def _run_both_ways(monkeypatch, experiment):
    """``experiment()`` with batches kept and with batches expanded;
    per mode: the result digest, every kernel's published metrics and
    switch count, and every coroutine body's executed-action count."""
    init_kernel = Kernel.__init__
    init_body = CoroutineBody.__init__
    runs = {}
    for expand in (False, True):
        kernels, bodies, batches = [], [], []

        def kernel_init(kernel, *args, **kwargs):
            init_kernel(kernel, *args, **kwargs)
            kernels.append(kernel)

        def body_init(body, gen, expand=expand, batches=batches,
                      bodies=bodies):
            init_body(body, unbatched(gen) if expand
                      else counting(gen, batches))
            bodies.append(body)

        monkeypatch.setattr(Kernel, "__init__", kernel_init)
        monkeypatch.setattr(CoroutineBody, "__init__", body_init)
        result = experiment()
        metrics = []
        for kernel in kernels:
            registry = MetricsRegistry(enabled=True)
            publish_kernel_metrics(kernel, registry)
            metrics.append((registry.snapshot(), len(kernel.tracer.switches)))
        runs[expand] = dict(
            digest=result_digest(result), metrics=metrics,
            actions=[body.actions_executed for body in bodies],
            batches=batches)
    monkeypatch.undo()
    return runs[False], runs[True]


def _assert_equivalent(batched, expanded):
    assert batched["batches"], "the attack never yielded a batch"
    assert batched["metrics"], "the attack built no kernel"
    assert expanded["digest"] == batched["digest"]
    # Every published gauge (uarch.*, kernel.*, sim.*, cpu.*, ff.*) and
    # the switch count, kernel by kernel.
    assert batched["metrics"] == expanded["metrics"]
    # One executed action per address, batched or not.
    assert batched["actions"] == expanded["actions"]


class TestAttacksBatchedVsUnbatched:
    def test_aes_flush_reload(self, monkeypatch):
        _assert_equivalent(*_run_both_ways(monkeypatch, lambda: run_aes_attack(
            bytes(range(16)), n_traces=1, seed=1)))

    def test_sgx_prime_probe(self, monkeypatch):
        _assert_equivalent(*_run_both_ways(
            monkeypatch, lambda: run_sgx_pem_experiment(bits=256, seed=1)))

    def test_btb_gcd_llc_stallers(self, monkeypatch):
        a, b = next(iter(random_prime_pairs(1, seed=1)))
        _assert_equivalent(*_run_both_ways(
            monkeypatch, lambda: run_btb_gcd_attack(a, b, seed=1)))


# ----------------------------------------------------------------------
# The kernel's batch runners against its single-address handlers
# ----------------------------------------------------------------------
LINES = tuple(ATTACKER_LLC_ARENA + 0x2_0000 * k for k in range(20)) \
    + tuple(0x60_0000 + 64 * k for k in range(4))


def _ctx(seed=0):
    env = build_env(seed=seed)
    task = Task("attacker", body=CoroutineBody(iter(())))
    return env, env.kernel._ctx(0, task)


@pytest.mark.parametrize("batch_cls", [act.Loads, act.TimedLoads,
                                       act.Flushes])
def test_runner_matches_single_actions_bit_for_bit(batch_cls):
    addrs = LINES * 2
    env_a, batched = _ctx()
    env_b, single = _ctx()
    results = []
    t_batch, done = batched.run_batch(batch_cls(addrs), 0, 1234.5,
                                      float("inf"), results)
    t_single = 1234.5
    want = []
    for addr in addrs:
        cost, result, block = single.exec_action(SINGLE[batch_cls](addr),
                                                 t_single)
        assert block is None
        t_single += cost
        want.append(result)
    assert done == len(addrs)
    assert t_batch == t_single  # exact: costs are added one by one
    assert results == want
    h_a, h_b = env_a.machine.hierarchy, env_b.machine.hierarchy
    for a, b in zip([h_a.llc, *h_a.l1d, *h_a.l2],
                    [h_b.llc, *h_b.l1d, *h_b.l2]):
        assert list(a.occupied_sets()) == list(b.occupied_sets())
        assert (a.hits, a.misses, a.evictions, a.version) \
            == (b.hits, b.misses, b.evictions, b.version)
    # Same jitter draws: both streams are at the same point.
    assert env_a.kernel.rng.stream("timed_load").random() \
        == env_b.kernel.rng.stream("timed_load").random()


def test_runner_stops_at_the_first_address_past_the_deadline():
    _, ctx = _ctx()
    addrs = LINES
    results = []
    # Learn the per-address times, then cut the window part-way.
    _, probe_ctx = _ctx()
    times = [0.0]
    for addr in addrs:
        cost, _, _ = probe_ctx.exec_action(act.Load(addr), times[-1])
        times.append(times[-1] + cost)
    deadline = (times[5] + times[6]) / 2  # inside address 5
    t, i = ctx.run_batch(act.Loads(addrs), 0, 0.0, deadline, results)
    assert i == 6  # address 5 started before the deadline and finished
    assert t == times[6] and t > deadline
    assert len(results) == 6
    # Resuming from the cursor runs the rest, in order.
    t, i = ctx.run_batch(act.Loads(addrs), i, t, float("inf"), results)
    assert i == len(addrs) and t == times[-1]


# ----------------------------------------------------------------------
# CoroutineBody's cursor
# ----------------------------------------------------------------------
class FakeCtx:
    """Every address costs 10 ns and echoes itself as the result."""

    def __init__(self):
        self.ran = []

    def exec_action(self, action, now):
        self.ran.append(("single", action))
        return 10.0, "single", None

    def run_batch(self, batch, i, t, deadline, results):
        while i < len(batch.addrs) and t < deadline:
            self.ran.append(("addr", batch.addrs[i]))
            results.append(batch.addrs[i])
            t += 10.0
            i += 1
        return t, i


class TestCoroutineBodyBatches:
    def _body(self, received):
        def gen():
            received.append((yield act.Compute(1.0)))
            received.append((yield act.Loads((1, 2, 3, 4, 5))))
            received.append((yield act.Compute(1.0)))

        return CoroutineBody(gen())

    def test_deadline_inside_a_batch_overshoots_by_one_address(self):
        received = []
        body = self._body(received)
        outcome = body.run(FakeCtx(), 0.0, 25.0)
        # Compute [0, 10), addresses 1 [10, 20) and 2 [20, 30): address
        # 2 started before the deadline, so it runs to completion.
        assert outcome.end == 30.0 and not outcome.exited
        assert body.actions_executed == 3
        assert received == ["single"]  # the batch has not finished

    def test_resumes_at_the_next_address(self):
        received = []
        body = self._body(received)
        ctx = FakeCtx()
        body.run(ctx, 0.0, 25.0)
        body.run(ctx, 30.0, 45.0)  # addresses 3 and 4
        assert body.actions_executed == 5
        outcome = body.run(ctx, 50.0, 1e9)
        assert outcome.exited
        addrs = [item for kind, item in ctx.ran if kind == "addr"]
        assert addrs == [1, 2, 3, 4, 5]  # each address once, in order
        assert received == ["single", [1, 2, 3, 4, 5], "single"]

    def test_actions_executed_counts_addresses(self):
        body = self._body([])
        outcome = body.run(FakeCtx(), 0.0, 1e9)
        assert outcome.exited
        assert body.actions_executed == 1 + 5 + 1

    def test_batch_finishing_past_the_deadline_sends_results_next_window(self):
        received = []
        body = self._body(received)
        ctx = FakeCtx()
        outcome = body.run(ctx, 0.0, 55.0)  # the batch ends at 60
        assert outcome.end == 60.0
        assert received == ["single"]
        body.run(ctx, 60.0, 1e9)
        assert received == ["single", [1, 2, 3, 4, 5], "single"]

    def test_empty_batch_sends_an_empty_list(self):
        received = []

        def gen():
            received.append((yield act.Flushes(())))

        body = CoroutineBody(gen())
        assert body.run(FakeCtx(), 0.0, 1e9).exited
        assert received == [[]] and body.actions_executed == 0
