"""Property tests of the simulator's invariants.

The engine, the links and the packet bookkeeping are checked on random
inputs: event order (with lazy cancellation), the exclusive horizon,
per-link FIFO delivery per traffic class, packet conservation in a small
random network, per-simulation packet ids and the closed-form p95.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.routing import shortest_path_routing
from repro.simulator import (
    DropTailQueue,
    EventQueue,
    Link,
    NetworkSimulation,
    Packet,
    PriorityDropTailQueue,
    SimulationConfig,
    Simulator,
)
from repro.simulator.metrics import percentile_95
from repro.topology import Topology
from repro.traffic import TrafficMatrix

times = st.floats(0.0, 5.0, allow_nan=False)
#: A few distinct values, so that many events are simultaneous.
tied_times = st.sampled_from([0.0, 0.25, 1.0, 2.5])


class TestEventOrder:
    @given(st.lists(st.tuples(st.one_of(times, tied_times),
                              st.one_of(st.none(), st.integers(0, 39)),
                              st.booleans()),
                    min_size=1, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_times_never_decrease_with_lazy_cancels(self, plan):
        """Events run in (time, scheduling order); a cancelled event never runs.

        Each entry is ``(time, target, cancel_now)``: the event is cancelled
        before the run when ``cancel_now``, and it cancels event ``target``
        when it executes.
        """
        sim = Simulator()
        executed = []
        handles = []
        cancelled_pending = set()

        def fire(index, target):
            executed.append((sim.now, index))
            if target is not None and target < len(handles):
                if target not in {i for _, i in executed}:
                    cancelled_pending.add(target)
                handles[target].cancel()

        for index, (time, target, _) in enumerate(plan):
            handles.append(sim._queue.push(time, lambda i=index, t=target: fire(i, t)))
        for index, (_, _, cancel_now) in enumerate(plan):
            if cancel_now:
                handles[index].cancel()
                cancelled_pending.add(index)
        sim.run()

        assert executed == sorted(executed)
        ran = {index for _, index in executed}
        assert not ran & cancelled_pending
        assert ran | cancelled_pending == set(range(len(plan)))
        assert sim.events_processed == len(executed)
        assert sim.pending_events == 0

    @given(st.lists(st.one_of(times, tied_times), max_size=40),
           st.lists(st.integers(0, 39), max_size=10))
    @settings(max_examples=60, deadline=None)
    def test_event_queue_pops_in_order_with_cancels(self, event_times, cancels):
        queue = EventQueue()
        handles = [queue.push(time, lambda: None) for time in event_times]
        cancelled = {index for index in cancels if index < len(handles)}
        for index in cancelled:
            handles[index].cancel()
        assert len(queue) == len(handles) - len(cancelled)
        popped = []
        while (event := queue.pop()) is not None:
            popped.append((event.time, event.sequence))
        expected = sorted((handles[i].time, handles[i].sequence)
                          for i in range(len(handles)) if i not in cancelled)
        assert popped == expected
        assert len(queue) == 0

    @given(st.lists(tied_times, min_size=1, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_simultaneous_events_pop_in_scheduling_order(self, event_times):
        sim = Simulator()
        order = []
        for index, time in enumerate(event_times):
            sim.schedule_at(time, lambda i=index: order.append(i))
        sim.run()
        assert order == sorted(range(len(event_times)),
                               key=lambda i: (event_times[i], i))

    @given(st.lists(st.one_of(times, tied_times), max_size=40),
           st.one_of(times, tied_times),
           st.one_of(st.none(), st.integers(0, 40)))
    @settings(max_examples=80, deadline=None)
    def test_horizon_is_exclusive(self, event_times, until, max_events):
        sim = Simulator()
        executed = []
        for time in event_times:
            sim.schedule_at(time, lambda: executed.append(sim.now))
        sim.run(until=until, max_events=max_events)

        before = sorted(t for t in event_times if t < until)
        expected = before if max_events is None else before[:max_events]
        assert executed == expected
        assert all(t < until for t in executed)
        assert sim.events_processed == len(expected)
        assert sim.pending_events == len(event_times) - len(expected)
        # The clock reaches the horizon unless max_events stopped the run
        # with a live event still before it.
        stopped_early = len(expected) < len(before)
        if stopped_early:
            assert sim.now == (expected[-1] if expected else 0.0)
        else:
            assert sim.now == until

    def test_count_survives_a_raising_callback(self):
        sim = Simulator()

        def boom():
            raise RuntimeError("boom")

        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, boom)
        sim.schedule(3.0, lambda: None)
        try:
            sim.run()
        except RuntimeError:
            pass
        assert sim.events_processed == 1
        assert sim.now == 2.0
        sim.run()
        assert sim.events_processed == 2


class TestLinkFifo:
    @given(st.lists(st.tuples(times, st.floats(1.0, 16000.0), st.integers(0, 1)),
                    min_size=1, max_size=30),
           st.integers(1, 4), st.floats(0.0, 0.5), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_fifo_per_priority_class(self, arrivals, queue_size, propagation, priority):
        """Accepted packets of one class leave the link in arrival order."""
        sim = Simulator()
        queue = (PriorityDropTailQueue(queue_size, num_classes=2) if priority
                 else DropTailQueue(queue_size))
        delivered = []
        link = Link(sim, 0, 1, 8000.0, propagation, queue_size,
                    delivered.append, queue=queue)
        accepted = []

        def send(packet):
            if link.send(packet):
                accepted.append(packet)

        for index, (time, size, cls) in enumerate(arrivals):
            packet = Packet(index, (0, 1), size, time, priority=cls)
            sim.schedule_at(time, lambda p=packet: send(p))
        sim.run()

        def class_of(packet):
            return packet.priority if priority else 0

        for cls in (0, 1):
            assert ([p.packet_id for p in delivered if class_of(p) == cls]
                    == [p.packet_id for p in accepted if class_of(p) == cls])
        assert len(delivered) == len(accepted)
        assert not link.busy and not link._in_flight


class _Tally(NetworkSimulation):
    """Records every injected and every delivered packet."""

    def __init__(self, *args, **kwargs):
        self.injected = []
        self.delivered = []
        super().__init__(*args, **kwargs)

    def _inject(self, packet):
        self.injected.append(packet)
        super()._inject(packet)

    def _handle_delivery(self, packet):
        self.delivered.append(packet)
        super()._handle_delivery(packet)

    def in_flight(self):
        packets = []
        for link in self._links.values():
            packets.extend(link.queue.peek_all())
            if link.busy:
                packets.append(link._transmitting)
            packets.extend(link._in_flight)
        return packets


def _random_network(num_nodes, queue_sizes, priority_nodes, demands):
    topology = Topology("random-ring")
    for node in range(num_nodes):
        topology.add_node(node, queue_size=queue_sizes[node],
                          scheduling="priority" if node in priority_nodes else "fifo")
    for node in range(num_nodes):
        topology.add_link(node, (node + 1) % num_nodes, capacity=1e6,
                          propagation_delay=0.002, bidirectional=True)
    traffic = TrafficMatrix.zeros(num_nodes)
    for (source, destination), rate in demands.items():
        if source % num_nodes != destination % num_nodes:
            traffic.set_demand(source % num_nodes, destination % num_nodes, rate)
    return topology, shortest_path_routing(topology), traffic


class TestPacketConservation:
    @given(num_nodes=st.integers(3, 5),
           queue_sizes=st.lists(st.integers(1, 4), min_size=5, max_size=5),
           priority_nodes=st.sets(st.integers(0, 4)),
           demands=st.dictionaries(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                                   st.floats(1e5, 1.5e6), min_size=1, max_size=8),
           cut=st.floats(0.0, 0.2), seed=st.integers(0, 2 ** 16))
    @settings(max_examples=25, deadline=None)
    def test_injected_equals_delivered_dropped_in_flight(
            self, num_nodes, queue_sizes, priority_nodes, demands, cut, seed):
        topology, routing, traffic = _random_network(
            num_nodes, queue_sizes, priority_nodes, demands)
        if not traffic.nonzero_pairs():
            return
        priorities = {pair: index % 2
                      for index, pair in enumerate(traffic.nonzero_pairs())}
        net = _Tally(topology, routing, traffic,
                     SimulationConfig(duration=0.2, warmup=0.0, seed=seed,
                                      flow_priorities=priorities))
        for source in net._make_sources():
            source.start(stop_time=0.2)

        def check():
            dropped = [p for p in net.injected if p.dropped]
            in_flight = net.in_flight()
            for flow in traffic.nonzero_pairs():
                ids = [[p.packet_id for p in group if p.flow == flow]
                       for group in (net.injected, net.delivered, dropped, in_flight)]
                injected, rest = ids[0], ids[1] + ids[2] + ids[3]
                assert sorted(injected) == sorted(rest)
            return in_flight

        net.simulator.run(until=cut)
        check()
        net.simulator.run()
        assert check() == []


class TestPacketIds:
    def test_ids_start_at_zero_in_every_simulation(self):
        topology, routing, traffic = _random_network(
            4, [2, 3, 2, 3], set(), {(0, 2): 6e5, (1, 3): 4e5, (3, 0): 5e5})
        config = SimulationConfig(duration=0.1, warmup=0.02, seed=7)
        runs = []
        for _ in range(2):
            net = _Tally(topology, routing, traffic, config)
            net.run()
            runs.append([packet.packet_id for packet in net.injected])
        assert runs[0] == runs[1] == list(range(len(runs[0])))
        assert runs[0]


class TestPercentile95:
    @given(st.lists(st.floats(0.0, 1e6, allow_nan=False), min_size=1, max_size=300))
    @example([0.125])
    @example([0.5, 0.25])
    # n = 11 puts the virtual index at exactly 9.5, where numpy takes the
    # ``b - d*(1-t)`` side; here the two sides round differently.
    @example([0.0] * 9 + [0.1, 0.7])
    @settings(max_examples=300, deadline=None)
    def test_matches_numpy_bit_for_bit(self, values):
        assert percentile_95(sorted(values)) == np.percentile(values, 95)
