"""Tests for the bounded flow table (repro.analysis.flow).

The load-bearing property is the *batch order*: whatever the eviction
knobs do mid-trace, the sorted results come out as documented — UDP/ICMP
flows finished by the 60 s gap rule in occurrence order, then TCP, UDP
and ICMP flows in creation order — except where a turned-down knob
genuinely splits a connection, which must be counted as
``early_eviction`` rather than silently diverging.
"""

from __future__ import annotations

import random

import pytest

from repro.analysis.flow import (
    PHASE_OCCURRENCE,
    PHASE_TCP,
    PHASE_UDP,
    FlowTable,
)
from repro.analysis.conn import ConnState
from repro.gen.packetize import realize_session
from repro.gen.session import AppEvent, Dir, TcpSession
from repro.net.icmp import ICMP_ECHO_REQUEST
from repro.net.packet import decode_packet, make_icmp_packet, make_udp_packet

_A, _B, _C, _D = 0x0A000001, 0x0A000002, 0x0A000003, 0x0A000004


def _udp(ts, src=_A, dst=_B, sport=40000, dport=9999, payload=b"x"):
    return decode_packet(
        make_udp_packet(ts, 1, 2, src, dst, sport, dport, payload)
    )


def _icmp(ts, src=_A, dst=_B):
    return decode_packet(
        make_icmp_packet(ts, 1, 2, src, dst, ICMP_ECHO_REQUEST, ident=7)
    )


def _tcp_session_packets(start=0.0, sport=44000, dport=80, **kwargs):
    base = dict(
        client_ip=_A, server_ip=_B, client_mac=1, server_mac=2,
        sport=sport, dport=dport, start=start, rtt=0.001, loss_rate=0.0,
        events=[AppEvent(0.0, Dir.C2S, b"GET /\r\n\r\n")],
    )
    base.update(kwargs)
    return [decode_packet(p) for p in realize_session(TcpSession(**base), random.Random(4))]


def _records(packets, **knobs):
    """Every record of ``packets`` in dispatch order, and the table."""
    table = FlowTable(collect_payload=True, **knobs)
    for pkt in packets:
        table.process(pkt)
    return [result.record for result in table.flush()], table


def _order(records):
    return [(record.proto, record.first_ts) for record in records]


class TestBatchParity:
    def test_tcp_session_identical_records(self):
        packets = _tcp_session_packets()
        records, table = _records(packets)
        assert len(records) == 1
        record = records[0]
        assert (record.orig_ip, record.orig_port) == (_A, 44000)
        assert (record.resp_ip, record.resp_port) == (_B, 80)
        assert record.state is ConnState.SF
        assert record.total_pkts == len(packets)
        assert table.early_eviction == 0
        assert table.flow_overflow == 0

    def test_udp_gap_eviction_matches_batch_order(self):
        # Two same-key UDP bursts 120s apart wrapped in other traffic:
        # the gap rule finishes the first burst at the second's arrival
        # (occurrence order), ahead of every end-of-trace flow.  The
        # t=120.5 sweep evicts the idle C->D flow early; its key's next
        # packet (past the gap) promotes it into the occurrence phase.
        packets = [
            _udp(0.0),
            _udp(1.0, src=_C, dst=_D, sport=41000),
            _icmp(2.0, src=_C),
            _udp(120.5),  # same key as t=0.0, gap > 60s
            _udp(121.0, src=_C, dst=_D, sport=41000),
        ]
        records, table = _records(packets)
        assert _order(records) == [
            ("udp", 0.0), ("udp", 1.0),       # phase 0, occurrence order
            ("udp", 120.5), ("udp", 121.0),   # UDP, creation order
            ("icmp", 2.0),                    # ICMP
        ]
        assert table.early_eviction == 0

    def test_mixed_protocol_phase_order(self):
        packets = [
            _udp(0.0),
            *_tcp_session_packets(start=0.5),
            _icmp(1.0),
            _udp(1.5, src=_C, sport=41000),
        ]
        records, _ = _records(packets)
        # End-of-trace phases: TCP first, then UDP, then ICMP.
        assert _order(records) == [
            ("tcp", 0.5), ("udp", 0.0), ("udp", 1.5), ("icmp", 1.0)
        ]


class TestTimeouts:
    def test_idle_timeout_evicts_tcp(self):
        packets = _tcp_session_packets()
        table = FlowTable(idle_timeout=10.0)
        for pkt in packets:
            table.process(pkt)
        assert table.live_flows == 1
        table.process(_udp(packets[-1].ts + 11.0, src=_C, sport=41000))
        # The sweep at the UDP packet evicted the idle TCP flow.
        assert table.live_flows == 1  # just the fresh UDP flow
        assert table.pending_results == 1
        assert table._pending[0].phase == PHASE_TCP

    def test_idle_vs_hard_timeout_eviction_ordering(self):
        # Flow 1 stays active (hard timeout fires); flow 2 goes idle
        # first.  Idle sweeps run before the hard-timeout sweep, so the
        # idle victim must be emitted first even though flow 1 is older.
        table = FlowTable(idle_timeout=20.0, hard_timeout=50.0)
        table.process(_udp(0.0))  # flow 1 (udp key A->B)
        t = 0.0
        table.process(_tcp_session_packets(start=1.0)[0])  # flow 2, then idle
        for t in (10.0, 30.0, 45.0):
            table.process(_udp(t))  # keeps flow 1 active
        # t=45 sweep: TCP flow idle > 20s -> evicted by idle timeout.
        assert table.pending_results == 1
        assert table._pending[0].phase == PHASE_TCP
        table.process(_udp(55.0))
        # t=55 sweep: flow 1 is 55s old -> hard timeout despite activity.
        phases = [p.phase for p in table._pending]
        assert phases == [PHASE_TCP, PHASE_UDP]

    def test_regressed_timestamp_keeps_the_sweep_exact(self):
        # A packet running backwards leaves a flow with an older last_ts
        # behind the recency front.  Once the front moves on, that flow
        # is the one the sweep must evict — at the very next packet,
        # even though every deadline seen before the regression lies
        # later.
        table = FlowTable()
        table.process(_udp(0.0))                          # P
        table.process(_udp(10.0, src=_C, sport=41000))    # Q
        table.process(_udp(3.0))                          # P, regressed
        table.process(_udp(62.0, src=_D, sport=42000))    # R; sweep stops at Q
        assert table.pending_results == 0
        table.process(_udp(66.0, src=_C, sport=41000))    # Q moves behind P
        evicted = [p.result.record for p in table._pending]
        assert [(r.orig_ip, r.last_ts) for r in evicted] == [(_A, 3.0)]
        assert table.live_flows == 2

    def test_hard_timeout_sweeps_in_creation_order(self):
        table = FlowTable(hard_timeout=30.0)
        table.process(_udp(0.0))
        table.process(_udp(15.0, src=_C, sport=41000))
        # Keep both active so only the hard timeout can fire.
        table.process(_udp(20.0))
        table.process(_udp(25.0, src=_C, sport=41000))
        table.process(_udp(40.0, src=_D, sport=42000))
        # Only the t=0 flow is over-age at t=40; the t=15 flow follows later.
        assert [p.result.record.first_ts for p in table._pending] == [0.0]
        table.process(_udp(50.0, src=_D, sport=42000))
        assert [p.result.record.first_ts for p in table._pending] == [0.0, 15.0]


class TestOverflow:
    def test_overflow_evicts_lru_and_counts(self):
        table = FlowTable(max_flows=2)
        table.process(_udp(0.0))
        table.process(_udp(1.0, src=_C, sport=41000))
        table.process(_udp(2.0))  # touch flow 1: flow 2 becomes LRU
        table.process(_udp(3.0, src=_D, sport=42000))  # forces an eviction
        assert table.flow_overflow == 1
        assert table.live_flows == 2
        evicted = table._pending[0].result.record
        assert (evicted.orig_ip, evicted.orig_port) == (_C, 41000)

    def test_overflow_records_all_conserved(self):
        packets = [_udp(float(i), src=_A + i, sport=40000 + i) for i in range(6)]
        records, table = _records(packets, max_flows=2)
        assert len(records) == 6
        assert table.flow_overflow == 4

    def test_max_flows_must_be_positive(self):
        with pytest.raises(ValueError):
            FlowTable(max_flows=0)


class TestTombstones:
    def test_promotion_restores_batch_order(self):
        # Capacity forces flow A out early; a same-key packet past the
        # gap threshold proves the gap rule would have finished it at
        # that instant, so A's result is promoted into the occurrence
        # phase, ahead of B and A's successor (UDP creation order).
        packets = [
            _udp(0.0),                      # flow A
            _udp(1.0, src=_C, sport=41000),  # flow B evicts A (capacity)
            _udp(120.0),                     # same key as A, gap > 60s
        ]
        records, table = _records(packets, max_flows=1)
        assert table.early_eviction == 0
        assert table.promotions  # A was promoted, not split
        assert _order(records) == [("udp", 0.0), ("udp", 1.0), ("udp", 120.0)]

    def test_split_within_gap_counts_early_eviction(self):
        packets = [
            _udp(0.0),                      # flow A
            _udp(1.0, src=_C, sport=41000),  # evicts A (capacity)
            _udp(30.0),                      # same key, inside the gap
        ]
        records, table = _records(packets, max_flows=1)
        assert table.early_eviction == 1
        # The connection was genuinely split: A's 0.0 and 30.0 packets
        # land in two records instead of one.
        assert _order(records) == [("udp", 0.0), ("udp", 1.0), ("udp", 30.0)]

    def test_tcp_reuse_after_eviction_is_always_a_split(self):
        first = _tcp_session_packets()
        again = _tcp_session_packets(start=200.0)
        table = FlowTable(idle_timeout=50.0)
        for pkt in first:
            table.process(pkt)
        table.process(_udp(first[-1].ts + 60.0, src=_C, sport=41000))  # sweep
        for pkt in again:
            table.process(pkt)
        assert table.early_eviction == 1


class TestDrain:
    def test_drain_withholds_tombstone_watched_results(self):
        table = FlowTable(max_flows=1)
        table.process(_udp(0.0))
        table.process(_udp(1.0, src=_C, sport=41000))  # evicts flow A
        # A's sort key may still be promoted: not safe to flush.
        assert table.drain() == []
        assert table.pending_results == 1
        table.process(_udp(120.0))  # resolves A's tombstone (promotion)
        drained = table.drain()
        assert [d.result.record.first_ts for d in drained] == [0.0]
        # Admitting the new same-key flow evicted B (capacity), so B's
        # result is now the one being watched.
        assert table.pending_results == 1

    def test_drain_releases_gap_evictions_immediately(self):
        table = FlowTable()
        table.process(_udp(0.0))
        table.process(_udp(120.0))  # lazy gap eviction, phase 0
        drained = table.drain()
        assert len(drained) == 1
        assert drained[0].phase == PHASE_OCCURRENCE
