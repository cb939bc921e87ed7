"""Tests for the gate-level simulator and SP probes."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import telemetry
from repro.core.example import build_paper_adder
from repro.netlist.cells import make_vega28_library
from repro.netlist.netlist import Netlist
from repro.sim.gatesim import (
    GateSimulator,
    SimulationError,
    pack_vectors,
    unpack_vectors,
)
from repro.sim.parallel_profile import profile_workload_streams
from repro.sim.probes import SPCounter, SPProfile, profile_stimulus


class TestPackUnpack:
    @given(
        values=st.lists(
            st.integers(min_value=0, max_value=0xFF), min_size=1, max_size=20
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_roundtrip(self, values):
        planes = pack_vectors(values, 8)
        assert unpack_vectors(planes, len(values)) == values

    def test_pack_shape(self):
        planes = pack_vectors([0b01, 0b10, 0b11], 2)
        assert planes == [0b101, 0b110]


class TestLayoutCache:
    """Simulators over one netlist share its cached layout (net
    numbering, DFF/input indices, compiled cycle) and nothing else."""

    def test_simulators_share_no_mutable_state(self, paper_adder):
        first = GateSimulator(paper_adder)
        second = GateSimulator(paper_adder)
        assert first._eval is second._eval
        for name in ("_dffs", "_dff_d_index", "_dff_q_index", "_input_index"):
            assert isinstance(getattr(first, name), tuple)
        assert first.state is not second.state
        assert first.values is not second.values
        first.step({"a": 3, "b": 3})
        first.step({"a": 0, "b": 0})
        assert not any(second.state)
        assert not any(second.values)
        assert first.step({"a": 0, "b": 0})["o"] == 2
        assert second.step({"a": 0, "b": 0})["o"] == 0

    def test_mutation_rebuilds_layout(self):
        netlist = build_paper_adder()
        tele = telemetry.Telemetry()
        with telemetry.use(tele):
            before = GateSimulator(netlist)
            GateSimulator(netlist)
            netlist.add_net("spare")
            after = GateSimulator(netlist)
        assert tele.counters["sim.compile.misses"] == 2
        assert tele.counters["sim.compile.hits"] == 1
        assert "spare" in after._net_index
        assert "spare" not in before._net_index
        assert len(after.values) == len(before.values) + 1


class TestPaperAdderSimulation:
    def test_two_cycle_latency(self, paper_adder):
        sim = GateSimulator(paper_adder)
        sim.step({"a": 1, "b": 2})   # operands sampled at this edge
        out = sim.step({"a": 0, "b": 0})  # sum visible combinationally
        # o registers the sum at the second edge; read after it.
        out = sim.step({"a": 0, "b": 0})
        assert out["o"] == 3

    @pytest.mark.parametrize("a", range(4))
    @pytest.mark.parametrize("b", range(4))
    def test_exhaustive_sums(self, paper_adder, a, b):
        sim = GateSimulator(paper_adder)
        sim.step({"a": a, "b": b})
        sim.step({"a": 0, "b": 0})
        out = sim.step({"a": 0, "b": 0})
        assert out["o"] == (a + b) & 0b11

    def test_pipelining_overlaps(self, paper_adder):
        sim = GateSimulator(paper_adder)
        sums = []
        pairs = [(1, 1), (2, 3), (3, 3), (0, 0), (0, 0)]
        for a, b in pairs:
            sums.append(sim.step({"a": a, "b": b})["o"])
        # Output lags input by two cycles.
        assert sums[2:] == [(1 + 1) & 3, (2 + 3) & 3, (3 + 3) & 3]

    def test_missing_input_rejected(self, paper_adder):
        sim = GateSimulator(paper_adder)
        with pytest.raises(SimulationError, match="missing"):
            sim.step({"a": 1})

    def test_unknown_input_rejected(self, paper_adder):
        sim = GateSimulator(paper_adder)
        with pytest.raises(SimulationError, match="unknown"):
            sim.step({"a": 1, "b": 1, "zz": 0})

    def test_reset_restores_init(self, paper_adder):
        sim = GateSimulator(paper_adder)
        sim.step({"a": 3, "b": 3})
        sim.reset()
        out = sim.step({"a": 0, "b": 0})
        assert out["o"] == 0
        assert sim.cycle_count == 1

    def test_bit_parallel_matches_scalar(self, paper_adder):
        pairs = [(a, b) for a in range(4) for b in range(4)]
        mask = (1 << len(pairs)) - 1
        packed = {
            "a": pack_vectors([p[0] for p in pairs], 2),
            "b": pack_vectors([p[1] for p in pairs], 2),
        }
        zero = {"a": [0, 0], "b": [0, 0]}
        sim = GateSimulator(paper_adder)
        sim.step(packed, mask=mask, packed=True)
        sim.step(zero, mask=mask, packed=True)
        sim.step(zero, mask=mask, packed=True)
        planes = sim.read_output_planes("o")
        results = unpack_vectors(planes, len(pairs))
        assert results == [(a + b) & 3 for a, b in pairs]


class TestSPProfiling:
    def test_constant_stimulus_extremes(self, paper_adder):
        profile = profile_stimulus(
            paper_adder, [{"a": 3, "b": 3}] * 50
        )
        # aq/bq outputs sit at 1 nearly always (first cycle is reset).
        assert profile.sp["aq0"] == pytest.approx(49 / 50)
        assert profile.sp["bq1"] == pytest.approx(49 / 50)
        # XOR of two equal values: 0.
        assert profile.sp["s0"] == pytest.approx(0.0)

    def test_sp_bounds(self, paper_adder):
        import random

        rng = random.Random(7)
        stim = [
            {"a": rng.randrange(4), "b": rng.randrange(4)} for _ in range(64)
        ]
        profile = profile_stimulus(paper_adder, stim)
        assert all(0.0 <= v <= 1.0 for v in profile.sp.values())
        assert profile.samples == 64

    def test_profile_merge_weighted(self, paper_adder):
        p1 = profile_stimulus(paper_adder, [{"a": 3, "b": 3}] * 10)
        p2 = profile_stimulus(paper_adder, [{"a": 0, "b": 0}] * 30)
        merged = p1.merge(p2)
        assert merged.samples == 40
        expected = (p1.sp["aq0"] * 10 + p2.sp["aq0"] * 30) / 40
        assert merged.sp["aq0"] == pytest.approx(expected)

    def test_merge_rejects_other_netlist(self, paper_adder):
        p1 = profile_stimulus(paper_adder, [{"a": 0, "b": 0}] * 2)
        other = SPProfile("different", {}, 2)
        with pytest.raises(ValueError):
            p1.merge(other)

    def test_json_roundtrip(self, paper_adder):
        p1 = profile_stimulus(paper_adder, [{"a": 1, "b": 2}] * 8)
        p2 = SPProfile.from_json(p1.to_json())
        assert p2.netlist_name == p1.netlist_name
        assert p2.samples == p1.samples
        assert p2.sp == pytest.approx(p1.sp)

    def test_operand_stream_profile(self, paper_adder):
        ops = [{"a": a & 3, "b": (a >> 2) & 3} for a in range(64)]
        profile = profile_workload_streams(paper_adder, {"w": ops}, lanes=16)
        assert profile.samples == 4 * 3 * 16  # 4 batches x 3 cycles x 16 lanes
        assert all(0.0 <= v <= 1.0 for v in profile.sp.values())

    def test_packed_counts_match_scalar_counts(self, paper_adder):
        ops = [{"a": i % 4, "b": (i * 7) % 4} for i in range(32)]
        packed = profile_workload_streams(
            paper_adder, {"w": ops}, lanes=32, drain_cycles=0
        )
        sim = GateSimulator(paper_adder)
        counter = SPCounter(paper_adder)
        sim.reset()
        for op in ops:
            sim.reset()
            # Mirror the packed run: each op gets one fresh-cycle sample.
            sim.step(op)
            counter.sample(sim)
        scalar = counter.profile()
        for name in scalar.sp:
            assert scalar.sp[name] == pytest.approx(packed.sp[name])


class TestPackedRegressions:
    """Bit-parallel mode must agree with N independent scalar runs."""

    def _init_one_design(self, paper_lib):
        """1-bit pipeline whose DFF resets to 1: o = q ^ a, q <= a."""
        nl = Netlist("initones", paper_lib)
        a = nl.add_input_port("a", 1)
        o = nl.add_output_port("o", 1)
        q = nl.add_net("q")
        nl.add_instance("DFF", {"D": a.bit(0), "Q": q}, name="dq", init=1)
        nl.add_instance("XOR2", {"A": q, "B": a.bit(0), "Y": o.bit(0)}, name="x")
        return nl

    def test_reset_broadcasts_init_one_to_every_vector(self, paper_lib):
        # Regression: reset() used to store init=1 as the integer 1,
        # which presented 1 to vector 0 and 0 to vectors 1..N-1 after a
        # packed reset.  The first cycle after reset must see Q=1 in
        # *all* lanes.
        nl = self._init_one_design(paper_lib)
        count = 12
        mask = (1 << count) - 1
        stimulus = [(i >> c) & 1 for c in range(1) for i in range(count)]
        sim = GateSimulator(nl)
        sim.reset()
        out = sim.step({"a": pack_vectors(stimulus, 1)}, mask=mask, packed=True)
        packed_first = unpack_vectors(sim.read_output_planes("o"), count)
        for vec in range(count):
            scalar = GateSimulator(nl)
            scalar.reset()
            got = scalar.step({"a": stimulus[vec]})
            assert got["o"] == packed_first[vec] == stimulus[vec] ^ 1

    def test_packed_multicycle_matches_scalar(self, paper_lib):
        import random

        nl = self._init_one_design(paper_lib)
        rng = random.Random(11)
        count, cycles = 16, 5
        mask = (1 << count) - 1
        frames = [
            [rng.randrange(2) for _ in range(count)] for _ in range(cycles)
        ]
        sim = GateSimulator(nl)
        sim.reset()
        packed_outputs = []
        for frame in frames:
            sim.step({"a": pack_vectors(frame, 1)}, mask=mask, packed=True)
            packed_outputs.append(
                unpack_vectors(sim.read_output_planes("o"), count)
            )
        for vec in range(count):
            scalar = GateSimulator(nl)
            scalar.reset()
            for cycle, frame in enumerate(frames):
                got = scalar.step({"a": frame[vec]})
                assert got["o"] == packed_outputs[cycle][vec], (vec, cycle)

    def test_packed_unknown_port_rejected_like_scalar(self, paper_adder):
        sim = GateSimulator(paper_adder)
        with pytest.raises(SimulationError) as scalar_err:
            sim.step({"a": 1, "b": 1, "zz": 0})
        sim.reset()
        with pytest.raises(SimulationError) as packed_err:
            sim.step(
                {"a": [0, 0], "b": [0, 0], "zz": [0]}, mask=1, packed=True
            )
        # Same complaint, same wording, either mode.
        assert str(packed_err.value) == str(scalar_err.value)
        assert "unknown input ports ['zz']" in str(packed_err.value)

    def test_packed_missing_port_message_parity(self, paper_adder):
        sim = GateSimulator(paper_adder)
        with pytest.raises(SimulationError) as scalar_err:
            sim.step({"a": 1})
        sim.reset()
        with pytest.raises(SimulationError) as packed_err:
            sim.step({"a": [0, 0]}, mask=1, packed=True)
        assert str(packed_err.value) == str(scalar_err.value)

    def test_unpack_rejects_out_of_range_plane_bits(self):
        # Plane bit at vector index 2, but only 2 vectors requested:
        # the planes were simulated under a wider mask than the caller
        # believes, which silently dropped data before this fix.
        with pytest.raises(ValueError, match="mask/count mismatch"):
            unpack_vectors([0b101], 2)

    def test_unpack_nonstrict_truncates(self):
        assert unpack_vectors([0b101], 2, strict=False) == [1, 0]
