"""Tests for the table generators."""

import dataclasses

import pytest

from repro.apps import APP_REGISTRY
from repro.experiments.runner import Scale
from repro.experiments.tables import TABLE4_PHASES, table1, table2, table3, table4


@pytest.fixture(scope="module")
def tiny():
    return Scale.tiny()


class TestTable1:
    def test_five_rows_with_paper_fields(self):
        rows = table1()
        assert len(rows) == 5
        by_name = {r["application"]: r for r in rows}
        assert by_name["Moldyn"]["object_size"] == 72
        assert by_name["Water-Spatial"]["sync"] == "b,l"
        assert by_name["Barnes-Hut"]["sync"] == "b"

    def test_paper_scale_sizes(self):
        rows = table1(Scale.paper())
        by_name = {r["application"]: r for r in rows}
        assert by_name["Barnes-Hut"]["size"] == 65536
        assert by_name["Unstructured"]["iterations"] == 40


class TestTable2:
    def test_rows_and_fields(self, tiny):
        rows = table2(tiny)
        # 3 cat-1 apps x 2 versions + 2 cat-2 apps x 3 versions = 12 rows.
        assert len(rows) == 12
        for r in rows:
            assert r.time_1p > 0 and r.time_16p > 0
            assert r.time_16p < r.time_1p  # parallelism helps
            if r.version == "original":
                assert r.reorder_time == 0.0
            else:
                assert r.reorder_time > 0

    def test_reordering_reduces_misses_for_barnes(self, tiny):
        rows = {(r.app, r.version): r for r in table2(tiny)}
        orig = rows[("Barnes-Hut", "original")]
        hil = rows[("Barnes-Hut", "hilbert")]
        assert hil.l2_misses_16p < orig.l2_misses_16p

    def test_tlb_reduction_when_array_exceeds_tlb_reach(self):
        """The Table 2 single-processor TLB effect needs a particle array
        bigger than TLB reach (it vanishes at the tiny test scale)."""
        from repro.apps import APP_REGISTRY

        scale = Scale(
            n={k: 2048 for k in APP_REGISTRY},
            iterations={k: 1 for k in APP_REGISTRY},
            hw_scale=128.0,
        )
        rows = {
            (r.app, r.version): r
            for r in table2(scale)
            if r.app == "Barnes-Hut"
        }
        orig = rows[("Barnes-Hut", "original")]
        hil = rows[("Barnes-Hut", "hilbert")]
        assert hil.tlb_misses_1p < 0.7 * orig.tlb_misses_1p


class TestTable3:
    def test_rows_and_fields(self, tiny):
        rows = table3(tiny)
        assert len(rows) == 12
        for r in rows:
            assert r.seq_time > 0
            assert r.tm_messages > 0 and r.hlrc_messages > 0
            assert r.tm_data_mbytes > 0 and r.hlrc_data_mbytes > 0

    def test_reordering_cuts_tm_traffic(self, tiny):
        rows = {(r.app, r.version): r for r in table3(tiny)}
        orig = rows[("Barnes-Hut", "original")]
        hil = rows[("Barnes-Hut", "hilbert")]
        assert hil.tm_messages < orig.tm_messages
        assert hil.tm_data_mbytes < orig.tm_data_mbytes

    def test_tm_sends_more_messages_than_hlrc_when_shared(self, tiny):
        rows = {(r.app, r.version): r for r in table3(tiny)}
        orig = rows[("Barnes-Hut", "original")]
        assert orig.tm_messages > orig.hlrc_messages


class TestTable4:
    def test_structure(self, tiny):
        out = table4(tiny)
        assert set(out) == {"original", "hilbert"}
        for phases in out.values():
            assert set(TABLE4_PHASES) <= set(phases)
            assert phases["total"] > 0

    def test_total_close_to_phase_sum(self, tiny):
        out = table4(tiny)
        for phases in out.values():
            s = sum(v for k, v in phases.items() if k != "total")
            assert s == pytest.approx(phases["total"], rel=0.05)

    def test_reordered_total_lower(self, tiny):
        out = table4(tiny)
        assert out["hilbert"]["total"] < out["original"]["total"]


class TestOneReplayPerPair:
    def test_table2_replays_each_pair_once(self, monkeypatch):
        # The Origin speedup baseline is Table 2's P=1 original cell, so
        # the 1p and 16p columns are all the replays there are.
        from repro.experiments import runner

        scale = dataclasses.replace(
            Scale.tiny(), n={k: 256 for k in APP_REGISTRY}, nprocs=4)
        replays = []
        real = runner.simulate_hardware

        def counting(trace, params, *args, **kwargs):
            replays.append((id(trace), params))  # the memo keeps traces alive
            return real(trace, params, *args, **kwargs)

        monkeypatch.setattr(runner, "simulate_hardware", counting)
        rows = table2(scale)
        assert len(replays) == len(set(replays)) == 2 * len(rows)
