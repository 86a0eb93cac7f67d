"""Tests for machine configuration (Table 2) and the dependence graph."""

import pytest

from repro.core.config import (
    BranchPolicy,
    IssueConfig,
    LoadPolicy,
    MachineConfig,
    SerializePolicy,
)
from repro.core.depgraph import build_depgraph, depgraph_for
from repro.trace.annotate import manual_annotation
from repro.trace.builder import TraceBuilder


class TestIssueConfig:
    def test_table2_definitions(self):
        a = IssueConfig.from_letter("A")
        assert a.load_policy == LoadPolicy.IN_ORDER
        assert a.branch_policy == BranchPolicy.IN_ORDER
        assert a.serialize_policy == SerializePolicy.SERIALIZING
        b = IssueConfig.from_letter("B")
        assert b.load_policy == LoadPolicy.WAIT_STORE_ADDR
        c = IssueConfig.from_letter("C")
        assert c.load_policy == LoadPolicy.SPECULATIVE
        assert c.branch_policy == BranchPolicy.IN_ORDER
        d = IssueConfig.from_letter("D")
        assert d.branch_policy == BranchPolicy.OUT_OF_ORDER
        assert d.serialize_policy == SerializePolicy.SERIALIZING
        e = IssueConfig.from_letter("E")
        assert e.serialize_policy == SerializePolicy.NON_SERIALIZING

    def test_all_returns_five_in_order(self):
        names = [cfg.name for cfg in IssueConfig.all()]
        assert names == ["A", "B", "C", "D", "E"]

    def test_lowercase_accepted(self):
        assert IssueConfig.from_letter("c").name == "C"

    def test_unknown_letter(self):
        with pytest.raises(ValueError):
            IssueConfig.from_letter("Z")


class TestMachineConfig:
    def test_paper_default(self):
        m = MachineConfig()
        assert m.issue.name == "C"
        assert m.issue_window == 64
        assert m.rob == 64
        assert m.fetch_buffer == 32
        assert not m.runahead

    def test_named(self):
        m = MachineConfig.named("128D")
        assert m.issue_window == 128 and m.rob == 128
        assert m.issue.name == "D"
        assert m.label == "128D"

    def test_named_with_overrides(self):
        m = MachineConfig.named("64D", rob=256)
        assert m.rob == 256
        assert m.label == "64D/rob256"

    def test_rob_cannot_be_smaller_than_window(self):
        with pytest.raises(ValueError):
            MachineConfig.named("64C", rob=32)

    def test_runahead_machine(self):
        m = MachineConfig.runahead_machine(max_runahead=512)
        assert m.runahead and m.max_runahead == 512
        assert "RAE" in m.label

    def test_label_extras(self):
        m = MachineConfig.named(
            "64D", value_prediction=True, perfect_branch=True
        )
        assert "VP" in m.label and "perfBP" in m.label

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            MachineConfig(issue_window=0, rob=0)
        with pytest.raises(ValueError):
            MachineConfig(max_runahead=0)


class TestDepGraph:
    def build(self):
        b = TraceBuilder("dep")
        b.add_alu(0x100, dst=2, src1=1)  # i0 writes r2
        b.add_load(0x104, dst=3, addr=0x8000, src1=2)  # i1 reads r2
        b.add_alu(0x108, dst=2, src1=3)  # i2 rewrites r2
        b.add_load(0x10C, dst=4, addr=0x9000, src1=2)  # i3 reads new r2
        b.add_store(0x110, addr=0x9000, data_src=4, src1=2)  # i4
        b.add_load(0x114, dst=5, addr=0x9000, src1=1)  # i5: memdep on i4
        b.add_load(0x118, dst=6, addr=0xA000, src1=1)  # i6: no memdep
        return b.build()

    def test_register_renaming(self):
        g = build_depgraph(self.build(), 0, 7)
        assert g.prod1[1] == 0  # i1's address from i0
        assert g.prod1[3] == 2  # i3 sees the *newer* r2
        assert g.prod1[0] == -1  # no producer in region

    def test_store_data_producer(self):
        g = build_depgraph(self.build(), 0, 7)
        assert g.prod3[4] == 3  # store data r4 from i3

    def test_memory_dependence(self):
        g = build_depgraph(self.build(), 0, 7)
        assert g.memdep[5] == 4  # i5 loads what i4 stored
        assert g.memdep[6] == -1
        assert g.memdep[3] == -1  # load *before* the store

    def test_region_relative(self):
        g = build_depgraph(self.build(), 2, 7)
        # Producers outside the region are -1 (architected state).
        assert g.prod1[1] == 0  # i3 in region coords: producer i2 -> 0
        assert g.prod1[0] == -1  # i2's source was written before region

    def test_zero_register_has_no_producer(self):
        b = TraceBuilder("zero")
        b.add_alu(0x100, dst=0, src1=1)
        b.add_alu(0x104, dst=2, src1=0)
        g = build_depgraph(b.build(), 0, 2)
        assert g.prod1[1] == -1

    def test_cas_is_both_load_and_store(self):
        b = TraceBuilder("atomic")
        b.add_store(0x100, addr=0x40, data_src=2, src1=1)
        b.add_cas(0x104, dst=3, addr=0x40, src1=1, data_src=2)
        b.add_load(0x108, dst=4, addr=0x40, src1=1)
        g = build_depgraph(b.build(), 0, 3)
        assert g.memdep[1] == 0  # the CAS reads the store
        assert g.memdep[2] == 1  # the load reads the CAS

    def test_caching_on_annotated(self):
        trace = self.build()
        ann = manual_annotation(trace)
        g1 = depgraph_for(ann, 0, len(trace))
        g2 = depgraph_for(ann, 0, len(trace))
        assert g1 is g2
        g3 = depgraph_for(ann, 1, len(trace))
        assert g3 is not g1

    def test_annotations_of_one_trace_share_the_graph(self):
        trace = self.build()
        first = manual_annotation(trace)
        second = manual_annotation(trace, dmiss_at=[1])
        graph = depgraph_for(first, 0, len(trace))
        assert depgraph_for(second, 0, len(trace)) is graph
        other = manual_annotation(self.build())
        assert depgraph_for(other, 0, len(trace)) is not graph
