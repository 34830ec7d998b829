"""The CAM half of the dispatch TLB (§4.2), driven through DispatchTLB.

Each TLB keeps its CAM itself, as an entry-indexed key list with ``None``
for a free entry.  These are the CAM's properties at that level: at most one
valid entry matches any key (a multi-match would be a wired-OR clash in
silicon), a new key takes the lowest free entry, a full TLB replaces FIFO
over the entry indices, and a checkpoint that breaks any of this or names
an entry out of range is refused.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.tlb import DispatchTLB, IDTuple
from repro.errors import CheckpointError, TLBError
from test_tlb import _ReferenceTLB

A, B, C, D = (IDTuple(pid=1, cid=cid) for cid in range(4))


class TestCAM:
    def test_match_empty(self):
        tlb = DispatchTLB(entries=4)
        assert tlb.lookup(A) is None
        assert tlb.keys == [None] * 4

    def test_write_and_match(self):
        tlb = DispatchTLB(entries=4)
        tlb.insert(A, 42)
        assert tlb.keys.count(A) == 1
        assert tlb.ram[tlb.keys.index(A)] == 42
        assert tlb.lookup(A) == 42

    def test_rewrite_entry_replaces_key(self):
        """FIFO replacement rewrites the entry under the hand."""
        tlb = DispatchTLB(entries=2)
        tlb.insert(A, 0)
        tlb.insert(B, 1)
        assert tlb.insert(C, 2) == A
        assert tlb.keys == [C, B]
        assert tlb.lookup(A) is None
        assert tlb.lookup(C) == 2

    def test_duplicate_key_rejected(self):
        """Two valid entries matching one key would be a wired-OR clash:
        re-inserting a key rewrites its one entry, and a checkpoint that
        holds a key in two entries is refused before anything changes."""
        tlb = DispatchTLB(entries=4)
        tlb.insert(A, 0)
        tlb.insert(A, 3)
        assert tlb.keys == [A, None, None, None]
        assert tlb.ram[0] == 3
        state = tlb.snapshot()
        state["cam"]["keys"][2] = list(A)
        with pytest.raises(CheckpointError, match=r"DispatchTLB\.cam\.keys\[2\]"):
            tlb.restore(state)
        assert tlb.keys == [A, None, None, None]
        assert tlb.contents() == {A: 3}

    def test_rewriting_same_key_same_entry_ok(self):
        tlb = DispatchTLB(entries=4)
        assert tlb.insert(A, 7) is None
        assert tlb.insert(A, 7) is None
        assert tlb.keys == [A, None, None, None]
        assert (tlb.insertions, tlb.evictions) == (2, 0)

    def test_invalidate_entry(self):
        tlb = DispatchTLB(entries=4)
        tlb.insert(A, 0)
        tlb.insert(B, 5)
        assert tlb.remove(B)
        assert tlb.keys == [A, None, None, None]
        assert tlb.lookup(B) is None
        assert not tlb.remove(B)

    def test_free_entry_lowest_first(self):
        tlb = DispatchTLB(entries=3)
        tlb.insert(A, 0)
        tlb.insert(B, 1)
        tlb.remove(A)
        tlb.insert(C, 2)
        assert tlb.keys == [C, B, None]

    def test_free_entry_none_when_full(self):
        """A full TLB has no free entry: the next key evicts FIFO."""
        tlb = DispatchTLB(entries=2)
        tlb.insert(A, 0)
        tlb.insert(B, 1)
        assert tlb.insert(C, 0) == A
        assert tlb.insert(D, 0) == B
        assert tlb.keys == [C, D]
        assert tlb.evictions == 2

    def test_occupied(self):
        tlb = DispatchTLB(entries=4)
        for value, k in enumerate((A, B, C, D)):
            tlb.insert(k, value)
        tlb.remove(B)
        tlb.remove(C)
        assert tlb.occupied == 2
        assert tlb.keys == [A, None, None, D]

    def test_entry_bounds(self):
        """A checkpoint naming an entry out of range is refused."""
        tlb = DispatchTLB(entries=2)
        for hand in (2, -1):
            state = tlb.snapshot()
            state["fifo_hand"] = hand
            with pytest.raises(CheckpointError, match=r"DispatchTLB\.fifo_hand"):
                tlb.restore(state)
        state = tlb.snapshot()
        state["cam"]["keys"].append(list(A))
        with pytest.raises(CheckpointError, match=r"DispatchTLB\.cam"):
            tlb.restore(state)
        assert tlb.keys == [None, None]

    def test_needs_positive_capacity(self):
        for entries in (0, -1):
            with pytest.raises(TLBError):
                DispatchTLB(entries=entries)


class TestCAMModel:
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["insert", "remove"]),
                st.integers(min_value=0, max_value=15),
                st.integers(min_value=0, max_value=3),
            ),
            max_size=40,
        ),
        entries=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=60)
    def test_matches_dict_model(self, ops, entries):
        """The CAM behaves like a dict from key to entry index: after each
        insert or remove, every valid key sits in the one entry the naive
        model puts it in, no key is valid twice, and the probe dict holds
        exactly the valid keys."""
        tlb = DispatchTLB(entries=entries)
        model = _ReferenceTLB(entries)
        for op, cid, value in ops:
            k = IDTuple(pid=1 + cid % 2, cid=cid)
            if op == "insert":
                assert tlb.insert(k, value) == model.insert(k, value)
            else:
                assert tlb.remove(k) == model.remove(k)
            assert tlb.keys == model.keys
            valid = [k for k in tlb.keys if k is not None]
            assert len(set(valid)) == len(valid) == tlb.occupied
            assert set(tlb.targets) == set(valid)
