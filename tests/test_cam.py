"""CAM semantics, including the single-match hardware invariant."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cam import CAM
from repro.errors import TLBError


class TestCAM:
    def test_match_empty(self):
        cam: CAM[int] = CAM(entries=4)
        assert cam.match(1) is None

    def test_write_and_match(self):
        cam: CAM[int] = CAM(entries=4)
        cam.write(2, 42)
        assert cam.match(42) == 2

    def test_rewrite_entry_replaces_key(self):
        cam: CAM[int] = CAM(entries=4)
        cam.write(0, 1)
        cam.write(0, 2)
        assert cam.match(1) is None
        assert cam.match(2) == 0

    def test_duplicate_key_rejected(self):
        """Two valid entries matching one key would be a wired-OR clash."""
        cam: CAM[int] = CAM(entries=4)
        cam.write(0, 7)
        with pytest.raises(TLBError):
            cam.write(1, 7)

    def test_rewriting_same_key_same_entry_ok(self):
        cam: CAM[int] = CAM(entries=4)
        cam.write(0, 7)
        cam.write(0, 7)
        assert cam.match(7) == 0

    def test_invalidate_entry(self):
        cam: CAM[int] = CAM(entries=4)
        cam.write(1, 5)
        cam.invalidate_entry(1)
        assert cam.match(5) is None
        assert cam.key_at(1) is None

    def test_free_entry_lowest_first(self):
        cam: CAM[int] = CAM(entries=3)
        assert cam.free_entry() == 0
        cam.write(0, 1)
        assert cam.free_entry() == 1

    def test_free_entry_none_when_full(self):
        cam: CAM[int] = CAM(entries=2)
        cam.write(0, 1)
        cam.write(1, 2)
        assert cam.free_entry() is None

    def test_occupied(self):
        cam: CAM[int] = CAM(entries=4)
        cam.write(0, 1)
        cam.write(3, 2)
        assert cam.occupied == 2
        assert [cam.key_at(i) for i in range(4)] == [1, None, None, 2]

    def test_entry_bounds(self):
        cam: CAM[int] = CAM(entries=2)
        with pytest.raises(TLBError):
            cam.write(2, 1)
        with pytest.raises(TLBError):
            cam.invalidate_entry(-1)

    def test_needs_positive_capacity(self):
        with pytest.raises(TLBError):
            CAM(entries=0)


@st.composite
def cam_operations(draw):
    ops = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["write", "invalidate_entry"]),
                st.integers(min_value=0, max_value=7),
                st.integers(min_value=0, max_value=15),
            ),
            max_size=40,
        )
    )
    return ops


class TestCAMModel:
    @given(ops=cam_operations())
    @settings(max_examples=60)
    def test_matches_dict_model(self, ops):
        """The CAM behaves like a dict from key to entry index."""
        cam: CAM[int] = CAM(entries=8)
        model: dict[int, int] = {}
        for op, entry, key in ops:
            if op == "write":
                if key in model and model[key] != entry:
                    with pytest.raises(TLBError):
                        cam.write(entry, key)
                    continue
                # Displace whatever key held this entry.
                model = {k: e for k, e in model.items() if e != entry}
                model[key] = entry
                cam.write(entry, key)
            else:
                cam.invalidate_entry(entry)
                model = {k: e for k, e in model.items() if e != entry}
            for k, e in model.items():
                assert cam.match(k) == e
            assert cam.occupied == len(model)
