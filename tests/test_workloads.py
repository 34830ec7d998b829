"""Workload registry, scaling, and data generators."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import data
from repro.apps.data import (
    bytes_to_words,
    synthetic_audio,
    synthetic_image,
    synthetic_plaintext,
    synthetic_words,
    words_to_bytes,
    words_to_directive,
)
from repro.apps.twofish import cipher_for, workload_key
from repro.apps.registry import WORKLOADS, get_workload
from repro.apps.workloads import (
    WorkloadVariant,
    build_variant,
    memory_size_for,
)
from repro.errors import WorkloadError


class TestRegistry:
    def test_registered_workloads(self):
        assert set(WORKLOADS) == {
            "echo", "alpha", "twofish", "hash", "phases", "burst"
        }

    def test_lookup(self):
        assert get_workload("alpha").name == "alpha"

    def test_unknown_rejected(self):
        with pytest.raises(WorkloadError):
            get_workload("raytracer")

    def test_unknown_error_lists_choices(self):
        """The error must name the workload and every valid choice."""
        with pytest.raises(WorkloadError) as excinfo:
            get_workload("raytracer")
        message = str(excinfo.value)
        assert "'raytracer'" in message
        for name in sorted(WORKLOADS):
            assert name in message

    def test_contention_knees_match_paper(self):
        """§5.1: echo uses two circuits, the others one."""
        assert get_workload("echo").circuits_per_process == 2
        assert get_workload("alpha").circuits_per_process == 1
        assert get_workload("twofish").circuits_per_process == 1


class TestScaling:
    def test_items_for_scale_full(self):
        workload = get_workload("alpha")
        assert workload.items_for_scale(1.0) == workload.paper_items

    def test_items_for_scale_floor(self):
        workload = get_workload("alpha")
        assert workload.items_for_scale(1e-9) == workload.min_items

    def test_bad_scale_rejected(self):
        with pytest.raises(WorkloadError):
            get_workload("alpha").items_for_scale(0)

    def test_too_few_items_rejected(self):
        with pytest.raises(WorkloadError):
            get_workload("alpha").build(items=1)


class TestBuildVariant:
    def test_string_variant(self):
        program = build_variant(get_workload("alpha"), 8, "software")
        assert "software" in program.name

    def test_enum_variant(self):
        program = build_variant(
            get_workload("alpha"), 8, WorkloadVariant.ACCELERATED
        )
        assert len(program.circuit_table) == 1

    def test_software_variant_has_no_circuits(self):
        program = build_variant(get_workload("echo"), 8, "software")
        assert program.circuit_table == []

    def test_memory_size_for_rounds_to_pages(self):
        assert memory_size_for(0) == 64 * 1024
        assert memory_size_for(200_000) % 4096 == 0
        assert memory_size_for(200_000) > 200_000


class TestDataGenerators:
    def test_image_deterministic(self):
        assert synthetic_image(64, seed=3) == synthetic_image(64, seed=3)

    def test_image_seed_dependent(self):
        assert synthetic_image(64, seed=3) != synthetic_image(64, seed=4)

    def test_image_words_are_32_bit(self):
        assert all(0 <= w <= 0xFFFFFFFF for w in synthetic_image(100))

    def test_audio_within_16_bits(self):
        for word in synthetic_audio(500):
            signed = word - (1 << 32) if word >> 31 else word
            assert -32768 <= signed <= 32767

    def test_audio_has_both_signs(self):
        samples = synthetic_audio(500)
        signed = [w - (1 << 32) if w >> 31 else w for w in samples]
        assert any(s > 0 for s in signed) and any(s < 0 for s in signed)

    def test_plaintext_block_sized(self):
        assert len(synthetic_plaintext(5)) == 80

    @pytest.mark.parametrize("n", [1, 2, 32, 64, 255, 256, 6001])
    def test_randbelow_draws_as_randrange(self, n):
        """The generators draw through ``_randbelow``; it must consume
        and return exactly what ``Random.randrange`` would, or every
        generated input (and every pinned digest over it) changes."""
        import random

        ours, theirs = random.Random("draws"), random.Random("draws")
        assert [
            data._randbelow(ours.getrandbits, n, n.bit_length())
            for _ in range(2000)
        ] == [theirs.randrange(n) for _ in range(2000)]
        assert ours.getstate() == theirs.getstate()

    def test_audio_with_no_noise_range_raises(self):
        with pytest.raises(ValueError):
            synthetic_audio(4, seed=99, amplitude=-8)

    @given(
        words=st.lists(
            st.integers(min_value=0, max_value=0xFFFFFFFF), max_size=32
        )
    )
    @settings(max_examples=50)
    def test_words_bytes_roundtrip(self, words):
        assert bytes_to_words(words_to_bytes(words)) == words

    def test_bytes_to_words_requires_alignment(self):
        with pytest.raises(ValueError):
            bytes_to_words(b"abc")

    def test_words_to_directive_shape(self):
        text = words_to_directive([1, 2, 3], per_line=2)
        lines = text.splitlines()
        assert len(lines) == 2
        assert lines[0].strip().startswith(".word")

    def test_words_to_directive_empty(self):
        assert ".space 0" in words_to_directive([])


class TestSharedInputs:
    """A point's build and its reference check read one generated copy
    of each input; no caller can change what the next one reads."""

    @pytest.mark.parametrize(
        "generate", [synthetic_image, synthetic_audio, synthetic_words]
    )
    def test_caller_cannot_mutate_a_shared_input(self, generate):
        first = generate(40, seed=5)
        pristine = list(first)
        first[0] ^= 1
        first.append(7)
        assert generate(40, seed=5) == pristine
        assert generate(40, 5) == pristine

    def test_plaintext_and_cipher_are_immutable(self):
        assert isinstance(synthetic_plaintext(3, seed=5), bytes)
        cipher = cipher_for(workload_key(5))
        assert cipher is cipher_for(workload_key(5))
        assert isinstance(cipher.round_keys, tuple)
        assert all(isinstance(table, tuple) for table in cipher.tables)

    def test_build_and_reference_generate_each_input_once(self):
        data._image.cache_clear()
        alpha = get_workload("alpha")
        alpha.build(items=40, seed=11)
        alpha.reference(40, 11)
        info = data._image.cache_info()
        # Two images (seed and seed + 1), each generated once.
        assert (info.misses, info.hits) == (2, 2)

    def test_fig2_sweep_computes_the_reference_once(self, monkeypatch):
        from repro.apps import alphablend
        from repro.sim.figures import figure2
        from repro.sim.runner import SweepRunner

        calls = []

        def counting_reference(items, seed):
            calls.append((items, seed))
            return alphablend.alpha_reference(items, seed)

        monkeypatch.setitem(WORKLOADS, "alpha", dataclasses.replace(
            WORKLOADS["alpha"], reference=counting_reference
        ))
        figure = figure2(scale=1 / 8000, workloads=("alpha",),
                         instances=(1, 2, 3), verify=True,
                         runner=SweepRunner())
        assert sum(len(series.points) for series in figure.series) == 12
        assert len(calls) == 1
