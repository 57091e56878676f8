"""Hash chains: positions, checkpoints, windows, counters, walking."""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.chain import ChainWalker, HashChain, chain_step
from repro.errors import ChainExhaustedError, ParameterError
from repro.obs.opcount import count_ops


class TestHashChain:
    def test_element_zero_is_seed(self):
        chain = HashChain(b"seed", 16)
        assert chain.element(0) == b"seed"

    def test_successive_elements_are_steps(self):
        chain = HashChain(b"seed", 16)
        for i in range(16):
            assert chain.element(i + 1) == chain_step(chain.element(i))

    @pytest.mark.parametrize("spacing", [1, 2, 3, 7, 64, 1000])
    def test_checkpoint_spacing_equivalence(self, spacing):
        reference = HashChain(b"s", 50, checkpoint_spacing=1)
        chain = HashChain(b"s", 50, checkpoint_spacing=spacing)
        for i in (0, 1, 17, 49, 50):
            assert chain.element(i) == reference.element(i)

    def test_position_bounds(self):
        chain = HashChain(b"seed", 8)
        with pytest.raises(ParameterError):
            chain.element(-1)
        with pytest.raises(ParameterError):
            chain.element(9)

    def test_key_for_counter_positions(self):
        chain = HashChain(b"seed", 10)
        assert chain.key_for_counter(1) == chain.element(9)
        assert chain.key_for_counter(10) == chain.element(0)

    def test_counter_exhaustion(self):
        chain = HashChain(b"seed", 4)
        chain.key_for_counter(4)
        with pytest.raises(ChainExhaustedError):
            chain.key_for_counter(5)

    def test_counter_starts_at_one(self):
        chain = HashChain(b"seed", 4)
        with pytest.raises(ParameterError):
            chain.key_for_counter(0)

    def test_invalid_construction(self):
        with pytest.raises(ParameterError):
            HashChain(b"", 4)
        with pytest.raises(ParameterError):
            HashChain(b"s", 0)
        with pytest.raises(ParameterError):
            HashChain(b"s", 4, checkpoint_spacing=0)

    def test_one_wayness_smoke(self):
        # Later counters give positions *earlier* in the chain; applying the
        # public step to a later key yields the earlier key, not vice versa.
        chain = HashChain(b"seed", 10)
        newer = chain.key_for_counter(5)  # position 5
        older = chain.key_for_counter(4)  # position 6
        assert chain_step(newer) == older

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=1, max_value=40),
           st.integers(min_value=0, max_value=40))
    def test_element_consistency_property(self, length, position):
        if position > length:
            return
        a = HashChain(b"prop-seed", length, checkpoint_spacing=5)
        b = HashChain(b"prop-seed", length, checkpoint_spacing=13)
        assert a.element(position) == b.element(position)


# Every element past position 0 is a 32-byte digest; a seed of another
# size shows the window never serves the seed out of its packed buffer.
_ODD_SEED = b"a seed that is not 32 bytes"


@functools.cache
def _reference(length: int) -> HashChain:
    """The spacing-1 chain: every position is a stored checkpoint."""
    return HashChain(_ODD_SEED, length, checkpoint_spacing=1)


@st.composite
def _access_plans(draw):
    length = draw(st.sampled_from([1, 63, 64, 65, 1024]))
    spacing = draw(st.sampled_from([1, 7, 64]))
    order = draw(st.sampled_from(
        ["descending", "ascending", "repeated", "random"]))
    if order == "descending":
        positions = list(range(length, -1, -1))
    elif order == "ascending":
        positions = list(range(length + 1))
    else:
        picks = draw(st.lists(st.integers(min_value=0, max_value=length),
                              min_size=1, max_size=40))
        positions = ([p for p in picks for _ in range(3)]
                     if order == "repeated" else picks)
    return length, spacing, positions


class TestSegmentWindow:
    @settings(max_examples=40, deadline=None)
    @given(_access_plans())
    def test_any_access_order_matches_spacing_one(self, plan):
        length, spacing, positions = plan
        reference = _reference(length)
        chain = HashChain(_ODD_SEED, length, checkpoint_spacing=spacing)
        for position in positions:
            assert chain.element(position) == reference.element(position)

    def test_first_counter_after_construction_is_free(self):
        chain = HashChain(b"seed", 1024)
        with count_ops() as ops:
            chain.key_for_counter(1)
        assert ops.snapshot().get("chain_step", 0) == 0

    def test_descending_counters_walk_each_segment_once(self):
        chain = HashChain(b"seed", 1024)
        with count_ops() as ops:
            for ctr in range(1, 257):
                chain.key_for_counter(ctr)
        # 256 counter advances cross four 64-wide segments, the top one
        # kept from construction: at most 63 steps for each of them.
        assert ops.snapshot().get("chain_step", 0) <= 4 * 63


class TestChainWalker:
    def test_walk_to_known_target(self):
        chain = HashChain(b"seed", 32)
        start = chain.key_for_counter(7)   # position 25
        target = chain.key_for_counter(2)  # position 30
        walker = ChainWalker(start, max_steps=32)
        found = walker.walk_until(lambda e: e == target)
        assert found == target
        assert walker.steps_taken == 5

    def test_zero_step_walk(self):
        walker = ChainWalker(b"element", max_steps=10)
        assert walker.walk_until(lambda e: e == b"element") == b"element"
        assert walker.steps_taken == 0

    def test_budget_enforced(self):
        walker = ChainWalker(b"start", max_steps=3)
        with pytest.raises(ChainExhaustedError):
            walker.walk_until(lambda e: False)
        assert walker.steps_taken == 3

    def test_negative_budget_rejected(self):
        with pytest.raises(ParameterError):
            ChainWalker(b"s", max_steps=-1)

    def test_cannot_walk_backwards(self):
        # Walking forward from a *newer* key reaches older keys; starting
        # from an older key can never reach a newer one within any budget.
        chain = HashChain(b"seed", 16)
        older = chain.key_for_counter(3)
        newer = chain.key_for_counter(9)
        walker = ChainWalker(older, max_steps=16)
        with pytest.raises(ChainExhaustedError):
            walker.walk_until(lambda e: e == newer)
