"""Scheme 2: correctness, chain discipline, both optimizations, epochs."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Document, keygen, make_scheme2
from repro.crypto.rng import HmacDrbg
from repro.errors import ChainExhaustedError
from repro.net.messages import MessageType
from repro.obs.opcount import count_ops


@pytest.fixture()
def deployment(master_key, rng):
    return make_scheme2(master_key, chain_length=128, rng=rng)


class TestSearchCorrectness:
    def test_basic(self, deployment, sample_documents, reference_search):
        client, _, _ = deployment
        client.store(sample_documents)
        for keyword in ("fever", "flu", "cough", "rash"):
            assert client.search(keyword).doc_ids == reference_search(
                sample_documents, keyword
            )

    def test_documents_decrypt(self, deployment, sample_documents):
        client, _, _ = deployment
        client.store(sample_documents)
        result = client.search("cough")
        by_id = {d.doc_id: d.data for d in sample_documents}
        assert result.documents == [by_id[i] for i in result.doc_ids]

    def test_unknown_keyword_empty(self, deployment, sample_documents):
        client, _, _ = deployment
        client.store(sample_documents)
        assert client.search("never-indexed").doc_ids == []

    def test_search_before_any_store(self, deployment):
        client, _, _ = deployment
        assert client.search("anything").doc_ids == []


class TestUpdates:
    def test_accumulating_updates(self, deployment):
        client, _, _ = deployment
        client.store([Document(0, b"base", frozenset({"k"}))])
        for i in range(1, 10):
            client.add_documents([Document(i, b"d%d" % i, frozenset({"k"}))])
        assert client.search("k").doc_ids == list(range(10))

    def test_interleaved_search_update(self, deployment):
        client, _, _ = deployment
        client.store([Document(0, b"a", frozenset({"k"}))])
        expected = [0]
        for i in range(1, 8):
            assert client.search("k").doc_ids == expected
            client.add_documents([Document(i, b"x", frozenset({"k"}))])
            expected.append(i)
        assert client.search("k").doc_ids == expected

    def test_update_creates_new_keyword(self, deployment, sample_documents):
        client, _, _ = deployment
        client.store(sample_documents)
        client.add_documents([Document(30, b"x", frozenset({"sepsis"}))])
        assert client.search("sepsis").doc_ids == [30]

    def test_duplicate_ids_in_segments_unioned(self, deployment):
        # Re-adding the same (doc, keyword) pair is idempotent at search
        # time (lists are unioned), unlike Scheme 1's XOR toggle.
        client, _, _ = deployment
        client.store([Document(0, b"a", frozenset({"k"}))])
        client.add_documents([Document(0, b"a", frozenset({"k"}))])
        assert client.search("k").doc_ids == [0]


class TestProtocolShape:
    def test_search_is_one_round(self, deployment, sample_documents):
        client, _, channel = deployment
        client.store(sample_documents)
        channel.reset_stats()
        client.search("flu")
        assert channel.stats.rounds == 1
        (request,) = [e for e in channel.transcript
                      if e.direction == "client->server"]
        assert request.message.type == MessageType.S2_SEARCH_REQUEST

    def test_metadata_update_is_one_message(self, deployment,
                                            sample_documents):
        client, _, channel = deployment
        client.store(sample_documents)
        channel.reset_stats()
        client.add_documents([Document(40, b"x", frozenset({"flu"}))])
        metadata = [e for e in channel.transcript
                    if e.message.type == MessageType.S2_STORE_ENTRY]
        assert len(metadata) == 1

    def test_update_bandwidth_tracks_delta_not_capacity(
            self, master_key, rng):
        """The §5.4 point: segments are small regardless of database size."""
        client, _, channel = deployment_size = make_scheme2(
            master_key, chain_length=128, rng=rng
        )
        big = [Document(i, b"x", frozenset({f"kw{i}"})) for i in range(200)]
        client.store(big)
        channel.reset_stats()
        client.add_documents([Document(500, b"y", frozenset({"kw0"}))])
        metadata = [e for e in channel.transcript
                    if e.message.type == MessageType.S2_STORE_ENTRY]
        assert metadata[0].size < 200  # one small triple


class TestOptimization1:
    def test_cache_skips_old_segments(self, deployment):
        client, server, _ = deployment
        client.store([Document(0, b"a", frozenset({"k"}))])
        client.search("k")
        assert server.segments_decrypted_last_search == 1
        client.search("k")
        assert server.segments_decrypted_last_search == 0
        client.add_documents([Document(1, b"b", frozenset({"k"}))])
        client.search("k")
        assert server.segments_decrypted_last_search == 1  # only the new one

    def test_cache_disabled_redecrypts(self, master_key, rng):
        client, server, _ = make_scheme2(master_key, chain_length=128,
                                         cache_plaintext=False, rng=rng)
        client.store([Document(0, b"a", frozenset({"k"}))])
        client.add_documents([Document(1, b"b", frozenset({"k"}))])
        client.search("k")
        first = server.segments_decrypted_last_search
        client.search("k")
        assert server.segments_decrypted_last_search == first == 2

    def test_cached_results_stay_correct(self, master_key, rng):
        cached, _, _ = make_scheme2(master_key, chain_length=128,
                                    cache_plaintext=True, rng=rng)
        plain, _, _ = make_scheme2(master_key, chain_length=128,
                                   cache_plaintext=False, rng=HmacDrbg(55))
        for client in (cached, plain):
            client.store([Document(0, b"a", frozenset({"k"}))])
            client.add_documents([Document(1, b"b", frozenset({"k"}))])
            client.search("k")
            client.add_documents([Document(2, b"c", frozenset({"k"}))])
        assert cached.search("k").doc_ids == plain.search("k").doc_ids == [0, 1, 2]


class TestOptimization2:
    def test_lazy_counter_reuses_between_searches(self, master_key, rng):
        client, _, _ = make_scheme2(master_key, chain_length=128,
                                    lazy_counter=True, rng=rng)
        client.store([Document(0, b"a", frozenset({"k"}))])
        assert client.ctr == 1
        client.add_documents([Document(1, b"b", frozenset({"k"}))])
        client.add_documents([Document(2, b"c", frozenset({"k"}))])
        assert client.ctr == 1  # no search happened: counter frozen
        client.search("k")
        client.add_documents([Document(3, b"d", frozenset({"k"}))])
        assert client.ctr == 2

    def test_eager_counter_always_advances(self, master_key, rng):
        client, _, _ = make_scheme2(master_key, chain_length=128,
                                    lazy_counter=False, rng=rng)
        client.store([Document(0, b"a", frozenset({"k"}))])
        client.add_documents([Document(1, b"b", frozenset({"k"}))])
        client.add_documents([Document(2, b"c", frozenset({"k"}))])
        assert client.ctr == 3

    def test_lazy_counter_correctness_preserved(self, master_key, rng):
        client, _, _ = make_scheme2(master_key, chain_length=128,
                                    lazy_counter=True, rng=rng)
        client.store([Document(0, b"a", frozenset({"k"}))])
        for i in range(1, 6):
            client.add_documents([Document(i, b"x", frozenset({"k"}))])
        assert client.search("k").doc_ids == list(range(6))

    def test_updates_remaining(self, master_key, rng):
        client, _, _ = make_scheme2(master_key, chain_length=10, rng=rng)
        assert client.updates_remaining == 10
        client.store([Document(0, b"a", frozenset({"k"}))])
        assert client.updates_remaining == 9


class TestChainExhaustion:
    def test_exhaustion_raises(self, master_key, rng):
        client, _, _ = make_scheme2(master_key, chain_length=3,
                                    lazy_counter=False, rng=rng)
        for i in range(3):
            client.add_documents([Document(i, b"x", frozenset({"k"}))])
        with pytest.raises(ChainExhaustedError):
            client.add_documents([Document(9, b"x", frozenset({"k"}))])

    def test_lazy_counter_stretches_chain(self, master_key, rng):
        # With no searches, any number of updates fits in a length-3 chain.
        client, _, _ = make_scheme2(master_key, chain_length=3,
                                    lazy_counter=True, rng=rng)
        for i in range(10):
            client.add_documents([Document(i, b"x", frozenset({"k"}))])
        assert client.ctr == 1
        assert client.search("k").doc_ids == list(range(10))

    def test_reinitialize_epoch(self, master_key, rng):
        client, _, _ = make_scheme2(master_key, chain_length=3,
                                    lazy_counter=False, rng=rng)
        docs = []
        for i in range(3):
            doc = Document(i, b"d%d" % i, frozenset({"k"}))
            docs.append(doc)
            client.add_documents([doc])
        with pytest.raises(ChainExhaustedError):
            client.add_documents([Document(3, b"x", frozenset({"k"}))])
        client.reinitialize_epoch(docs)
        assert client.epoch == 1
        assert client.ctr == 1
        assert client.search("k").doc_ids == [0, 1, 2]
        client.add_documents([Document(3, b"x", frozenset({"k"}))])
        assert client.search("k").doc_ids == [0, 1, 2, 3]


class TestFakeUpdates:
    def test_fake_update_changes_nothing(self, deployment,
                                         sample_documents):
        client, _, _ = deployment
        client.store(sample_documents)
        before = client.search("flu").doc_ids
        client.fake_update(["flu", "fever", "rash"])
        assert client.search("flu").doc_ids == before

    def test_fake_update_indistinguishable_shape(self, deployment,
                                                 sample_documents):
        """Fake and real updates produce the same message type and arity."""
        client, _, channel = deployment
        client.store(sample_documents)
        channel.reset_stats()
        client.fake_update(["flu"])
        fake = [e for e in channel.transcript
                if e.message.type == MessageType.S2_STORE_ENTRY][0]
        assert len(fake.message.fields) == 3  # one (tag, blob, verifier)

    def test_fake_update_for_new_keyword(self, deployment):
        client, _, _ = deployment
        client.store([Document(0, b"a", frozenset({"k"}))])
        client.fake_update(["ghost"])
        assert client.search("ghost").doc_ids == []


class TestChainWalk:
    def test_walk_length_tracks_updates_between_searches(self, master_key,
                                                         rng):
        client, server, _ = make_scheme2(master_key, chain_length=128,
                                         lazy_counter=False, rng=rng)
        client.store([Document(0, b"a", frozenset({"k"}))])
        client.search("k")
        # x updates (each advancing ctr) between searches → walk ≈ x.
        for i in range(1, 6):
            client.add_documents([Document(i, b"x", frozenset({"k"}))])
        client.search("k")
        assert 4 <= server.chain_steps_last_search <= 5

    def test_search_after_update_reuses_the_update_window(self, master_key,
                                                          rng):
        client, server, _ = make_scheme2(master_key, chain_length=128,
                                         lazy_counter=False, rng=rng)
        client.store([Document(0, b"a", frozenset({"k"}))])
        client.search("k")
        for i in range(1, 4):
            client.add_documents([Document(i, b"x", frozenset({"k"}))])
        with count_ops() as ops:
            assert client.search("k").doc_ids == [0, 1, 2, 3]
        # The trapdoor is the element the last update just derived, so
        # every chain step of the search is the server's forward walk
        # (ctr 4 back to ctr 2, the first segment it has not cached).
        assert server.chain_steps_last_search == 2
        assert ops.snapshot()["chain_step"] == 2


@settings(max_examples=10, deadline=None)
@given(st.lists(
    st.sets(st.sampled_from(["a", "b", "c", "d", "e"]), min_size=1),
    min_size=1, max_size=8,
))
def test_random_collections_property(keyword_sets):
    """Search returns exactly {i : w ∈ W_i} on arbitrary collections."""
    docs = [
        Document(i, b"doc-%d" % i, frozenset(kws))
        for i, kws in enumerate(keyword_sets)
    ]
    client, _, _ = make_scheme2(keygen(rng=HmacDrbg(77)), chain_length=64,
                                rng=HmacDrbg(78))
    client.store(docs)
    for keyword in "abcde":
        expected = sorted(d.doc_id for d in docs if keyword in d.keywords)
        assert client.search(keyword).doc_ids == expected
