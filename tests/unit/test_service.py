"""Unit tests for the incremental SimilarityIndex service."""

import pytest

from repro import HammingPredicate, JaccardPredicate, OverlapPredicate
from repro.core.service import SimilarityIndex
from repro.text.tokenizers import tokenize_words


class TestAddAndQuery:
    def test_empty_index_query(self):
        service = SimilarityIndex(OverlapPredicate(2), tokenizer=tokenize_words)
        assert service.query("anything at all") == []

    def test_basic_match(self):
        service = SimilarityIndex(OverlapPredicate(3), tokenizer=tokenize_words)
        rid = service.add("efficient set joins on similarity predicates")
        service.add("completely different words here")
        matches = service.query("set joins similarity")
        assert [m.rid_a for m in matches] == [rid]

    def test_query_does_not_insert(self):
        service = SimilarityIndex(OverlapPredicate(1), tokenizer=tokenize_words)
        service.add("alpha beta")
        service.query("alpha beta")
        assert len(service) == 1
        # Same query again: still exactly one match.
        assert len(service.query("alpha beta")) == 1

    def test_incremental_adds_visible(self):
        service = SimilarityIndex(JaccardPredicate(0.6), tokenizer=tokenize_words)
        assert service.query("set joins predicates") == []
        service.add("set joins predicates")
        assert len(service.query("set joins predicates")) == 1

    def test_token_list_input(self):
        service = SimilarityIndex(OverlapPredicate(2))
        service.add(["a", "b", "c"])
        matches = service.query(["b", "c", "d"])
        assert len(matches) == 1
        assert matches[0].similarity == 2.0

    def test_jaccard_similarity_values(self):
        service = SimilarityIndex(JaccardPredicate(0.4), tokenizer=tokenize_words)
        service.add("one two three four")
        [match] = service.query("one two three nope")
        assert match.similarity == pytest.approx(3 / 5)

    def test_payload_roundtrip(self):
        service = SimilarityIndex(OverlapPredicate(1), tokenizer=tokenize_words)
        rid = service.add("alpha beta", payload={"id": 17})
        assert service.payload(rid) == {"id": 17}

    def test_matches_batch_join(self):
        """Service queries agree with the batch self-join."""
        from repro import Dataset, NaiveJoin

        texts = [
            "set joins on similarity predicates",
            "similarity predicates for set joins",
            "unrelated gardening article",
            "gardening article unrelated content",
        ]
        predicate = JaccardPredicate(0.6)
        data = Dataset.from_texts(texts, tokenize_words)
        truth = NaiveJoin().join(data, predicate).pair_set()

        service = SimilarityIndex(predicate, tokenizer=tokenize_words)
        online_pairs = set()
        for rid, text in enumerate(texts):
            for match in service.query(text):
                online_pairs.add((match.rid_a, rid))
            service.add(text)
        assert online_pairs == truth


class TestPersistence:
    def test_save_load_roundtrip(self, tmp_path):
        path = str(tmp_path / "index.json")
        service = SimilarityIndex(OverlapPredicate(2), tokenizer=tokenize_words)
        service.add("efficient set joins")
        service.add("unrelated gardening text")
        service.save(path)

        restored = SimilarityIndex.load(
            path, OverlapPredicate(2), tokenizer=tokenize_words
        )
        assert len(restored) == 2
        matches = restored.query("set joins today")
        assert [m.rid_a for m in matches] == [0]

    def test_loaded_index_accepts_new_records(self, tmp_path):
        path = str(tmp_path / "index.json")
        service = SimilarityIndex(OverlapPredicate(1), tokenizer=tokenize_words)
        service.add("alpha beta")
        service.save(path)
        restored = SimilarityIndex.load(path, OverlapPredicate(1), tokenizer=tokenize_words)
        restored.add("beta gamma")
        assert len(restored.query("beta")) == 2


class TestExportReplay:
    """``export_records`` derives each record's tokens from its ids: one
    token per distinct id, in id order. Replayed through ``add``, they
    rebuild the same records with the same ids."""

    TOKEN_LISTS = [
        ["joins", "set", "joins", "efficient"],
        ["similarity", "set", "predicates", "set"],
        ["predicates", "efficient", "zeta", "alpha", "alpha"],
        ["alpha", "joins", "omega", "similarity"],
        ["omega", "omega", "zeta"],
    ]
    QUERIES = TOKEN_LISTS + [["alpha", "set", "unseen"], ["zeta", "joins"]]

    @staticmethod
    def answers(service, queries):
        return [
            [(p.rid_a, p.rid_b, p.similarity) for p in service.query(q)]
            for q in queries
        ]

    @staticmethod
    def records(service):
        return [service._dataset[rid] for rid in range(len(service))]

    @pytest.mark.parametrize(
        "predicate", [JaccardPredicate(0.3), OverlapPredicate(1)],
        ids=["jaccard", "overlap"],
    )
    def test_replay_rebuilds_the_same_records(self, predicate):
        original = SimilarityIndex(predicate)
        for i, tokens in enumerate(self.TOKEN_LISTS):
            original.add(tokens, payload={"doc": i})
        exported = original.export_records()
        vocabulary = original._vocabulary
        assert exported[0] == (["joins", "set", "efficient"], {"doc": 0})
        for (tokens, _payload), given in zip(exported, self.TOKEN_LISTS):
            assert tokens == sorted(set(given), key=vocabulary.__getitem__)
        size = len(vocabulary)
        shared = SimilarityIndex(predicate, vocabulary=vocabulary)
        own = SimilarityIndex(predicate)
        for replica in (shared, own):
            for tokens, payload in exported:
                replica.add(tokens, payload=payload)
            assert self.records(replica) == self.records(original)
            assert replica._vocabulary == vocabulary
            assert replica.export_records() == exported
            assert self.answers(replica, self.QUERIES) == self.answers(
                original, self.QUERIES
            )
        assert shared._vocabulary is vocabulary and len(vocabulary) == size
        assert own._vocabulary is not vocabulary


class TestMergeBackend:
    def test_invalid_backend_rejected(self):
        with pytest.raises(ValueError):
            SimilarityIndex(OverlapPredicate(1), merge_backend="quantum")

    @pytest.mark.parametrize("backend", ["auto", "heap", "accumulator"])
    def test_query_results_identical_across_backends(self, backend):
        corpus = [
            "efficient set joins on similarity predicates",
            "set joins on similarity predicates efficient",
            "completely unrelated gardening advice",
            "set similarity joins",
        ]
        reference = SimilarityIndex(
            JaccardPredicate(0.4), tokenizer=tokenize_words, merge_backend="heap"
        )
        service = SimilarityIndex(
            JaccardPredicate(0.4), tokenizer=tokenize_words, merge_backend=backend
        )
        for line in corpus:
            reference.add(line)
            service.add(line)
        for query in corpus + ["similarity joins on sets", "nothing in common"]:
            expected = [(m.rid_a, m.similarity) for m in reference.query(query)]
            got = [(m.rid_a, m.similarity) for m in service.query(query)]
            assert got == expected

    def test_save_load_roundtrips_backend(self, tmp_path):
        path = str(tmp_path / "index.snapshot")
        service = SimilarityIndex(
            OverlapPredicate(2), tokenizer=tokenize_words, merge_backend="accumulator"
        )
        service.add("alpha beta gamma")
        service.add("beta gamma delta")
        service.save(path)
        restored = SimilarityIndex.load(
            path, OverlapPredicate(2), tokenizer=tokenize_words,
            merge_backend="accumulator",
        )
        assert restored.merge_backend == "accumulator"
        got = [m.rid_a for m in restored.query("beta gamma epsilon")]
        assert got == [0, 1]


class TestEditDistanceService:
    def test_query_after_several_adds(self):
        """Keys and lengths grow with the index instead of freezing at bind."""
        from repro import EditDistancePredicate
        from repro.predicates.edit_distance import numbered_qgrams

        service = SimilarityIndex(EditDistancePredicate(1), tokenizer=numbered_qgrams)
        for word in ("similarity", "similarly", "simularity"):
            service.add(word)
        got = {(m.rid_a, m.similarity) for m in service.query("similarity")}
        assert got == {(0, 0.0), (2, 1.0)}
        assert [
            [m.rid_a for m in service.query(word)]
            for word in ("simularity", "similarly")
        ] == [[0, 2], [1]]


def _band_services():
    from repro import DicePredicate, EditDistancePredicate, HammingPredicate
    from repro.predicates.edit_distance import numbered_qgrams

    return {
        "jaccard": (JaccardPredicate(0.5), None),
        "dice": (DicePredicate(0.5), None),
        "hamming": (HammingPredicate(2), None),
        "edit-distance": (EditDistancePredicate(1), numbered_qgrams),
    }


class TestProbeCostIsTouchedOnly:
    """A warm index computes one band key per query and per add, at any n."""

    @staticmethod
    def _warm_index(name: str, n: int):
        import random

        predicate, tokenizer = _band_services()[name]
        service = SimilarityIndex(predicate, tokenizer=tokenizer)
        rng = random.Random(n)
        words = [f"w{i}" for i in range(40)]
        items = []
        for _ in range(n + 2):
            tokens = rng.sample(words, rng.randint(4, 8))
            items.append("".join(tokens) if tokenizer else tokens)
        for item in items[:n]:
            service.add(item)
        service.query(items[0])  # warm every lazily memoized cache
        return service, items

    @staticmethod
    def _count_band_keys(service, monkeypatch) -> list[int]:
        """Wrap the bound's class, so probe clones are counted too."""
        bound_class = type(service._bound)
        calls: list[int] = []
        band_key = bound_class.band_key

        def counted(self, rid: int) -> float:
            calls.append(rid)
            return band_key(self, rid)

        monkeypatch.setattr(bound_class, "band_key", counted)
        return calls

    @pytest.mark.parametrize("n", [200, 2000])
    @pytest.mark.parametrize("name", ["jaccard", "dice", "hamming", "edit-distance"])
    def test_one_key_per_query_and_add(self, name, n, monkeypatch):
        service, items = self._warm_index(name, n)
        calls = self._count_band_keys(service, monkeypatch)
        assert [m.rid_a for m in service.query(items[0])][:1] == [0]
        assert calls == [n]
        calls.clear()
        for item in items[1:3]:
            service.query(item)
        assert calls == [n, n]
        calls.clear()
        assert service.add(items[n]) == n
        assert calls == [n]
        calls.clear()
        service.query(items[n + 1])
        assert calls == [n + 1]


def _symmetric_difference(query, record):
    return len(set(query) ^ set(record))


class TestQueryAfterAdd:
    """A query right after an ``add`` screens the new record's norm: the
    accumulator reads the norm cache directly, so a record whose norm
    was never filled would surface as a missing norm, not a miss.
    Hamming's threshold reads both norms and its band keys are record
    lengths, so nothing but the norm cache itself supplies them."""

    RECORDS = [
        "alpha beta gamma delta",
        "alpha beta gamma delta epsilon",
        "beta gamma delta epsilon",
        "gamma delta epsilon zeta",
        "alpha beta gamma epsilon",
        "alpha beta gamma delta zeta",
    ]

    def _expected(self, query, added):
        got = []
        for rid, record in enumerate(added):
            distance = _symmetric_difference(
                tokenize_words(query), tokenize_words(record)
            )
            if distance <= 2:
                got.append((rid, float(distance)))
        return got

    @pytest.mark.parametrize("topology", ["single", "sharded", "remote"])
    def test_each_query_sees_the_record_just_added(self, topology):
        from repro.serving import ShardedIndexServer
        from repro.serving.transport import ShardServer

        def index():
            return SimilarityIndex(
                HammingPredicate(2), tokenizer=tokenize_words,
                merge_backend="accumulator",
            )

        nodes = []
        if topology == "single":
            server = index()
            query = server.query
        else:
            if topology == "remote":
                nodes = [ShardServer(index()).start() for _ in range(2)]
            server = ShardedIndexServer(
                HammingPredicate(2),
                shards=2,
                tokenizer=tokenize_words,
                workers=1,
                shard_workers=1,
                merge_backend="accumulator",
                shard_endpoints=(
                    [f"127.0.0.1:{node.port}" for node in nodes] if nodes else None
                ),
            ).start()

            def query(item):
                answer = server.query(item, timeout=30.0)
                assert not answer.partial
                return answer

        try:
            added = []
            for record in self.RECORDS:
                server.add(record)
                added.append(record)
                got = [(m.rid_a, m.similarity) for m in query(record)]
                assert sorted(got) == self._expected(record, added)
        finally:
            if topology != "single":
                server.drain(timeout=30.0)
            for node in nodes:
                node.stop()
        if topology == "single":
            # The accumulator ran: its screen wrote every touched entity.
            assert server.counters.accum_writes > 0

    def test_mmap_loaded_index_has_every_norm(self, tmp_path):
        service = SimilarityIndex(
            HammingPredicate(2), tokenizer=tokenize_words, merge_backend="accumulator"
        )
        for record in self.RECORDS:
            service.add(record)
        path = str(tmp_path / "index.rpmx")
        service.save(path)
        opened = SimilarityIndex.load(
            path, HammingPredicate(2), tokenizer=tokenize_words, mmap=True,
            merge_backend="accumulator",
        )
        try:
            for record in self.RECORDS:
                got = [(m.rid_a, m.similarity) for m in opened.query(record)]
                assert sorted(got) == self._expected(record, self.RECORDS)
        finally:
            opened.close()
