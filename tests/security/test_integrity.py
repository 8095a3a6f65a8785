"""Unit tests for the per-message digest store (Section III-C)."""

import pytest

from repro.security import DigestStore, IntegrityError


class TestRecordVerify:
    def test_roundtrip(self):
        store = DigestStore()
        store.record(1, 2, b"payload")
        assert store.verify(1, 2, b"payload")

    def test_tamper_detected(self):
        store = DigestStore()
        store.record(1, 2, b"payload")
        assert not store.verify(1, 2, b"payloaD")

    def test_unknown_message_fails_closed(self):
        store = DigestStore()
        assert not store.verify(9, 9, b"anything")

    def test_require(self):
        store = DigestStore()
        store.record(1, 2, b"x")
        store.require(1, 2, b"x")
        with pytest.raises(IntegrityError):
            store.require(1, 2, b"y")

    def test_re_record_overwrites(self):
        store = DigestStore()
        store.record(1, 2, b"old")
        store.record(1, 2, b"new")
        assert store.verify(1, 2, b"new")
        assert not store.verify(1, 2, b"old")


class TestAlgorithms:
    def test_md5_is_default_and_16_bytes(self):
        store = DigestStore()
        assert store.algorithm == "md5"
        assert len(store.record(1, 1, b"data")) == 16

    def test_sha256_supported(self):
        store = DigestStore(algorithm="sha256")
        assert len(store.record(1, 1, b"data")) == 32
        assert store.verify(1, 1, b"data")

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError):
            DigestStore(algorithm="crc32")


class TestSlices:
    def test_slice_for_file(self):
        store = DigestStore()
        store.record(1, 0, b"a")
        store.record(1, 1, b"b")
        store.record(2, 0, b"c")
        s = store.slice_for_file(1)
        assert set(s) == {0, 1}

    def test_merge_into_fresh_store(self):
        owner = DigestStore()
        owner.record(7, 3, b"msg")
        carried = DigestStore()
        carried.merge(7, owner.slice_for_file(7))
        assert carried.verify(7, 3, b"msg")
        assert not carried.verify(7, 3, b"forged")

    def test_len(self):
        store = DigestStore()
        assert len(store) == 0
        store.record(1, 1, b"x")
        store.record(1, 2, b"y")
        assert len(store) == 2


class TestDictForm:
    """``to_dict`` / ``from_dict`` own the ``digests.json`` layout."""

    def _store(self):
        store = DigestStore()
        store.record(9, 1, b"a")
        store.record(4, 0, b"b")
        store.record(9, 0, b"c")
        return store

    def test_layout(self):
        store = self._store()
        assert store.to_dict() == {
            "9": {"1": store.slice_for_file(9)[1].hex(),
                  "0": store.slice_for_file(9)[0].hex()},
            "4": {"0": store.slice_for_file(4)[0].hex()},
        }

    def test_round_trip(self):
        store = self._store()
        assert DigestStore.from_dict(store.to_dict()) == store

    def test_selected_files_in_the_order_given(self):
        blob = self._store().to_dict([4, 9, 5])
        assert list(blob) == ["4", "9", "5"] and blob["5"] == {}
        assert len(DigestStore.from_dict(self._store().to_dict([4]))) == 1

    @pytest.mark.parametrize(
        "blob", [[], {"1": []}, {"x": {}}, {"1": {"y": "00"}}, {"1": {"2": "zz"}}]
    )
    def test_malformed_rejected(self, blob):
        with pytest.raises(ValueError):
            DigestStore.from_dict(blob)

    def test_non_string_digest_rejected(self):
        with pytest.raises(TypeError):
            DigestStore.from_dict({"1": {"2": 5}})


class TestOverhead:
    def test_paper_overhead_figure(self):
        """Section III-C: for k=8 this is '128 hash bytes per megabyte'."""
        store = DigestStore()
        for mid in range(8):  # k = 8 messages for 1 MB at the example point
            store.record(1, mid, bytes([mid]))
        assert store.overhead_bytes(1) == 128

    def test_overhead_scales_with_algorithm(self):
        store = DigestStore(algorithm="sha256")
        for mid in range(8):
            store.record(1, mid, bytes([mid]))
        assert store.overhead_bytes(1) == 256


class TestConstantTimeComparison:
    def test_verify_uses_compare_digest(self, monkeypatch):
        """The digest comparison must go through hmac.compare_digest so
        the owner's verify path cannot become a byte-at-a-time timing
        oracle (see the verify docstring)."""
        from repro.security import integrity

        real_compare = integrity.hmac.compare_digest
        calls = []

        def spy(a, b):
            calls.append((bytes(a), bytes(b)))
            return real_compare(a, b)

        monkeypatch.setattr(integrity.hmac, "compare_digest", spy)
        store = DigestStore()
        store.record(1, 0, b"payload")
        assert store.verify(1, 0, b"payload")
        assert not store.verify(1, 0, b"forged!")
        assert len(calls) == 2

    def test_unknown_pair_short_circuits_without_comparison(self, monkeypatch):
        """Unknown (file, message) ids fail closed before any digest is
        compared — there is nothing secret to leak about absent entries."""
        from repro.security import integrity

        def boom(a, b):  # pragma: no cover - must not be reached
            raise AssertionError("compare_digest called for unknown id")

        monkeypatch.setattr(integrity.hmac, "compare_digest", boom)
        store = DigestStore()
        assert not store.verify(1, 0, b"payload")

    def test_near_miss_digest_rejected(self):
        """A forged payload whose digest shares a long prefix with the
        real one is still rejected (equality is exact, not prefix)."""
        store = DigestStore()
        digest = store.record(1, 0, b"payload")
        # Plant an almost-identical digest under another id and check
        # the true payload does not verify against it.
        store._digests[(1, 1)] = digest[:-1] + bytes([digest[-1] ^ 1])
        assert not store.verify(1, 1, b"payload")
