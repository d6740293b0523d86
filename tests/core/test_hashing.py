"""Unit tests for the pairwise-independent hash family."""

from __future__ import annotations

import pytest

from repro.core.errors import ConfigurationError
from repro.core.hashing import MERSENNE_PRIME_61, HashFamily, PairwiseHash, stable_fingerprint


class TestStableFingerprint:
    def test_integers_pass_through(self):
        assert stable_fingerprint(42) == 42
        assert stable_fingerprint(0) == 0

    def test_large_integers_folded_to_64_bits(self):
        assert stable_fingerprint(2**100) < 2**64

    def test_strings_are_deterministic(self):
        assert stable_fingerprint("/index.html") == stable_fingerprint("/index.html")

    def test_str_fingerprints_as_its_utf8_bytes(self):
        # By design, and pinned: snapshots hold cells indexed by these
        # fingerprints, so changing it would break merges with old snapshots.
        assert stable_fingerprint("abc") == stable_fingerprint(b"abc")
        assert stable_fingerprint("éclair") == stable_fingerprint("éclair".encode())

    @pytest.mark.parametrize(
        "item, fingerprint",
        [
            ("a", 3405396810240292928),
            (("a", 1), 12444202034427101082),
            ("éclair", 8083484725037537234),
            (2**70, 0),
            (-1, 2**64 - 1),
        ],
    )
    def test_golden_values(self, item, fingerprint):
        assert stable_fingerprint(item) == fingerprint

    def test_distinct_strings_differ(self):
        values = {stable_fingerprint("key-%d" % i) for i in range(1000)}
        assert len(values) == 1000

    def test_tuples_supported(self):
        assert stable_fingerprint((1, "a")) == stable_fingerprint((1, "a"))
        assert stable_fingerprint((1, "a")) != stable_fingerprint((1, "b"))

    def test_bool_distinct_from_int_semantics(self):
        assert stable_fingerprint(True) == 1
        assert stable_fingerprint(False) == 0

    def test_non_negative(self):
        for value in ["x", -5, (3, 4), b"\x00\xff"]:
            assert stable_fingerprint(value) >= 0


class TestPairwiseHash:
    def test_range(self):
        hash_fn = PairwiseHash(a=12345, b=678, width=97)
        for item in range(1000):
            assert 0 <= hash_fn(item) < 97

    def test_deterministic(self):
        hash_fn = PairwiseHash(a=12345, b=678, width=97)
        assert hash_fn("abc") == hash_fn("abc")

    def test_invalid_width(self):
        with pytest.raises(ConfigurationError):
            PairwiseHash(a=1, b=0, width=0)

    def test_invalid_coefficients(self):
        with pytest.raises(ConfigurationError):
            PairwiseHash(a=0, b=0, width=10)
        with pytest.raises(ConfigurationError):
            PairwiseHash(a=MERSENNE_PRIME_61, b=0, width=10)
        with pytest.raises(ConfigurationError):
            PairwiseHash(a=1, b=MERSENNE_PRIME_61, width=10)

    def test_roughly_uniform(self):
        hash_fn = PairwiseHash(a=987654321, b=12345, width=10)
        counts = [0] * 10
        for item in range(10_000):
            counts[hash_fn(item)] += 1
        assert min(counts) > 500
        assert max(counts) < 2_000


class TestHashFamily:
    def test_dimensions(self):
        family = HashFamily(depth=5, width=100, seed=3)
        assert family.depth == 5
        assert family.width == 100
        assert len(family.functions) == 5

    def test_invalid_dimensions(self):
        with pytest.raises(ConfigurationError):
            HashFamily(depth=0, width=10)
        with pytest.raises(ConfigurationError):
            HashFamily(depth=3, width=0)

    def test_reproducible_with_same_seed(self):
        a = HashFamily(depth=4, width=50, seed=11)
        b = HashFamily(depth=4, width=50, seed=11)
        for item in ["x", "y", 42, (1, 2)]:
            assert a.hash_all(item) == b.hash_all(item)

    def test_different_seeds_differ(self):
        a = HashFamily(depth=4, width=1000, seed=1)
        b = HashFamily(depth=4, width=1000, seed=2)
        assert any(a.hash_all("item") != b.hash_all("item") for _ in range(1))

    def test_rows_are_independent_functions(self):
        family = HashFamily(depth=3, width=1000, seed=7)
        columns = family.hash_all("some-key")
        assert len(set(columns)) >= 2  # overwhelmingly likely with width 1000

    def test_hash_row_matches_hash_all(self):
        family = HashFamily(depth=3, width=64, seed=5)
        columns = family.hash_all("key")
        for row in range(3):
            assert family.hash_row("key", row) == columns[row]

    def test_compatibility(self):
        a = HashFamily(depth=3, width=64, seed=5)
        b = HashFamily(depth=3, width=64, seed=5)
        c = HashFamily(depth=3, width=64, seed=6)
        d = HashFamily(depth=4, width=64, seed=5)
        assert a.is_compatible_with(b)
        assert not a.is_compatible_with(c)
        assert not a.is_compatible_with(d)
        assert a == b
        assert hash(a) == hash(b)

    def test_repr(self):
        assert "HashFamily" in repr(HashFamily(depth=2, width=8, seed=0))
