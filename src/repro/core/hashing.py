"""Pairwise-independent hash families.

Count-Min sketches and randomized waves both need cheap hash functions drawn
from a pairwise-independent family.  We use the classic Carter–Wegman
construction ``h(x) = ((a*x + b) mod p) mod m`` over the Mersenne prime
``p = 2**61 - 1``, which is fast in pure Python (single multiplication on
machine integers) and provides the 2-universality required by the Count-Min
analysis of Cormode & Muthukrishnan.

Items may be arbitrary hashable Python objects; non-integers are first mapped
to 64-bit integers through a stable (seed-independent) fingerprint so that two
sketches built with the same seeds hash the same items identically — a
prerequisite for sketch composition.  The fingerprint's blake2b comes from
CPython's built-in ``_blake2`` module, the object ``hashlib.blake2b`` names,
so the digests are hashlib's.  The module therefore needs CPython's blake2:
``hashlib`` itself takes ``blake2b`` from ``_blake2`` and has none without it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from collections.abc import Hashable, Sequence

import numpy as np

from .errors import ConfigurationError

# ``hashlib.blake2b`` is this same built-in function, but importing hashlib
# loads its OpenSSL backend (``_hashlib`` and libcrypto) for nothing.
from _blake2 import blake2b

__all__ = [
    "MERSENNE_PRIME_61",
    "ItemBatch",
    "stable_fingerprint",
    "stable_fingerprints",
    "PairwiseHash",
    "HashFamily",
]

#: A batch of items for the vectorized APIs: any sequence of hashable values,
#: or a NumPy array (integer arrays take the dtype-cast fingerprint path).
ItemBatch = Sequence[Hashable] | np.ndarray

#: The Mersenne prime 2**61 - 1 used as the field size of the hash family.
MERSENNE_PRIME_61 = (1 << 61) - 1

#: NumPy constants for the vectorized Carter–Wegman evaluation.  The prime
#: doubles as the low-61-bit mask (``p = 2**61 - 1`` is all ones).
_NP_P = np.uint64(MERSENNE_PRIME_61)
_NP_MASK31 = np.uint64((1 << 31) - 1)
_NP_61 = np.uint64(61)
_NP_31 = np.uint64(31)
_NP_30 = np.uint64(30)
_NP_2 = np.uint64(2)


def _mod_mersenne61(values: np.ndarray) -> np.ndarray:
    """Reduce ``uint64`` values modulo ``2**61 - 1`` without Python-int math.

    Folding the top bits down (``(v & (2**61-1)) + (v >> 61)``) leaves a value
    in ``[0, p + 7]``; one conditional subtraction finishes the reduction.
    """
    folded = (values & _NP_P) + (values >> _NP_61)
    return np.where(folded >= _NP_P, folded - _NP_P, folded)


def stable_fingerprint(item: Hashable) -> int:
    """Map an arbitrary hashable item to a stable 64-bit integer.

    Python's built-in :func:`hash` is randomised per process for strings
    (``PYTHONHASHSEED``), which would break reproducibility and sketch
    composition across processes.  Integers (NumPy ones too) are folded into
    64 bits and booleans map to 0 and 1.  Bytes go through an 8-byte blake2b
    digest, read little-endian; a str goes through the same digest of its
    UTF-8 bytes, so ``"abc"`` and ``b"abc"`` share a fingerprint.  Anything
    else is digested through the UTF-8 bytes of its ``repr``.  Every
    snapshot and merge depends on these values staying fixed.

    Args:
        item: Any hashable value (int, str, tuple, ...).

    Returns:
        A non-negative integer fitting in 64 bits.
    """
    if isinstance(item, bool):
        # bool is a subclass of int; keep True/False distinct from 1/0 text
        # representations but still deterministic.
        return int(item)
    if isinstance(item, (int, np.integer)):
        # NumPy integers fingerprint like their Python values, so scalar and
        # vectorized (integer-array) ingestion agree item for item.
        return int(item) & 0xFFFFFFFFFFFFFFFF
    if isinstance(item, bytes):
        digest = blake2b(item, digest_size=8).digest()
        return int.from_bytes(digest, "little")
    if isinstance(item, str):
        digest = blake2b(item.encode("utf-8"), digest_size=8).digest()
        return int.from_bytes(digest, "little")
    digest = blake2b(repr(item).encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def stable_fingerprints(items: ItemBatch) -> np.ndarray:
    """Vectorized :func:`stable_fingerprint` over a batch of items.

    Integer-typed NumPy arrays are fingerprinted without touching Python
    objects; any other input falls back to the scalar fingerprint per item
    (the blake2b digest is inherently per-object).  The result always agrees
    element-wise with :func:`stable_fingerprint`.

    Args:
        items: A sequence (or NumPy array) of hashable values.

    Returns:
        A ``uint64`` array of fingerprints, one per item.
    """
    if isinstance(items, np.ndarray) and np.issubdtype(items.dtype, np.integer):
        return items.astype(np.uint64, copy=False)
    return np.fromiter(
        (stable_fingerprint(item) for item in items), dtype=np.uint64, count=len(items)
    )


@dataclass(frozen=True)
class PairwiseHash:
    """A single hash function from the Carter–Wegman pairwise family.

    Attributes:
        a: Multiplier, drawn uniformly from ``[1, p-1]``.
        b: Offset, drawn uniformly from ``[0, p-1]``.
        width: Output range; hashes land in ``[0, width)``.
    """

    a: int
    b: int
    width: int

    def __post_init__(self) -> None:
        if self.width <= 0:
            raise ConfigurationError("hash width must be positive, got %r" % (self.width,))
        if not (1 <= self.a < MERSENNE_PRIME_61):
            raise ConfigurationError("hash multiplier out of range")
        if not (0 <= self.b < MERSENNE_PRIME_61):
            raise ConfigurationError("hash offset out of range")

    def __call__(self, item: Hashable) -> int:
        """Hash ``item`` into ``[0, width)``."""
        x = stable_fingerprint(item)
        return ((self.a * x + self.b) % MERSENNE_PRIME_61) % self.width

    def hash_int(self, x: int) -> int:
        """Hash an already-fingerprinted integer into ``[0, width)``."""
        return ((self.a * x + self.b) % MERSENNE_PRIME_61) % self.width


class HashFamily:
    """A reproducible family of ``depth`` pairwise-independent hash functions.

    Two families constructed with the same ``depth``, ``width`` and ``seed``
    are identical, which is what allows Count-Min and ECM-sketches built on
    different nodes to be merged.

    Args:
        depth: Number of hash functions (rows of the sketch).
        width: Output range of each function (columns of the sketch).
        seed: Seed of the pseudo-random generator used to draw ``a`` and
            ``b`` coefficients.
    """

    def __init__(self, depth: int, width: int, seed: int = 0) -> None:
        if depth <= 0:
            raise ConfigurationError("hash family depth must be positive, got %r" % (depth,))
        if width <= 0:
            raise ConfigurationError("hash family width must be positive, got %r" % (width,))
        self.depth = depth
        self.width = width
        self.seed = seed
        rng = random.Random(seed)
        self._functions: list[PairwiseHash] = []
        for _ in range(depth):
            a = rng.randrange(1, MERSENNE_PRIME_61)
            b = rng.randrange(0, MERSENNE_PRIME_61)
            self._functions.append(PairwiseHash(a=a, b=b, width=width))
        # Pre-split coefficients into 31-bit halves (column vectors, so a batch
        # of fingerprints broadcasts to a (depth, n) result): 61-bit operands
        # would overflow uint64 products, the halves never do.
        a_column = np.array([[fn.a] for fn in self._functions], dtype=np.uint64)
        self._a_lo = a_column & _NP_MASK31
        self._a_hi = a_column >> _NP_31
        self._b = np.array([[fn.b] for fn in self._functions], dtype=np.uint64)
        self._np_width = np.uint64(width)

    @property
    def functions(self) -> Sequence[PairwiseHash]:
        """The individual hash functions, row by row."""
        return tuple(self._functions)

    def hash_all(self, item: Hashable) -> list[int]:
        """Hash ``item`` with every function of the family.

        Returns:
            A list of ``depth`` column indices, one per row.
        """
        x = stable_fingerprint(item)
        return [h.hash_int(x) for h in self._functions]

    def hash_many(self, items: ItemBatch) -> np.ndarray:
        """Hash a batch of items with every function of the family at once.

        The evaluation is NumPy-vectorized: fingerprints are reduced modulo the
        Mersenne prime, the 61-bit Carter–Wegman products are computed via
        31-bit limbs (``a*x = a_hi*x_hi*2**62 + (a_hi*x_lo + a_lo*x_hi)*2**31 +
        a_lo*x_lo``, with ``2**61 = 1 (mod p)`` turning the shifted terms into
        cheap rotations), and every row is processed in the same pass through
        broadcasting.  Results agree exactly with :meth:`hash_all` per item.

        Args:
            items: Batch of hashable values (or an integer NumPy array).

        Returns:
            A ``(depth, len(items))`` array of column indices (``uint64``).
        """
        fingerprints = stable_fingerprints(items)
        return self.hash_fingerprints(fingerprints)

    def hash_fingerprints(self, fingerprints: np.ndarray) -> np.ndarray:
        """Vectorized hashing of already-computed ``uint64`` fingerprints."""
        x = _mod_mersenne61(fingerprints.astype(np.uint64, copy=False))
        x_lo = x & _NP_MASK31  # < 2**31
        x_hi = x >> _NP_31  # < 2**30
        # a_hi*x_hi*2**62 mod p == 2*a_hi*x_hi mod p (2**61 == 1 mod p).
        high = _mod_mersenne61(self._a_hi * x_hi * _NP_2)
        # The middle term is multiplied by 2**31, i.e. rotated left by 31 bits
        # within the 61-bit field.
        mid = _mod_mersenne61(self._a_hi * x_lo + self._a_lo * x_hi)
        mid = _mod_mersenne61(((mid << _NP_31) & _NP_P) + (mid >> _NP_30))
        low = _mod_mersenne61(self._a_lo * x_lo)
        hashed = _mod_mersenne61(high + mid + low + self._b)
        return hashed % self._np_width

    def hash_row(self, item: Hashable, row: int) -> int:
        """Hash ``item`` with the function of a single ``row``."""
        return self._functions[row](item)

    def is_compatible_with(self, other: HashFamily) -> bool:
        """Return True when two families are interchangeable for merging."""
        return (
            self.depth == other.depth
            and self.width == other.width
            and self.seed == other.seed
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HashFamily):
            return NotImplemented
        return self.is_compatible_with(other)

    def __hash__(self) -> int:
        return hash((self.depth, self.width, self.seed))

    def __repr__(self) -> str:
        return "HashFamily(depth=%d, width=%d, seed=%d)" % (self.depth, self.width, self.seed)
