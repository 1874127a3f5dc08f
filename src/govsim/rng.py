"""Counter-based deterministic randomness.

Each consumer gets its own labelled stream derived from the master seed, so
adding a draw in one module never perturbs another module's sequence. Draws
are SHA-256 outputs of (seed, label, counter); identical across platforms
and Python versions, unlike random.Random state pickling.
"""

from __future__ import annotations

import hashlib
from typing import Sequence, TypeVar

T = TypeVar("T")

_DOMAIN = b"govsim-rng-v1"


class DeterministicStream:
    """Independent random stream identified by (seed, label)."""

    def __init__(self, seed: int, label: str):
        self.seed = seed
        self.label = label
        self._prefix = (
            _DOMAIN
            + (seed & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little")
            + label.encode("utf-8")
        )
        self._counter = 0
        self._pool = b""

    def _refill(self) -> None:
        block = hashlib.sha256(
            self._prefix + self._counter.to_bytes(8, "little")
        ).digest()
        self._counter += 1
        self._pool += block

    def bytes_(self, n: int) -> bytes:
        while len(self._pool) < n:
            self._refill()
        out, self._pool = self._pool[:n], self._pool[n:]
        return out

    def u64(self) -> int:
        return int.from_bytes(self.bytes_(8), "little")

    def randbelow(self, n: int) -> int:
        """Uniform integer in [0, n) via rejection sampling."""
        if n <= 0:
            raise ValueError("n must be positive")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            v = self.u64()
            if v < limit:
                return v % n

    def sample(self, seq: Sequence[T], k: int) -> list[T]:
        """k distinct elements, order determined by the stream."""
        if k > len(seq):
            raise ValueError("sample larger than population")
        pool = list(seq)
        out: list[T] = []
        for _ in range(k):
            out.append(pool.pop(self.randbelow(len(pool))))
        return out
