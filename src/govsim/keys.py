"""Pluggable signature schemes for block sealing.

Two schemes share one interface and are selected by name in configuration:

* ``seeded``  - hash-derived keypairs and publicly recomputable tags.
  Zero dependencies and bit-stable, which is what desk-scale reproducible
  runs need. It provides NO forgery resistance (anyone holding the public
  key can produce a valid tag) and must never guard anything real.
* ``ed25519`` - real elliptic-curve signatures via the ``cryptography``
  package (deterministic per RFC 8032), for runs that want actual
  unforgeability behind the same interface.
"""

from __future__ import annotations

from dataclasses import dataclass

from .encoding import sha256
from .errors import GovSimError


@dataclass(frozen=True)
class KeyPair:
    private: bytes
    public: bytes


class SeededScheme:
    """Deterministic test-double scheme. Not secure by construction."""

    name = "seeded"

    def generate(self, seed: bytes) -> KeyPair:
        private = sha256(b"govsim-seeded-priv" + seed)
        return KeyPair(private=private, public=self.public_key(private))

    def public_key(self, private: bytes) -> bytes:
        return sha256(b"govsim-seeded-pub" + private)

    def sign(self, private: bytes, message: bytes) -> bytes:
        return sha256(b"govsim-seeded-sig" + self.public_key(private) + message)

    def verify(self, public: bytes, message: bytes, signature: bytes) -> bool:
        return signature == sha256(b"govsim-seeded-sig" + public + message)


class Ed25519Scheme:
    """RFC 8032 Ed25519 via the optional ``cryptography`` dependency."""

    name = "ed25519"

    def __init__(self):
        try:
            from cryptography.hazmat.primitives.asymmetric import ed25519
        except ImportError as exc:  # pragma: no cover - env without extra
            raise GovSimError(
                "signature scheme 'ed25519' needs the cryptography package "
                "(pip install govsim[ed25519])"
            ) from exc
        self._mod = ed25519
        # One key object per private key: rebuilding it re-derives the
        # public key on every signature. Likewise one per public key, which
        # is decoded and checked as it is built.
        self._signing_keys: dict[bytes, object] = {}
        self._verifying_keys: dict[bytes, object] = {}

    def generate(self, seed: bytes) -> KeyPair:
        private = sha256(b"govsim-ed25519-seed" + seed)
        return KeyPair(private=private, public=self.public_key(private))

    def _signing_key(self, private: bytes):
        key = self._signing_keys.get(private)
        if key is None:
            key = self._mod.Ed25519PrivateKey.from_private_bytes(private)
            self._signing_keys[private] = key
        return key

    def public_key(self, private: bytes) -> bytes:
        return self._signing_key(private).public_key().public_bytes_raw()

    def sign(self, private: bytes, message: bytes) -> bytes:
        return self._signing_key(private).sign(message)

    def verify(self, public: bytes, message: bytes, signature: bytes) -> bool:
        try:
            key = self._verifying_keys.get(public)
            if key is None:
                key = self._mod.Ed25519PublicKey.from_public_bytes(public)
                self._verifying_keys[public] = key
            key.verify(signature, message)
            return True
        except Exception:
            return False


_SCHEMES = {
    "seeded": SeededScheme,
    "ed25519": Ed25519Scheme,
}


def get_scheme(name: str):
    try:
        factory = _SCHEMES[name]
    except KeyError:
        raise GovSimError(f"unknown signature scheme: {name!r}") from None
    return factory()
