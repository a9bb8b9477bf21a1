"""Transport-layer encryption module ("privacy through encryption").

Message bodies are encrypted under a session key agreed per binding.
The key itself is never sent: the encryption characteristic drives a
Diffie-Hellman exchange over module *commands* — the paper's "QoS to
QoS" communication, e.g. "on the fly change of encryption keys"
(Section 3.2) — and installs the derived key on both sides.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

from repro import ciphers
from repro.ciphers.keyex import KeyExchange
from repro.orb.exceptions import BAD_PARAM, NO_PERMISSION
from repro.orb.modules.base import QoSModule, peer_named

DEFAULT_CIPHER = "xtea-ctr"


class CryptoModule(QoSModule):
    """Encrypt message bodies on the wire."""

    name = "crypto"
    description = "per-binding message-body encryption with DH key agreement"
    uses_envelope = True
    dynamic_ops = (
        "set_cipher",
        "get_cipher",
        "dh_exchange",
        "install_key",
        "drop_key",
        "active_keys",
    )

    def __init__(self) -> None:
        super().__init__()
        #: key id -> session key bytes.
        self._keys: Dict[str, bytes] = {}
        #: deterministic seed source for server-side DH endpoints.
        self._dh_seed = 0x5EC0DE

    # -- dynamic interface ------------------------------------------------

    def set_cipher(self, binding: str, cipher: str, key_id: str) -> Dict[str, Any]:
        """Select the cipher and session key for one binding."""
        if cipher not in ciphers.CIPHERS:
            raise BAD_PARAM(
                f"unknown cipher {cipher!r}; available {sorted(ciphers.CIPHERS)}"
            )
        return self.configure_binding(binding, cipher=cipher, key_id=key_id)

    def get_cipher(self, binding: str) -> str:
        return self.binding_config(binding).get("cipher", DEFAULT_CIPHER)

    def dh_exchange(self, key_id: str, peer_public: int) -> int:
        """Server half of a key agreement: derive, store, answer.

        The client sends its public value as a command; the reply
        carries this side's public value.  Both ends then hold the same
        session key under ``key_id`` without it ever crossing the wire.
        """
        endpoint = KeyExchange(seed=self._dh_seed)
        self._dh_seed += 1
        self._keys[key_id] = endpoint.shared_key(peer_public)
        return endpoint.public_value

    def install_key(self, key_id: str, key: bytes) -> bool:
        """Directly install a session key (local configuration path)."""
        if not isinstance(key, (bytes, bytearray)) or not key:
            raise BAD_PARAM("session key must be non-empty bytes")
        self._keys[key_id] = bytes(key)
        return True

    def drop_key(self, key_id: str) -> bool:
        """Forget a session key; returns whether it existed."""
        return self._keys.pop(key_id, None) is not None

    def active_keys(self) -> list:
        """Installed key ids (never the key material)."""
        return sorted(self._keys)

    # -- data plane ----------------------------------------------------------

    def _key(self, key_id: str) -> bytes:
        try:
            return self._keys[key_id]
        except KeyError:
            raise NO_PERMISSION(f"no session key installed under {key_id!r}") from None

    def _wrap_one(
        self, body: bytes, context: Dict[str, Any]
    ) -> Tuple[Dict[str, Any], bytes, float]:
        cipher_name = context.get("cipher", DEFAULT_CIPHER)
        key_id = context.get("key_id")
        if key_id is None:
            raise NO_PERMISSION("binding has no key_id configured; negotiate first")
        encrypt, _ = peer_named(ciphers.get_cipher, cipher_name)
        key = self._key(key_id)
        payload = encrypt(key, body)
        params = {"cipher": cipher_name, "key_id": key_id}
        return params, payload, ciphers.cpu_cost(cipher_name, len(body))

    def _unwrap_one(
        self, params: Dict[str, Any], payload: bytes
    ) -> Tuple[bytes, float]:
        cipher_name = params.get("cipher", DEFAULT_CIPHER)
        decrypt = peer_named(ciphers.get_cipher, cipher_name)[1]
        body = decrypt(self._key(params.get("key_id", "")), payload)
        return body, ciphers.cpu_cost(cipher_name, len(body))


from repro.orb.modules import register_module  # noqa: E402

register_module(CryptoModule)
