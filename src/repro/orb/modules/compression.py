"""Transport-layer compression module.

Implements the paper's "compression for channels with small bandwidth"
at the network-centred integration layer (Figure 1): the whole GIOP
message body is compressed before it enters the link and decompressed
by the peer module.  The codec is chosen per binding through the
dynamic interface; the application-layer variant of the same
characteristic lives in :mod:`repro.qos.compression`.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

from repro import codecs
from repro.orb.exceptions import BAD_PARAM
from repro.orb.modules.base import QoSModule, peer_named

DEFAULT_CODEC = "lz"


class CompressionModule(QoSModule):
    """Compress message bodies on the wire."""

    name = "compression"
    description = "per-binding message-body compression"
    uses_envelope = True
    dynamic_ops = ("set_codec", "get_codec", "ratio")

    def __init__(self) -> None:
        super().__init__()
        self.bytes_in = 0
        self.bytes_out = 0

    # -- dynamic interface ------------------------------------------------

    def set_codec(self, binding: str, codec: str) -> Dict[str, Any]:
        """Choose the codec for one client/server relationship."""
        if codec not in codecs.CODECS:
            raise BAD_PARAM(
                f"unknown codec {codec!r}; available {sorted(codecs.CODECS)}"
            )
        return self.configure_binding(binding, codec=codec)

    def get_codec(self, binding: str) -> str:
        return self.binding_config(binding).get("codec", DEFAULT_CODEC)

    def ratio(self) -> float:
        """Aggregate output/input ratio since load (1.0 = no gain)."""
        if self.bytes_in == 0:
            return 1.0
        return self.bytes_out / self.bytes_in

    # -- data plane ----------------------------------------------------------

    def _burst_prolog(self, context: Dict[str, Any]) -> Tuple[str, Any]:
        # On the server side the reply is wrapped with the *request's*
        # envelope params as context; "requested" preserves the binding's
        # codec choice even when the request itself was incompressible.
        codec_name = context.get("requested", context.get("codec", DEFAULT_CODEC))
        compress, _ = peer_named(codecs.get_codec, codec_name)
        return codec_name, compress

    def _wrap_one(
        self, body: bytes, context: Dict[str, Any], state: Tuple[str, Any]
    ) -> Tuple[Dict[str, Any], bytes, float]:
        codec_name, compress = state
        compressed = compress(body)
        cpu = codecs.cpu_cost(codec_name, len(body))
        self.bytes_in += len(body)
        if len(compressed) >= len(body):
            # Incompressible: ship the original and say so.
            self.bytes_out += len(body)
            return {"codec": "identity", "requested": codec_name}, body, cpu
        self.bytes_out += len(compressed)
        return {"codec": codec_name, "requested": codec_name}, compressed, cpu

    def _unwrap_one(
        self, params: Dict[str, Any], payload: bytes
    ) -> Tuple[bytes, float]:
        codec_name = params.get("codec", "identity")
        body = peer_named(codecs.get_codec, codec_name)[1](payload)
        return body, codecs.cpu_cost(codec_name, len(body))


from repro.orb.modules import register_module  # noqa: E402

register_module(CompressionModule)
