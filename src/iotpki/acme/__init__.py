"""RFC 8555 certificate issuance: client, embedded test CA, challenge
fulfillers, and the JWS/JWK primitives both sides share."""

from .jws import dns01_txt_value, jwk_thumbprint, key_authorization, public_jwk
from .ca import TestCa
from .client import AcmeClient
from .challenges import DnsTxtFulfiller, HttpShelfFulfiller, TokenShelf

__all__ = [
    "AcmeClient",
    "DnsTxtFulfiller",
    "HttpShelfFulfiller",
    "TestCa",
    "TokenShelf",
    "dns01_txt_value",
    "jwk_thumbprint",
    "key_authorization",
    "public_jwk",
]
