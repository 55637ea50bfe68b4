"""JWS/JWK primitives for the ACME protocol (RFC 8555 section 6).

Covers exactly what the flow needs: RS256 and ES256 signatures, RFC 7638
JWK thumbprints, and the key-authorization / DNS-01 TXT derivations both
the client and the validating CA compute independently.
"""

from __future__ import annotations

import base64
import hashlib
import json
from typing import NamedTuple

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric import ec, padding, rsa, utils

from ..errors import IotPkiError


class JwsError(IotPkiError):
    pass


class MalformedJws(JwsError):
    """The envelope is not a flattened JWS of the expected member shapes."""


class UnsupportedKey(JwsError):
    """A JWK of a key type or curve other than RSA and EC P-256."""


def b64url(data: bytes) -> str:
    return base64.urlsafe_b64encode(data).rstrip(b"=").decode("ascii")


def b64url_decode(s: str) -> bytes:
    return base64.urlsafe_b64decode(s + "=" * (-len(s) % 4))


def json_object(data) -> dict:
    """Parse JSON that must be an object; any other value, or nesting too
    deep to parse, is a ValueError."""
    try:
        obj = json.loads(data)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None
    if not isinstance(obj, dict):
        raise ValueError(f"expected a JSON object, got {type(obj).__name__}")
    return obj


def alg_for_key(private_key) -> str:
    if isinstance(private_key, rsa.RSAPrivateKey):
        return "RS256"
    if isinstance(private_key, ec.EllipticCurvePrivateKey):
        return "ES256"
    raise JwsError(f"unsupported key type {type(private_key).__name__}")


def public_jwk(public_key) -> dict:
    """Public JWK with only the required members, values base64url."""
    if isinstance(public_key, rsa.RSAPublicKey):
        numbers = public_key.public_numbers()
        return {
            "e": b64url(_int_bytes(numbers.e)),
            "kty": "RSA",
            "n": b64url(_int_bytes(numbers.n)),
        }
    if isinstance(public_key, ec.EllipticCurvePublicKey):
        numbers = public_key.public_numbers()
        return {
            "crv": "P-256",
            "kty": "EC",
            "x": b64url(numbers.x.to_bytes(32, "big")),
            "y": b64url(numbers.y.to_bytes(32, "big")),
        }
    raise JwsError(f"unsupported key type {type(public_key).__name__}")


def jwk_to_public_key(jwk: dict):
    if jwk.get("kty") == "RSA":
        n = int.from_bytes(b64url_decode(jwk["n"]), "big")
        e = int.from_bytes(b64url_decode(jwk["e"]), "big")
        return rsa.RSAPublicNumbers(e, n).public_key()
    if jwk.get("kty") == "EC" and jwk.get("crv") == "P-256":
        x = int.from_bytes(b64url_decode(jwk["x"]), "big")
        y = int.from_bytes(b64url_decode(jwk["y"]), "big")
        return ec.EllipticCurvePublicNumbers(x, y, ec.SECP256R1()).public_key()
    raise UnsupportedKey(f"unsupported jwk kty {jwk.get('kty')!r} crv {jwk.get('crv')!r}")


def jwk_thumbprint(jwk: dict) -> str:
    """RFC 7638: SHA-256 over the canonical JSON of required members only."""
    required = {"RSA": ("e", "kty", "n"), "EC": ("crv", "kty", "x", "y")}
    kty = jwk.get("kty")
    if kty not in required:
        raise UnsupportedKey(f"unsupported kty {kty!r}")
    subset = {k: jwk[k] for k in required[kty]}
    canonical = json.dumps(subset, separators=(",", ":"), sort_keys=True)
    return b64url(hashlib.sha256(canonical.encode("utf-8")).digest())


def sign_jws(private_key, protected: dict, payload: bytes | None) -> dict:
    """Flattened JWS JSON. ``payload=None`` encodes POST-as-GET (empty)."""
    protected_b64 = b64url(json.dumps(protected, separators=(",", ":")).encode())
    payload_b64 = "" if payload is None else b64url(payload)
    signing_input = f"{protected_b64}.{payload_b64}".encode("ascii")
    if alg_for_key(private_key) == "RS256":
        signature = private_key.sign(signing_input, padding.PKCS1v15(), hashes.SHA256())
    else:
        r, s = utils.decode_dss_signature(private_key.sign(signing_input, ec.ECDSA(hashes.SHA256())))
        signature = r.to_bytes(32, "big") + s.to_bytes(32, "big")
    return {"protected": protected_b64, "payload": payload_b64, "signature": b64url(signature)}


class JwsMessage(NamedTuple):
    """A flattened JWS, decoded but not yet verified."""

    protected: dict
    payload: bytes
    signing_input: bytes
    signature: bytes


def parse_jws(body: bytes) -> JwsMessage:
    """Decode a flattened JWS of base64url members whose protected header is
    a JSON object; any other body (JSON nested too deep too) is MalformedJws."""
    try:
        envelope = json_object(body)
        protected_b64, payload_b64 = envelope["protected"], envelope["payload"]
        # Decoding refuses a member that is not a string (TypeError), so
        # the signing input is only ever formed from two strings.
        protected, payload = json_object(b64url_decode(protected_b64)), b64url_decode(payload_b64)
        signature = b64url_decode(envelope["signature"])
        signing_input = f"{protected_b64}.{payload_b64}".encode("ascii")
        return JwsMessage(protected, payload, signing_input, signature)
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedJws(f"malformed jws: {exc}") from exc


def verify_jws(message: JwsMessage, public_key) -> None:
    """Raise JwsError unless the header's ``alg`` fits the key and the signature verifies."""
    alg, signature = message.protected.get("alg"), message.signature
    try:
        if alg == "RS256" and isinstance(public_key, rsa.RSAPublicKey):
            public_key.verify(signature, message.signing_input, padding.PKCS1v15(), hashes.SHA256())
        elif alg == "ES256" and isinstance(public_key, ec.EllipticCurvePublicKey):
            if len(signature) != 64:
                raise JwsError("ES256 signature must be 64 raw bytes")
            der = utils.encode_dss_signature(
                int.from_bytes(signature[:32], "big"), int.from_bytes(signature[32:], "big")
            )
            public_key.verify(der, message.signing_input, ec.ECDSA(hashes.SHA256()))
        else:
            raise JwsError(f"alg {alg!r} does not match key {type(public_key).__name__}")
    except InvalidSignature as exc:
        raise JwsError("signature verification failed") from exc


def key_authorization(token: str, thumbprint: str) -> str:
    """RFC 8555 section 8.1: token '.' account-key thumbprint."""
    if not token:
        raise JwsError("empty challenge token")
    return f"{token}.{thumbprint}"


def dns01_txt_value(key_auth: str) -> str:
    """RFC 8555 section 8.4: base64url(SHA-256(key authorization))."""
    return b64url(hashlib.sha256(key_auth.encode("ascii")).digest())


def _int_bytes(value: int) -> bytes:
    return value.to_bytes((value.bit_length() + 7) // 8 or 1, "big")
