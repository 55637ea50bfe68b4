"""X.509 helpers shared by the ACME client, the embedded CA, and peer
validation: key generation, CSR construction, SPKI fingerprints, and PEM
chain handling.

Key material produced here lives in process memory only; nothing in this
module writes keys to disk.
"""

from __future__ import annotations

import hashlib
import os
import ssl

from cryptography import x509
from cryptography.hazmat.primitives import hashes, serialization
from cryptography.hazmat.primitives.asymmetric import ec


def generate_key() -> ec.EllipticCurvePrivateKey:
    """A fresh P-256 keypair, the one kind of device or account key."""
    return ec.generate_private_key(ec.SECP256R1())


def build_csr(private_key, fqdn: str) -> x509.CertificateSigningRequest:
    """CSR with an empty subject and one dNSName SAN, the device FQDN: the
    SAN is the only carrier of a device's name (RFC 9525), so the name is
    free of the 64-character cap X.509 puts on a CN."""
    return (
        x509.CertificateSigningRequestBuilder()
        .subject_name(x509.Name([]))
        .add_extension(x509.SubjectAlternativeName([x509.DNSName(fqdn)]), critical=True)
        .sign(private_key, hashes.SHA256())
    )


def csr_to_der(csr: x509.CertificateSigningRequest) -> bytes:
    return csr.public_bytes(serialization.Encoding.DER)


def spki_fingerprint(public_key) -> str:
    """SHA-256 over the DER SubjectPublicKeyInfo, hex. Stable across
    renewals when the device reuses its keypair."""
    der = public_key.public_bytes(
        serialization.Encoding.DER, serialization.PublicFormat.SubjectPublicKeyInfo
    )
    return hashlib.sha256(der).hexdigest()


def cert_to_pem(cert: x509.Certificate) -> str:
    return cert.public_bytes(serialization.Encoding.PEM).decode("ascii")


def split_pem_chain(pem_chain: str) -> list[x509.Certificate]:
    return x509.load_pem_x509_certificates(pem_chain.encode("ascii"))


def serial_hex(cert: x509.Certificate) -> str:
    """Lowercase hex, no leading zeros: the one spelling of a serial for the
    CA's records, the inventory and revocation filters."""
    return format(cert.serial_number, "x")


def san_dns_names(cert: x509.Certificate | x509.CertificateSigningRequest) -> list[str]:
    try:
        ext = cert.extensions.get_extension_for_class(x509.SubjectAlternativeName)
    except x509.ExtensionNotFound:
        return []
    return ext.value.get_values_for_type(x509.DNSName)


def key_to_pem(private_key) -> str:
    """PEM-encode a private key. For in-memory plumbing only; callers must
    not persist the result (the inventory write guard enforces this)."""
    return private_key.private_bytes(
        serialization.Encoding.PEM,
        serialization.PrivateFormat.PKCS8,
        serialization.NoEncryption(),
    ).decode("ascii")


def _memfd_file(name: str, content: str) -> object:
    """Anonymous in-memory file (Linux memfd), opened for reading."""
    fd = os.memfd_create(name)
    os.write(fd, content.encode("ascii"))
    os.lseek(fd, 0, os.SEEK_SET)
    return fd


def load_cert_chain_in_memory(ctx: ssl.SSLContext, cert_pem: str, key_pem: str) -> None:
    """load_cert_chain without touching the filesystem: the PEMs are staged
    in memfd-backed descriptors and fed to OpenSSL via /proc/self/fd."""
    cert_fd = _memfd_file("cert", cert_pem)
    key_fd = _memfd_file("key", key_pem)
    try:
        ctx.load_cert_chain(f"/proc/self/fd/{cert_fd}", f"/proc/self/fd/{key_fd}")
    finally:
        os.close(cert_fd)
        os.close(key_fd)
