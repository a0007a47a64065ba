"""Checksummed binary container (magic ``CRLM``) of a JSON header and a
body: the format of module files (``.cm``) and of store sidecars.

Layout, all integers little-endian:

    offset  size  field
    0       4     magic ``CRLM``
    4       2     format version (uint16), 3
    6       4     header length H (uint32)
    10      H     header JSON (UTF-8, sorted keys), an object
    10+H    ...   body bytes
    end-32  32    SHA-256 digest of every preceding byte

Version 3 is the only version read.  A module file written before it
carries version 1 and is refused; a store sidecar of another version (or
one written before sidecars were containers) is stale, so a load parses
its CSV once and rewrites it.  Writing is fully deterministic: identical
headers and bodies give identical bytes.
"""

from __future__ import annotations

import hashlib
import json
import struct

from .errors import SerializationError

MAGIC = b"CRLM"
VERSION = 3

_PREFIX = struct.Struct("<4sHI")
_DIGEST_LEN = 32


class ContainerFormatError(SerializationError):
    """Not a container, or a structurally broken one."""


class UnsupportedVersionError(SerializationError):
    """A container written by an incompatible format version."""


class ChecksumMismatchError(SerializationError):
    """Stored digest does not match the container bytes."""


def encode_container(header: dict, body: bytes) -> bytes:
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    prefix = _PREFIX.pack(MAGIC, VERSION, len(header_bytes)) + header_bytes + body
    return prefix + hashlib.sha256(prefix).digest()


def decode_container(blob: bytes) -> tuple[dict, bytes]:
    """The header and the body of a container's bytes."""
    if len(blob) < _PREFIX.size + _DIGEST_LEN or blob[:4] != MAGIC:
        raise ContainerFormatError("not a CRLM container")
    if hashlib.sha256(blob[:-_DIGEST_LEN]).digest() != blob[-_DIGEST_LEN:]:
        raise ChecksumMismatchError("container checksum mismatch; file is corrupt")
    _, version, header_len = _PREFIX.unpack_from(blob)
    if version != VERSION:
        raise UnsupportedVersionError(f"container format version {version} unsupported (expected {VERSION})")
    body_at = _PREFIX.size + header_len
    if body_at > len(blob) - _DIGEST_LEN:
        raise ContainerFormatError("header length runs past the end of the container")
    try:
        header = json.loads(blob[_PREFIX.size : body_at].decode())
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, or nested too deep
        raise ContainerFormatError(f"bad container header: {exc}") from None
    if not isinstance(header, dict):
        raise ContainerFormatError("container header is not a JSON object")
    return header, blob[body_at:-_DIGEST_LEN]
