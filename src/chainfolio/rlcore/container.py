"""Versioned binary container for trained models (magic ``CRLM``).

Layout, all integers little-endian:

    offset  size  field
    0       4     magic ``CRLM``
    4       2     format version (uint16), currently 1
    6       1     payload kind, always ``M`` (any other is rejected)
    7       1     reserved, 0
    8       4     header length H (uint32)
    12      H     header JSON (UTF-8, sorted keys): {"meta": ..., "sections":
                  [{"name": ..., "len": ...}, ...]}
    12+H    ...   section byte blobs, concatenated in listed order
    end-32  32    SHA-256 digest of every preceding byte

Parameter sections are raw little-endian float64 arrays.  Writing is
fully deterministic: identical meta and sections give identical bytes.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..datastore import atomic_write
from ..errors import SerializationError
from ..serial import from_doc, to_doc
from .network import ACTION_COUNTS, QNetwork, param_shapes

MAGIC = b"CRLM"
FORMAT_VERSION = 1

_DIGEST_LEN = 32


class ContainerFormatError(SerializationError):
    """Not a container, or a structurally broken one."""


class UnsupportedVersionError(SerializationError):
    """A container written by an incompatible format version."""


class ChecksumMismatchError(SerializationError):
    """Stored digest does not match the container bytes."""


def encode_container(meta: dict, sections: dict[str, bytes]) -> bytes:
    names = sorted(sections)
    header = {
        "meta": meta,
        "sections": [{"name": n, "len": len(sections[n])} for n in names],
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    body = b"".join(sections[n] for n in names)
    prefix = MAGIC + struct.pack("<HBB", FORMAT_VERSION, ord("M"), 0)
    prefix += struct.pack("<I", len(header_bytes)) + header_bytes + body
    return prefix + hashlib.sha256(prefix).digest()


def write_container(path: str | Path, meta: dict, sections: dict[str, bytes]) -> None:
    atomic_write(path, [encode_container(meta, sections)])


def decode_container(blob: bytes) -> tuple[dict, dict[str, bytes]]:
    if len(blob) < 12 + _DIGEST_LEN or blob[:4] != MAGIC:
        raise ContainerFormatError("not a CRLM container")
    digest = blob[-_DIGEST_LEN:]
    if hashlib.sha256(blob[:-_DIGEST_LEN]).digest() != digest:
        raise ChecksumMismatchError("container checksum mismatch; file is corrupt")
    version, kind_byte, _ = struct.unpack("<HBB", blob[4:8])
    if version != FORMAT_VERSION:
        raise UnsupportedVersionError(f"container format version {version} unsupported (expected {FORMAT_VERSION})")
    if kind_byte != ord("M"):
        raise ContainerFormatError(f"expected a 'M' container, found {chr(kind_byte)!r}")
    (header_len,) = struct.unpack("<I", blob[8:12])
    try:
        header = json.loads(blob[12 : 12 + header_len].decode())
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, or nested too deep
        raise ContainerFormatError(f"bad container header: {exc}") from None
    if not isinstance(header, dict) or "meta" not in header or not isinstance(header.get("sections"), list):
        raise ContainerFormatError("container header needs a 'meta' and a 'sections' list")
    sections: dict[str, bytes] = {}
    offset = 12 + header_len
    for entry in header["sections"]:
        if not (isinstance(entry, dict) and isinstance(entry.get("name"), str) and _is_size(entry.get("len"))):
            raise ContainerFormatError("every section entry needs a string 'name' and an int 'len' >= 0")
        sections[entry["name"]] = blob[offset : offset + entry["len"]]
        offset += entry["len"]
    if offset != len(blob) - _DIGEST_LEN:
        raise ContainerFormatError("section table inconsistent with container size")
    return header["meta"], sections


def _is_size(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


# ---------------------------------------------------------------------------
# Network payloads


def params_to_bytes(params: np.ndarray) -> bytes:
    return np.ascontiguousarray(params, dtype="<f8").tobytes()


def params_from_bytes(blob: bytes) -> np.ndarray:
    return np.frombuffer(blob, dtype="<f8").astype(np.float64)


@dataclass(frozen=True)
class NetworkMeta:
    """The header block of one stored network; ``n_actions`` and
    ``layer_shapes`` follow from the other three, so a loader checks it whole."""

    arch: str
    input_shape: tuple[int, int, int]
    n_actions: int
    seed: int
    layer_shapes: list[tuple[int, ...]]

    @classmethod
    def of(cls, arch: str, input_shape: tuple[int, int, int], seed: int) -> NetworkMeta:
        """The block a network of these settings has (checked, nothing allocated)."""
        return cls(arch, tuple(input_shape), ACTION_COUNTS[arch], seed, param_shapes(arch, input_shape))


def network_meta(net: QNetwork) -> dict:
    return to_doc(NetworkMeta.of(net.arch, net.input_shape, net.seed))


def network_from_parts(doc, params: np.ndarray, arch: str) -> QNetwork:
    """The stored network of the role that needs architecture ``arch``; its
    block must be the one its input shape and seed imply, and the parameter
    count is checked before any array is allocated."""
    meta = from_doc(NetworkMeta, doc)
    if meta.arch != arch:
        raise ContainerFormatError(f"stored network is {meta.arch!r}, not {arch!r}")
    if meta != NetworkMeta.of(arch, meta.input_shape, meta.seed):
        raise ContainerFormatError(f"stored {arch} block does not match its input shape and seed")
    n_params = sum(math.prod(s) for s in meta.layer_shapes)
    if params.size != n_params:
        raise ContainerFormatError(f"expected {n_params} parameters, found {params.size}")
    net = QNetwork(arch, meta.input_shape, meta.seed)
    np.copyto(net.params, params)
    return net
