"""On-disk tensor format: the named-tensor archive of checkpoints and
phantom cases.

An archive is a magic line, an 8-byte little-endian index length, a
JSON index (tensor names, offsets, metadata), then concatenated TNSR
payloads. Byte-for-byte reproducible for identical contents.

TNSR payload: one ASCII header line ``TNSR v1 <rank> <d0> <d1> ...``
followed by the flat little-endian float64 data in row-major order.
"""

from __future__ import annotations

import json
import math
import os
import struct

import numpy as np

from .errors import ContractError

ARCHIVE_MAGIC = b"NTAR v1\n"


def tensor_bytes(arr):
    arr = np.asarray(arr, dtype="<f8", order="C")
    header = "TNSR v1 {} {}\n".format(arr.ndim, " ".join(str(d) for d in arr.shape))
    if arr.ndim == 0:
        header = "TNSR v1 0\n"
    return header.encode("ascii") + arr.tobytes()


def tensor_from_bytes(blob):
    newline = blob.find(b"\n")
    if newline < 0:
        raise ContractError("TNSR header has no terminating newline")
    fields = blob[:newline].decode("ascii", errors="replace").split()
    if fields[:2] != ["TNSR", "v1"]:
        raise ContractError("not a TNSR v1 payload")
    try:
        rank, *shape = (int(f) for f in fields[2:])
    except ValueError:
        raise ContractError("malformed TNSR header") from None
    shape = tuple(shape)
    if len(shape) != rank or any(d < 0 for d in shape):
        raise ContractError(f"TNSR header rank {rank} does not match shape {shape}")
    payload = blob[newline + 1:]
    if len(payload) % 8:
        raise ContractError(f"TNSR payload of {len(payload)} bytes is not whole float64 values")
    data = np.frombuffer(payload, dtype="<f8")
    if data.size != math.prod(shape):
        raise ContractError(f"TNSR payload size {data.size} != product of shape {shape}")
    try:
        return data.reshape(shape).astype(np.float64)
    except ValueError:  # over 64 axes, or an empty shape NumPy cannot index
        raise ContractError(f"TNSR shape {shape} is not a valid array shape") from None


def save_archive(path, named, meta=None):
    """Write a named-tensor archive. ``named`` maps name -> ndarray."""
    payloads = []
    index = {"schema_version": 1, "meta": meta or {}, "tensors": []}
    offset = 0
    for name in sorted(named):
        blob = tensor_bytes(named[name])
        index["tensors"].append({"name": name, "offset": offset, "length": len(blob)})
        payloads.append(blob)
        offset += len(blob)
    index_bytes = json.dumps(index, sort_keys=True).encode("utf-8")
    tmp = str(path) + ".tmp"
    with open(tmp, "wb") as f:
        f.write(ARCHIVE_MAGIC)
        f.write(struct.pack("<Q", len(index_bytes)))
        f.write(index_bytes)
        for blob in payloads:
            f.write(blob)
    os.replace(tmp, path)


def load_archive(path):
    """Return (dict name -> ndarray, meta dict)."""
    with open(path, "rb") as f:
        magic = f.read(len(ARCHIVE_MAGIC))
        if magic != ARCHIVE_MAGIC:
            raise ContractError(f"{path} is not a named-tensor archive")
        length_field = f.read(8)
        if len(length_field) != 8:
            raise ContractError(f"{path}: truncated index length")
        (index_len,) = struct.unpack("<Q", length_field)
        size = os.fstat(f.fileno()).st_size
        if index_len > size - f.tell():
            raise ContractError(f"{path}: index of {index_len} bytes runs past the end")
        index_bytes = f.read(index_len)
        body_start = f.tell()
        body_len = size - body_start
        try:
            index = json.loads(index_bytes.decode("utf-8"))
            entries = [(e["name"], int(e["offset"]), int(e["length"])) for e in index["tensors"]]
            meta = index.get("meta", {})
        except (ValueError, KeyError, TypeError, OverflowError):
            raise ContractError(f"{path}: malformed archive index") from None
        named = {}
        for name, offset, length in entries:
            if not isinstance(name, str):
                raise ContractError(f"{path}: tensor name {name!r} is not a string")
            if offset < 0 or length < 0 or offset + length > body_len:
                raise ContractError(
                    f"{path}: tensor {name!r} spans bytes {offset}..{offset + length} "
                    f"of a {body_len}-byte body")
            # one read per tensor: reading a whole 64 px case body (164 KB) at once
            # left about 3 MB more resident after loading 200 cases
            f.seek(body_start + offset)
            named[name] = tensor_from_bytes(f.read(length))
    return named, meta


def save_pgm(path, image):
    """Export a [0,1] grayscale image as binary 8-bit PGM (P5)."""
    img = np.clip(np.asarray(image, dtype=np.float64), 0.0, 1.0)
    pixels = np.round(img * 255.0).astype(np.uint8)
    h, w = pixels.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(pixels.tobytes())
