"""On-disk tensor formats: round trips, reproducibility, error handling."""

import json
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from phasesynth.errors import ContractError
from phasesynth.tensorio import (load_archive, save_archive, save_pgm, tensor_bytes,
                                 tensor_from_bytes)


def test_tensor_header_format():
    blob = tensor_bytes(np.zeros((2, 3)))
    assert blob.startswith(b"TNSR v1 2 2 3\n")


def test_scalar_tensor_round_trip():
    arr = tensor_from_bytes(tensor_bytes(np.float64(4.25)))
    assert arr.shape == ()
    assert arr == 4.25


@settings(max_examples=50, deadline=None)
@given(hnp.arrays(np.float64, hnp.array_shapes(max_dims=3, max_side=5),
                  elements=st.floats(-1e6, 1e6)))
def test_tensor_round_trip(arr):
    out = tensor_from_bytes(tensor_bytes(arr))
    np.testing.assert_array_equal(out, arr)


def test_bad_magic_rejected():
    with pytest.raises(ContractError):
        tensor_from_bytes(b"NOPE v1 0\n")


def test_truncated_payload_rejected():
    blob = tensor_bytes(np.zeros(4))
    with pytest.raises(ContractError):
        tensor_from_bytes(blob[:-8])


def test_archive_round_trip_and_meta(tmp_path):
    named = {"w": np.ones((2, 2)), "b": np.arange(3.0)}
    path = tmp_path / "ck.ntar"
    save_archive(path, named, meta={"epoch": 5})
    loaded, meta = load_archive(path)
    assert set(loaded) == {"w", "b"}
    np.testing.assert_array_equal(loaded["w"], named["w"])
    np.testing.assert_array_equal(loaded["b"], named["b"])
    assert meta == {"epoch": 5}


def test_archive_bytes_reproducible(tmp_path):
    named = {"z": np.full((3,), 0.5), "a": np.eye(2)}
    p1, p2 = tmp_path / "one.ntar", tmp_path / "two.ntar"
    save_archive(p1, named, meta={"k": 1})
    save_archive(p2, dict(reversed(named.items())), meta={"k": 1})
    assert p1.read_bytes() == p2.read_bytes()


def test_archive_no_tmp_left_behind(tmp_path):
    path = tmp_path / "ck.ntar"
    save_archive(path, {"x": np.zeros(1)})
    assert path.exists()
    assert not (tmp_path / "ck.ntar.tmp").exists()


def test_archive_bad_magic(tmp_path):
    path = tmp_path / "junk.ntar"
    path.write_bytes(b"not an archive")
    with pytest.raises(ContractError):
        load_archive(path)


@pytest.mark.parametrize("blob", [
    b"TNSR v1 1 4",  # header without a newline
    tensor_bytes(np.zeros(4))[:-3],  # payload not whole float64 values
    b"TNSR v1 2 4\n" + bytes(32),  # rank and shape disagree
    b"TNSR v1 x\n",
    b"TNSR\xff v1 0\n" + bytes(8),
    b"TNSR v1 2 4294967296 4294967296\n",  # shape product wraps to 0 in int64
    b"TNSR v1 2 0 99999999999999999999\n",  # empty, but too large for NumPy
    b"TNSR v1 65 " + b"1 " * 65 + b"\n" + bytes(8),  # more axes than NumPy allows
])
def test_malformed_tensor_rejected(blob):
    with pytest.raises(ContractError):
        tensor_from_bytes(blob)


def archive_bytes(tmp_path):
    path = tmp_path / "ck.ntar"
    save_archive(path, {"w": np.arange(6.0).reshape(2, 3), "b": np.ones(5)}, meta={"k": 1})
    return path.read_bytes()


def test_truncated_archive_rejected_at_every_length(tmp_path):
    blob = archive_bytes(tmp_path)
    cut = tmp_path / "cut.ntar"
    for n in range(len(blob)):
        cut.write_bytes(blob[:n])
        with pytest.raises(ContractError):
            load_archive(cut)


def test_archive_index_errors_rejected(tmp_path):
    blob = archive_bytes(tmp_path)
    huge = tmp_path / "huge.ntar"  # index length far past the end of the file
    huge.write_bytes(blob[:8] + struct.pack("<Q", 2 ** 62) + blob[16:])
    with pytest.raises(ContractError):
        load_archive(huge)

    (index_len,) = struct.unpack("<Q", blob[8:16])
    body = blob[16 + index_len:]

    def with_index(index_bytes):
        bad = tmp_path / "bad.ntar"
        bad.write_bytes(blob[:8] + struct.pack("<Q", len(index_bytes)) + index_bytes + body)
        return bad

    index = json.loads(blob[16:16 + index_len])
    past_body = json.loads(blob[16:16 + index_len])
    past_body["tensors"][0]["offset"] = len(body)
    infinite = json.dumps(index).replace('"offset": 0', '"offset": 1e999')
    list_name = json.dumps(index).replace('"name": "b"', '"name": ["b"]')
    for bad_index in (b"{not json", b"\xff\xfe", b"[]", b'{"tensors": [{}]}',
                      json.dumps(past_body).encode(), infinite.encode(), list_name.encode()):
        with pytest.raises(ContractError):
            load_archive(with_index(bad_index))


# bytes that move a header or index somewhere new: digits, signs, exponents,
# separators and JSON punctuation, next to arbitrary ones
_TOKEN_BYTES = st.sampled_from(b"0123456789-+.eE \n\"{}[]:,")
_MUTATIONS = st.lists(st.tuples(st.sampled_from(["set", "insert", "delete"]),
                                st.floats(0.0, 1.0, exclude_max=True),
                                st.one_of(_TOKEN_BYTES, st.integers(0, 255))),
                      min_size=1, max_size=4)


def _mutate(blob, mutations):
    blob = bytearray(blob)
    for kind, where, byte in mutations:
        pos = int(where * (len(blob) + (kind == "insert")))
        if kind == "insert":
            blob.insert(pos, byte)
        elif blob:
            if kind == "set":
                blob[pos] = byte
            else:
                del blob[pos]
    return bytes(blob)


@settings(max_examples=300, deadline=None)
@given(_MUTATIONS)
def test_mutated_tensor_blob_raises_only_contract_error(mutations):
    blob = _mutate(tensor_bytes(np.arange(6.0).reshape(2, 3)), mutations)
    try:
        tensor_from_bytes(blob)
    except ContractError:
        pass


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutations=_MUTATIONS)
def test_mutated_archive_raises_only_contract_error(tmp_path, mutations):
    blob = archive_bytes(tmp_path)
    # aim half the edits at the index, where most of the structure lives
    (index_len,) = struct.unpack("<Q", blob[8:16])
    head = 16 + index_len
    if mutations[0][1] < 0.5:
        blob = _mutate(blob[:head], mutations) + blob[head:]
    else:
        blob = _mutate(blob, mutations)
    path = tmp_path / "fuzzed.ntar"
    path.write_bytes(blob)
    try:
        load_archive(path)
    except ContractError:
        pass


def test_pgm_header_and_payload(tmp_path):
    img = np.array([[0.0, 0.5], [1.0, 2.0]])  # 2.0 clamps to 1
    path = tmp_path / "img.pgm"
    save_pgm(path, img)
    blob = path.read_bytes()
    assert blob.startswith(b"P5\n2 2\n255\n")
    assert blob[len(b"P5\n2 2\n255\n"):] == bytes([0, 128, 255, 255])
