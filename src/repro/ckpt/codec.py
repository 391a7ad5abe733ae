"""Deterministic binary codec for ``repro.ckpt/v1`` snapshot blobs.

Every snapshot serializes through one recursive value encoder with a
fixed, documented byte layout, so that *identical logical state always
produces identical bytes* — the property the content-addressed
checkpoint store and the ``(spec_key, stream_offset, state_digest)``
continuation keys both depend on.

Blob layout::

    magic     b"RCKP"                 (4 bytes)
    schema    str                     ("repro.ckpt/v1")
    kind      str                     (snapshot registry kind)
    body      length-prefixed bytes   (encoded payload value)
    digest    8 bytes                 (sha256(magic..body) prefix)

Value encoding is a single-byte tag followed by the payload:

==== ======================================================
tag  payload
==== ======================================================
``N``  None — no payload
``F``  False / ``T``  True — no payload
``i``  zigzag varint integer (arbitrary precision)
``d``  IEEE-754 double, big-endian (8 bytes)
``s``  varint byte length + UTF-8 bytes
``b``  varint byte length + raw bytes
``l``  varint element count + encoded elements
``m``  varint pair count + encoded key/value pairs, in
       insertion order (callers must present canonical order)
==== ======================================================

Varints are LEB128 (7 bits per byte, little-endian groups); signed
integers are zigzag-mapped first so small negatives stay small. There
is no float-vs-int ambiguity: the tag is part of the value, so ``1``
and ``1.0`` encode differently and round-trip exactly.

Any structural problem — bad magic, unknown schema, truncation, a
digest mismatch, or trailing garbage after the blob — raises
:class:`~repro.errors.CkptError` naming the failing stage.

Both directions are iterative: the encoder keeps a stack of container
iterators and the decoder a stack of open containers, walking the
payload with one dispatch per value on its exact type (encoder) or tag
byte (decoder). Integers in ``[-8192, 8192)`` — most table keys, slot
distances and page numbers — encode from a precomputed table. Values
of subclassed types (``IntEnum``, ``OrderedDict``, ...) are converted
to their base type first and emit the same bytes.
"""

from __future__ import annotations

import functools
import hashlib
import struct
from itertools import chain

from ..errors import CkptError

#: Schema tag embedded in (and demanded from) every blob.
CKPT_SCHEMA = "repro.ckpt/v1"

_MAGIC = b"RCKP"
_DIGEST_BYTES = 8

_Value = None | bool | int | float | str | bytes | list | dict

_N, _F, _T, _I, _D, _S, _B, _L, _M = b"NFTidsblm"

#: Base types a subclassed value is converted to (bools never get there:
#: the encoder matches True and False by identity first).
_BASE_TYPES = (int, float, str, bytes, list, tuple, dict)

_pack_double = struct.Struct(">d").pack
_unpack_double = struct.Struct(">d").unpack_from


def _encode_varint(value: int, out: bytearray) -> None:
    while value >= 0x80:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def _encode_int(value: int, out: bytearray) -> None:
    out.append(_I)
    # Arbitrary-precision zigzag: packed DP-PC keys exceed 64 bits.
    _encode_varint((value << 1) if value >= 0 else ((-value << 1) - 1), out)


_SMALL_LIMIT = 1 << 13
#: ``l`` tag plus one-byte count, for the short lists snapshots are made of.
_LIST_HEADS = [bytes((_L, count)) for count in range(0x80)]


@functools.cache
def _small_ints() -> list[bytes]:
    """Encoded ``i`` values indexed by the int itself, for ``[-8192, 8192)``.

    Entries ``0 .. 8191`` hold the non-negative values and the rest the
    negative ones in ascending order, so ``table[n]`` is right for every
    ``n`` in range via Python's negative indexing. Every zigzag value
    here fits a two-byte varint. Built on first use, so processes that
    never checkpoint do not pay for it at import.
    """
    table = []
    for value in (*range(_SMALL_LIMIT), *range(-_SMALL_LIMIT, 0)):
        zigzag = (value << 1) if value >= 0 else ((-value << 1) - 1)
        if zigzag < 0x80:
            table.append(bytes((_I, zigzag)))
        else:
            table.append(bytes((_I, (zigzag & 0x7F) | 0x80, zigzag >> 7)))
    return table


def _encode_value(value: _Value, out: bytearray) -> None:
    """Append ``value``'s encoding to ``out``, depth-first, without recursion."""
    small_ints = _small_ints()
    limit = _SMALL_LIMIT
    list_heads = _LIST_HEADS
    stack: list = []
    items = iter((value,))
    while True:
        for value in items:
            cls = type(value)
            if cls is int:
                if -limit <= value < limit:
                    out += small_ints[value]
                else:
                    _encode_int(value, out)
            elif cls is list or cls is tuple:
                count = len(value)
                if count < 0x80:
                    out += list_heads[count]
                else:
                    out.append(_L)
                    _encode_varint(count, out)
                if count:
                    stack.append(items)
                    items = iter(value)
                    break
            elif value is None:
                out.append(_N)
            elif value is True:
                out.append(_T)
            elif value is False:
                out.append(_F)
            elif cls is str:
                raw = value.encode("utf-8")
                out.append(_S)
                _encode_varint(len(raw), out)
                out += raw
            elif cls is dict:
                out.append(_M)
                _encode_varint(len(value), out)
                if value:
                    stack.append(items)
                    items = chain.from_iterable(value.items())
                    break
            elif cls is float:
                out.append(_D)
                out += _pack_double(value)
            elif cls is bytes:
                out.append(_B)
                _encode_varint(len(value), out)
                out += value
            else:
                # A subclass (IntEnum, OrderedDict, ...) encodes as its base.
                base = next((b for b in _BASE_TYPES if isinstance(value, b)), None)
                if base is None:
                    raise CkptError(f"cannot encode value of type {cls.__name__}")
                stack.append(items)
                items = iter((base(value),))
                break
        else:
            if not stack:
                return
            items = stack.pop()


def _truncated(wanted: int, pos: int, size: int) -> CkptError:
    return CkptError(
        f"truncated blob: wanted {wanted} bytes at offset {pos}, "
        f"only {max(0, size - pos)} left"
    )


def _read_varint(data: bytes, pos: int) -> tuple[int, int]:
    """Decode the varint at ``data[pos]``; returns ``(value, next_pos)``.

    Raises :class:`IndexError` when the data ends mid-varint (callers
    translate it into a truncation :class:`CkptError`).
    """
    result = 0
    shift = 0
    while True:
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if byte < 0x80:
            return result, pos
        shift += 7
        if shift > 640:
            raise CkptError("corrupt blob: varint longer than 640 bits")


def _read_chunk(data: bytes, pos: int) -> tuple[bytes, int]:
    """A varint length and that many bytes: ``(chunk, next_pos)``."""
    size, pos = _read_varint(data, pos)
    end = pos + size
    if end > len(data):
        raise _truncated(size, pos, len(data))
    return data[pos:end], end


def _close_map(items: list) -> dict:
    flat = iter(items)
    try:
        return dict(zip(flat, flat))
    except TypeError as error:
        raise CkptError(f"corrupt blob: unhashable map key: {error}") from error


def _decode_value(data: bytes, pos: int) -> tuple[_Value, int]:
    """Decode one value at ``data[pos]``; returns ``(value, next_pos)``.

    Containers under construction live on an explicit stack as
    ``(items, remaining, is_map)``; a map collects its keys and values
    flat and becomes a dict when its last value arrives.
    """
    stack: list = []
    items: list = []
    append = items.append
    remaining = 1
    is_map = False
    try:
        while True:
            while remaining:
                tag = data[pos]
                pos += 1
                remaining -= 1
                if tag == _I:
                    zigzag = data[pos]
                    if zigzag < 0x80:
                        pos += 1
                    elif data[pos + 1] < 0x80:
                        zigzag = (zigzag & 0x7F) | (data[pos + 1] << 7)
                        pos += 2
                    else:
                        zigzag, pos = _read_varint(data, pos)
                    append((zigzag >> 1) ^ -(zigzag & 1))
                elif tag == _L or tag == _M:
                    count = data[pos]
                    if count < 0x80:
                        pos += 1
                    else:
                        count, pos = _read_varint(data, pos)
                    if tag == _M:
                        count *= 2
                    if count:
                        stack.append((items, remaining, is_map))
                        items = []
                        append = items.append
                        remaining = count
                        is_map = tag == _M
                    else:
                        append({} if tag == _M else [])
                elif tag == _N:
                    append(None)
                elif tag == _T:
                    append(True)
                elif tag == _F:
                    append(False)
                elif tag == _S:
                    raw, pos = _read_chunk(data, pos)
                    try:
                        append(raw.decode("utf-8"))
                    except UnicodeDecodeError as error:
                        raise CkptError(
                            f"corrupt blob: bad UTF-8 string: {error}"
                        ) from error
                elif tag == _D:
                    if pos + 8 > len(data):
                        raise _truncated(8, pos, len(data))
                    append(_unpack_double(data, pos)[0])
                    pos += 8
                elif tag == _B:
                    raw, pos = _read_chunk(data, pos)
                    append(raw)
                else:
                    raise CkptError(f"corrupt blob: unknown value tag {bytes((tag,))!r}")
            if not stack:
                return items[0], pos
            value = _close_map(items) if is_map else items
            items, remaining, is_map = stack.pop()
            append = items.append
            append(value)
    except IndexError:
        raise _truncated(1, pos, len(data)) from None


def encode_blob(kind: str, payload: _Value) -> bytes:
    """Serialize ``payload`` as a self-describing ``repro.ckpt/v1`` blob."""
    out = bytearray(_MAGIC)
    _encode_value(CKPT_SCHEMA, out)
    _encode_value(kind, out)
    body = bytearray()
    _encode_value(payload, body)
    _encode_varint(len(body), out)
    out += body
    out += hashlib.sha256(out).digest()[:_DIGEST_BYTES]
    return bytes(out)


def decode_blob(blob: bytes, expect_kind: str | None = None) -> tuple[str, _Value]:
    """Parse a blob back into ``(kind, payload)``, verifying integrity.

    Checks, in order: magic bytes, schema tag, body length, the sha256
    digest trailer, and that nothing follows the trailer. Passing
    ``expect_kind`` additionally demands the embedded kind match.
    """
    if blob[:4] != _MAGIC:
        raise CkptError("bad magic: not a repro.ckpt blob")
    blob = bytes(blob)
    schema, pos = _decode_value(blob, 4)
    if schema != CKPT_SCHEMA:
        raise CkptError(f"unsupported checkpoint schema {schema!r} (want {CKPT_SCHEMA!r})")
    kind, pos = _decode_value(blob, pos)
    if not isinstance(kind, str):
        raise CkptError("corrupt blob: kind is not a string")
    try:
        body_len, body_start = _read_varint(blob, pos)
    except IndexError:
        raise _truncated(1, pos, len(blob)) from None
    digest_start = body_start + body_len
    end = digest_start + _DIGEST_BYTES
    if end > len(blob):
        raise _truncated(end - body_start, body_start, len(blob))
    expected = hashlib.sha256(memoryview(blob)[:digest_start]).digest()[:_DIGEST_BYTES]
    if blob[digest_start:end] != expected:
        raise CkptError("corrupt blob: digest mismatch (bytes were altered)")
    if end != len(blob):
        raise CkptError(f"corrupt blob: {len(blob) - end} trailing bytes after digest")
    # Decode from the body alone, so a payload cannot run into the trailer.
    body = blob[body_start:digest_start]
    payload, payload_end = _decode_value(body, 0)
    if payload_end != len(body):
        raise CkptError("corrupt blob: body length does not match payload")
    if expect_kind is not None and kind != expect_kind:
        raise CkptError(f"kind mismatch: blob holds {kind!r}, expected {expect_kind!r}")
    return kind, payload


def blob_digest(blob: bytes) -> str:
    """Content digest of a blob — the checkpoint store's address.

    sha256 over the full blob, truncated to 24 hex characters to match
    the store's stream-digest convention. Identical logical state
    encodes to identical bytes, so equal digests ⇔ equal state.
    """
    return hashlib.sha256(blob).hexdigest()[:24]
