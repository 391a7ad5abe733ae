"""The ``repro.ckpt/v1`` binary codec: exactness and loud corruption.

Round-trips must be exact (including int-vs-float identity and
arbitrary-precision integers — DP-2 packs keys past 64 bits), equal
payloads must produce equal bytes (content addressing), and every way
a blob can be damaged — bad magic, wrong schema, truncation at any
byte, flipped bits, trailing garbage, a lying body length — must raise
:class:`~repro.errors.CkptError`, never return wrong data.
"""

import enum
import hashlib
from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ckpt.codec import (
    CKPT_SCHEMA,
    _encode_value,
    _encode_varint,
    blob_digest,
    decode_blob,
    encode_blob,
)
from repro.errors import CkptError, ReproError

#: Any value the snapshot layer may feed the codec.
codec_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**80), max_value=2**80)
    | st.floats(allow_nan=False)
    | st.text(max_size=20)
    | st.binary(max_size=20),
    lambda children: st.lists(children, max_size=5)
    | st.dictionaries(st.text(max_size=8), children, max_size=5),
    max_leaves=25,
)


class TestRoundTrip:
    @given(payload=codec_values)
    @settings(max_examples=200, deadline=None)
    def test_any_payload_round_trips_exactly(self, payload):
        kind, decoded = decode_blob(encode_blob("fuzz", payload))
        assert kind == "fuzz"
        assert decoded == payload
        # == is too loose across the int/float boundary (1 == 1.0):
        # the tag must survive too.
        assert _typed(decoded) == _typed(payload)

    @given(payload=codec_values)
    @settings(max_examples=100, deadline=None)
    def test_equal_payloads_encode_identically(self, payload):
        first = encode_blob("fuzz", payload)
        second = encode_blob("fuzz", payload)
        assert first == second
        assert blob_digest(first) == blob_digest(second)

    def test_huge_integers_survive(self):
        payload = [2**200, -(2**200), 0, -1]
        assert decode_blob(encode_blob("k", payload))[1] == payload

    def test_tuples_encode_as_lists(self):
        assert decode_blob(encode_blob("k", (1, 2)))[1] == [1, 2]

    def test_unencodable_type_rejected(self):
        with pytest.raises(CkptError, match="cannot encode"):
            encode_blob("k", {"bad": object()})

    def test_ckpt_error_is_a_repro_error(self):
        assert issubclass(CkptError, ReproError)

    def test_subclassed_values_encode_as_their_base(self):
        class Level(enum.IntEnum):
            HIGH = 300

        class Name(str):
            pass

        class Row(list):
            pass

        subclassed = OrderedDict(
            [(Name("k"), Row([Level.HIGH, 1.5])), ("m", OrderedDict(a=b"x"))]
        )
        plain = {"k": [300, 1.5], "m": {"a": b"x"}}
        assert encode_blob("k", subclassed) == encode_blob("k", plain)

    def test_deep_nesting_does_not_recurse(self):
        payload: list = []
        for _ in range(5000):
            payload = [payload]
        blob = encode_blob("k", payload)
        _, decoded = decode_blob(blob)
        depth = 0
        while decoded:
            (decoded,) = decoded
            depth += 1
        assert depth == 5000


class TestCorruption:
    def _blob(self):
        return encode_blob("mech.dp", {"rows": 64, "sets": [[1, [2, 3]]]})

    def test_bad_magic(self):
        with pytest.raises(CkptError, match="bad magic"):
            decode_blob(b"NOPE" + self._blob()[4:])

    def test_wrong_schema(self):
        # A blob whose embedded schema string differs.
        import repro.ckpt.codec as codec

        original = codec.CKPT_SCHEMA
        try:
            codec.CKPT_SCHEMA = "repro.ckpt/v999"
            alien = encode_blob("k", None)
        finally:
            codec.CKPT_SCHEMA = original
        with pytest.raises(CkptError, match="unsupported checkpoint schema"):
            decode_blob(alien)
        assert CKPT_SCHEMA == original

    @pytest.mark.parametrize("keep", [0, 3, 4, 10, -1])
    def test_truncation_at_any_prefix(self, keep):
        blob = self._blob()
        with pytest.raises(CkptError):
            decode_blob(blob[: keep if keep >= 0 else len(blob) - 1])

    def test_every_single_byte_flip_is_detected(self):
        blob = self._blob()
        for index in range(len(blob)):
            mutated = bytearray(blob)
            mutated[index] ^= 0xFF
            with pytest.raises(CkptError):
                decode_blob(bytes(mutated))

    def test_trailing_garbage(self):
        with pytest.raises(CkptError, match="trailing bytes"):
            decode_blob(self._blob() + b"x")

    def test_kind_mismatch(self):
        with pytest.raises(CkptError, match="kind mismatch"):
            decode_blob(self._blob(), expect_kind="mech.rp")

    def test_empty_blob(self):
        with pytest.raises(CkptError):
            decode_blob(b"")


def _framed(body: bytes) -> bytes:
    """A blob with valid framing and digest around an arbitrary body."""
    out = bytearray(b"RCKP")
    _encode_value(CKPT_SCHEMA, out)
    _encode_value("k", out)
    _encode_varint(len(body), out)
    out += body
    out += hashlib.sha256(out).digest()[:8]
    return bytes(out)


class TestForgedBodies:
    """Bodies with an intact digest but malformed values still fail loudly."""

    @pytest.mark.parametrize(
        "body",
        [
            b"l\x05i\x02",  # list promises 5 items, holds 1
            b"s\x05ab",  # string shorter than its length
            b"d\x00\x00",  # double cut short
            b"i" + b"\x80" * 100,  # varint past 640 bits
            b"i\x80",  # varint cut short
            b"z",  # unknown tag
            b"m\x01l\x00i\x02",  # unhashable map key
            b"s\x01\xff",  # invalid UTF-8
            b"i\x02i\x04",  # a second value after the payload
        ],
    )
    def test_malformed_body_raises_ckpt_error(self, body):
        with pytest.raises(CkptError):
            decode_blob(_framed(body))

    def test_framing_helper_round_trips(self):
        assert decode_blob(_framed(b"l\x02i\x02N")) == ("k", [1, None])


class TestDigest:
    def test_digest_is_stable_and_short(self):
        blob = encode_blob("k", [1, 2, 3])
        assert blob_digest(blob) == blob_digest(blob)
        assert len(blob_digest(blob)) == 24
        assert blob_digest(blob) != blob_digest(encode_blob("k", [1, 2, 4]))


def _typed(value):
    """Value annotated with its type tree, so 1 != 1.0 and [] != ()."""
    if isinstance(value, list):
        return [_typed(item) for item in value]
    if isinstance(value, dict):
        return {key: _typed(item) for key, item in value.items()}
    return (type(value).__name__, value)
