"""Wire framing: encode/decode round-trip and corruption detection.

The property tests drive the frame codec over arbitrary payloads and
headers, then over a real OS pipe (the transport the multiprocess backend
uses), including truncated and garbled frames — every malformed input must
surface as :class:`MessageCorruption`, never anything else.
"""

import multiprocessing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.backends import framing
from repro.resilience.errors import MessageCorruption

KINDS = st.sampled_from(framing.FRAME_KINDS)
RANKS = st.integers(min_value=0, max_value=2**15)
SEQS = st.integers(min_value=0, max_value=2**48)
PAYLOADS = st.binary(max_size=512)


class TestEncodeValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown frame kind"):
            framing.encode_frame(99, 0, 1, 0)

    def test_negative_seq_rejected(self):
        with pytest.raises(ValueError, match="seq"):
            framing.encode_frame(framing.CMD, 0, 1, -1)

    def test_kind_names_cover_all_kinds(self):
        assert sorted(framing.KIND_NAMES) == sorted(framing.FRAME_KINDS)


@given(kind=KINDS, src=RANKS, dst=RANKS, seq=SEQS, payload=PAYLOADS)
@settings(max_examples=120, deadline=None)
def test_round_trip_preserves_every_field(kind, src, dst, seq, payload):
    frame = framing.decode_frame(
        framing.encode_frame(kind, src, dst, seq, payload)
    )
    assert (frame.kind, frame.src, frame.dst, frame.seq) == (kind, src, dst, seq)
    assert frame.payload == payload


@given(payload=PAYLOADS)
@settings(max_examples=60, deadline=None)
def test_float64_payload_round_trips_bitwise(payload):
    # pad to a float64 boundary: ranks return float64 arrays
    payload = payload + b"\x00" * (-len(payload) % 8)
    raw = framing.encode_frame(framing.RESULT, 0, 1, 7, payload)
    out = framing.decode_frame(raw).payload
    assert np.frombuffer(out, dtype=np.float64).tobytes() == payload


@given(kind=KINDS, seq=SEQS, payload=PAYLOADS, data=st.data())
@settings(max_examples=120, deadline=None)
def test_truncation_always_detected(kind, seq, payload, data):
    raw = framing.encode_frame(kind, 0, 1, seq, payload)
    cut = data.draw(st.integers(min_value=0, max_value=len(raw) - 1))
    with pytest.raises(MessageCorruption):
        framing.decode_frame(raw[:cut])


@given(kind=KINDS, seq=SEQS, payload=st.binary(min_size=1, max_size=256),
       data=st.data())
@settings(max_examples=120, deadline=None)
def test_single_flipped_bit_always_detected(kind, seq, payload, data):
    """Any one-bit flip anywhere in the frame fails validation.

    A flip in the header breaks magic/kind/length/crc bookkeeping; a flip
    in the payload breaks the CRC-32.  (Flips inside the src/dst/seq header
    fields are excluded: those alter addressing, not integrity, and are
    caught by the response-matching layer instead.)
    """
    raw = bytearray(framing.encode_frame(kind, 0, 1, seq, payload))
    # byte offsets of src, dst, seq in the header: 4s B ii Q I Q
    addressed = set(range(5, 5 + 4 + 4 + 8))
    pos = data.draw(st.integers(min_value=0, max_value=len(raw) - 1)
                    .filter(lambda p: p not in addressed))
    bit = data.draw(st.integers(min_value=0, max_value=7))
    raw[pos] ^= 1 << bit
    try:
        frame = framing.decode_frame(bytes(raw))
    except MessageCorruption:
        return
    # the only undetectable flips change fields the codec cannot know the
    # intent of; everything content-bearing must have been caught
    assert frame.payload == payload


class TestPeekHeaderTruncation:
    """``peek_header`` must reject short input, never crash on it.

    Regression: the original implementation fed whatever arrived straight
    into ``struct.unpack_from``, so a frame shorter than the fixed header
    escaped the :class:`MessageCorruption` taxonomy as a bare
    ``struct.error`` out of the retry loop.
    """

    def test_empty_input_is_corruption(self):
        with pytest.raises(MessageCorruption):
            framing.peek_header(b"")

    @pytest.mark.parametrize("cut", range(framing.HEADER_SIZE))
    def test_every_short_prefix_of_a_real_frame_is_corruption(self, cut):
        raw = framing.encode_frame(framing.CMD, 3, 1, 9, b"xyz")
        with pytest.raises(MessageCorruption) as exc:
            framing.peek_header(raw[:cut])
        # every short prefix of a real frame starts with (a prefix of) the
        # magic, so the taxonomy reports truncation, not bad-magic
        assert exc.value.context["reason"] == "truncated"
        assert exc.value.context["nbytes"] == cut

    def test_short_foreign_bytes_report_bad_magic(self):
        with pytest.raises(MessageCorruption) as exc:
            framing.peek_header(b"zz")
        assert exc.value.context["reason"] == "bad-magic"

    @given(junk=st.binary(max_size=framing.HEADER_SIZE - 1))
    @settings(max_examples=80, deadline=None)
    def test_any_short_input_raises_only_corruption(self, junk):
        with pytest.raises(MessageCorruption):
            framing.peek_header(junk)

    def test_full_header_still_peeks(self):
        raw = framing.encode_frame(framing.HELLO, 2, 2, 17)
        assert framing.peek_header(raw) == (framing.HELLO, 2, 2, 17)


class TestNakReply:
    """The NAK a rank answers a frame that fails ``decode_frame`` with."""

    @pytest.mark.parametrize("garble,envelope,reason", [
        (lambda raw: raw[:-1] + bytes([raw[-1] ^ 0xFF]), (0, 1, 5), b"checksum"),
        (lambda raw: raw + b"x", (0, 1, 5), b"length-mismatch"),
        (lambda raw: raw[:4] + bytes([99]) + raw[5:], (0, 1, 5), b"bad-kind"),
        # an unreadable header is NAKed on the receiver's self-edge
        (lambda raw: raw[:framing.HEADER_SIZE - 1], (1, 1, 0), b"truncated"),
        (lambda raw: b"XXXX" + raw[4:], (1, 1, 0), b"bad-magic"),
    ], ids=["checksum", "length-mismatch", "bad-kind", "truncated", "bad-magic"])
    def test_nak_names_the_check_on_the_frames_envelope(self, garble, envelope, reason):
        raw = garble(framing.encode_frame(framing.CMD, 0, 1, 5, b"payload"))
        with pytest.raises(MessageCorruption) as exc:
            framing.decode_frame(raw)
        nak = framing.decode_frame(framing.nak_reply(raw, exc.value, 1))
        assert (nak.kind, nak.src, nak.dst, nak.seq) == (framing.NAK, *envelope)
        assert nak.payload == reason


ARRAY_DTYPES = st.sampled_from(sorted(framing.ARRAY_DTYPES.values()))


@st.composite
def wire_arrays(draw):
    dtype = np.dtype(draw(ARRAY_DTYPES))
    n = draw(st.integers(min_value=0, max_value=64))
    if dtype.kind == "f":
        values = draw(st.lists(
            st.floats(allow_nan=False, width=64), min_size=n, max_size=n,
        ))
    else:
        info = np.iinfo(dtype)
        values = draw(st.lists(
            st.integers(min_value=int(info.min), max_value=int(info.max)),
            min_size=n, max_size=n,
        ))
    return np.asarray(values, dtype=dtype)


class TestArrayCodec:
    """Zero-copy array payloads: raw little-endian buffers, no pickle."""

    @given(a=wire_arrays())
    @settings(max_examples=120, deadline=None)
    def test_round_trip_is_bitwise(self, a):
        out, end = framing.decode_array(framing.encode_array(a))
        assert out.dtype == np.dtype(a.dtype).newbyteorder("<")
        assert out.tobytes() == a.tobytes()
        assert end == framing.ARRAY_HEADER_SIZE + a.nbytes

    @given(a=wire_arrays())
    @settings(max_examples=60, deadline=None)
    def test_decoded_view_is_zero_copy_and_readonly(self, a):
        buf = framing.encode_array(a)
        out, _ = framing.decode_array(buf)
        assert not out.flags.writeable
        if a.size:
            assert out.base is not None  # a view over the buffer, not a copy

    def test_nan_payload_survives_bitwise(self):
        a = np.array([np.nan, -np.nan, np.inf, -0.0])
        out, _ = framing.decode_array(framing.encode_array(a))
        assert out.tobytes() == a.tobytes()

    @given(arrays=st.lists(wire_arrays(), max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_concatenated_blocks_round_trip(self, arrays):
        buf = framing.encode_arrays(arrays)
        out, end = framing.decode_arrays(buf)
        assert end == len(buf)
        assert len(out) == len(arrays)
        for got, want in zip(out, arrays):
            assert got.tobytes() == want.tobytes()

    def test_2d_arrays_rejected(self):
        with pytest.raises(ValueError, match="1-D"):
            framing.encode_array(np.zeros((2, 2)))

    def test_object_dtype_rejected(self):
        with pytest.raises(ValueError, match="not shippable"):
            framing.encode_array(np.array(["a", "b"], dtype=object))

    @given(a=wire_arrays(), data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_truncation_always_detected(self, a, data):
        buf = framing.encode_array(a)
        cut = data.draw(st.integers(min_value=0, max_value=len(buf) - 1))
        with pytest.raises(MessageCorruption):
            framing.decode_array(buf[:cut])

    @given(data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_header_bit_flips_detected_or_content_preserving(self, data):
        """Any single-bit flip in an array-block *header* is detected.

        Magic flips report bad-magic, dtype-code flips either leave the
        table (bad-dtype) or change the element width (truncated body),
        count flips break the length bookkeeping.  Flips that happen to
        keep the header consistent (e.g. shrinking the count) may decode —
        but then the decoded bytes must be a prefix of the original body,
        never garbage.  Body integrity end-to-end is the *frame* CRC's
        job, tested above.
        """
        a = data.draw(wire_arrays())
        buf = bytearray(framing.encode_array(a))
        pos = data.draw(st.integers(
            min_value=0, max_value=framing.ARRAY_HEADER_SIZE - 1,
        ))
        bit = data.draw(st.integers(min_value=0, max_value=7))
        buf[pos] ^= 1 << bit
        try:
            out, _ = framing.decode_array(bytes(buf))
        except MessageCorruption:
            return
        assert a.tobytes().startswith(out.tobytes())


class TestPipeTransport:
    """The codec over a real OS pipe — what the multiprocess backend ships."""

    @pytest.fixture()
    def pipe(self):
        a, b = multiprocessing.Pipe(duplex=True)
        yield a, b
        a.close()
        b.close()

    def test_frames_survive_a_real_pipe_bitwise(self, pipe):
        a, b = pipe
        payload = np.linspace(-1.0, 1.0, 63).tobytes()
        a.send_bytes(framing.encode_frame(framing.RESULT, 2, 0, 41, payload))
        frame = framing.decode_frame(b.recv_bytes())
        assert (frame.src, frame.dst, frame.seq) == (2, 0, 41)
        assert frame.payload == payload

    def test_garbled_pipe_frame_raises_corruption(self, pipe):
        a, b = pipe
        raw = bytearray(framing.encode_frame(framing.CMD, 0, 1, 3, b"abcdef"))
        raw[-2] ^= 0x10  # payload bit flip in transit
        a.send_bytes(bytes(raw))
        with pytest.raises(MessageCorruption) as exc:
            framing.decode_frame(b.recv_bytes())
        assert exc.value.context["reason"] == "checksum"

    def test_truncated_pipe_frame_raises_corruption(self, pipe):
        a, b = pipe
        raw = framing.encode_frame(framing.CMD, 0, 1, 3, b"abcdef")
        a.send_bytes(raw[: framing.HEADER_SIZE - 4])
        with pytest.raises(MessageCorruption) as exc:
            framing.decode_frame(b.recv_bytes())
        assert exc.value.context["reason"] == "truncated"

    @given(seq=SEQS, payload=PAYLOADS)
    @settings(max_examples=25, deadline=None)
    def test_pipe_round_trip_property(self, seq, payload):
        a, b = multiprocessing.Pipe(duplex=True)
        try:
            a.send_bytes(framing.encode_frame(framing.CMD, 1, 2, seq, payload))
            frame = framing.decode_frame(b.recv_bytes())
            assert frame.seq == seq and frame.payload == payload
        finally:
            a.close()
            b.close()
