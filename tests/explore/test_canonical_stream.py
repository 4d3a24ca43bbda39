"""The canonical byte stream behind digests and fingerprints, pinned.

``state_digest`` and ``state_fingerprint`` hash the stream
``_canonical_bytes`` writes.  How the stream is produced may change
(dtype names encoded once per dtype; pieces fed to the hash as they
come instead of joined first) but not one byte of it: stored violation
artifacts carry digests and must still verify.  The values below were
computed before either change.  e1's fields go through ``math.exp``, so
its pins hold on the platforms CI runs, not on every libm.
"""

import hashlib

import numpy as np

from repro.explore import state_fingerprint
from repro.explore.fixtures import build_target
from repro.runtime import CooperativeEngine, ScheduleController
from repro.theory import state_digest
from repro.theory.determinacy import Sha256Stream, _canonical_bytes

E1_DIGEST = "03cfde3d50dd76510b142c49f39c92b4a928687fd8c78be16ad58aef3f6d441a"
#: SHA-256 over e1's 112 decision-point fingerprints (the default
#: cooperative schedule), concatenated as hex.
E1_FINGERPRINTS = "ba45cbcc6261edf442ff298ecdf2e0b97c6db3c09ec51eff69b06d3d6fb61913"
E1_MIDDLE_FINGERPRINT = (
    "f768bba52199f2260bbe3ef703cd1da3b231d4a3cb7509f048380f1efbeba980"
)


def test_e1_digest_and_fingerprints_are_the_pinned_ones():
    controller = ScheduleController(fingerprint=state_fingerprint)
    result = CooperativeEngine(controller).run(build_target("e1")())
    assert state_digest(result) == E1_DIGEST
    prints = controller.fingerprints
    assert len(prints) == 112
    assert prints[56] == E1_MIDDLE_FINGERPRINT
    assert hashlib.sha256("".join(prints).encode()).hexdigest() == E1_FINGERPRINTS


def test_stream_hashes_the_joined_pieces():
    pieces: list[bytes] = []
    stream = Sha256Stream()
    value = {
        "f": np.arange(6.0).reshape(2, 3),
        "i": np.arange(4, dtype=np.int32),
        "nested": [1, 2.5, "s", b"b", None, True, (np.float32(3),)],
    }
    _canonical_bytes(value, pieces)
    _canonical_bytes(value, stream)
    assert stream.hexdigest() == hashlib.sha256(b"\x00".join(pieces)).hexdigest()
    assert Sha256Stream().hexdigest() == hashlib.sha256(b"").hexdigest()


def test_each_dtype_is_named_as_str_names_it():
    # One cache entry per dtype: equal names never stand in for
    # different byte orders or widths.
    for dtype in ("<f8", ">f8", "f4", "i8", "u1", "c16"):
        pieces: list[bytes] = []
        for _ in range(2):  # the second encoding comes from the cache
            _canonical_bytes(np.zeros(2, dtype), pieces)
        assert pieces[1] == pieces[5] == str(np.dtype(dtype)).encode()
