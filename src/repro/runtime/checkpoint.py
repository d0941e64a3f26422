"""Checkpoint serialization.

Soft checkpoints travel from an active engine to its passive replica as
bytes (paper II.F.2: the scheduler "serializes them and sends them to the
partner").  The encoder below is deliberately *canonical* — dict keys are
sorted, tuples and bytes are tagged — so that two identical states always
produce identical bytes.  Tests use this property to assert replay
equality at the byte level.

Supported value types: ``None``, ``bool``, ``int``, ``float``, ``str``,
``bytes``, ``list``, ``tuple``, and ``dict`` with str/int/tuple keys.
This covers everything component state cells and runtime snapshots
contain; anything else is a hard error (a component trying to checkpoint
an open socket should fail loudly, not pickle it).

Plain str-keyed dicts — the overwhelmingly common shape in state cells
and wire-frame bodies — are passed straight through to ``json.dumps``:
``sort_keys=True`` already gives them a canonical key order, so the
tagged ``{"__t__": "d", ...}`` wrapper (whose per-key sort is the
serializer's hot spot) is reserved for dicts with non-string keys.  A
str-keyed dict that happens to contain the tag key itself still takes
the wrapped path, keeping decoding unambiguous.

The encoder dispatches on the *exact* type of each value, and every
fast path emits the bytes the plain ``isinstance`` walk would:

* ``None``/``bool``/``int``/``float``/``str`` leaves are returned as they
  are without a recursive call — JSON already encodes them as themselves.
* A dict whose keys are all exact ``int`` (not ``bool``) sorts its items by
  ``str(k)`` instead of ``json.dumps(k)``.  For an exact int both are
  ``int.__repr__(k)`` (the JSON encoder calls it directly), so the order
  is the same; an ``int`` subclass may override ``__str__`` (``IntEnum``
  does), which is why subclasses take the general path.
* Any other key mix sorts by the JSON text of the encoded key, from one
  reused encoder configured exactly as ``json.dumps(..., sort_keys=True)``.
* Subclasses (``NamedTuple``, ``OrderedDict``, ``IntEnum``, ...) fall back
  to ``isinstance`` and are encoded as their base type.

Decoding is one ``json`` pass whose ``object_hook`` turns tagged objects
back into bytes, tuples and non-str-keyed dicts; JSON builds objects
bottom-up, so each hook call sees already-decoded contents.
``tests/runtime/checkpoint_golden.json`` pins the output bytes.
"""

from __future__ import annotations

import json
from base64 import b64decode, b64encode
from typing import Any, Dict

from repro.errors import StateError

_TAG = "__t__"

#: Exact types that JSON encodes as themselves.
_LEAVES = frozenset((type(None), bool, int, float, str))

#: ``json.dumps(..., sort_keys=True, separators=(",", ":"))`` and the
#: ``json.dumps(key, sort_keys=True)`` key sort, as reusable encoders.
_DUMP = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
_KEY_JSON = json.JSONEncoder(sort_keys=True).encode


def _encode(obj: Any) -> Any:
    cls = type(obj)
    if cls in _LEAVES:
        return obj
    if cls is dict:
        return _encode_dict(obj)
    if cls is list:
        return _encode_list(obj)
    if cls is tuple:
        return {_TAG: "t", "v": _encode_list(obj)}
    return _encode_other(obj)


def _encode_other(obj: Any) -> Any:
    """``bytes`` and subclasses of every supported type, by ``isinstance``."""
    if isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, bytes):
        return {_TAG: "b", "v": b64encode(obj).decode("ascii")}
    if isinstance(obj, tuple):
        return {_TAG: "t", "v": _encode_list(obj)}
    if isinstance(obj, list):
        return _encode_list(obj)
    if isinstance(obj, dict):
        return _encode_dict(obj)
    raise StateError(f"unserializable checkpoint value of type {type(obj).__name__}")


def _encode_list(obj: Any) -> list:
    return [x if type(x) in _LEAVES else _encode(x) for x in obj]


def _encode_dict(obj: dict) -> dict:
    if _TAG not in obj and all(type(k) is str for k in obj):
        return {k: v if type(v) in _LEAVES else _encode(v)
                for k, v in obj.items()}
    if all(type(k) is int for k in obj):
        items = [[k, v if type(v) in _LEAVES else _encode(v)]
                 for k, v in obj.items()]
        items.sort(key=lambda kv: str(kv[0]))
    else:
        items = [[_encode_key(k), _encode(v)] for k, v in obj.items()]
        items.sort(key=lambda kv: _KEY_JSON(kv[0]))
    return {_TAG: "d", "v": items}


def _encode_key(key: Any) -> Any:
    if isinstance(key, (str, int, bool)) or key is None:
        return key
    if isinstance(key, (tuple, bytes)):
        return _encode(key)
    raise StateError(f"unserializable dict key of type {type(key).__name__}")


def _decode_object(obj: Dict[str, Any]) -> Any:
    """``object_hook``: JSON decodes bottom-up, so values are done."""
    tag = obj.get(_TAG)
    if tag is None:
        return obj
    if tag == "b":
        return b64decode(obj["v"])
    if tag == "t":
        return tuple(obj["v"])
    if tag == "d":
        return {k: v for k, v in obj["v"]}
    raise StateError(f"corrupt checkpoint: unknown tag {tag!r}")


_LOAD = json.JSONDecoder(object_hook=_decode_object).decode


def dumps(obj: Any) -> bytes:
    """Serialize ``obj`` to canonical bytes."""
    return _DUMP(_encode(obj)).encode("utf-8")


def loads(blob: bytes) -> Any:
    """Inverse of :func:`dumps`."""
    return _LOAD(blob.decode("utf-8"))


def checkpoint_size(blob: bytes) -> int:
    """Size in bytes (convenience for overhead accounting)."""
    return len(blob)
