"""Pilot's fprintf/fscanf-style format strings.

Pilot borrows C's well-known ``fprintf``/``fscanf`` format syntax for
its read/write calls (paper Section I).  The grammar implemented here
covers everything the paper exercises plus the V2.x additions:

* scalar conversions — ``%c %d %u %hd %hu %ld %lu %f %lf %s %b``
* fixed-size arrays — ``%100f`` (count prefix)
* runtime-size arrays — ``%*d`` (count supplied as a call argument on
  both ends; lab2 in Fig. 3 uses this)
* auto-allocating receive — ``%^d`` (V2.1: a single call transmits
  length and data; the reader gets both back; paper footnote 3)
* reduction operators (PI_Reduce only) — one of ``+ * < > & | ^``
  written immediately after ``%``: ``"%+d"`` sums, ``"%<f"`` takes the
  minimum, ``"%+*d"`` sums arrays of runtime length.  Two ambiguities
  are resolved in favour of the more common meaning: ``%*d`` is always
  a runtime-count array (product of scalars is ``%*1d``-inexpressible;
  use arrays), and ``%^d`` is always the auto-allocating receive (XOR
  reduce requires an explicit count, e.g. ``%^8d``).

Each format item travels as ONE message on the wire — the paper notes
that ``"%d %100f"`` sends two MPI messages and that PI_Read therefore
shows one arrival bubble per item (Section III.B).  The ``%^`` item is
the exception: it sends a length message then a data message (two
bubbles), matching footnote 3's "multiple MPI calls are made
internally".
"""

from __future__ import annotations

import functools
import re
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

# type char(s) -> (canonical code, numpy dtype or None for str/bytes)
_TYPES: dict[str, np.dtype | None] = {
    "c": np.dtype("S1"),
    "hd": np.dtype(np.int16),
    "hu": np.dtype(np.uint16),
    "d": np.dtype(np.int32),
    "u": np.dtype(np.uint32),
    "ld": np.dtype(np.int64),
    "lu": np.dtype(np.uint64),
    "f": np.dtype(np.float32),
    "lf": np.dtype(np.float64),
    "s": None,  # UTF-8 string
    "b": None,  # raw bytes
}

REDUCE_OPS = "+*<>&|^"

_ITEM_RE = re.compile(
    r"%"
    r"(?P<op>[+*<>&|^])??"
    r"(?P<count>\d+|\*|\^)?"
    r"(?P<type>hd|hu|ld|lu|lf|[cdufsb])"
)


class FormatError(ValueError):
    """Malformed format string or arguments inconsistent with it.

    ``pos`` carries the character offset of the offending conversion
    spec within the format string (None when the error is not tied to a
    position); tooling such as pilotcheck points at it in messages.
    """

    def __init__(self, message: str, *, pos: int | None = None) -> None:
        if pos is not None:
            message = f"{message} (at offset {pos})"
        super().__init__(message)
        self.pos = pos


@dataclass(frozen=True)
class FormatItem:
    """One conversion in a format string."""

    type_code: str  # canonical: c, d, u, hd, hu, ld, lu, f, lf, s, b
    count: int | str | None  # int, "*", "^" or None (scalar)
    op: str | None = None  # reduce operator or None
    # Character offset of this item in the source format string; not
    # part of the item's identity (equal items at different offsets
    # still compare equal).
    pos: int = field(default=-1, compare=False)

    @property
    def dtype(self) -> np.dtype | None:
        return _TYPES[self.type_code]

    @property
    def is_array(self) -> bool:
        return self.count is not None

    def signature(self) -> str:
        """Canonical wire signature used for level-2 format matching.

        The reduce operator is excluded: the contributing end writes
        with a plain format while the collector names the operator, and
        Pilot still requires the *data* shapes to agree.
        """
        count = "" if self.count is None else str(self.count)
        return f"%{count}{self.type_code}"

    def write_arity(self) -> int:
        """How many call arguments PI_Write consumes for this item."""
        return 2 if self.count in ("*", "^") else 1

    def read_arity(self) -> int:
        """How many call arguments PI_Read consumes (the ``*`` count)."""
        return 1 if self.count == "*" else 0

    def read_returns(self) -> int:
        """How many values PI_Read yields for this item."""
        return 2 if self.count == "^" else 1


def parse_format(fmt: str, *,
                 allow_ops: bool = False) -> tuple[FormatItem, ...]:
    """Parse a Pilot format string into items.

    Items are separated by whitespace, exactly like the paper's
    examples (``"%d %100f"``).  Raises :class:`FormatError` on anything
    unrecognised — Pilot treats a bad format as an API-abuse error.
    Every PI_Read/PI_Write parses its format, and a program uses a
    handful of them, so results are cached per ``(fmt, allow_ops)``; a
    bad format raises afresh on every call.
    """
    if not isinstance(fmt, str):
        raise FormatError(f"format must be a string, got {type(fmt).__name__}")
    return _parse_format(fmt, allow_ops)


@functools.lru_cache(maxsize=1024)
def _parse_format(fmt: str, allow_ops: bool) -> tuple[FormatItem, ...]:
    items: list[FormatItem] = []
    for tok in re.finditer(r"\S+", fmt):
        token, pos = tok.group(), tok.start()
        m = _ITEM_RE.fullmatch(token)
        if not m:
            raise FormatError(f"unrecognised format item {token!r} in {fmt!r}",
                              pos=pos)
        op = m.group("op")
        if op and not allow_ops:
            raise FormatError(
                f"operator {op!r} in {token!r} is only valid in PI_Reduce formats",
                pos=pos)
        count_s = m.group("count")
        count: int | str | None
        if count_s is None:
            count = None
        elif count_s in ("*", "^"):
            count = count_s
        else:
            count = int(count_s)
            if count <= 0:
                raise FormatError(f"array count must be positive in {token!r}",
                                  pos=pos)
        type_code = m.group("type")
        if op and count == "^":
            raise FormatError(f"auto-alloc %^ cannot carry a reduce operator: {token!r}",
                              pos=pos)
        items.append(FormatItem(type_code, count, op, pos=pos))
    if not items:
        raise FormatError(f"empty format string {fmt!r}", pos=0)
    return tuple(items)


def signature(fmt_items: Sequence[FormatItem]) -> str:
    """Canonical signature of a whole format, for reader/writer match."""
    return " ".join(item.signature() for item in fmt_items)


# ---------------------------------------------------------------------------
# Encoding values for the wire
# ---------------------------------------------------------------------------


def _coerce_scalar(item: FormatItem, value: object) -> object:
    code = item.type_code
    if code == "s":
        if not isinstance(value, str):
            raise FormatError(f"%s expects str, got {type(value).__name__}")
        return value
    if code == "b":
        if not isinstance(value, (bytes, bytearray, memoryview)):
            raise FormatError(f"%b expects bytes, got {type(value).__name__}")
        return bytes(value)
    if code == "c":
        if isinstance(value, (bytes, str)) and len(value) == 1:
            return value if isinstance(value, str) else value.decode("latin-1")
        raise FormatError(f"%c expects a single character, got {value!r}")
    dtype = item.dtype
    assert dtype is not None
    try:
        return dtype.type(value)
    except (TypeError, ValueError) as exc:
        raise FormatError(f"cannot convert {value!r} to %{item.type_code}") from exc


def _coerce_array(item: FormatItem, value: object, count: int) -> np.ndarray:
    if item.type_code in ("s", "b", "c"):
        raise FormatError(f"%{item.type_code} does not support array counts")
    dtype = item.dtype
    assert dtype is not None
    arr = np.asarray(value)
    if arr.ndim != 1:
        raise FormatError(f"array item %{item.type_code} expects a 1-D sequence")
    if len(arr) < count:
        raise FormatError(
            f"array for %{item.type_code} has {len(arr)} elements, need {count}")
    out = arr[:count].astype(dtype, copy=False)
    return out


@dataclass(frozen=True)
class WirePart:
    """One message-worth of payload for a format item."""

    payload: object
    note: str  # short description for log bubbles ("len=100 first=3.5")


def encode_write(items: Sequence[FormatItem], args: tuple, *, strict: bool) -> list[list[WirePart]]:
    """Turn PI_Write arguments into per-item wire parts.

    Returns one list of :class:`WirePart` per format item (usually a
    single part; ``%^`` yields two: length then data).  ``strict``
    enables the level-3 style deep validation; without it values are
    coerced best-effort (mirroring C, where a bad pointer just walks
    off the end).
    """
    expected = sum(item.write_arity() for item in items)
    if len(args) != expected:
        raise FormatError(
            f"format needs {expected} argument(s), got {len(args)}")
    out: list[list[WirePart]] = []
    pos = 0
    for item in items:
        if item.count is None:
            value = _coerce_scalar(item, args[pos])
            pos += 1
            out.append([WirePart(value, _scalar_note(value))])
        elif item.count in ("*", "^"):
            count_arg, data = args[pos], args[pos + 1]
            pos += 2
            count = int(count_arg)
            if count < 0:
                raise FormatError(f"negative runtime count {count}")
            if strict and not hasattr(data, "__len__"):
                raise FormatError(f"%{item.count}{item.type_code} expects a sequence")
            arr = _coerce_array(item, data, count)
            if item.count == "^":
                out.append([
                    WirePart(np.int64(count), f"len={count}"),
                    WirePart(arr, _array_note(arr)),
                ])
            else:
                out.append([WirePart(arr, _array_note(arr))])
        else:
            data = args[pos]
            pos += 1
            arr = _coerce_array(item, data, int(item.count))
            if strict and len(np.asarray(data)) != item.count:
                raise FormatError(
                    f"%{item.count}{item.type_code} expects exactly {item.count} "
                    f"elements, got {len(np.asarray(data))}")
            out.append([WirePart(arr, _array_note(arr))])
    return out


def decode_read(items: Sequence[FormatItem], args: tuple, parts_per_item: list[list[object]]) -> list[object]:
    """Turn received wire parts back into PI_Read return values.

    ``args`` supplies the runtime counts for ``%*`` items (one int
    each).  The return list is flat: one value per scalar/array item,
    plus (count, array) *two* values for each ``%^`` item, matching the
    C calling convention of footnote 3.
    """
    expected = sum(item.read_arity() for item in items)
    if len(args) != expected:
        raise FormatError(
            f"format needs {expected} read argument(s) (runtime counts), got {len(args)}")
    returns: list[object] = []
    pos = 0
    for item, parts in zip(items, parts_per_item):
        if item.count == "*":
            want = int(args[pos])
            pos += 1
            arr = np.asarray(parts[0])
            if len(arr) != want:
                raise FormatError(
                    f"runtime count mismatch: writer sent {len(arr)}, reader expected {want}")
            returns.append(arr)
        elif item.count == "^":
            count = int(parts[0])
            arr = np.asarray(parts[1])
            returns.append(count)
            returns.append(arr)
        elif item.count is None:
            returns.append(parts[0])
        else:
            returns.append(np.asarray(parts[0]))
    return returns


def apply_reduce(item: FormatItem, values: list[object]) -> object:
    """Combine per-channel contributions with the item's operator."""
    if item.op is None:
        raise FormatError(f"PI_Reduce format item {item.signature()!r} lacks an operator")
    if not values:
        raise FormatError("PI_Reduce over an empty bundle")
    arrays = [np.asarray(v) for v in values]
    stack = np.stack(arrays)
    if item.op == "+":
        result = stack.sum(axis=0)
    elif item.op == "*":
        result = stack.prod(axis=0)
    elif item.op == "<":
        result = stack.min(axis=0)
    elif item.op == ">":
        result = stack.max(axis=0)
    elif item.op == "&":
        result = np.bitwise_and.reduce(stack, axis=0)
    elif item.op == "|":
        result = np.bitwise_or.reduce(stack, axis=0)
    elif item.op == "^":
        result = np.bitwise_xor.reduce(stack, axis=0)
    else:  # pragma: no cover - parser prevents this
        raise FormatError(f"unknown reduce operator {item.op!r}")
    if item.count is None:
        return result[()] if result.ndim == 0 else result
    return result


def _scalar_note(value: object) -> str:
    text = repr(value)
    return f"val={text[:20]}"


def _array_note(arr: np.ndarray) -> str:
    first = arr[0] if len(arr) else "-"
    return f"len={len(arr)} first={first}"
