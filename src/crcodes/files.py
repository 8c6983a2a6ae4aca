"""The stable text format of codes, and of designs, which are codes.

Code file: a header line `code graph=<spec> size=<count> [label=<label>]`
followed by one vertex per line.  Subspace lines join the basis rows as
lowercase hex of the packed base-q row integers with ':'; subset lines
are comma-separated members.  Files are written in id order, which is
the q-Pascal recursion order of subspaces.py (colex order for subsets),
and read in any order; a vertex on two lines is an error that names both.

A code file is read as one byte array, in one numpy pass, under this
grammar:

- ASCII only.
- Lines end in '\n' or '\r\n'; the last line may lack its newline.
- Blank lines are skipped, but for the body of a k = 0 graph, whose one
  vertex is a blank line.
- Spaces and tabs are stripped at the two ends of a line only.
- Inside a line only digits and the separator appear: 0-9a-fA-F and ':'
  for subspaces, 0-9 and ',' for subsets.  A line holds k tokens, each of
  at most 16 hex or 20 decimal digits and below 2^64.

A header without graph= or size=, or a body line that breaks the grammar,
names no vertex or repeats another, raises ValueError naming its line.

A design file is the code file of the design's block level: a spread of
GF(2)^6 is `code graph=jq:2,6,2 size=21 label=spread`, then its lines.
"""

from __future__ import annotations

from pathlib import Path
from typing import Union

import numpy as np

from .graphs import GraphSpec, parse_graph_spec, vertex_index
from .verify import Code


def _parse_header(line: str, no: int) -> tuple[GraphSpec, int, str | None]:
    """The graph, size and label of the code header on line no."""
    kind, *parts = line.split() or [""]
    if kind != "code":
        raise ValueError(
            f"line {no}: expected a 'code' header, got {line.strip()!r}")
    for tok in parts:
        if "=" not in tok:
            raise ValueError(f"line {no}: bad header field {tok!r}")
    fields = dict(tok.partition("=")[::2] for tok in parts)
    for key in ("graph", "size"):
        if not fields.get(key):
            raise ValueError(f"line {no}: code header has no {key}=")
    if not fields["size"].isdigit():
        raise ValueError(f"line {no}: code header size={fields['size']} "
                         "is not a count")
    try:
        spec = parse_graph_spec(fields["graph"], allow_unbalanced=True)
    except ValueError as exc:
        raise ValueError(f"line {no}: {exc}") from None
    return spec, int(fields["size"]), fields.get("label")


def code_to_text(code: Code) -> str:
    head = f"code graph={code.spec} size={len(code)}"
    if code.label:
        head += f" label={code.label}"
    rows = vertex_index(code.spec).rows[code.ids].tolist()
    if code.spec.q == 1:
        body = [",".join(map(str, row)) for row in rows]
    else:
        body = [":".join(format(r, "x") for r in row) for row in rows]
    return "\n".join([head] + body) + "\n"


def write_code(path: Union[str, Path], code: Code) -> None:
    Path(path).write_text(code_to_text(code), encoding="utf-8")


def code_from_text(text: str) -> Code:
    return _code_from_bytes(text.encode("utf-8"))


def read_code(path: Union[str, Path]) -> Code:
    return _code_from_bytes(Path(path).read_bytes())


def _code_from_bytes(raw: bytes) -> Code:
    """Parse a code file held as bytes; ValueError names any bad line."""
    head, first, body = _split_header(raw)
    spec, size, label = _parse_header(head, first - 1)
    try:
        ids = _body_ids(body, vertex_index(spec), size)
    except _LineFault as fault:
        line, why = fault.args
        text = body.split(b"\n")[line].decode("utf-8", "backslashreplace")
        text = text.strip(" \t\r")
        what = (f"repeats line {first + why}" if isinstance(why, int)
                else f"is not a vertex of {spec} ({why})")
        raise ValueError(f"line {first + line}: {text!r} {what}") from None
    return Code(spec, ids, label=label)


def _split_header(raw: bytes) -> tuple[str, int, bytes]:
    """The header line, the number of the line after it, the body's bytes."""
    at, no = 0, 1
    while True:
        end = raw.find(b"\n", at)
        end = len(raw) if end < 0 else end
        if raw[at:end].strip(b" \t\r"):
            break
        if end == len(raw):
            raise ValueError("empty code file")
        at, no = end + 1, no + 1
    try:
        head = raw[at:end].decode("ascii")
    except UnicodeDecodeError:
        raise ValueError(f"line {no}: the header is not ASCII") from None
    return head, no + 1, raw[end + 1:]


class _LineFault(Exception):
    """args: (index of a body line among the body lines, why it is no
    vertex), or for a repeated vertex (that index, the index of the line
    the vertex is first on)."""


# byte classes of a code-file body: a digit is its value, below _SEP
_SEP, _NL, _CR, _WS, _BAD = 16, 17, 18, 19, 20


def _byte_classes(digits: bytes, sep: bytes) -> bytes:
    """The bytes.translate table from a byte to its class."""
    lut = bytearray([_BAD]) * 256
    for value, char in enumerate(digits):
        lut[char] = lut[ord(chr(char).upper())] = value
    lut[ord(sep)], lut[ord("\n")], lut[ord("\r")] = _SEP, _NL, _CR
    lut[ord(" ")] = lut[ord("\t")] = _WS
    return bytes(lut)


# base -> (byte classes, most digits in a token)
_GRAMMAR = {10: (_byte_classes(b"0123456789", b","), 20),
            16: (_byte_classes(b"0123456789abcdef", b":"), 16)}

# a 20-digit decimal token stays below 2^64 iff its first 19 digits are
# below _DEC_TOP, or equal to it with a last digit of at most 5
_DEC_TOP = np.uint64((2 ** 64 - 1) // 10)


def _line_of(cls: np.ndarray, at: int) -> int:
    """The index of the body line that holds byte at of cls."""
    return int(np.count_nonzero(cls[:at] == _NL))


def _fault(cls: np.ndarray, at: int, why: str) -> _LineFault:
    """The fault of the line that holds byte at of cls."""
    return _LineFault(_line_of(cls, at), why)


def _check(cls: np.ndarray, bad: np.ndarray, why: str, pos=None) -> None:
    """Raise at the first bad[i]: at byte pos[i] of cls, or at byte i."""
    if bad.any():
        at = int(np.argmax(bad))
        raise _fault(cls, at if pos is None else int(pos[at]), why)


def _body_rows(body: bytes, k: int, base: int):
    """The (m, k) uint64 rows of a code-file body, in one pass over its bytes.

    Every byte is classed by one bytes.translate; carriage returns, spaces,
    tabs and bad bytes are looked for only when the classes hold one.  The
    separator and newline positions bound the tokens, and the tokens are
    read one digit position at a time, all at once.  Returns the classes,
    the rows, and the position in the classes of each row's newline; raises
    _LineFault at the first line that breaks the grammar.  Whether a row is
    a vertex is checked by VertexIndex.ids_of_rows.
    """
    table, most = _GRAMMAR[base]
    cls = np.frombuffer(body.translate(table), dtype=np.uint8)
    if not len(cls):
        return cls, np.empty((0, k), dtype=np.uint64), np.empty(0, dtype=np.intp)
    stripped = cls.max() >= _CR
    if stripped:
        _check(cls, cls == _BAD, "a character outside the grammar")
        stray = cls == _CR
        stray[:-1] &= cls[1:] != _NL
        _check(cls, stray, "a carriage return before no newline")
    if cls[-1] != _NL:
        cls = np.append(cls, np.uint8(_NL))
    if stripped:
        keep = np.flatnonzero(cls < _CR)
        cls = cls[keep]
        # two content bytes of one line with stripped bytes between them
        inner = np.diff(keep) > 1
        inner &= cls[:-1] < _NL
        inner &= cls[1:] < _NL
        _check(cls, inner, "a space or tab inside the line")
    if k == 0:  # the one vertex is written as a blank line
        _check(cls, cls != _NL, "a line of a k = 0 graph is not blank")
        return cls, np.empty((len(cls), 0), dtype=np.uint64), np.arange(len(cls))
    ends = np.flatnonzero(cls >= _SEP)
    newline = cls[ends] == _NL
    length = np.empty_like(ends)  # a token runs from the previous end
    length[0] = ends[0]
    np.subtract(ends[1:], ends[:-1], out=length[1:])
    length[1:] -= 1
    # a blank line: an empty token ending in a newline, first or right
    # after a newline
    blank = length == 0
    blank &= newline
    blank[1:] &= newline[:-1]
    if blank.any():
        line = ~blank
        ends, length, newline = ends[line], length[line], newline[line]
    # every line: k - 1 separators, then its newline
    if len(newline) % k or (newline.reshape(-1, k) != (np.arange(k) == k - 1)).any():
        _check(cls, newline != (np.arange(len(newline)) % k == k - 1),
               f"a line does not hold {k} tokens", ends)
    # one reduce for both length checks: an empty token wraps to 2^64 - 1
    longest = int((length - 1).view(np.uint64).max(initial=0)) + 1
    if longest > most:
        _check(cls, length == 0, "an empty token", ends)
        _check(cls, length > most, f"a token of more than {most} digits", ends)
    # Horner's rule on the last `longest` bytes before every token end, one
    # place at a time; the bytes before a shorter token count as zeros
    vals = np.zeros(len(ends), dtype=np.uint64)
    for j in range(longest, 0, -1):
        digit = np.take(cls, ends - j, mode="clip")
        if j > 1:
            digit *= length >= j
        elif longest == 20:  # base 10: the one digit that can leave the uint64
            _check(cls, (vals > _DEC_TOP) | ((vals == _DEC_TOP) & (digit > 5)),
                   "a token above 2^64 - 1", ends)
        vals *= np.uint64(base)
        vals += digit
    return cls, vals.reshape(-1, k), ends[k - 1::k]


def _body_ids(body: bytes, idx, size: int) -> np.ndarray:
    """The sorted vertex ids named by a code-file body of size vertices."""
    cls, rows, ends = _body_rows(body, idx.spec.k, 10 if idx.spec.q == 1 else 16)
    if len(rows) != size:
        raise ValueError(f"header says {size} vertices, file has {len(rows)}")
    try:
        ids = idx.ids_of_rows(rows)
    except KeyError as exc:  # its second argument is the first row of none
        raise _fault(cls, int(ends[exc.args[1]]), "names no vertex") from None
    # a file written in id order is one sorted run, which the stable sort
    # passes in linear time; equal ids keep their line order
    order = np.argsort(ids, kind="stable")
    ids = ids[order]
    same = np.flatnonzero(ids[1:] == ids[:-1])
    if len(same):  # the repeat nearest the top, and the line it repeats
        at = same[np.argmin(order[same + 1])]
        raise _LineFault(_line_of(cls, int(ends[order[at + 1]])),
                         _line_of(cls, int(ends[order[at]])))
    return ids
