"""The stable text format of codes, and of designs, which are codes.

Code file: a header line `code graph=<spec> size=<count> [label=<label>]`
followed by one vertex per line.  Subspace lines join the basis rows as
lowercase hex of the packed base-q row integers with ':'; subset lines
are comma-separated members.  Files are written in id order and read in
any order; a vertex on two lines is an error that names both.

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
        nl = np.flatnonzero(body == _NEWLINE)
        at = nl[line - 1] + 1 if line else 0
        end = nl[line] if line < len(nl) else len(body)
        text = body[at:end].tobytes().decode("utf-8", "backslashreplace")
        text = text.strip(" \t\r")
        what = (f"repeats line {first + why}" if isinstance(why, int)
                else f"is not a vertex of {spec} ({why})")
        raise ValueError(f"line {first + line}: {text!r} {what}") from None
    return Code(spec, ids, label=label)


def _split_header(raw: bytes) -> tuple[str, int, np.ndarray]:
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
    return head, no + 1, np.frombuffer(raw, dtype=np.uint8)[end + 1:]


class _LineFault(Exception):
    """args: (index of a body line among the body lines, why it is no
    vertex), or for a repeated vertex (that index, the index of the line
    the vertex is first on)."""


_NEWLINE = ord("\n")

# byte classes of a code-file body: a digit is its value, below _SEP
_SEP, _NL, _CR, _WS, _BAD = 16, 17, 18, 19, 20


def _byte_classes(digits: bytes, sep: bytes) -> np.ndarray:
    lut = np.full(256, _BAD, dtype=np.uint8)
    for value, char in enumerate(digits):
        lut[char] = lut[ord(chr(char).upper())] = value
    lut[ord(sep)], lut[_NEWLINE], lut[ord("\r")] = _SEP, _NL, _CR
    lut[ord(" ")] = lut[ord("\t")] = _WS
    return lut


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


def _body_rows(body: np.ndarray, k: int, base: int):
    """The (m, k) uint64 rows of a code-file body, in one pass over its bytes.

    Every byte is classed through a 256-entry table.  The stripped edge
    bytes are dropped, the separator and newline positions bound the tokens,
    and the tokens are read one digit position at a time, all at once.
    Returns the classes, the rows, and the position in the classes of each
    row's newline; raises _LineFault at the first line that breaks the
    grammar.  Whether a row is a vertex is left to the lookup.
    """
    lut, most = _GRAMMAR[base]
    cls = lut[body]
    if not len(cls):
        return cls, np.empty((0, k), dtype=np.uint64), np.empty(0, dtype=np.intp)
    _check(cls, cls == _BAD, "a character outside the grammar")
    stray = cls == _CR
    stray[:-1] &= cls[1:] != _NL
    _check(cls, stray, "a carriage return before no newline")
    if cls[-1] != _NL:
        cls = np.append(cls, np.uint8(_NL))
    edge = cls >= _CR
    if edge.any():
        keep = np.flatnonzero(~edge)
        cls = cls[keep]
        # two content bytes of one line with stripped bytes between them
        inner = np.diff(keep) > 1
        inner &= cls[:-1] < _NL
        inner &= cls[1:] < _NL
        _check(cls, inner, "a space or tab inside the line")
    nl = cls == _NL
    if k == 0:  # the one vertex is written as a blank line
        _check(cls, ~nl, "a line of a k = 0 graph is not blank")
        return cls, np.empty((len(cls), 0), dtype=np.uint64), np.arange(len(cls))
    ends = np.flatnonzero(cls >= _SEP)
    starts = np.empty_like(ends)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    # a newline first or right after a newline ends a blank line
    blank = nl.copy()
    blank[1:] &= nl[:-1]
    if blank.any():
        line = ~blank[ends]
        ends, starts = ends[line], starts[line]
    # every line: k - 1 separators, then its newline
    kinds = nl[ends]
    if len(kinds) % k or (kinds.reshape(-1, k) != (np.arange(k) == k - 1)).any():
        _check(cls, kinds != (np.arange(len(kinds)) % k == k - 1),
               f"a line does not hold {k} tokens", ends)
    length = ends - starts
    _check(cls, length == 0, "an empty token", ends)
    _check(cls, length > most, f"a token of more than {most} digits", ends)
    # Horner's rule, one digit position of every token at a time; a token
    # that has run out of digits keeps its value and its place
    vals = cls[starts].astype(np.uint64)
    at = starts
    for j in range(1, int(length.max(initial=0))):
        live = length > j
        at += live
        digit = cls[at]
        if j == 19:  # base 10: the one digit that can leave the uint64
            _check(cls, live & ((vals > _DEC_TOP) |
                                ((vals == _DEC_TOP) & (digit > 5))),
                   "a token above 2^64 - 1", ends)
        np.multiply(vals, np.uint64(base), out=vals, where=live)
        np.add(vals, digit, out=vals, where=live)
    return cls, vals.reshape(-1, k), ends[k - 1::k]


def _body_ids(body: np.ndarray, idx, size: int) -> np.ndarray:
    """The sorted vertex ids named by a code-file body of size vertices."""
    cls, rows, ends = _body_rows(body, idx.spec.k, 10 if idx.spec.q == 1 else 16)
    if len(rows) != size:
        raise ValueError(f"header says {size} vertices, file has {len(rows)}")
    try:
        ids = idx.ids_of_rows(rows)
    except KeyError:
        lo, hi = 0, len(rows)  # bisect for the first row that is no vertex
        while hi - lo > 1:
            mid = (lo + hi) // 2
            try:
                idx.ids_of_rows(rows[lo:mid])
                lo = mid
            except KeyError:
                hi = mid
        raise _fault(cls, int(ends[lo]), "names no vertex") from None
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
