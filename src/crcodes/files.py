"""The stable text format of codes, and of designs, which are codes.

Code file: a header line `code graph=<spec> size=<count> [label=<label>]`
followed by one vertex per line.  Subspace lines join the basis rows as
lowercase hex of the packed base-q row integers with ':'; subset lines
are comma-separated members.  Files are written in id order, which is
the q-Pascal recursion order of subspaces.py (colex order for subsets),
and read in any order; a vertex on two lines is an error that names both.

A code file is read as bytes and its body parsed in place, in blocks of
about BLOCK_BYTES sliced from those bytes, each cut just after a newline,
so the parse's working set does not grow with the file; no level of the
graph is enumerated.  The ids go into one array sized by the header.  The
ids of a file in id order are kept as read, with no sort; only a file in
another order is sorted, once.  The grammar:

- ASCII only.
- Lines end in '\n' or '\r\n'; the last line may lack its newline.
- Blank lines are skipped, but for the body of a k = 0 graph, whose one
  vertex is a blank line.
- Spaces and tabs are stripped at the two ends of a line only.
- Inside a line only digits and the separator appear: 0-9a-fA-F and ':'
  for subspaces, 0-9 and ',' for subsets.  A line holds k tokens, each of
  at most 16 hex or 20 decimal digits and below 2^64.

A header without graph= or size=, or a body line that breaks the grammar,
names no vertex or repeats another, raises ValueError naming its line, the
line one pass over the whole body would name.

A design file is the code file of the design's block level: a spread of
GF(2)^6 is `code graph=jq:2,6,2 size=21 label=spread`, then its lines.
"""

from __future__ import annotations

from pathlib import Path
from typing import Union

import numpy as np

from .graphs import GraphSpec, ids_of_rows, parse_graph_spec, vertex_index
from .verify import Code

# bytes of a code-file body parsed at once: the parse's numpy temporaries
# take about 15 bytes per body byte (26 MB for the 1.7 MB J_2(8,4)
# spread-avoid file in one piece), so 64 KiB blocks keep them near 1 MB
# whatever the file's size.  Each block is sliced from the bytes read, with
# no copy of the whole body, so a read holds the file's bytes, the ids and
# one block's temporaries
BLOCK_BYTES = 1 << 16


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
        ids = _body_ids(raw, body, spec, size)
    except _LineFault as fault:
        line, why = fault.args
        for _ in range(line):
            body = raw.index(b"\n", body) + 1
        end = raw.find(b"\n", body)
        text = raw[body:len(raw) if end < 0 else end]
        text = text.decode("utf-8", "backslashreplace").strip(" \t\r")
        what = (f"repeats line {first + why}" if isinstance(why, int)
                else f"is not a vertex of {spec} ({why})")
        raise ValueError(f"line {first + line}: {text!r} {what}") from None
    return Code(spec, ids, label=label)


def _split_header(raw: bytes) -> tuple[str, int, int]:
    """The header line, the number of the line after it, the offset of the
    body in raw."""
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
    return head, no + 1, min(end + 1, len(raw))


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
    """The (m, k) uint64 rows of whole lines of a code-file body (a block of
    _blocks, or all of it), in one pass over their bytes.

    Every byte is classed by one bytes.translate; carriage returns, spaces,
    tabs and bad bytes are looked for only when the classes hold one.  The
    separator and newline positions bound the tokens, and the tokens are
    read one digit position at a time, all at once.  Returns the classes,
    the rows, and the position in the classes of each row's newline; raises
    _LineFault at the first line, counted from the first byte given, of the
    first kind of grammar fault checked.  Whether a row is a vertex is
    checked by graphs.ids_of_rows.
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
    longest = int(length.max(initial=0))
    if longest > most or length.min(initial=1) == 0:
        _check(cls, length == 0, "an empty token", ends)
        _check(cls, length > most, f"a token of more than {most} digits", ends)
    # Horner's rule on the last `longest` bytes before every token end, one
    # place at a time; the bytes before a shorter token count as zeros, and
    # so do those before the first byte, read from a zero-padded copy
    padded = np.zeros(longest + len(cls), dtype=np.uint8)
    padded[longest:] = cls
    vals = np.zeros(len(ends), dtype=np.uint64)
    for j in range(longest, 0, -1):
        digit = padded[longest - j:][ends]
        if j > 1:
            digit *= length >= j
        elif longest == 20:  # base 10: the one digit that can leave the uint64
            _check(cls, (vals > _DEC_TOP) | ((vals == _DEC_TOP) & (digit > 5)),
                   "a token above 2^64 - 1", ends)
        vals *= np.uint64(base)
        vals += digit
    return cls, vals.reshape(-1, k), ends[k - 1::k]


def _blocks(raw: bytes, start: int):
    """(start, end) in raw of the blocks of the body from byte start on: at
    most BLOCK_BYTES each, but for a line longer than that, and each but
    the last ending in a newline."""
    while start < len(raw):
        end = len(raw)
        if start + BLOCK_BYTES < end:
            end = (raw.rfind(b"\n", start, start + BLOCK_BYTES) + 1
                   or raw.find(b"\n", start + BLOCK_BYTES) + 1 or end)
        yield start, end
        start = end


def _moved(fault: _LineFault, raw: bytes, body: int, start: int) -> _LineFault:
    """A block's fault, its line counted from the top of the body, which
    begins at byte body of raw."""
    line, why = fault.args
    return _LineFault(raw.count(b"\n", body, start) + line, why)


def _line_of_row(raw: bytes, body: int, k: int, base: int, row: int) -> int:
    """The body line of the row-th vertex line, by parsing again the blocks
    up to it; only a fault is named this way."""
    for start, end in _blocks(raw, body):
        cls, rows, ends = _body_rows(raw[start:end], k, base)
        if row < len(rows):
            return (raw.count(b"\n", body, start)
                    + _line_of(cls, int(ends[row])))
        row -= len(rows)


def _body_ids(raw: bytes, body: int, spec: GraphSpec, size: int) -> np.ndarray:
    """The sorted vertex ids named by a code-file body of size vertices,
    the bytes of raw from offset body on.

    Each block is parsed and its rows turned into ids on its own; only the
    ids are kept, in one array sized by the header and made up front.  Ids
    that rise strictly from line to line, as those of a file written in id
    order do, are returned as they are; any others are sorted once, which
    finds the repeats.  A bad body is named as one pass
    over all of it would name it: the first line of the first kind of
    grammar fault, then a wrong size, then the first line that names no
    vertex, then the repeat nearest the top.
    """
    k, base = spec.k, 10 if spec.q == 1 else 16
    # a body of more lines than the graph has vertices repeats one within
    # its first V + 1, so no header size makes a larger array
    ids = np.empty(min(size, spec.vertex_count + 1), dtype=np.intp)
    count, unnamed = 0, None
    for start, end in _blocks(raw, body):
        try:
            cls, rows, ends = _body_rows(raw[start:end], k, base)
        except _LineFault as fault:
            # the blocks before hold no grammar fault, but a later one may
            # hold a kind checked first: the rest is parsed as one
            try:
                _body_rows(raw[start:], k, base)
            except _LineFault as first:
                fault = first
            raise _moved(fault, raw, body, start) from None
        if unnamed is None:
            try:
                got = ids_of_rows(spec, rows)
            except KeyError as exc:  # its second argument is the first row of none
                unnamed = _moved(_fault(cls, int(ends[exc.args[1]]),
                                        "names no vertex"), raw, body, start)
            else:
                kept = ids[count:count + len(got)]
                kept[:] = got[:len(kept)]
        count += len(rows)
    if count != size:
        raise ValueError(f"header says {size} vertices, file has {count}")
    if unnamed is not None:
        raise unnamed
    if (ids[1:] > ids[:-1]).all():  # sorted, and so no repeat
        return ids
    # equal ids keep their line order
    order = np.argsort(ids, kind="stable")
    ids = ids[order]
    same = np.flatnonzero(ids[1:] == ids[:-1])
    if len(same):  # the repeat nearest the top, and the line it repeats
        at = same[np.argmin(order[same + 1])]
        raise _LineFault(*(_line_of_row(raw, body, k, base, int(order[i]))
                           for i in (at + 1, at)))
    return ids
