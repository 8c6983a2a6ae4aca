"""Stable text formats for codes and designs.

Code file: a header line `code graph=<spec> size=<count> [label=<label>]`
followed by one serialized vertex per line, sorted.  Subspace lines join
the basis rows as lowercase hex of the packed base-q row integers with
':'; subset lines are comma-separated members.

Design file: header `design n=<n> k=<k> q=<q>`, then one block per line
in the same vertex syntax.
"""

from __future__ import annotations

from itertools import repeat
from pathlib import Path
from typing import Union

import numpy as np

from .constructions import Design
from .graphs import parse_graph_spec, vertex_index
from .subspaces import Subset, Subspace
from .verify import Code


def _parse_header(line: str, expected: str) -> dict:
    parts = line.strip().split()
    if not parts or parts[0] != expected:
        raise ValueError(f"expected a {expected!r} header, got {line.strip()!r}")
    fields = {}
    for tok in parts[1:]:
        if "=" not in tok:
            raise ValueError(f"bad header field {tok!r}")
        key, val = tok.split("=", 1)
        fields[key] = val
    return fields


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
    lines = [(no, ln.strip()) for no, ln in enumerate(text.splitlines(), 1)
             if ln.strip()]
    if not lines:
        raise ValueError("empty code file")
    fields = _parse_header(lines[0][1], "code")
    spec = parse_graph_spec(fields["graph"], allow_unbalanced=True)
    size = int(fields["size"])
    body = lines[1:]
    if spec.k == 0:  # its one vertex is written as a blank line
        head = lines[0][0]
        body = list(enumerate(
            (ln.strip() for ln in text.splitlines()[head:]), head + 1))
    if len(body) != size:
        raise ValueError(f"header says {size} vertices, file has {len(body)}")
    idx = vertex_index(spec)
    try:
        ids = idx.ids_of_rows(_vertex_rows([ln for _, ln in body], spec))
    except (ValueError, OverflowError, KeyError):
        for no, ln in body:  # name the first line that is no vertex
            try:
                idx.ids_of_rows(_vertex_rows([ln], spec))
            except (ValueError, OverflowError, KeyError):
                raise ValueError(
                    f"line {no}: {ln!r} is not a vertex of {spec}") from None
        raise
    return Code(spec, ids, label=fields.get("label"))


# lines parsed per block: bounds the short-lived token strings
_PARSE_LINES = 1 << 14


def _vertex_rows(texts: list, spec) -> np.ndarray:
    """The (len(texts), k) uint64 rows of vertex lines, in one pass.

    Raises ValueError or OverflowError unless every line holds k integers
    that fit in a uint64; whether a row is a vertex is left to the lookup.
    """
    k = spec.k
    if k == 0:
        if any(texts):
            raise ValueError("a line of a k = 0 graph is not blank")
        return np.empty((len(texts), 0), dtype=np.uint64)
    sep, base = (",", 10) if spec.q == 1 else (":", 16)
    if not (np.char.count(np.array(texts, dtype=str), sep) == k - 1).all():
        raise ValueError(f"a line does not hold {k} integers")
    rows = np.empty((len(texts), k), dtype=np.uint64)
    for at in range(0, len(texts), _PARSE_LINES):
        part = sep.join(texts[at:at + _PARSE_LINES]).split(sep)
        rows[at:at + _PARSE_LINES] = np.array(
            list(map(int, part, repeat(base))), dtype=np.uint64).reshape(-1, k)
    return rows


def read_code(path: Union[str, Path]) -> Code:
    return code_from_text(Path(path).read_text(encoding="utf-8"))


def design_to_text(design: Design) -> str:
    lines = [f"design n={design.n} k={design.k} q={design.q}"]
    lines.extend(b.serialize() for b in design.blocks)
    return "\n".join(lines) + "\n"


def design_from_text(text: str) -> Design:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty design file")
    fields = _parse_header(lines[0], "design")
    n, k, q = int(fields["n"]), int(fields["k"]), int(fields["q"])
    blocks = []
    for ln in lines[1:]:
        if q == 1:
            blocks.append(Subset.deserialize(ln.strip(), n))
        else:
            blocks.append(Subspace.deserialize(ln.strip(), n, q))
    return Design(n, k, q, blocks)


def read_design(path: Union[str, Path]) -> Design:
    return design_from_text(Path(path).read_text(encoding="utf-8"))
