import json
import random
import re
import subprocess
import sys

import numpy as np
import pytest

import oracles
from crcodes import constructions as con
from crcodes import files
from crcodes.cli import main
from crcodes.graphs import GraphSpec, parse_graph_spec, vertex_index
from crcodes.verify import Code

S63 = GraphSpec("grassmann", 2, 6, 3)


def test_code_file_round_trip(tmp_path):
    code = con.hyperplane_code(S63)
    path = tmp_path / "h.code"
    files.write_code(path, code)
    text = path.read_text()
    assert text.splitlines()[0] == "code graph=jq:2,6,3 size=155 label=hyperplane"
    back = files.read_code(path)
    assert back.spec == code.spec
    assert back.ids.tolist() == code.ids.tolist()
    assert back.label == "hyperplane"


def test_code_file_rejects_bad_size(tmp_path):
    code = con.hyperplane_code(S63)
    lines = files.code_to_text(code).splitlines()
    bad = "\n".join([lines[0]] + lines[1:-1])
    with pytest.raises(ValueError):
        files.code_from_text(bad)


@pytest.mark.parametrize("graph,line", [
    ("jq:2,6,3", "3:3:4"),        # not a reduced echelon basis
    ("jq:2,6,3", "1:2"),          # too few rows
    ("jq:2,6,3", "1:2:4:8"),      # too many rows
    ("jq:2,6,3", "1:2:100"),      # row wider than n = 6 digits
    ("jq:2,6,3", "0:42:4"),       # packs to the key of 1:2:4
    ("jq:2,6,3", "-1:2:4"),
    ("jq:2,6,3", "1:2:zz"),
    ("j:16,6", "6,5,4,3,2,1"),    # members decreasing
    ("j:16,6", "0,1,2,3,4,5"),    # member below 1
    ("j:16,6", "1,2,3,4,5,17"),   # member above n
    ("j:16,6", "1,2,3,4,5"),      # too few members
    ("jq:2,6,3", "1:2:10000000000000004"),  # 17 hex digits, 2^64 + 4
    ("j:16,6", "1,2,3,4,5,100000000000000000000"),  # 21 digits
    ("jq:2,6,3", "1::4"),          # empty token
    ("jq:2,6,3", "1:2:4:"),        # trailing separator
    ("jq:2,6,3", "1 2:4:8"),       # space inside the line
    ("jq:2,6,3", "1:2:4\u00e9"),   # non-ASCII
    # spread lines the design-file reader of int(token, 16) accepted
    ("jq:2,6,2", "0x34:38"),
    ("jq:2,6,2", "+34:38"),
    ("jq:2,6,2", "34 : 38"),
])
def test_code_file_rejects_malformed_lines(graph, line):
    if graph == "jq:2,6,3":
        code = con.hyperplane_code(S63)
    elif graph == "jq:2,6,2":
        code = con.desarguesian_2spread(2, 6)
    else:
        code = con.avoid_code(GraphSpec("johnson", 1, 16, 6),
                              con.extended_hamming_sqs(4))
    lines = files.code_to_text(code).splitlines()
    lines[5] = line
    with pytest.raises(ValueError, match=re.escape(f"line 6: {line!r}")):
        files.code_from_text("\n".join(lines) + "\n")


def _sample_code(graph: str) -> Code:
    spec = parse_graph_spec(graph, allow_unbalanced=True)
    if graph == "jq:2,6,3":
        return con.hyperplane_code(spec)
    if graph == "j:16,6":
        return con.avoid_code(spec, con.extended_hamming_sqs(4))
    rng = np.random.default_rng(9)
    size = max(1, spec.vertex_count // 3)
    return Code(spec, rng.choice(spec.vertex_count, size, replace=False),
                label="sample")


@pytest.mark.parametrize("graph", ["jq:2,6,3", "jq:3,4,2", "jq:4,4,2",
                                   "j:16,6", "jq:2,4,0", "j:5,0"])
def test_code_reader_matches_line_oracle(graph):
    code = _sample_code(graph)
    empty = Code(code.spec, [])
    for c in [code] + [empty] * (code.spec.k == 0):
        text = files.code_to_text(c)
        got, want = files.code_from_text(text), oracles.code_from_lines(text)
        assert got.spec == want.spec == c.spec
        assert got.ids.tolist() == want.ids.tolist() == c.ids.tolist()
        assert got.label == want.label == c.label
    # the line reader failed on an empty body of a k > 0 graph
    assert len(files.code_from_text(files.code_to_text(empty))) == 0


def _edge_blanks(text):
    out = []
    for ln in text.splitlines(keepends=True):
        body = ln.rstrip("\r\n")
        out.append(f" \t{body}\t {ln[len(body):]}")
    return "".join(out)


def _upper_body(text):
    at = text.index("\n")
    return text[:at] + text[at:].upper()


def _reversed_body(text):
    head, *lines = text.splitlines()
    return "\n".join([head] + lines[::-1]) + "\n"


@pytest.mark.parametrize("graph", ["jq:2,6,3", "jq:3,4,2", "j:16,6"])
@pytest.mark.parametrize("variant", [
    lambda t: t.replace("\n", "\r\n"),
    lambda t: "\n \n" + t.replace("\n", "\n\n\t\n") + " \n",
    _edge_blanks,
    lambda t: t[:-1],
    _upper_body,
    lambda t: _edge_blanks("\n" + _upper_body(t).replace("\n", "\r\n\r\n")[:-4]),
    _reversed_body,
], ids=["crlf", "blank-lines", "edge-blanks", "no-final-newline",
        "uppercase", "all", "any-order"])
def test_code_reader_accepts_the_grammar(graph, variant):
    code = _sample_code(graph)
    text = variant(files.code_to_text(code))
    back = files.code_from_text(text)
    assert back.ids.tolist() == code.ids.tolist()
    assert back.label == code.label


@pytest.mark.parametrize("graph", ["jq:2,6,3", "j:10,4"])
def test_code_reader_takes_any_line_order(monkeypatch, graph):
    # an id-ordered file is kept as read; reversed and shuffled bodies,
    # whole and cut into 64-byte blocks, are sorted to the same ids
    code = _sample_code(graph)
    text = files.code_to_text(code)
    head, *lines = text.splitlines()
    shuffled = list(lines)
    np.random.default_rng(4).shuffle(shuffled)
    assert shuffled != lines
    for block in (64, 1 << 30):
        monkeypatch.setattr(files, "BLOCK_BYTES", block)
        for body in (lines, lines[::-1], shuffled):
            back = files.code_from_text("\n".join([head] + body) + "\n")
            assert back.ids.tolist() == code.ids.tolist()


def test_code_reader_names_a_repeat_in_a_shuffled_file(monkeypatch):
    # two repeats in a shuffled body: lines 42 and 122 hold one vertex,
    # lines 72 and 112 another; the message is the one the reader gave
    # when every body was sorted
    head, *lines = files.code_to_text(con.hyperplane_code(S63)).splitlines()
    random.Random(27).shuffle(lines)
    lines[120] = lines[40]
    lines[70] = lines[110]
    text = "\n".join([head] + lines) + "\n"
    for block in (64, 1 << 30):
        monkeypatch.setattr(files, "BLOCK_BYTES", block)
        with pytest.raises(ValueError) as err:
            files.code_from_text(text)
        assert str(err.value) == "line 112: '5:2:10' repeats line 72"


def test_code_reader_names_lines_after_blank_lines_and_crlf():
    text = files.code_to_text(con.hyperplane_code(S63))
    lines = ("\n \n" + text).replace("\n", "\r\n").split("\r\n")
    # line 1 and 2 blank, 3 the header, 4 the first vertex
    for no, bad, why in [(4, "1:2:x", "outside the grammar"),
                         (9, "1:2\r:4", "carriage return"),
                         (20, "3:3:4", "names no vertex"),
                         (len(lines) - 1, "1:2", "3 tokens")]:
        broken = lines.copy()
        broken[no - 1] = bad
        with pytest.raises(ValueError, match=f"line {no}: .*{why}"):
            files.code_from_text("\r\n".join(broken))


@pytest.mark.parametrize("graph,line", [
    ("jq:2,8,4", "110:20:40:80"),  # bits above n = 8; the bytes read 10:20:40:80
    ("jq:2,8,4", "30:20:40:80"),   # row 0 not zero in pivot column 5
    ("jq:2,8,4", "20:10:40:80"),   # rows out of pivot order
    ("jq:3,4,2", "1:54"),          # 3 + 3 * 27: a digit of q in column n - 1
    ("jq:3,4,2", "2:3"),           # a pivot digit of 2
    ("jq:3,4,2", "1:12"),          # 2 * 9: a pivot digit of 2
])
def test_code_reader_names_a_row_out_of_rref(graph, line):
    rows = vertex_index(parse_graph_spec(graph)).rows[[5, 7, 9]].tolist()
    good = [":".join(format(r, "x") for r in row) for row in rows]
    text = "\n".join([f"code graph={graph} size=4"] + good[:2] + [line, good[2]])
    with pytest.raises(ValueError,
                       match=re.escape(f"line 4: {line!r} is not a vertex")):
        files.code_from_text(text + "\n")


@pytest.mark.parametrize("last,why", [
    ("18446744073709551615", "names no vertex"),       # 2^64 - 1 is read
    ("18446744073709551616", "above 2^64 - 1"),
    ("18446744073709551622", "above 2^64 - 1"),        # would wrap to 6
    ("99999999999999999999", "above 2^64 - 1"),
    ("000000000000000000017", "more than 20 digits"),
    ("", "an empty token"),
])
def test_code_reader_never_reads_a_bad_token_as_a_vertex(last, why):
    # 1,2,3,4,5,6 and 1,2,3,4,5,17 are vertices of J(20,6); an empty token
    # ends at the newline, whose byte class is 17
    text = f"code graph=j:20,6 size=1\n1,2,3,4,5,{last}\n"
    with pytest.raises(ValueError, match=f"line 2: .*{re.escape(why)}"):
        files.code_from_text(text)


@pytest.mark.parametrize("spec", [GraphSpec("grassmann", 2, 4, 0),
                                  GraphSpec("johnson", 1, 5, 0)])
def test_code_file_round_trip_k0(spec):
    # the one vertex of a k = 0 graph is a blank line of the file
    for ids in ([0], []):
        code = Code(spec, ids)
        back = files.code_from_text(files.code_to_text(code))
        assert back.spec == spec
        assert list(back.ids) == ids


def test_design_file_round_trip(tmp_path):
    # a design file is the code file of the design's block level
    spread = con.desarguesian_2spread(2, 6)
    path = tmp_path / "spread.design"
    files.write_code(path, spread)
    assert path.read_text().splitlines()[0] == \
        "code graph=jq:2,6,2 size=21 label=spread"
    back = files.read_code(path)
    assert back.spec == spread.spec
    assert back.ids.tolist() == spread.ids.tolist()
    assert back.label == "spread"


@pytest.mark.parametrize("body,message", [
    ("1:2\n1:2\n", "line 3: '1:2' repeats line 2"),
    ("1:2\n\n1:4\n1:2\n", "line 5: '1:2' repeats line 2"),
    # the repeat nearest the top is named, with the line it repeats
    ("1:4\n1:2\n1:2\n1:4\n", "line 4: '1:2' repeats line 3"),
    ("1:2\n1:4\n1:2\n1:2\n", "line 4: '1:2' repeats line 2"),
])
def test_code_reader_names_a_repeated_line(body, message):
    size = body.count(":")
    text = f"code graph=jq:2,4,2 size={size}\n" + body
    with pytest.raises(ValueError, match=re.escape(message)):
        files.code_from_text(text)


def _edit(lines, size=None, **at):
    """The lines with each line L<no> of at replaced (the header is line 1),
    and the header's size=155 changed to size."""
    out = list(lines)
    for no, text in at.items():
        out[int(no[1:]) - 1] = text
    if size is not None:
        out[0] = out[0].replace("size=155", f"size={size}")
    return out


def _lf(lines):
    return "\n".join(lines) + "\n"


def _blank_crlf(lines):
    """CRLF line ends and a blank line after every line, so blocks start on
    blank and vertex lines alike."""
    return "".join(ln + "\r\n\r\n" for ln in lines)


# edits of the J_2(6,3) hyperplane code file, each with the message of the
# reader that parsed the body as one byte array in one pass
CUT_CASES = [
    pytest.param(lambda ls: _lf(_edit(ls, L156=ls[155] + "g")),
                 "line 156: '4:8:10g' is not a vertex of jq:2,6,3 "
                 "(a character outside the grammar)", id="bad-byte-in-last-line"),
    pytest.param(lambda ls: _lf(_edit(ls, L81="1:2")),
                 "line 81: '1:2' is not a vertex of jq:2,6,3 "
                 "(a line does not hold 3 tokens)", id="token-count"),
    pytest.param(lambda ls: _lf(_edit(ls, L81=ls[80].replace(":", "\r:", 1))),
                 "line 81: '11\\r:2:1c' is not a vertex of jq:2,6,3 "
                 "(a carriage return before no newline)", id="stray-cr"),
    pytest.param(lambda ls: _lf(_edit(ls, L141=ls[3])),
                 "line 141: '1:a:4' repeats line 4", id="repeat-across-blocks"),
    pytest.param(lambda ls: _blank_crlf(_edit(ls, L150="3:3:4")),
                 "line 299: '3:3:4' is not a vertex of jq:2,6,3 "
                 "(names no vertex)",
                 id="no-vertex-blank-crlf"),
    pytest.param(lambda ls: _blank_crlf(_edit(ls, L150="1:2:4:8")),
                 "line 299: '1:2:4:8' is not a vertex of jq:2,6,3 "
                 "(a line does not hold 3 tokens)", id="token-count-blank-crlf"),
    pytest.param(lambda ls: "\n".join(_edit(ls, L156="1:2")),
                 "line 156: '1:2' is not a vertex of jq:2,6,3 "
                 "(a line does not hold 3 tokens)", id="no-final-newline"),
    pytest.param(lambda ls: _lf(_edit(ls, size=156)),
                 "header says 156 vertices, file has 155", id="size-too-high"),
    pytest.param(lambda ls: _lf(_edit(ls, size=154)),
                 "header says 154 vertices, file has 155", id="size-too-low"),
    # several faults: one pass names grammar faults first, by kind (a bad
    # byte before a wrong token count), then a wrong size, then the first
    # line that names no vertex, then a repeat
    pytest.param(lambda ls: _lf(_edit(ls, L11="1:2", L151="1:2:x")),
                 "line 151: '1:2:x' is not a vertex of jq:2,6,3 "
                 "(a character outside the grammar)",
                 id="bad-byte-after-token-count"),
    pytest.param(lambda ls: _lf(_edit(ls, L11="3:3:4", L151="1:2")),
                 "line 151: '1:2' is not a vertex of jq:2,6,3 "
                 "(a line does not hold 3 tokens)",
                 id="token-count-after-no-vertex"),
    pytest.param(lambda ls: _lf(_edit(ls, size=156, L11="3:3:4")),
                 "header says 156 vertices, file has 155",
                 id="size-after-no-vertex"),
    pytest.param(lambda ls: _lf(_edit(ls, L11=ls[3], L151="3:3:4")),
                 "line 151: '3:3:4' is not a vertex of jq:2,6,3 "
                 "(names no vertex)",
                 id="no-vertex-after-repeat"),
]


@pytest.mark.parametrize("edit,message", CUT_CASES)
def test_code_reader_names_faults_across_block_cuts(monkeypatch, edit, message):
    # 64-byte blocks cut the 1.2 kB body about 20 times; one block of the
    # whole body is the single pass
    text = edit(files.code_to_text(con.hyperplane_code(S63)).splitlines())
    for block in (64, 1 << 30):
        monkeypatch.setattr(files, "BLOCK_BYTES", block)
        with pytest.raises(ValueError) as err:
            files.code_from_text(text)
        assert str(err.value) == message


def test_code_reader_names_a_size_beyond_the_graph(monkeypatch):
    # the ids array is sized by the header, but never past V + 1 ids: a
    # size no code can have, and a body of more lines than the 35 vertices,
    # whose repeat nearest the top lies within its first 36
    spec = GraphSpec("grassmann", 2, 4, 2)
    head, *lines = files.code_to_text(Code(spec, range(35))).splitlines()
    head = "code graph=jq:2,4,2 size="
    cases = [(head + "99999999999999", lines,
              "header says 99999999999999 vertices, file has 35"),
             (head + "40", lines + lines[3:8], "line 37: '5:6' repeats line 5"),
             (head + "40", lines[::-1] + lines[10:15],
              "line 37: 'd:6' repeats line 26"),
             (head + "40", lines + lines[3:7] + ["3:3"],
              "line 41: '3:3' is not a vertex of jq:2,4,2 (names no vertex)")]
    for block in (4, 1 << 16):
        monkeypatch.setattr(files, "BLOCK_BYTES", block)
        for header, body, message in cases:
            with pytest.raises(ValueError) as err:
                files.code_from_text("\n".join([header] + body) + "\n")
            assert str(err.value) == message


@pytest.mark.parametrize("graph", ["jq:2,6,3", "jq:3,4,2", "j:16,6"])
def test_code_reader_accepts_the_grammar_across_block_cuts(monkeypatch, graph):
    # blank lines and CRLF at the cuts, no final newline, and 4-byte
    # blocks, which every line outgrows
    code = _sample_code(graph)
    text = files.code_to_text(code)
    variants = [_blank_crlf(text.splitlines()), text[:-1],
                _edge_blanks("\n" + _upper_body(text).replace("\n", "\r\n\r\n")[:-4])]
    for block in (4, 64):
        monkeypatch.setattr(files, "BLOCK_BYTES", block)
        for variant in variants:
            back = files.code_from_text(variant)
            assert back.ids.tolist() == code.ids.tolist()


def test_reading_and_verifying_a_code_file_enumerates_no_level(tmp_path):
    # a row's id and its vertex check are arithmetic, so a cold verify of
    # the J_2(8,4) spread-avoid file builds no VertexIndex and lists no
    # level (8, 4); only writing the file needs the level's rows
    path = tmp_path / "j284.code"
    spec = parse_graph_spec("jq:2,8,4")
    files.write_code(path, con.avoid_code(spec, con.desarguesian_2spread(2, 8)))
    script = (
        "import sys\n"
        "from crcodes import cli, graphs, subspaces\n"
        "seen = []\n"
        "init, level = graphs.VertexIndex.__init__, subspaces.enumerate_level\n"
        "def spy_init(self, spec):\n"
        "    seen.append(str(spec))\n"
        "    init(self, spec)\n"
        "def spy_level(n, k, q):\n"
        "    seen.append((n, k, q))\n"
        "    return level(n, k, q)\n"
        "graphs.VertexIndex.__init__ = spy_init\n"
        "subspaces.enumerate_level = spy_level\n"
        "rc = cli.main(['verify', '--graph', 'jq:2,8,4', '--code', sys.argv[1],\n"
        "               '--out', sys.argv[2]])\n"
        "print(rc, [s for s in seen if isinstance(s, str) or s[:2] == (8, 4)])\n")
    out = subprocess.run([sys.executable, "-c", script, str(path),
                          str(tmp_path / "r.json")],
                         capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[-1] == "0 []"


def test_cli_avoid_rejects_a_repeated_block(tmp_path, capsys):
    path = tmp_path / "s.design"
    assert main(["construct", "--kind", "spread", "--graph", "jq:2,6,2",
                 "--out", str(path)]) == 0
    head, *lines = path.read_text().splitlines()
    path.write_text("\n".join([head.replace("size=21", "size=22")]
                              + lines + lines[:1]) + "\n")
    rc = main(["construct", "--kind", "avoid", "--graph", "jq:2,6,3",
               "--design", f"@{path}", "--out", str(tmp_path / "a.code")])
    assert rc == 64
    assert f"line 23: {lines[0]!r} repeats line 2" in capsys.readouterr().err


def test_cli_avoid_rejects_a_design_of_another_space(tmp_path, capsys):
    path = tmp_path / "s6.design"
    assert main(["construct", "--kind", "spread", "--graph", "jq:2,6,2",
                 "--out", str(path)]) == 0
    rc = main(["construct", "--kind", "avoid", "--graph", "jq:2,8,4",
               "--design", f"@{path}", "--out", str(tmp_path / "a.code")])
    assert rc == 64
    assert "different ambient spaces" in capsys.readouterr().err


@pytest.mark.parametrize("header,message", [
    ("code graph=jq:2,4,2", "line 1: code header has no size="),
    ("code size=2", "line 1: code header has no graph="),
    ("code graph=jq:2,4,2 size=two", "line 1: code header size=two is not a count"),
])
def test_cli_verify_names_a_bad_header(tmp_path, capsys, header, message):
    path = tmp_path / "bad.code"
    path.write_text(header + "\n1:2\n1:4\n")
    assert main(["verify", "--graph", "jq:2,4,2", "--code", str(path)]) == 64
    assert message in capsys.readouterr().err


def test_johnson_code_file_round_trip(tmp_path):
    s166 = GraphSpec("johnson", 1, 16, 6)
    code = con.avoid_code(s166, con.extended_hamming_sqs(4))
    path = tmp_path / "sqs.code"
    files.write_code(path, code)
    back = files.read_code(path)
    assert back.ids.tolist() == code.ids.tolist()


def test_cli_eigenvalues_json(capsys):
    assert main(["eigenvalues", "--graph", "jq:2,6,3"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["eigenvalues"] == [98, 35, 5, -7]
    assert data["valency"] == 98


def test_cli_eigenvalues_of_an_unbalanced_graph(capsys):
    assert main(["eigenvalues", "--graph", "jq:2,6,4"]) == 0
    assert json.loads(capsys.readouterr().out)["eigenvalues"] == [90, 27, -3]


def test_cli_eigenvalues_csv(capsys):
    assert main(["eigenvalues", "--graph", "jq:2,4,2", "--format", "csv"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "i,theta"
    assert out[1:] == ["0,18", "1,3", "2,-3"]


def test_cli_construct_verify_round_trip(tmp_path, capsys):
    code_path = tmp_path / "h.code"
    assert main(["construct", "--kind", "hyperplane", "--graph", "jq:2,6,3",
                 "--out", str(code_path)]) == 0
    assert main(["verify", "--graph", "jq:2,6,3", "--code", str(code_path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["completely_regular"] is True
    assert report["beta"] == [56] and report["gamma"] == [7]


def test_cli_verify_rejects_perturbed_code(tmp_path, capsys):
    code_path = tmp_path / "s.code"
    assert main(["construct", "--kind", "symplectic", "--graph", "jq:2,6,3",
                 "--out", str(code_path)]) == 0
    lines = code_path.read_text().splitlines()
    # swap one codeword for a vertex outside the code
    from crcodes import files as f
    code = f.read_code(code_path)
    outside = next(v for v in range(1395) if v not in set(code.ids.tolist()))
    from crcodes.graphs import vertex_index
    idx = vertex_index(S63)
    lines[1] = ":".join(format(r, "x") for r in idx.rows[outside].tolist())
    code_path.write_text("\n".join([lines[0]] + sorted(set(lines[1:]))) + "\n")
    rc = main(["verify", "--graph", "jq:2,6,3", "--code", str(code_path)])
    report = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert report["completely_regular"] is False
    assert "counterexample" in report


def test_cli_construct_avoid_empty_boundary(tmp_path, capsys):
    out = tmp_path / "empty.code"
    rc = main(["construct", "--kind", "avoid", "--graph", "jq:2,6,4",
               "--design", "spread", "--out", str(out)])
    assert rc == 0
    assert "size=0" in out.read_text().splitlines()[0]
    rc = main(["verify", "--graph", "jq:2,6,4", "--code", str(out)])
    report = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert report["error"] == "code is empty"


def test_cli_construct_sqs_and_avoid(tmp_path):
    design_path = tmp_path / "sqs.design"
    assert main(["construct", "--kind", "sqs", "--graph", "j:16,4",
                 "--out", str(design_path)]) == 0
    code_path = tmp_path / "avoid.code"
    assert main(["construct", "--kind", "avoid", "--graph", "j:16,6",
                 "--design", f"@{design_path}", "--out", str(code_path)]) == 0
    assert code_path.read_text().splitlines()[0].endswith(
        "graph=j:16,6 size=448 label=avoid")


def test_cli_search_small_sweep(tmp_path, capsys):
    rc = main(["search", "--graph", "jq:2,4,2", "--group", "singer:5",
               "--theta", "-3", "--mode", "first", "--max-seconds", "30",
               "--out", str(tmp_path)])
    assert rc == 0
    data = json.loads((tmp_path / "verdicts.json").read_text())
    got = {v["gamma1"]: v["status"] for v in data["verdicts"]}
    assert got == {3: "SAT", 6: "SAT", 9: "SAT"}
    assert all(v["lift_verified"] for v in data["verdicts"])
    assert (tmp_path / "g3.code").exists()


def test_cli_search_failed_lift_is_a_usage_error(tmp_path, capsys,
                                                 monkeypatch):
    from crcodes import search
    monkeypatch.setattr(search, "verify_report",
                        lambda spec, code: {"completely_regular": False})
    rc = main(["search", "--graph", "jq:2,4,2", "--group", "singer:5",
               "--beta0", "18", "--gamma1", "3", "--out", str(tmp_path)])
    assert rc == 64
    assert "solver is inconsistent" in capsys.readouterr().err
    assert not (tmp_path / "verdicts.json").exists()


def test_cli_search_single_point_no_probes(capsys):
    rc = main(["search", "--graph", "jq:2,4,2", "--group", "singer:5",
               "--beta0", "18", "--gamma1", "3", "--mode", "count"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["verdicts"][0]["count"] == 11


def test_cli_search_integrality_screen(capsys):
    rc = main(["search", "--graph", "jq:2,6,3", "--group", "singer:21",
               "--theta", "5", "--gamma1", "4"])
    assert rc == 64  # rejected before solving: 4 is not 0 mod 3
    assert "integrality" in capsys.readouterr().err


def test_cli_search_identity_group_sweep(capsys, tmp_path):
    rc = main(["search", "--graph", "jq:2,4,2", "--group", "identity",
               "--theta", "-3", "--max-seconds", "60",
               "--out", str(tmp_path)])
    assert rc in (0, 2)
    data = json.loads((tmp_path / "verdicts.json").read_text())
    assert [v["gamma1"] for v in data["verdicts"]] == [3, 6, 9]


def test_cli_search_parallel_jobs(tmp_path):
    rc = main(["search", "--graph", "jq:2,4,2", "--group", "singer:5",
               "--theta", "-3", "--jobs", "2", "--max-seconds", "60",
               "--out", str(tmp_path)])
    assert rc == 0
    data = json.loads((tmp_path / "verdicts.json").read_text())
    assert {v["gamma1"]: v["status"] for v in data["verdicts"]} == \
        {3: "SAT", 6: "SAT", 9: "SAT"}
    # same flags and seed, byte-identical output whatever the job count;
    # the identity group has no ladder, so its witnesses come from milp
    outputs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"identity-jobs{jobs}"
        assert main(["search", "--graph", "jq:2,4,2", "--group", "identity",
                     "--theta", "-3", "--seed", "3", "--jobs", jobs,
                     "--max-seconds", "60", "--out", str(out)]) == 0
        outputs.append({f.name: f.read_bytes() for f in out.iterdir()})
    assert outputs[0] == outputs[1]
    assert {"verdicts.json", "g3.code", "g6.code", "g9.code"} <= \
        set(outputs[0])


def test_cli_search_mixed_group_sweep(tmp_path):
    # the name the refinement ladder prints is accepted as a --group; the
    # group has orbits of 30 and 5 vertices, and a 2^2 enumeration leaves
    # only gamma1 = 3 with an invariant code
    rc = main(["search", "--graph", "jq:2,4,2",
               "--group", "singer:1+frobenius:1", "--theta", "-3",
               "--max-seconds", "30", "--out", str(tmp_path)])
    assert rc == 1
    data = json.loads((tmp_path / "verdicts.json").read_text())
    assert data["group"] == "singer:1+frobenius:1"
    assert {v["gamma1"]: v["status"] for v in data["verdicts"]} == \
        {3: "SAT", 6: "UNSAT", 9: "UNSAT"}
    assert data["verdicts"][0]["lift_verified"]


def test_cli_search_opb_export(tmp_path):
    rc = main(["search", "--graph", "jq:2,4,2", "--group", "singer:5",
               "--theta", "-3", "--format", "opb", "--out", str(tmp_path)])
    assert rc == 0
    text = (tmp_path / "g3.opb").read_text()
    assert text.startswith("* #variable= 15 #constraint= 16")
    rc = main(["search", "--graph", "jq:2,4,2", "--group", "singer:5",
               "--theta", "-3", "--format", "lp", "--out", str(tmp_path)])
    assert (tmp_path / "g3.lp").read_text().rstrip().endswith("End")


def test_cli_construct_avoid_large_grassmann(tmp_path):
    out = tmp_path / "big.code"
    rc = main(["construct", "--kind", "avoid", "--graph", "jq:2,8,4",
               "--design", "spread", "--out", str(out)])
    assert rc == 0
    assert "size=146880" in out.read_text(encoding="utf-8").splitlines()[0]


def test_cli_search_csv_verdicts(tmp_path):
    rc = main(["search", "--graph", "jq:2,4,2", "--group", "singer:5",
               "--beta0", "18", "--gamma1", "3", "--format", "csv",
               "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "verdicts.csv").read_text().splitlines()
    assert lines[0] == "gamma1,beta0,status,stage,code_size"
    assert lines[1].startswith("3,18,SAT,")


def test_cli_table1_text_and_json(capsys, tmp_path):
    assert main(["table1"]) == 0
    text = capsys.readouterr().out
    assert "gamma1 mod 7 = 0" in text
    assert "hyperplane" in text and "symplectic" in text
    assert main(["table1", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    rows = {r["eigenvalue"]: r for r in data["rows"]}
    assert rows[35]["feasible_gamma1"] == [7, 14, 21, 28]
    built35 = {e["gamma1"] for e in rows[35]["verified_constructions"]}
    assert built35 == {7, 14}
    built5 = {e["gamma1"] for e in rows[5]["verified_constructions"]}
    assert built5 == {9, 21}
    assert rows[-7]["verified_constructions"] == []
    assert rows[-7]["open"] == [21, 42]


def test_cli_table1_merges_cached_verdicts(tmp_path, capsys):
    rc = main(["search", "--graph", "jq:2,6,3", "--group", "singer:21",
               "--theta", "5", "--gamma1", "12", "--max-seconds", "120",
               "--out", str(tmp_path)])
    assert rc == 0
    assert main(["table1", "--results", str(tmp_path),
                 "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    row5 = next(r for r in data["rows"] if r["eigenvalue"] == 5)
    assert 12 in row5["search_sat"]
    assert 12 not in row5["open"]


@pytest.mark.parametrize("construct_args,graph", [
    (["--kind", "hyperplane", "--graph", "jq:2,6,3"], "jq:2,6,3"),
    (["--kind", "hyperplane-point", "--graph", "jq:2,6,3"], "jq:2,6,3"),
    (["--kind", "symplectic", "--graph", "jq:2,6,3"], "jq:2,6,3"),
    (["--kind", "avoid", "--graph", "jq:2,6,3", "--design", "spread"],
     "jq:2,6,3"),
    (["--kind", "avoid", "--graph", "j:16,6", "--design", "sqs"], "j:16,6"),
])
def test_cli_verify_of_construct_exits_zero(tmp_path, capsys, construct_args,
                                            graph):
    path = tmp_path / "c.code"
    assert main(["construct", *construct_args, "--out", str(path)]) == 0
    assert main(["verify", "--graph", graph, "--code", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["completely_regular"] is True


def test_cli_usage_errors(capsys):
    assert main(["verify", "--graph", "nope", "--code", "x"]) == 64
    for group in ("mystery", "singer:1+bogus:2"):
        assert main(["search", "--graph", "jq:2,4,2", "--group", group,
                     "--theta", "-3"]) == 64
    assert main(["frobnicate"]) == 64


@pytest.mark.parametrize("argv", [
    ["--kind", "avoid"],
    ["--kind", "hyperplane"],
    ["--kind", "spread"],
    ["--kind", "sqs"],
    ["--kind", "spread", "--q", "2", "--n", "6"],
    ["--kind", "sqs", "--m", "4"],
    ["--kind", "symplectic", "--graph", "jq:2,6,2"],
    ["--kind", "symplectic", "--graph", "jq:2,8,4"],
    ["--kind", "sqs", "--graph", "j:16,6"],
    ["--kind", "sqs", "--graph", "j:12,4"],
    ["--kind", "spread", "--graph", "j:16,4"],
    ["--kind", "spread", "--graph", "jq:2,6,4"],
])
def test_cli_construct_usage_errors(tmp_path, capsys, argv):
    # no --graph, a deleted flag, or a kind that lives on another graph
    out = tmp_path / "c.code"
    assert main(["construct", *argv, "--out", str(out)]) == 64
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["--kind", "spread", "--graph", "j:16,4"],
    ["--kind", "avoid", "--graph", "j:16,6", "--design", "spread"],
])
def test_cli_spread_needs_a_grassmann_graph(tmp_path, capsys, argv):
    out = tmp_path / "c.code"
    assert main(["construct", *argv, "--out", str(out)]) == 64
    assert "a spread needs a Grassmann graph jq:q,n,d" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("graph,kind,args", [
    ("jq:2,6,2", "spread", (2, 6, 2)),
    ("jq:2,8,2", "spread", (2, 8, 2)),
    ("jq:2,8,4", "spread", (2, 8, 4)),
    ("jq:3,4,2", "spread", (3, 4, 2)),
    ("j:8,4", "sqs", (3,)),
    ("j:16,4", "sqs", (4,)),
])
def test_cli_construct_design_on_its_block_level(tmp_path, graph, kind, args):
    build = {"spread": con.desarguesian_spread,
             "sqs": con.extended_hamming_sqs}[kind]
    path = tmp_path / "d.code"
    assert main(["construct", "--kind", kind, "--graph", graph,
                 "--out", str(path)]) == 0
    assert path.read_text() == files.code_to_text(build(*args))


def test_cli_json_byte_stability(tmp_path):
    out = subprocess.run(
        [sys.executable, "-m", "crcodes.cli", "eigenvalues",
         "--graph", "jq:2,6,3"],
        capture_output=True, text=True, check=True)
    out2 = subprocess.run(
        [sys.executable, "-m", "crcodes.cli", "eigenvalues",
         "--graph", "jq:2,6,3"],
        capture_output=True, text=True, check=True)
    assert out.stdout == out2.stdout
    assert json.loads(out.stdout)["eigenvalues"] == [98, 35, 5, -7]


def test_cli_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize costs about half a second and 45 MB to import; only a
    # search whose pass 2 runs milp may pay for it (node LPs load HiGHS's
    # extension module alone)
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, crcodes.cli; print('scipy.optimize' in sys.modules)"],
        capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_cli_import_loads_only_the_verify_modules():
    # the package's names resolve on first access, and the CLI imports
    # the construction, orbit, solver and search modules in the commands
    # that use them
    script = (
        "import sys, crcodes.cli\n"
        "print(sorted(m for m in sys.modules if m.startswith('crcodes.')),\n"
        "      any(m.split('.')[0] == 'scipy' for m in sys.modules))\n"
        "import crcodes\n"
        "for name in crcodes.__all__:\n"
        "    getattr(crcodes, name)\n"
        "print(sorted(set(crcodes.__all__) - set(dir(crcodes))))\n")
    out = subprocess.run([sys.executable, "-c", script],
                         capture_output=True, text=True, check=True)
    assert out.stdout.splitlines() == [
        "['crcodes.cli', 'crcodes.files', 'crcodes.galois', 'crcodes.graphs', "
        "'crcodes.subspaces', 'crcodes.verify'] False", "[]"]


def test_cli_search_without_milp_leaves_scipy_optimize_unloaded():
    # UNSAT from 44 node LPs: HiGHS is loaded, scipy.optimize is not
    script = (
        "import sys\n"
        "from crcodes import cli\n"
        "rc = cli.main(['search', '--graph', 'jq:2,7,3', '--group', "
        "'singer:1', '--theta', '-7', '--gamma1', '14', "
        "'--max-seconds', '30'])\n"
        "print(rc, 'scipy.optimize' in sys.modules,\n"
        "      'scipy.optimize._highspy._core' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", script],
                         capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[-1] == "1 False True"
