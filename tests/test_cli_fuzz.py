"""A fuzz table over the command line: malformed, oversized and
degenerate inputs to every command.

Each row runs `cli.main` with captured output.  Whatever the input, the
exit code is 0, 1 or 2, stderr holds no traceback, and a nonzero exit
comes with an ``error:`` or ``defect:`` line (argparse's own usage
errors print ``latfix <command>: error: ...``).
"""

import json
import re

import pytest

from latfix.cli import main

BIG_EXPONENT = "1e5000"
BIG_DIGITS = "9" * 5001
MESSAGE = re.compile(r"^(?:latfix[^:]*: )?(?:error|defect): \S", re.MULTILINE)


def matrix(rows):
    return {"rows": rows}


def operator(rows, **extra):
    return {"matrix": matrix(rows), **extra}


def family(*matrices, **extra):
    return {"matrices": [matrix(rows) for rows in matrices], **extra}


# documents that are malformed as any of the commands' inputs
NOT_AN_OBJECT = {
    "list": [1, 2],
    "string": "rows",
    "null": None,
    "number": 3,
    "empty-object": {},
}

# matrices with a malformed, oversized or degenerate entry or shape
MATRICES = {
    "ragged": [["1", "0"], ["1"]],
    "empty-rows": [],
    "empty-row": [[]],
    "non-square": [["1", "0"]],
    "boolean": [[True, "0"], ["0", "1"]],
    "zero-denominator": [["1/0", "0"], ["0", "1"]],
    "big-exponent": [[BIG_EXPONENT, "0"], ["0", "1"]],
    "big-digits": [[BIG_DIGITS, "0"], ["0", "1"]],
    "float": [[0.5, "0"], ["0", "1"]],
    "negative": [["0", "-1"], ["1", "0"]],
    "rows-not-list": "1 0; 0 1",
    "row-not-list": ["1 0", "0 1"],
    "zero-1x1": [["0"]],
    "identity-1x1": [["1"]],
}

# vector lists for sup-in-fix against the 2x2 identity family
VECTORS = {
    "not-a-list": {"x": 1},
    "empty": [],
    "ragged": [["1", "0"], ["1"]],
    "wrong-dimension": [["1", "0", "0"]],
    "boolean": [[True, "0"]],
    "zero-denominator": [["1/0", "0"]],
    "big-exponent": [[BIG_EXPONENT, "0"]],
    "small-exponent": [["1e-5000", "0"]],
    "big-digits": [[BIG_DIGITS, "0"]],
    "scalar-entries": ["1", "0"],
    "zero": [["0", "0"]],
}

IDENTITY = family([["1", "0"], ["0", "1"]])


def table():
    """(id, argv with {0}/{1} for the input files, input documents)."""
    cases = []
    for name, doc in NOT_AN_OBJECT.items():
        for command in ("classify", "fixspace", "cyclicity", "semigroup"):
            cases.append((f"{command}-{name}", [command, "-i", "{0}"], [doc]))
        cases.append((f"sup-in-fix-{name}", ["sup-in-fix", "-i", "{0}", "-g", "{1}"],
                      [doc, [["1", "0"]]]))
    for name, entries in MATRICES.items():
        cases.append((f"cyclicity-{name}", ["cyclicity", "-i", "{0}"], [operator(entries)]))
        cases.append((f"semigroup-{name}", ["semigroup", "-i", "{0}"], [matrix(entries)]))
        cases.append((f"fixspace-{name}", ["fixspace", "-i", "{0}"], [family(entries)]))
        cases.append((f"classify-{name}", ["classify", "-i", "{0}"],
                      [{"ambient_dim": 2, "basis": entries}]))
    for name, vectors in VECTORS.items():
        cases.append((f"sup-in-fix-{name}", ["sup-in-fix", "-i", "{0}", "-g", "{1}"],
                      [IDENTITY, vectors]))
    cases += [
        ("classify-boolean-dim", ["classify", "-i", "{0}"], [{"ambient_dim": True}]),
        ("classify-negative-dim", ["classify", "-i", "{0}"], [{"ambient_dim": -1}]),
        ("classify-string-dim", ["classify", "-i", "{0}"], [{"ambient_dim": "2"}]),
        ("classify-zero-dim", ["classify", "-i", "{0}"], [{"ambient_dim": 0}]),
        ("classify-basis-not-list", ["classify", "-i", "{0}"],
         [{"ambient_dim": 2, "basis": "e1"}]),
        ("fixspace-no-matrices", ["fixspace", "-i", "{0}"], [family()]),
        ("fixspace-matrices-not-list", ["fixspace", "-i", "{0}"], [{"matrices": 1}]),
        ("fixspace-unknown-norm", ["fixspace", "-i", "{0}"],
         [family([["1"]], norm="euclidean")]),
        ("fixspace-zero-weight", ["fixspace", "-i", "{0}"],
         [family([["1"]], norm={"weighted_one": ["0"]})]),
        ("fixspace-weight-dimension", ["fixspace", "-i", "{0}"],
         [family([["1"]], norm={"weighted_one": ["1", "1"]})]),
        ("fixspace-non-commuting", ["fixspace", "-i", "{0}"],
         [family([["0", "1"], ["1", "0"]], [["1", "0"], ["0", "0"]])]),
        ("fixspace-mixed-dimensions", ["fixspace", "-i", "{0}"],
         [family([["1"]], [["1", "0"], ["0", "1"]])]),
        ("cyclicity-weight-dimension", ["cyclicity", "-i", "{0}"],
         [operator([["1"]], norm={"weighted_one": ["1", "1"]})]),
        ("cyclicity-no-matrix", ["cyclicity", "-i", "{0}"], [{"rows": [["1"]]}]),
        ("probe-zero-trials", ["probe", "--trials", "0", "--seed", "0"], []),
        ("probe-negative-trials", ["probe", "--trials", "-3", "--seed", "0"], []),
        ("probe-zero-dim", ["probe", "--trials", "1", "--dim-max", "0", "--seed", "0"], []),
        ("probe-trials-not-int", ["probe", "--trials", "many", "--seed", "0"], []),
        ("probe-unwritable-out",
         ["probe", "--trials", "1", "--seed", "0", "--out", "{missing}/log.jsonl"], []),
        ("probe-out-is-directory",
         ["probe", "--trials", "1", "--seed", "0", "--out", "{dir}"], []),
        ("gallery-unknown-id", ["gallery", "run", "nope"], []),
        ("unknown-command", ["frobnicate"], []),
    ]
    for command in ("classify", "fixspace", "cyclicity", "semigroup"):
        cases.append((f"{command}-missing-file", [command, "-i", "{missing}/in.json"], []))
        cases.append((f"{command}-invalid-json", [command, "-i", "{text}"], []))
        cases.append((f"{command}-directory", [command, "-i", "{dir}"], []))
        cases.append((f"{command}-huge-json-integer", [command, "-i", "{huge}"], []))
        cases.append((f"{command}-not-utf8", [command, "-i", "{binary}"], []))
        cases.append((f"{command}-deeply-nested", [command, "-i", "{deep}"], []))
    cases.append(("sup-in-fix-missing-vectors",
                  ["sup-in-fix", "-i", "{0}", "-g", "{missing}/g.json"], [IDENTITY]))
    cases.append(("sup-in-fix-huge-json-integer",
                  ["sup-in-fix", "-i", "{0}", "-g", "{huge}"], [IDENTITY]))
    cases.append(("sup-in-fix-not-utf8-vectors",
                  ["sup-in-fix", "-i", "{0}", "-g", "{binary}"], [IDENTITY]))
    return cases


TABLE = table()


def run(argv, capsys) -> tuple[int, str]:
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    return code, capsys.readouterr().err


@pytest.mark.parametrize("argv, docs", [row[1:] for row in TABLE], ids=[row[0] for row in TABLE])
def test_exit_code_and_message(tmp_path, capsys, argv, docs):
    paths = []
    for k, doc in enumerate(docs):
        path = tmp_path / f"input{k}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        paths.append(str(path))
    text = tmp_path / "broken.json"
    text.write_text('{"rows": [["1"', encoding="utf-8")
    # an integer literal past `int`'s digit limit fails inside json.load
    huge = tmp_path / "huge.json"
    huge.write_text('{"rows": [[' + BIG_DIGITS + ", 0]]}", encoding="utf-8")
    # a 0xff byte, which no UTF-8 text holds
    binary = tmp_path / "binary.json"
    binary.write_bytes(b'{"rows": [["\xff"]]}')
    # nesting past the parser's recursion limit, which json.dumps cannot
    # write, so it is raw text
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
    fill = {"missing": str(tmp_path / "missing"), "dir": str(tmp_path),
            "text": str(text), "huge": str(huge), "binary": str(binary),
            "deep": str(deep)}
    reads_binary = "{binary}" in argv
    reads_deep = "{deep}" in argv
    argv = [a.format(*paths, **fill) for a in argv]
    code, err = run(argv, capsys)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code:
        assert MESSAGE.search(err), err
    if reads_binary:
        assert code == 2 and f"error: {binary} is not UTF-8 text: " in err, err
    if reads_deep:
        assert code == 2 and f"error: {deep} nests too deeply" in err, err


def test_table_covers_every_command():
    commands = {row[1][0] for row in TABLE}
    assert {"classify", "fixspace", "sup-in-fix", "cyclicity", "semigroup",
            "probe", "gallery"} <= commands
    assert len(TABLE) >= 100
