"""Input JSON has one reader: errors.parse_json decodes every document,
and errors.read_input reads every input file and names it in the error."""

import ast
import re
from pathlib import Path

import pytest

from conftest import FLAT_HAND_POINTS, make_frame, smart_home_library, stream_json
from gesturelink.context import ContextLibrary
from gesturelink.encoder import build_state_matrix, matrix_from_json, matrix_to_json
from gesturelink.errors import MalformedInput, read_input
from gesturelink.landmarks import parse_landmark_stream
from gesturelink.rules import RuleThresholds

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gesturelink"


def valid_documents():
    """(parser, the text of a document it accepts) for each from_json-style reader."""
    matrix = build_state_matrix([make_frame(FLAT_HAND_POINTS)], RuleThresholds())
    return {
        "thresholds": (RuleThresholds.from_json, RuleThresholds().to_json()),
        "context library": (ContextLibrary.from_json, smart_home_library().to_json()),
        "matrix": (matrix_from_json, matrix_to_json(matrix)),
        "stream": (parse_landmark_stream,
                   stream_json([(0.0, FLAT_HAND_POINTS), (0.1, FLAT_HAND_POINTS)]).decode()),
    }


@pytest.mark.parametrize("reader", ["thresholds", "context library", "matrix", "stream"])
@pytest.mark.parametrize("encoding", ["utf-8", "utf-16", "utf-16-le", "utf-32", "utf-32-be"])
def test_readers_decode_bytes_as_utf8_only(reader, encoding):
    parse, text = valid_documents()[reader]
    if encoding == "utf-8":
        parse(text.encode())  # the document itself is valid
    else:
        with pytest.raises(MalformedInput, match="not valid JSON"):
            parse(text.encode(encoding))


@pytest.mark.parametrize("reader", ["thresholds", "context library", "matrix", "stream"])
@pytest.mark.parametrize("raw", ["1" * 5000, "[" * 100_000, "\ufeff{}"],
                         ids=["integer-of-5000-digits", "nested-too-deep", "bom"])
@pytest.mark.parametrize("as_bytes", [False, True], ids=["str", "bytes"])
def test_readers_raise_malformed_input_on_undecodable_documents(reader, raw, as_bytes):
    parse, _ = valid_documents()[reader]
    with pytest.raises(MalformedInput):
        parse(raw.encode() if as_bytes else raw)


def test_read_input_names_the_file(tmp_path):
    path = tmp_path / "doc.json"
    path.write_bytes(b'{"a": [1, 2]}')
    assert read_input(path) == {"a": [1, 2]}
    for raw in (b"[" * 100_000, b"{}\xff", "{}".encode("utf-16")):
        path.write_bytes(raw)
        with pytest.raises(MalformedInput, match=f"^{re.escape(str(path))}: not valid JSON: "):
            read_input(path)


# --- one definition of JSON input decoding ---------------------------------------

# Where json.load(s) may run: the input reader, and two decoders of model
# output, which is not an input file and fails with errors of its own.
JSON_LOADS_ALLOWED = {
    ("errors", "parse_json"),
    ("context", "calculate"),
    ("transport", "LiveBackend.complete"),
}


def json_calls():
    """(module, enclosing function's qualified name, attribute) of every
    json.load, json.loads and json.JSONDecoder call in the package."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))

        def visit(node, scope):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    visit(child, scope + (child.name,))
                    continue
                if (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                        and isinstance(child.func.value, ast.Name) and child.func.value.id == "json"
                        and child.func.attr in ("load", "loads", "JSONDecoder")):
                    found.append((path.stem, ".".join(scope), child.func.attr))
                visit(child, scope)

        visit(tree, ())
    return found


def test_json_input_decoding_has_one_definition():
    calls = json_calls()
    loads = {(module, scope) for module, scope, attr in calls if attr != "JSONDecoder"}
    decoders = {(module, scope) for module, scope, attr in calls if attr == "JSONDecoder"}
    assert loads == JSON_LOADS_ALLOWED
    # agents decodes model replies; the tune loader reuses one decoder for every line.
    assert decoders == {("agents", ""), ("cli", "_load_tuning_dataset")}


def test_json_is_reached_only_through_the_json_module_name():
    """A `from json import loads` would hide a decode site from the scan above."""
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                assert node.module != "json", path.name
            if isinstance(node, ast.Import):
                assert all(a.asname is None for a in node.names if a.name == "json"), path.name


def test_every_json_writer_refuses_nan_and_infinity():
    """Every json.dump(s) and json.JSONEncoder in the package passes
    allow_nan=False, so a non-finite number raises instead of being
    written as a bare NaN or Infinity, which is not JSON."""
    writers, unguarded = 0, []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name) and node.func.value.id == "json"
                    and node.func.attr in ("dump", "dumps", "JSONEncoder")):
                writers += 1
                if not any(k.arg == "allow_nan" and isinstance(k.value, ast.Constant)
                           and k.value.value is False for k in node.keywords):
                    unguarded.append((path.name, node.lineno))
    assert writers >= 10
    assert unguarded == []
