import copy
import decimal
import gc
import io
import json
import os
import pathlib
import random
import re
import subprocess
import sys

import jsonschema
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings, strategies as st

import magnetkit
from magnetkit import cli, cohomology
from magnetkit.cli import _clip, _compile, _schema, check_schema, main
from magnetkit.errors import SchemaError
from magnetkit.groups import FgAbelianGroup
from magnetkit.monoids import Submonoid, same_submonoid

SRC = pathlib.Path(magnetkit.__file__).parent.parent


def run(*args):
    return CliRunner().invoke(main, list(args))


def write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


@pytest.fixture
def p1_file(tmp_path):
    return write(
        tmp_path,
        "p1.json",
        {
            "group": {"free_rank": 1},
            "charts": [
                {"name": "U0", "vars": [{"name": "x", "degree": [1]}]},
                {"name": "U1", "vars": [{"name": "y", "degree": [-1]}]},
            ],
        },
    )


@pytest.fixture
def plane_file(tmp_path):
    return write(
        tmp_path,
        "plane.json",
        {
            "group": {"free_rank": 2},
            "chart": {"monoid_algebra": {"generators": [[1, 0], [0, 1]]}},
            "monoid": {"generators": [[1, 0], [0, 1]]},
        },
    )


def test_attractor_on_the_projective_line(p1_file):
    r = run("attractor", "--input", p1_file, "--monoid", "[[1]]")
    assert r.exit_code == 0
    assert "U0: keeps x (1)" in r.output
    assert "U1: keeps (nothing); kills y" in r.output


def test_attractor_json_shape(p1_file):
    r = run("attractor", "--input", p1_file, "--monoid", "[[1]]", "--json")
    assert r.exit_code == 0
    doc = json.loads(r.output)
    assert doc["command"] == "attractor"
    by_name = {c["name"]: c for c in doc["charts"]}
    assert by_name["U0"]["keeps"] == [{"name": "x", "degree": [1]}]
    assert by_name["U1"]["kills"] == ["y"]


def test_four_magnets_on_the_plane(plane_file):
    r = run("magnets", "--input", plane_file, "--json")
    assert r.exit_code == 0
    doc = json.loads(r.output)
    assert doc["count"] == 4
    described = {m["describe"] for m in doc["magnets"]}
    assert "[0]" in described
    assert "[(0,1), (1,0)>" in described


def test_magnets_dot_output(p1_file, tmp_path):
    dot = tmp_path / "out.dot"
    r = run("magnets", "--input", p1_file, "--dot", str(dot))
    assert r.exit_code == 0
    text = dot.read_text()
    assert text.startswith("digraph magnets {")
    assert text.count("label=") == 4
    assert text.count("->") == 4


def test_magnets_dot_into_a_missing_directory_is_a_located_schema_error(p1_file, tmp_path):
    dot = tmp_path / "missing" / "out.dot"
    r = run("magnets", "--input", p1_file, "--dot", str(dot))
    assert r.exit_code == 2, repr(r.exception)
    assert r.stdout == ""
    assert r.stderr == "schema error at --dot: cannot write %s: No such file or directory\n" % dot
    assert not dot.parent.exists()


def test_monoscheme_support_report(tmp_path):
    path = write(
        tmp_path,
        "mono.json",
        {
            "group": {"free_rank": 2},
            "chart": {"monoid_algebra": {"generators": [[1, 1], [1, -1], [1, 0]]}},
            "monoid": {"generators": [[1, 0]]},
        },
    )
    r = run("attractor", "--input", path, "--json")
    assert r.exit_code == 0
    doc = json.loads(r.output)
    support = doc["charts"][0]["support"]
    assert support["members"] == [[0, 0], [1, 0]]
    assert support["finite"] is True
    assert support["non_reduced"] is True


def test_a_support_certified_below_the_node_cap_is_printed(tmp_path):
    # N^6 has more than 200000 members of degree <= 24, the default probe
    # bound, but its support under [(1,1,0,0,0,0)> is certified at degree 1
    path = write(tmp_path, "z6.json", {
        "group": {"free_rank": 6},
        "charts": [{"name": "V", "monoid_algebra": {
            "generators": [[int(i == j) for j in range(6)] for i in range(6)]}}],
        "monoid": {"generators": [[1, 1, 0, 0, 0, 0]]},
    })
    r = run("attractor", "--input", path)
    assert r.exit_code == 0
    assert "V: support {(0,0,0,0,0,0)} finite=True non_reduced=False" in r.output.splitlines()


def test_weight_attractor_output(tmp_path):
    path = write(
        tmp_path,
        "gl2.json",
        {
            "group": {"free_rank": 2},
            "weights": [
                {"degree": [1, -1], "label": "e"},
                {"degree": [-1, 1], "label": "f"},
                {"degree": [0, 0], "mult": 2, "label": "h"},
            ],
            "monoid": {"generators": [[1, -1]]},
        },
    )
    r = run("attractor", "--input", path, "--json")
    assert r.exit_code == 0
    doc = json.loads(r.output)
    assert doc["weights"]["dimension"] == 3
    labels = {w["label"] for w in doc["weights"]["kept"]}
    assert labels == {"e", "h"}


def test_unknown_key_is_a_schema_error(tmp_path):
    path = write(tmp_path, "bad.json", {"group": {"free_rank": 1}, "nope": 1})
    r = run("attractor", "--input", path, "--monoid", "[[1]]")
    assert r.exit_code == 2
    assert "schema error" in r.output


def test_coordinate_length_mismatch_is_located(tmp_path):
    path = write(
        tmp_path,
        "short.json",
        {
            "group": {"free_rank": 2},
            "monoid": {"generators": [[1]]},
        },
    )
    r = run("faces", "--input", path)
    assert r.exit_code == 2
    assert "monoid/generators/0" in r.output


@pytest.mark.parametrize("command, doc, where", [
    ("cohomology", {"group": {"free_rank": 1}, "weights": [{"degree": [1]}],
                    "cochain": {"arity": 0.0, "entries": []}}, "cochain/arity"),
    ("faces", {"group": {"free_rank": 1.0}, "monoid": {"generators": [[1]]}}, "group/free_rank"),
    ("cohomology", {"group": {"free_rank": 1}, "weights": [{"degree": [1]}],
                    "command-options": {"trials": 2.0}}, "command-options/trials"),
    ("faces", {"group": {"free_rank": 1}, "monoid": {"generators": [[1.0]]}},
     "monoid/generators/0/0"),
])
def test_integral_floats_are_schema_errors(tmp_path, command, doc, where):
    r = run(command, "--input", write(tmp_path, "float.json", doc))
    assert r.exit_code == 2
    assert r.exception is None or isinstance(r.exception, SystemExit), repr(r.exception)
    assert "schema error at %s: " % where in r.output


def test_missing_monoid_is_a_schema_error(p1_file):
    r = run("attractor", "--input", p1_file)
    assert r.exit_code == 2


def test_broken_monoid_flag(p1_file):
    r = run("attractor", "--input", p1_file, "--monoid", "[[1,")
    assert r.exit_code == 2


@pytest.mark.parametrize("content", [
    b"\xff\xfe{",  # not UTF-8
    b"[" * 100000,  # nested past the recursion limit
    b'{"group": {"free_rank": ' + b"9" * 5000 + b"}}",  # past the integer digit limit
], ids=["not-utf8", "deep", "long-int"])
def test_unreadable_problem_files_are_schema_errors(tmp_path, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    r = run("faces", "--input", str(path))
    assert r.exit_code == 2, repr(r.exception)
    assert isinstance(r.exception, SystemExit)
    assert "schema error at %s: not JSON" % path in r.output
    assert "Traceback" not in r.output


@pytest.mark.parametrize("text, where", [
    ('{"group": {"free_rank": "%s"}}' % ("x" * 100000), "group/free_rank"),
    ('{"group": {"free_rank": 1}, "monoid": {"generators": [%s%s]}}' % ("[" * 900, "]" * 900),
     "monoid/generators/0/0"),
], ids=["long-string", "deep-generator"])
def test_schema_errors_shorten_the_offending_value(tmp_path, text, where):
    path = tmp_path / "big.json"
    path.write_text(text)
    r = run("faces", "--input", str(path))
    assert r.exit_code == 2, repr(r.exception)
    assert len(r.stderr.encode("utf-8")) < 1024
    assert r.stderr.startswith("schema error at %s: " % where)
    assert r.stderr.rstrip("\n").endswith("\u2026")


def test_values_nested_to_the_recursion_limit_are_schema_errors(tmp_path):
    # whichever nesting json.load still reads, quoting the bad value in the
    # message may pass the recursion limit; no depth may end in a traceback
    codes = set()
    for depth in range(sys.getrecursionlimit() - 400, sys.getrecursionlimit() + 1):
        path = tmp_path / "deep.json"
        path.write_text(
            '{"group": {"free_rank": 1}, "cochain": {"arity": 1, "entries": '
            '[{"args": [%s%s], "value": {}}]}}' % ("[" * depth, "]" * depth))
        r = run("cohomology", "--input", str(path))
        assert isinstance(r.exception, SystemExit), (depth, repr(r.exception))
        codes.add(r.exit_code)
        if r.stderr.startswith("schema error at %s: not JSON" % path):
            break
    assert codes == {2}
    assert r.stderr.startswith("schema error at %s: not JSON" % path)


def test_short_schema_errors_are_echoed_whole(tmp_path):
    path = write(tmp_path, "short.json", {"group": {"free_rank": "two"}})
    r = run("faces", "--input", path)
    assert r.exit_code == 2
    assert r.stderr == "schema error at group/free_rank: 'two' is not of type 'integer'\n"


VALID_DOCS = [
    {"group": {"free_rank": 1},
     "charts": [{"name": "U0", "vars": [{"name": "x", "degree": [1]}]},
                {"name": "U1", "monoid_algebra": {"generators": [[1], [2]]}}],
     "monoid": {"generators": [[1]]}, "face": {"generators": []},
     "command-options": {"bound": 3, "trials": 2}},
    {"group": {"free_rank": 2, "torsion": [3]},
     "chart": {"vars": [{"name": "x", "degree": [1, 0], "torsion": [2]}]},
     "monoids": [{"generators": [[1, 0, 1]]}, {"generators": [[0, 1, 0], [1, 1, 2]]}],
     "center": ["x"], "rootsystem": {"type": "A2"}},
    {"group": {"free_rank": 1},
     "weights": [{"degree": [0], "label": "e", "mult": 2}, {"degree": [1], "torsion": []}],
     "cochain": {"arity": 1, "entries": [{"args": [[0]], "value": {"e": "1/2"}},
                                         {"args": [[1]], "value": {"e": "-3"}}]}},
]

JUNK = [-1, 0, 1, 7, "", "x", "1/0", "2/3", None, True, [], [1], [[1]], {}, {"q": 1},
        {"generators": 1}, {"name": ""}, decimal.Decimal("1.5"), decimal.Decimal("2.0")]


def broken_doc(rng):
    """A copy of a valid document with one to three of its values replaced,
    keys dropped or unknown keys added, drawn by rng."""
    doc = copy.deepcopy(rng.choice(VALID_DOCS))

    def junk():
        return copy.deepcopy(rng.choice(JUNK))

    for _ in range(rng.randint(1, 3)):
        path = rng.choice(list(_paths(doc))[1:])
        parent = _at(doc, path[:-1])
        move = rng.random()
        if move < 0.6:
            parent[path[-1]] = junk()
        elif move < 0.8 and isinstance(parent, dict):
            del parent[path[-1]]
        elif isinstance(parent, dict):
            parent[rng.choice(["nope", "name", "torsion", "mult", "x"])] = junk()
        else:
            parent.append(junk())
    return doc


def _edited(edit):
    """A copy of the valid document with a cochain, with edit applied."""
    doc = copy.deepcopy(VALID_DOCS[2])
    edit(doc)
    return doc


# documents on the edges of the keywords the compiled predicate checks,
# each with whether the schema accepts it
EDGE_DOCS = [
    ({"group": {"free_rank": True}}, False),
    ({"group": {"free_rank": 1, "torsion": [False]}}, False),
    ({"group": {"free_rank": decimal.Decimal("2.0")}}, False),
    ({"group": {"free_rank": 1}, "monoid": {"generators": [[decimal.Decimal("1.0")]]}}, False),
    (_edited(lambda d: d["cochain"]["entries"][0]["value"].update(e="3\n")), True),
    (_edited(lambda d: d["cochain"]["entries"][0]["value"].update(e="1/0")), False),
    (_edited(lambda d: d["cochain"]["entries"][0]["value"].update(e="01")), True),
    (_edited(lambda d: d["cochain"]["entries"][0]["value"].update(e=" 1")), False),
    (_edited(lambda d: d["cochain"]["entries"][0]["value"].update(q="2", r="-1/3")), True),
    (_edited(lambda d: d["cochain"]["entries"][0]["value"].update(q=2)), False),
    (_edited(lambda d: d["cochain"]["entries"][0]["value"].update(q=None)), False),
    (_edited(lambda d: d["cochain"].update(arity=3)), True),
    (_edited(lambda d: d["cochain"].update(arity=4)), False),
    (_edited(lambda d: d["cochain"].update(arity=-1)), False),
    (_edited(lambda d: d["weights"][0].update(label="")), False),
    ({"group": {"free_rank": 1}, "center": [""]}, False),
    ({"group": {"free_rank": 1}, "chart": {"name": "", "vars": []}}, False),
    ({"group": {"free_rank": 1}, "chart": {"vars": [{"name": "", "degree": [1]}]}}, False),
    ({"group": {"free_rank": 1},
      "chart": {"vars": [], "monoid_algebra": {"generators": []}}}, False),
    ({"group": {"free_rank": 1}, "chart": {"name": "U"}}, False),
    ({"group": {"free_rank": 1}, "chart": {"monoid_algebra": {"generators": []}}}, True),
    ({"group": {"free_rank": 0, "torsion": [1]}}, False),
    ({"group": {"free_rank": 0, "torsion": [2]}}, True),
    ({"group": {"free_rank": 1}, "charts": []}, False),
    ({"group": {"free_rank": 1}, "weights": []}, False),
    ({"group": {"free_rank": 1}, "monoids": []}, False),
    ({"group": {"free_rank": 1}, "rootsystem": {"type": "A5"}}, False),
    ({"group": {"free_rank": 1}, "rootsystem": {"type": ["A1"]}}, False),
    ({"group": {"free_rank": 1}, "command-options": {"trials": 0}}, False),
    ({"group": {"free_rank": 1}, "command-options": {"bound": 0, "trials": 1}}, True),
    ([{"group": {"free_rank": 1}}], False),
    ("{}", False),
    ({}, False),
]


def test_the_ref_free_validator_reports_what_the_schema_does():
    # the reference validator reads the shipped schema, references and all
    reference = jsonschema.Draft202012Validator(_schema())

    def want(doc):
        # the least error by path; of equal paths, the first yielded
        found = sorted(reference.iter_errors(doc), key=lambda e: list(e.absolute_path))
        if found:
            where = "/".join(map(str, found[0].absolute_path)) or "(top level)"
            return where, _clip(found[0].message)

    def got(doc):
        try:
            check_schema(doc)
        except SchemaError as e:
            return e.location, str(e)

    for doc in VALID_DOCS:
        assert got(doc) is None and want(doc) is None
    for doc, valid in EDGE_DOCS:
        assert (got(doc) is None) is reference.is_valid(doc) is valid, doc
        assert got(doc) == want(doc), doc
    rng = random.Random(14)
    worded = valid = 0
    for _ in range(5000):
        doc = broken_doc(rng)
        error = got(doc)
        assert (error is None) is reference.is_valid(doc), doc
        valid += error is None
        if worded < 600:  # messages cost more to compare than verdicts
            assert error == want(doc), doc
            worded += error is not None
    assert worded == 600
    assert 100 < valid < 1000


# one rejected document per keyword the schema uses, with the line it gets
PINNED_ERRORS = {
    "type": ({"group": []}, "group: [] is not of type 'object'"),
    "required": ({"group": {}}, "group: 'free_rank' is a required property"),
    "additionalProperties-one": (
        {"group": {"free_rank": 1}, "nope": 1},
        "(top level): Additional properties are not allowed ('nope' was unexpected)"),
    "additionalProperties-two": (
        {"nope": 1, "group": {"free_rank": 1}, "extra": 2},
        "(top level): Additional properties are not allowed ('extra', 'nope' were unexpected)"),
    "additionalProperties-schema": (
        {"group": {"free_rank": 1},
         "cochain": {"arity": 0, "entries": [{"args": [], "value": {"e": 2}}]}},
        "cochain/entries/0/value/e: 2 is not of type 'string'"),
    "properties": ({"group": {"free_rank": 1}, "command-options": {"trials": "2"}},
                   "command-options/trials: '2' is not of type 'integer'"),
    "items": ({"group": {"free_rank": 1, "torsion": [2, 1]}},
              "group/torsion/1: 1 is less than the minimum of 2"),
    "minItems": ({"group": {"free_rank": 1}, "weights": []},
                 "weights: [] should be non-empty"),
    "minLength": ({"group": {"free_rank": 1}, "center": ["x", ""]},
                  "center/1: '' should be non-empty"),
    "minimum": ({"group": {"free_rank": -1}},
                "group/free_rank: -1 is less than the minimum of 0"),
    "maximum": ({"group": {"free_rank": 1}, "cochain": {"arity": 4, "entries": []}},
                "cochain/arity: 4 is greater than the maximum of 3"),
    "enum": ({"group": {"free_rank": 1}, "rootsystem": {"type": "A5"}},
             "rootsystem/type: 'A5' is not one of ['A1', 'A2', 'A3', 'A4', 'B2', 'G2']"),
    "pattern": (
        {"group": {"free_rank": 1},
         "cochain": {"arity": 0, "entries": [{"args": [], "value": {"e": "1/0"}}]}},
        "cochain/entries/0/value/e: '1/0' does not match '^-?[0-9]+(/[1-9][0-9]*)?$'"),
    "oneOf-none": ({"group": {"free_rank": 1}, "chart": {"name": "U"}},
                   "chart: {'name': 'U'} is not valid under any of the given schemas"),
    "oneOf-each": (
        {"group": {"free_rank": 1},
         "chart": {"vars": [], "monoid_algebra": {"generators": []}}},
        "chart: {'vars': [], 'monoid_algebra': {'generators': []}} is valid under each of "
        "{'required': ['monoid_algebra']}, {'required': ['vars']}"),
    # several errors, where document, keyword and location order disagree
    "least-at-the-top": ({"nope": 1, "group": {"free_rank": -1}},
                         "(top level): Additional properties are not allowed "
                         "('nope' was unexpected)"),
    "least-by-index": ({"group": {"free_rank": 1}, "monoid": {"generators": [["x"], "y"]}},
                       "monoid/generators/0/0: 'x' is not of type 'integer'"),
    "least-by-key": ({"weights": [{"degree": [1, 2]}], "group": {"free_rank": "1"},
                      "monoid": {"generators": [[True]]}},
                     "group/free_rank: '1' is not of type 'integer'"),
    "least-extra-key": (
        {"group": {"free_rank": 1},
         "cochain": {"arity": 0, "entries": [{"args": [], "value": {"z": 2, "e": 3}}]}},
        "cochain/entries/0/value/e: 3 is not of type 'string'"),
}


@pytest.mark.parametrize("keyword", sorted(PINNED_ERRORS))
def test_schema_errors_are_worded_as_pinned(tmp_path, keyword):
    doc, line = PINNED_ERRORS[keyword]
    r = run("faces", "--input", write(tmp_path, "bad.json", doc))
    assert r.exit_code == 2, repr(r.exception)
    assert r.stdout == ""
    assert r.stderr == "schema error at %s\n" % line


def test_a_rejected_file_is_worded_without_jsonschema(tmp_path):
    path = write(tmp_path, "bad.json", {"group": {"free_rank": -1}})
    script = "import sys; sys.modules['jsonschema'] = None; from magnetkit.cli import main; main()"
    out = subprocess.run(
        [sys.executable, "-c", script, "faces", "--input", path],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert out.returncode == 2, out.stderr
    assert out.stdout == ""
    assert out.stderr == "schema error at group/free_rank: -1 is less than the minimum of 0\n"


@pytest.mark.parametrize("node, word", [
    ({"uniqueItems": True}, "uniqueItems"),
    ({"type": "array", "items": {"type": "number"}}, "type"),
    ({"properties": {"x": {"$ref": "#/$defs/x"}}}, "$ref"),
    ({"enum": [1, 2]}, "enum"),
])
def test_a_keyword_without_a_compiled_check_is_refused(node, word):
    with pytest.raises(ValueError, match=re.escape("schema keyword %r " % word)):
        _compile(node, {})


@pytest.mark.parametrize("value", ["1" * 5000, "1/" + "1" * 5000, "-" + "0" * 4301],
                         ids=["numerator", "denominator", "zeros"])
def test_a_rational_past_the_digit_limit_is_located(tmp_path, value):
    path = write(tmp_path, "long.json", {
        "group": {"free_rank": 1}, "weights": [{"degree": [1], "label": "e"}],
        "cochain": {"arity": 1, "entries": [{"args": [[0]], "value": {"e": "1"}},
                                            {"args": [[1]], "value": {"e": value}}]}})
    r = run("cohomology", "--input", path)
    assert r.exit_code == 2, repr(r.exception)
    assert isinstance(r.exception, SystemExit)
    assert r.stderr.startswith("schema error at cochain/entries/1/value: the rational for 'e': ")
    assert len(r.stderr) < 300


def test_problem_files_are_read_as_utf8(tmp_path):
    # JSON is UTF-8 whatever the locale's preferred encoding
    path = tmp_path / "named.json"
    path.write_bytes(json.dumps({
        "group": {"free_rank": 1},
        "charts": [{"name": "\u00dc0", "vars": [{"name": "x", "degree": [1]}]}],
    }, ensure_ascii=False).encode("utf-8"))
    r = run("attractor", "--input", str(path), "--monoid", "[[1]]")
    assert r.exit_code == 0
    assert "\u00dc0: keeps x" in r.output


def test_faces_of_the_quadrant(plane_file):
    r = run("faces", "--input", plane_file, "--json")
    assert r.exit_code == 0
    doc = json.loads(r.output)
    assert doc["count"] == 4
    assert {f["describe"] for f in doc["faces"]} == {
        "[0]",
        "[(1,0)>",
        "[(0,1)>",
        "[(0,1), (1,0)>",
    }


def test_membership_answers(plane_file):
    yes = run("membership", "--input", plane_file, "--element", "[2,3]", "--json")
    no = run("membership", "--input", plane_file, "--element", "[-1,0]", "--json")
    assert yes.exit_code == 0 and no.exit_code == 0
    assert json.loads(yes.output)["member"] is True
    assert json.loads(no.output)["member"] is False


def test_membership_past_the_old_node_cap_exits_0(tmp_path):
    # (32,32,32) = 32 (1,1,1): the bare solver exhausts its 200k-node cap
    path = write(tmp_path, "z3.json", {
        "group": {"free_rank": 3},
        "monoid": {"generators": [[1, 0, 0], [0, 1, 0], [1, 1, 1], [2, -1, 1], [0, 0, 1]]},
    })
    r = run("membership", "--input", path, "--element", "[32,32,32]", "--json")
    assert r.exit_code == 0, r.output
    assert json.loads(r.output)["member"] is True


def test_membership_rejects_bad_element(plane_file):
    r = run("membership", "--input", plane_file, "--element", "[1]")
    assert r.exit_code == 2


@pytest.mark.parametrize("flag, args", [
    ("--root", ("roots", "--type", "A2", "--root", "[1.5,-1,0]")),
    ("--root", ("roots", "--type", "A2", "--root", '["a","b","c"]')),
    ("--element", ("membership", "--element", "[true,0]")),
    ("--monoid", ("membership", "--monoid", "[[true,0]]", "--element", "[1,0]")),
    # nested past the recursion limit, and integers past the digit limit
    ("--element", ("membership", "--element", "[" * 5000)),
    ("--element", ("membership", "--element", "[%s, 0]" % ("9" * 5000))),
    ("--monoid", ("membership", "--monoid", "[[%s, 0]]" % ("9" * 5000), "--element", "[1,0]")),
])
def test_flag_vectors_must_hold_integers(plane_file, flag, args):
    if args[0] == "membership":
        args = args[:1] + ("--input", plane_file) + args[1:]
    r = run(*args)
    assert r.exit_code == 2
    assert r.exception is None or isinstance(r.exception, SystemExit)
    assert "schema error at %s" % flag in r.output


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=10,
)
# small integers keep the answers that do run to the solver fast
flag_texts = json_values.map(json.dumps) | st.text(max_size=6)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(["--root", "--element", "--monoid"]), flag_texts)
def test_fuzzed_vector_flags_end_in_an_exit_code(plane_file, flag, text):
    if flag == "--root":
        r = run("roots", "--type", "A2", "--root", text)
    elif flag == "--element":
        r = run("membership", "--input", plane_file, "--element", text)
    else:
        r = run("membership", "--input", plane_file, "--monoid", text, "--element", "[1,0]")
    assert r.exit_code in (0, 1, 2, 3)
    assert r.exception is None or isinstance(r.exception, SystemExit), repr(r.exception)
    assert "Traceback" not in r.output


small = st.integers(-3, 3)
names = st.sampled_from(["x", "y", "w0", "w1"])


# the blocks each command reads; a document always has them before breaking
NEEDS = {
    "attractor": ("monoid", "charts"),
    "magnets": ("charts",),
    "faces": ("monoid",),
    "membership": ("monoid",),
    "roots": ("rootsystem",),
    "cohomology": ("weights", "cochain"),
    "bb": ("monoid", "chart"),
    "dilatation-check": ("monoid", "chart"),
}


@st.composite
def problem_docs(draw, needs):
    """A whole problem document in the schema's grammar with the blocks in
    needs, broken a third of the time at one drawn place (a value replaced by
    arbitrary JSON), and a --element vector, mostly of the group's length."""
    free = draw(st.integers(0, 2))
    torsion = draw(st.lists(st.integers(2, 3), max_size=1))
    free_coords = st.lists(small, min_size=free, max_size=free)
    full = st.lists(small, min_size=free + len(torsion), max_size=free + len(torsion))
    split = {"torsion": st.lists(small, min_size=len(torsion), max_size=len(torsion))}
    monoid = st.fixed_dictionaries({"generators": st.lists(full, max_size=3)})
    var = st.fixed_dictionaries({"name": names, "degree": free_coords}, optional=split)
    chart = st.fixed_dictionaries(
        {"vars": st.lists(var, max_size=3)}, optional={"name": names}
    ) | st.fixed_dictionaries({"monoid_algebra": monoid}, optional={"name": names})
    weight = st.fixed_dictionaries({"degree": free_coords}, optional={
        **split, "mult": st.integers(1, 3), "label": names})
    rational = st.builds("{}/{}".format, small, st.integers(1, 3)) | small.map(str)
    cochain = st.integers(0, 3).flatmap(lambda arity: st.fixed_dictionaries({
        "arity": st.just(arity),
        "entries": st.lists(st.fixed_dictionaries({
            "args": st.lists(full, min_size=arity, max_size=arity),
            "value": st.dictionaries(names, rational, max_size=2),
        }), max_size=3),
    }))
    blocks = {
        "monoid": monoid,
        "chart": chart,
        "charts": st.lists(chart, min_size=1, max_size=2),
        "weights": st.lists(weight, min_size=1, max_size=3),
        "rootsystem": st.fixed_dictionaries(
            {"type": st.sampled_from(["A1", "A2", "A3", "A4", "B2", "G2"])}),
        "face": monoid,
        "center": st.lists(names, max_size=2),
        "cochain": cochain,
        "command-options": st.fixed_dictionaries({}, optional={
            "bound": st.integers(0, 3), "trials": st.integers(1, 3)}),
    }
    doc = draw(st.fixed_dictionaries(
        {"group": st.just({"free_rank": free, "torsion": torsion}),
         **{k: blocks.pop(k) for k in needs}},
        optional=blocks))
    element = draw(full | st.lists(small, max_size=3))
    if draw(st.integers(0, 2)) == 0:
        # the whole document comes last, so it is not the likeliest pick
        path = draw(st.sampled_from(list(_paths(doc))[::-1]))
        if not path:
            return draw(json_values), element
        _at(doc, path[:-1])[path[-1]] = draw(json_values)
    return doc, element


def _paths(node, path=()):
    yield path
    keys = node if isinstance(node, dict) else range(len(node)) if isinstance(node, list) else ()
    for k in keys:
        yield from _paths(node[k], path + (k,))


def _at(doc, path):
    for k in path:
        doc = doc[k]
    return doc


@pytest.mark.parametrize("command", sorted(NEEDS))
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), as_json=st.booleans())
def test_fuzzed_problem_documents_end_in_an_exit_code(tmp_path, command, data, as_json):
    doc, element = data.draw(problem_docs(NEEDS[command]))
    args = [command, "--input", write(tmp_path, "fuzz.json", doc)]
    if command == "membership":
        args += ["--element", json.dumps(element)]
    if as_json:
        args.append("--json")
    r = run(*args)
    assert r.exit_code in (0, 1, 2, 3)
    assert r.exception is None or isinstance(r.exception, SystemExit), repr(r.exception)
    assert "Traceback" not in r.output


def test_roots_parabolic_dimensions():
    r = run("roots", "--type", "A2", "--parabolic", "a1")
    assert r.exit_code == 0
    assert "L: 5, P: 7" in r.output
    j = run("roots", "--type", "A2", "--parabolic", "a1", "--json")
    doc = json.loads(j.output)
    assert doc["levi_dim"] == 5
    assert doc["parabolic_dim"] == 7


def test_roots_from_file(tmp_path):
    path = write(
        tmp_path, "roots.json", {"group": {"free_rank": 3}, "rootsystem": {"type": "A2"}}
    )
    r = run("roots", "--input", path, "--json")
    assert r.exit_code == 0
    assert json.loads(r.output)["adjoint_dim"] == 9


def test_roots_square_and_closed_subsets():
    sq = run("roots", "--type", "A2", "--xi", "none", "--zeta", "a1", "--json")
    assert sq.exit_code == 0
    doc = json.loads(sq.output)
    assert doc["dims"] == [7, 6, 5, 4]
    assert doc["passed"] is True
    cs = run("roots", "--type", "A1", "--closed-subsets", "--json")
    assert json.loads(cs.output)["count"] == 4


def test_roots_bad_simple_name():
    r = run("roots", "--type", "A2", "--parabolic", "a7")
    assert r.exit_code == 2


def test_roots_levi():
    doc = json.loads(run("roots", "--type", "B2", "--levi", "a1", "--json").output)
    assert doc["levi_dim"] == 4
    assert doc["levi_roots"] == [[-1, 1], [1, -1]]
    r = run("roots", "--type", "A3", "--levi", "a1,a3")
    assert r.exit_code == 0
    assert r.output == "type A3, zeta a1,a3: L: 8\n"


@pytest.mark.parametrize("name, root, attractor_dim", [
    ("A2", "[1,-1,0]", 4),
    ("G2", "[3,2]", 3),
])
def test_roots_attractor_of_one_root(name, root, attractor_dim):
    r = run("roots", "--type", name, "--root", root, "--json")
    assert r.exit_code == 0
    doc = json.loads(r.output)
    assert doc["attractor_dim"] == attractor_dim
    assert doc["unit_limit_dim"] == 1


def test_roots_without_a_root_system_are_schema_errors(tmp_path):
    r = run("roots")
    assert r.exit_code == 2
    assert r.stderr == "schema error: give --type or --input with a rootsystem block\n"
    path = write(tmp_path, "group_only.json", {"group": {"free_rank": 1}})
    r = run("roots", "--input", path)
    assert r.exit_code == 2
    assert r.stderr == "schema error at rootsystem: file has no rootsystem block\n"


@pytest.mark.parametrize("args, flag", [
    (("--levi", "b1"), "--levi"),
    (("--parabolic", "a1,a3"), "--parabolic"),
    (("--xi", "a0", "--zeta", "a1"), "--xi"),
    (("--xi", "a1", "--zeta", "a1,a9"), "--zeta"),
], ids=["bad-name", "out-of-range", "xi", "zeta"])
def test_simple_root_errors_name_the_flag(args, flag):
    r = run("roots", "--type", "A2", *args)
    assert r.exit_code == 2
    assert r.stdout == ""
    assert r.stderr.startswith("schema error at %s: " % flag)


def test_cohomology_fixture():
    # the README's example, line e in degree 3 with xi(0) = e, xi(3) = -e
    path = str(pathlib.Path(__file__).parent.parent / "examples" / "cocycle.json")
    r = run("cohomology", "--input", path)
    assert r.exit_code == 0
    assert "primitive: e -> -1" in r.output
    j = json.loads(run("cohomology", "--input", path, "--json").output)
    assert j["cocycle"] is True
    assert j["primitive"] == {"e": "-1"}


def test_p2_fixture_has_one_magnet_per_closed_subset_of_a2():
    # P^2's three charts have the roots of A2 as degree support
    path = str(pathlib.Path(__file__).parent.parent / "examples" / "p2.json")
    magnets = json.loads(run("magnets", "--input", path, "--json").output)
    subsets = json.loads(run("roots", "--type", "A2", "--closed-subsets", "--json").output)
    assert magnets["count"] == subsets["count"] == 29


def test_p3_fixture_has_one_magnet_per_closed_subset_of_a3():
    path = str(pathlib.Path(__file__).parent.parent / "examples" / "p3.json")
    magnets = json.loads(run("magnets", "--input", path, "--json").output)
    subsets = json.loads(run("roots", "--type", "A3", "--closed-subsets", "--json").output)
    assert magnets["count"] == subsets["count"] == 355
    assert len(magnets["poset"]["leq"]) == 355


def test_text_magnets_build_no_json_poset(monkeypatch, tmp_path):
    path = str(pathlib.Path(__file__).parent.parent / "examples" / "p2.json")
    dot = str(tmp_path / "p2.dot")
    want = run("magnets", "--input", path, "--dot", dot).output

    def refused(self):
        raise AssertionError("text output built the leq matrix")

    monkeypatch.setattr(magnetkit.atlases.MagnetPoset, "to_json_dict", refused)
    r = run("magnets", "--input", path, "--dot", dot)
    assert r.exit_code == 0, repr(r.exception)
    assert r.output == want
    assert r.output.splitlines()[0] == "29 magnets"
    assert r.output.splitlines()[-1] == "dot: " + dot


def test_faces_of_a_moved_monoid_are_the_moved_faces(tmp_path):
    # examples/faces_moved.json is the original monoid below moved by the
    # unimodular U on the free part and the sign -1 on Z/2
    U = [[0, 1, -1], [-1, 1, -1], [0, 1, 0]]
    original = {"group": {"free_rank": 3, "torsion": [2]},
                "monoid": {"generators": [[-1, -3, 2, 0], [0, -3, -3, 1], [-1, 3, 1, 0],
                                          [0, 1, -3, 0], [-3, -2, -3, 0]]}}

    def move(c):
        return [sum(u * v for u, v in zip(row, c[:3])) for row in U] + [-c[3] % 2]

    path = str(pathlib.Path(__file__).parent.parent / "examples" / "faces_moved.json")
    r = run("faces", "--input", path, "--json")
    assert r.exit_code == 0, repr(r.exception)
    moved = json.loads(r.output)
    assert moved["monoid"]["generators"] == sorted(
        move(c) for c in original["monoid"]["generators"])
    before = json.loads(run("faces", "--input", write(tmp_path, "original.json", original),
                            "--json").output)
    assert moved["count"] == before["count"] == 10
    G = FgAbelianGroup(3, (2,))
    got = [Submonoid.generated_by(G, f["generators"]) for f in moved["faces"]]
    want = [Submonoid.generated_by(G, map(move, f["generators"])) for f in before["faces"]]
    assert all(sum(same_submonoid(F, W) for W in want) == 1 for F in got)


def test_a4_closed_subsets_are_refused_at_the_root_cap():
    r = run("roots", "--type", "A4", "--closed-subsets")
    assert r.exit_code == 3, repr(r.exception)
    assert r.stdout == ""
    assert r.stderr == "resource limit: root set of size 20 exceeds the cap 12\n"


def test_cohomology_non_cocycle_fails(tmp_path):
    path = write(
        tmp_path,
        "bad_cocycle.json",
        {
            "group": {"free_rank": 1},
            "weights": [{"degree": [3], "label": "e"}],
            "cochain": {
                "arity": 1,
                "entries": [
                    {"args": [[0]], "value": {"e": "1"}},
                    {"args": [[3]], "value": {"e": "-2"}},
                ],
            },
        },
    )
    r = run("cohomology", "--input", path)
    assert r.exit_code == 1


NON_COCYCLE = {
    "group": {"free_rank": 1},
    "weights": [{"degree": [3], "label": "e"}],
    "cochain": {"arity": 1, "entries": [
        {"args": [[0]], "value": {"e": "1"}},
        {"args": [[3]], "value": {"e": "-2"}},
    ]},
}


@pytest.mark.parametrize("cocycle", [True, False])
def test_cohomology_takes_one_coboundary_of_an_arity_one_cochain(tmp_path, monkeypatch, cocycle):
    # the primitive's own obstruction decides the cocycle question; the
    # other call is the crosscheck of the primitive, one arity down
    calls = []
    real = cohomology.differential

    def counting(c):
        calls.append(c.arity)
        return real(c)

    monkeypatch.setattr(cohomology, "differential", counting)
    if cocycle:
        path = str(pathlib.Path(__file__).parent.parent / "examples" / "cocycle.json")
    else:
        path = write(tmp_path, "bad_cocycle.json", NON_COCYCLE)
    r = run("cohomology", "--input", path)
    if cocycle:
        assert (r.exit_code, r.stdout) == (0, "cocycle: True\nprimitive: e -> -1\n")
        assert calls == [1, 0]
    else:
        assert (r.exit_code, r.stdout) == (1, "")
        assert r.stderr.startswith("error: no primitive: ")
        assert calls == [1]


ARITY_THREE_COBOUNDARY = {
    "group": {"free_rank": 1},
    "weights": [{"degree": [1], "label": "e"}],
    "cochain": {"arity": 3, "entries": [
        {"args": [[1], [1], [0]], "value": {"e": "-1"}},
        {"args": [[1], [1], [1]], "value": {"e": "1"}},
    ]},
}


@pytest.mark.parametrize("first, cocycle", [("-1", True), ("1", False)])
def test_cohomology_answers_arity_three(tmp_path, first, cocycle):
    doc = copy.deepcopy(ARITY_THREE_COBOUNDARY)
    doc["cochain"]["entries"][0]["value"]["e"] = first
    path = write(tmp_path, "arity3.json", doc)
    r = run("cohomology", "--input", path)
    assert r.exit_code == 0
    assert r.output == "cocycle: %s\n" % cocycle
    j = run("cohomology", "--input", path, "--json")
    assert j.exit_code == 0
    assert json.loads(j.output) == {"command": "cohomology", "cocycle": cocycle}


def test_cohomology_trials(tmp_path):
    path = write(
        tmp_path,
        "mod.json",
        {
            "group": {"free_rank": 1},
            "weights": [{"degree": [1], "label": "a"}, {"degree": [2], "label": "b"}],
        },
    )
    r = run("cohomology", "--input", path, "--trials", "7", "--json")
    assert r.exit_code == 0
    assert json.loads(r.output)["h1_trials"] == 7


def test_cochain_arity_mismatch_is_schema_error(tmp_path):
    path = write(
        tmp_path,
        "bad_arity.json",
        {
            "group": {"free_rank": 1},
            "weights": [{"degree": [3], "label": "e"}],
            "cochain": {"arity": 1, "entries": [{"args": [], "value": {"e": "1"}}]},
        },
    )
    r = run("cohomology", "--input", path)
    assert r.exit_code == 2


def test_duplicate_cochain_args_are_located(tmp_path):
    path = write(tmp_path, "dup_args.json", {
        "group": {"free_rank": 0, "torsion": [3]},
        "weights": [{"degree": [], "torsion": [1], "label": "e"}],
        "cochain": {"arity": 1, "entries": [
            {"args": [[1]], "value": {"e": "1"}},
            {"args": [[2]], "value": {"e": "1"}},
            {"args": [[4]], "value": {"e": "2"}},  # 4 = 1 in Z/3
        ]},
    })
    r = run("cohomology", "--input", path)
    assert r.exit_code == 2
    assert "schema error at cochain/entries/2/args: " in r.output


def test_unknown_line_in_a_cochain_value_is_located(tmp_path):
    path = write(tmp_path, "unknown_line.json", {
        "group": {"free_rank": 1},
        "weights": [{"degree": [3], "label": "e"}],
        "cochain": {"arity": 1, "entries": [
            {"args": [[0]], "value": {"e": "1"}},
            {"args": [[3]], "value": {"e": "-1", "q": "2"}},
        ]},
    })
    r = run("cohomology", "--input", path)
    assert r.exit_code == 2
    assert "schema error at cochain/entries/1/value: unknown line names ['q']" in r.output


@pytest.mark.parametrize("weights, where", [
    ([{"degree": [1]}, {"degree": [2], "label": "w0"}], "weights/1"),
    ([{"degree": [1], "label": "e", "mult": 2}, {"degree": [2]},
      {"degree": [3], "label": "e_0"}], "weights/2"),
    ([{"degree": [1], "label": "e_1"}, {"degree": [2], "label": "e", "mult": 3}], "weights/1"),
], ids=["default-label", "mult-expanded", "expanded-later"])
def test_a_line_name_used_twice_is_located(tmp_path, weights, where):
    path = write(tmp_path, "dup_lines.json",
                 {"group": {"free_rank": 1}, "weights": weights,
                  "command-options": {"trials": 2}})
    r = run("cohomology", "--input", path)
    assert r.exit_code == 2
    assert "schema error at %s: line name " % where in r.output


def test_cohomology_refuses_more_lines_than_the_cap_before_building_one(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "COHOMOLOGY_LINE_CAP", 4)
    doc = {"group": {"free_rank": 1}, "command-options": {"trials": 1},
           "weights": [{"degree": [1], "label": "e", "mult": 3}, {"degree": [0], "mult": 1}]}
    r = run("cohomology", "--input", write(tmp_path, "at_cap.json", doc))
    assert (r.exit_code, r.stdout) == (0, "h1 suite: 1/1\n")
    doc["weights"][1]["mult"] = 2

    def build_line(*args):
        raise AssertionError("a line was built past the cap")

    monkeypatch.setattr(cli, "_split_degree", build_line)
    r = run("cohomology", "--input", write(tmp_path, "past_cap.json", doc))
    assert r.exit_code == 3, repr(r.exception)
    assert r.stdout == ""
    assert r.stderr == "resource limit: cohomology over 5 lines exceeds the cap of 4\n"


@pytest.mark.parametrize("command, doc, code, line", [
    ("faces", {"group": {"free_rank": 2}, "chart": {"vars": [{"name": "x", "degree": [1]}]},
               "monoid": {"generators": []}},
     2, "schema error at chart/vars/0/degree: expected 2 free coordinates"),
    ("faces", {"group": {"free_rank": 0, "torsion": [2]},
               "weights": [{"degree": [], "torsion": []}], "monoid": {"generators": []}},
     2, "schema error at weights/0/torsion: expected 1 torsion residues"),
    ("faces", {"group": {"free_rank": 2}, "monoid": {"generators": []},
               "monoids": [{"generators": [[1, 0]]}, {"generators": [[1]]}]},
     2, "schema error at monoids/1/generators/0: expected 2 coordinates"),
    ("magnets", {"group": {"free_rank": 1}},
     2, 'schema error at (top level): nothing to act on: add "chart", "charts" or "weights"'),
    ("cohomology", {"group": {"free_rank": 1}},
     2, 'schema error at weights: cohomology needs a "weights" block'),
    ("cohomology", {"group": {"free_rank": 1}, "weights": [{"degree": [1]}]},
     2, 'schema error: nothing to do: add "cochain" or pass --trials'),
    ("faces", {"group": {"free_rank": 21},
               "monoid": {"generators": [[int(i == j) for i in range(21)] for j in range(21)]}},
     3, "resource limit: face enumeration over 21 generators exceeds the cap of 20"),
], ids=["var-degree", "weight-torsion", "monoids-generator", "magnets-nothing",
        "cohomology-no-weights", "cohomology-nothing-to-do", "faces-cap"])
def test_refused_problem_files_are_worded_as_pinned(tmp_path, command, doc, code, line):
    r = run(command, "--input", write(tmp_path, "refused.json", doc))
    assert r.exit_code == code, repr(r.exception)
    assert r.stdout == ""
    assert r.stderr == line + "\n"


def test_an_unknown_root_system_type_is_located_at_its_flag():
    r = run("roots", "--type", "A9")
    assert r.exit_code == 2, repr(r.exception)
    assert r.stdout == ""
    assert r.stderr == "schema error at --type: unknown root system type 'A9'\n"


def test_bb_on_the_affine_line(tmp_path):
    path = write(
        tmp_path,
        "line.json",
        {
            "group": {"free_rank": 1},
            "chart": {"vars": [{"name": "x", "degree": [1]}]},
            "monoid": {"generators": [[1]]},
        },
    )
    r = run("bb", "--input", path, "--json")
    assert r.exit_code == 0
    doc = json.loads(r.output)
    assert doc["fiber_rank"] == 1
    assert doc["base"] == []
    assert doc["hilbert_counts"] == [1] * 9


def test_dilatation_check_command(tmp_path):
    path = write(
        tmp_path,
        "dila.json",
        {
            "group": {"free_rank": 1},
            "chart": {
                "vars": [
                    {"name": "x", "degree": [1]},
                    {"name": "y", "degree": [-1]},
                ]
            },
            "center": ["x"],
            "monoid": {"generators": [[1]]},
        },
    )
    r = run("dilatation-check", "--input", path, "--json")
    assert r.exit_code == 0
    doc = json.loads(r.output)
    assert doc["equal"] is True
    assert doc["presentation"]["vars"] == [{"name": "x/t", "degree": [1]}]
    assert doc["presentation"]["divided"] == ["x"]


def test_magnets_on_a_non_sharp_chart_exits_1(tmp_path):
    path = write(
        tmp_path,
        "cylinder.json",
        {
            "group": {"free_rank": 2},
            "chart": {"monoid_algebra": {"generators": [[1, 0], [-1, 0], [0, 1]]}},
        },
    )
    r = run("magnets", "--input", path)
    assert r.exit_code == 1
    assert r.stdout == ""
    assert "sharp monoid" in r.stderr
    assert "Traceback" not in r.output


@pytest.mark.parametrize("args", [
    ("cohomology", "--trials", "-5"),
    ("cohomology", "--trials", "0"),
    ("magnets", "--bound", "-1"),
    ("bb", "--bound", "-1"),
])
def test_flags_below_their_schema_minimum_are_usage_errors(p1_file, args):
    r = run(*args[:1], "--input", p1_file, *args[1:])
    assert r.exit_code == 2
    assert "Invalid value for '%s'" % args[1] in r.output


def test_resource_limit_exit_code(p1_file):
    r = run("magnets", "--input", p1_file, "--bound", "1")
    assert r.exit_code == 3


def test_output_is_byte_deterministic(p1_file, plane_file):
    for args in [
        ("magnets", "--input", p1_file, "--json"),
        ("attractor", "--input", plane_file, "--json"),
        ("roots", "--type", "B2", "--closed-subsets", "--json"),
    ]:
        assert run(*args).output == run(*args).output


def _cli_cases(tmp_path, p1_file, plane_file):
    """Calls that write to stdout, or to stderr with exit codes 1, 2 and 3."""
    cylinder = write(tmp_path, "cylinder.json", {
        "group": {"free_rank": 2},
        "chart": {"monoid_algebra": {"generators": [[1, 0], [-1, 0], [0, 1]]}},
    })
    return [
        ("magnets", "--input", cylinder),
        ("magnets", "--input", p1_file),
        ("membership", "--input", plane_file, "--element", "[2, 3]", "--json"),
        ("magnets", "--input", p1_file, "--bound", "1"),
        ("magnets", "--input", p1_file + ".missing"),
        ("faces", "--input", p1_file),
    ]


def _live_text_streams():
    gc.collect()
    return sum(1 for o in gc.get_objects() if isinstance(o, io.TextIOWrapper))


def test_in_process_runs_leave_no_captured_stream_alive(tmp_path, p1_file, plane_file):
    cases = _cli_cases(tmp_path, p1_file, plane_file)
    for args in cases:
        run(*args)
    before = _live_text_streams()
    for _ in range(8):
        for args in cases:
            run(*args)
    assert _live_text_streams() <= before


def _module_run(*args):
    return subprocess.run(
        [sys.executable, "-m", "magnetkit.cli", *args],
        capture_output=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )


def test_in_process_output_is_the_process_output(tmp_path, p1_file, plane_file):
    codes = set()
    for args in _cli_cases(tmp_path, p1_file, plane_file):
        r = CliRunner().invoke(main, list(args))
        out = _module_run(*args)
        assert (r.exit_code, r.stdout_bytes, r.stderr_bytes) == (
            out.returncode, out.stdout, out.stderr), args
        codes.add(r.exit_code)
    assert codes == {0, 1, 2, 3}


def test_module_run_prints_the_usage():
    out = _module_run("--help")
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith(b"Usage: ")
    assert b"membership" in out.stdout


@pytest.mark.parametrize("value", ["3\n", "1/2\n"])
def test_a_rational_with_a_final_newline_is_located(tmp_path, value):
    # the schema's pattern lets the newline through under Python's regex
    # dialect, as jsonschema's own validator does; the loader refuses it
    path = write(tmp_path, "newline.json", {
        "group": {"free_rank": 1}, "weights": [{"degree": [1], "label": "e"}],
        "cochain": {"arity": 1, "entries": [{"args": [[0]], "value": {"e": "1"}},
                                            {"args": [[1]], "value": {"e": value}}]}})
    r = run("cohomology", "--input", path)
    assert r.exit_code == 2, repr(r.exception)
    assert r.stdout == ""
    assert r.stderr == ("schema error at cochain/entries/1/value: "
                        "the rational for 'e' ends in a newline\n")


def test_schema_errors_are_ordered_by_list_index(tmp_path):
    gens = [[i] for i in range(11)]
    gens[2] = gens[10] = ["x"]
    path = write(tmp_path, "two_bad.json",
                 {"group": {"free_rank": 1}, "monoid": {"generators": gens}})
    r = run("faces", "--input", path)
    assert r.exit_code == 2, repr(r.exception)
    assert r.stderr.startswith("schema error at monoid/generators/2/0: ")
