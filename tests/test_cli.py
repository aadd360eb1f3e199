import json

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings, strategies as st

from magnetkit.cli import main


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


def test_short_schema_errors_are_echoed_whole(tmp_path):
    path = write(tmp_path, "short.json", {"group": {"free_rank": "two"}})
    r = run("faces", "--input", path)
    assert r.exit_code == 2
    assert r.stderr == "schema error at group/free_rank: 'two' is not of type 'integer'\n"


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


def test_cohomology_fixture(tmp_path):
    path = write(
        tmp_path,
        "cocycle.json",
        {
            "group": {"free_rank": 1},
            "weights": [{"degree": [3], "label": "e"}],
            "cochain": {
                "arity": 1,
                "entries": [
                    {"args": [[0]], "value": {"e": "1"}},
                    {"args": [[3]], "value": {"e": "-1"}},
                ],
            },
        },
    )
    r = run("cohomology", "--input", path)
    assert r.exit_code == 0
    assert "primitive: e -> -1" in r.output
    j = json.loads(run("cohomology", "--input", path, "--json").output)
    assert j["cocycle"] is True
    assert j["primitive"] == {"e": "-1"}


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
