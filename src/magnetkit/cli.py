"""Command-line frontend.

One subcommand per library area.  Input is a JSON problem file validated
against the shipped schema before anything is built, by a check compiled
from the schema at import: it decides whether a file is accepted and words
the error of one it rejects, with no validator library at run time.  Output
is deterministic text, canonical JSON with --json, or DOT where a diagram
exists.  Exit codes: 0 success, 1 computation or identity failure,
2 schema/usage error, 3 resource limit.  The wire format is integers and
rational strings, never floats.
"""

from __future__ import annotations

import decimal
import json
import numbers
import re
import sys
from fractions import Fraction
from functools import wraps
from importlib import resources

import click

from .atlases import EquivariantAtlas, enumerate_magnets
from .bundles import DilatationSetup, bb_bundle, dilatation_attractor_check
from .cohomology import Cochain, GradedFreeModule, h1_zero_suite, is_cocycle, primitive
from .errors import MagnetError, ResourceLimitError, SchemaError
from .graded import (
    FreePoly,
    MonoidAlgebra,
    WeightModule,
    attractor,
    support_report,
    weight_attractor,
)
from .groups import FgAbelianGroup, GroupElement
from .monoids import Submonoid, faces
from .roots import (
    adjoint_module,
    build,
    cartesian_square,
    closed_subsets,
    levi,
    parabolic,
    root_group,
)


def _schema() -> dict:
    text = resources.files("magnetkit").joinpath("schema/problem.json").read_text()
    return json.loads(text)


_ANNOTATIONS = frozenset({"$schema", "$id", "$defs", "title", "description"})
_TYPES = {"object": dict, "array": list, "string": str}


def _is_integer(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_number(x) -> bool:
    return isinstance(x, numbers.Number) and not isinstance(x, bool)


class _Invalid(Exception):
    """The first error a compiled check meets; path lists the keys and indices
    down to the offending value, innermost first, added as it passes up."""

    def __init__(self, message: str):
        super().__init__(message)
        self.path = []


def _fail(message: str):
    raise _Invalid(message)


def _compile(node, refs: dict):
    """The check of one schema node: a function of an instance that returns
    when Draft 2020-12 validation finds no error in it, and otherwise raises
    _Invalid at the first error by location.

    It walks the instance in location order: the node's keywords about the
    instance itself first, in the node's order, as their errors lie at the
    instance; then an object's entries by key, or an array's items by index.
    A path sorts before the paths under it, keys as strings and indices as
    ints, so the error raised is the least by location, and of equal ones
    the first in the order of the reference validator the tests compare
    against (Draft202012Validator, release 4.26), whose wording it uses.
    Each keyword checks only instances of its own type; a bool is no
    integer, and pattern is re.search.  Instances are documents as json.load
    reads them with parse_float=Decimal, so the only floats are NaN and the
    infinities.  A $ref, the only keyword of its node, is compiled in place
    from the node refs maps it to (no node refers to itself), so a check
    walks no references.  A keyword without a check here raises ValueError.
    """
    checks = _checks(node, refs)
    if len(checks) == 1:
        return checks[0]

    def check_all(x):
        for check in checks:
            check(x)

    return check_all


def _checks(node, refs: dict) -> list:
    """The checks of node's keywords, in the order _compile runs them."""
    keys = [key for key in node if key not in _ANNOTATIONS]
    if keys == ["$ref"] and node["$ref"] in refs:
        return _checks(refs[node["$ref"]], refs)
    # the entry keywords, whose argument is an object (properties, items, a
    # schema as additionalProperties), run last: their errors lie deeper
    keys.sort(key=lambda key: isinstance(node[key], dict))
    return [check for key in keys if (check := _keyword(key, node[key], node, refs))]


def _keyword(key, value, node, refs):
    """The check of one keyword of node, value its argument.  One check walks
    an object's entries, built at a schema as additionalProperties if there
    is one, else at properties; None for the other of the two."""
    extra = node.get("additionalProperties")
    if key in ("properties", "additionalProperties") and isinstance(value, dict):
        if key == "properties" and isinstance(extra, dict):
            return None
        named = {name: _compile(sub, refs) for name, sub in node.get("properties", {}).items()}
        names = sorted(named)
        other = _compile(extra, refs) if isinstance(extra, dict) else None

        def entries(x):
            if isinstance(x, dict):
                try:
                    for name in sorted(x) if other else names:
                        if name in x:
                            named.get(name, other)(x[name])
                except _Invalid as e:
                    e.path.append(name)
                    raise

        return entries
    if key == "items":
        item = _compile(value, refs)

        def items(x):
            if isinstance(x, list):
                try:
                    for i, v in enumerate(x):
                        item(v)
                except _Invalid as e:
                    e.path.append(i)
                    raise

        return items
    if key == "type" and value == "integer":
        return lambda x: _is_integer(x) or _fail(f"{x!r} is not of type 'integer'")
    if key == "type" and value in ("object", "array", "string"):
        cls = _TYPES[value]
        return lambda x: isinstance(x, cls) or _fail(f"{x!r} is not of type {value!r}")
    if key == "additionalProperties" and value is False:
        known = frozenset(node.get("properties", ()))

        def no_extras(x):
            if isinstance(x, dict) and not known.issuperset(x):
                extras = sorted(k for k in x if k not in known)
                _fail("Additional properties are not allowed (%s %s unexpected)" % (
                    ", ".join(map(repr, extras)), "was" if len(extras) == 1 else "were"))

        return no_extras
    if key == "required":
        need = frozenset(value)
        return lambda x: not isinstance(x, dict) or x.keys() >= need or _fail(
            "%r is a required property" % next(n for n in value if n not in x))
    if key in ("minItems", "minLength"):
        cls = list if key == "minItems" else str
        short = "should be non-empty" if value == 1 else "is too short"
        return lambda x: not (isinstance(x, cls) and len(x) < value) or _fail(f"{x!r} {short}")
    if key == "minimum":
        return lambda x: not (_is_number(x) and x < value) or _fail(
            f"{x!r} is less than the minimum of {value!r}")
    if key == "maximum":
        return lambda x: not (_is_number(x) and x > value) or _fail(
            f"{x!r} is greater than the maximum of {value!r}")
    if key == "enum" and all(isinstance(v, str) for v in value):
        # Draft 2020-12 compares a string only by ==, so membership is exact
        return lambda x: x in value or _fail(f"{x!r} is not one of {value!r}")
    if key == "pattern":
        search = re.compile(value).search
        return lambda x: not (isinstance(x, str) and search(x) is None) or _fail(
            f"{x!r} does not match {value!r}")
    if key == "oneOf":
        subs = [(sub, _compile(sub, refs)) for sub in value]

        def one_of(x):
            valid = []
            for sub, check in subs:
                try:
                    check(x)
                    valid.append(sub)
                except _Invalid:
                    pass
            if not valid:
                _fail(f"{x!r} is not valid under any of the given schemas")
            if len(valid) > 1:
                # the reference lists the later valid branches, then the first
                _fail(f"{x!r} is valid under each of "
                      + ", ".join(map(repr, valid[1:] + valid[:1])))

        return one_of
    raise ValueError("schema keyword %r has no compiled check (argument %r)"
                     % (key, value))


# compiled once, when the module loads, and kept as a constant rather than a
# cached builder, so clearing the library's caches does not compile it again;
# check_schema runs the root's checks in its own frame: one frame more would
# move the nesting at which quoting a bad value passes the recursion limit
_SCHEMA = _schema()
_SCHEMA_CHECKS = _checks(
    _SCHEMA, {"#/$defs/" + name: node for name, node in _SCHEMA["$defs"].items()})

_MESSAGE_CHARS = 200


def _clip(message: str) -> str:
    """A message that may echo a bad value, cut to _MESSAGE_CHARS."""
    return message if len(message) <= _MESSAGE_CHARS else message[:_MESSAGE_CHARS] + "…"


def check_schema(doc) -> None:
    """Check doc against the shipped schema: its first error by location is
    a SchemaError at that location, its message cut to _MESSAGE_CHARS."""
    try:
        for check in _SCHEMA_CHECKS:
            check(doc)
    except _Invalid as e:
        where = "/".join(map(str, reversed(e.path))) or "(top level)"
        raise SchemaError(_clip(str(e)), location=where) from None


def load_problem(path: str) -> dict:
    """Read and check one problem file; any fault is a located SchemaError.

    The document is checked by check_schema, against the shipped schema,
    then for the coordinate lengths the schema cannot express.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh, parse_float=decimal.Decimal)  # 1.0 passes "integer", a Decimal does not
    except OSError as e:
        raise SchemaError("cannot read %s: %s" % (path, e.strerror))
    except (ValueError, RecursionError) as e:
        # malformed JSON, bytes that are not UTF-8, an integer past the
        # interpreter's digit limit, or nesting past the recursion limit
        raise SchemaError("not JSON: %s" % e, location=path)
    try:
        check_schema(doc)
    except RecursionError as e:
        # a message quotes the offending value, and the repr of a value
        # nested almost as deep as json.load allows can pass the limit
        raise SchemaError("nested too deep to check: %s" % e, location=path)
    _check_coordinate_lengths(doc)
    return doc


def _check_coordinate_lengths(doc: dict):
    """Cross-field arithmetic the schema grammar cannot express."""
    free = doc["group"]["free_rank"]
    torsion = len(doc["group"].get("torsion", []))
    full = free + torsion

    def bad(loc, msg):
        raise SchemaError(msg, location=loc)

    def check_split(obj, loc):
        if len(obj["degree"]) != free:
            bad(loc + "/degree", "expected %d free coordinates" % free)
        if len(obj.get("torsion", [0] * torsion)) != torsion:
            bad(loc + "/torsion", "expected %d torsion residues" % torsion)

    def check_full(arr, loc):
        if len(arr) != full:
            bad(loc, "expected %d coordinates" % full)

    charts = []
    if "chart" in doc:
        charts.append(("chart", doc["chart"]))
    for i, c in enumerate(doc.get("charts", [])):
        charts.append(("charts/%d" % i, c))
    for loc, c in charts:
        for i, v in enumerate(c.get("vars", [])):
            check_split(v, "%s/vars/%d" % (loc, i))
        for i, g in enumerate(c.get("monoid_algebra", {}).get("generators", [])):
            check_full(g, "%s/monoid_algebra/generators/%d" % (loc, i))
    for i, w in enumerate(doc.get("weights", [])):
        check_split(w, "weights/%d" % i)
    blocks = []
    if "monoid" in doc:
        blocks.append(("monoid", doc["monoid"]))
    if "face" in doc:
        blocks.append(("face", doc["face"]))
    for i, m in enumerate(doc.get("monoids", [])):
        blocks.append(("monoids/%d" % i, m))
    for loc, m in blocks:
        for i, g in enumerate(m["generators"]):
            check_full(g, "%s/generators/%d" % (loc, i))
    for i, entry in enumerate(doc.get("cochain", {}).get("entries", [])):
        if len(entry["args"]) != doc["cochain"]["arity"]:
            bad("cochain/entries/%d/args" % i, "argument count must equal the arity")
        for j, a in enumerate(entry["args"]):
            check_full(a, "cochain/entries/%d/args/%d" % (i, j))


def _group(doc: dict) -> FgAbelianGroup:
    return FgAbelianGroup(
        doc["group"]["free_rank"], tuple(doc["group"].get("torsion", []))
    )


def _split_degree(group: FgAbelianGroup, obj: dict) -> GroupElement:
    coords = list(obj["degree"]) + list(
        obj.get("torsion", [0] * len(group.torsion_orders))
    )
    return group.element(coords)


def _file_monoid(group: FgAbelianGroup, block: dict) -> Submonoid:
    return Submonoid.generated_by(group, block["generators"])


def _flag_vectors(text: str, flag: str, length: int, shape: str,
                  nested: bool = False) -> list:
    """Parse a coordinate flag's JSON: one integer vector of the given length,
    or with nested a list of them.  Malformed JSON, entries that are not
    integers (booleans, floats and strings included) and a wrong shape are
    schema errors at the flag; a wrong shape reports shape, except a nested
    vector of the wrong length, which reports the expected length."""
    loc = "--" + flag
    try:
        value = json.loads(text)
    except (ValueError, RecursionError) as e:
        raise SchemaError("%s is not JSON: %s" % (loc, e), location=loc)
    vectors = value if nested else [value]
    if not isinstance(vectors, list) or not all(isinstance(v, list) for v in vectors):
        raise SchemaError(shape, location=loc)
    if not all(type(c) is int for v in vectors for c in v):
        raise SchemaError("%s coordinates must be integers" % loc, location=loc)
    if any(len(v) != length for v in vectors):
        raise SchemaError("expected %d coordinates" % length if nested else shape,
                          location=loc)
    return value


def _monoid_arg(doc, group, flag_value) -> Submonoid:
    if flag_value is not None:
        gens = _flag_vectors(flag_value, "monoid", group.coord_count,
                             "--monoid must be a list of integer vectors", nested=True)
        return Submonoid.generated_by(group, gens)
    if "monoid" in doc:
        return _file_monoid(group, doc["monoid"])
    raise SchemaError(
        'no monoid given: add a "monoid" block or pass --monoid', location="monoid"
    )


def _named_charts(doc: dict, group: FgAbelianGroup) -> list:
    blocks = [doc["chart"]] if "chart" in doc else list(doc.get("charts", []))
    out = []
    for i, block in enumerate(blocks):
        name = block.get("name", "chart%d" % (i + 1))
        if "vars" in block:
            chart = FreePoly(
                group,
                tuple((v["name"], _split_degree(group, v)) for v in block["vars"]),
            )
        else:
            chart = MonoidAlgebra(_file_monoid(group, block["monoid_algebra"]))
        out.append((name, chart))
    return out


def _free_chart(doc: dict, group: FgAbelianGroup, command: str) -> FreePoly:
    charts = _named_charts(doc, group)
    if len(charts) != 1 or not isinstance(charts[0][1], FreePoly):
        raise SchemaError("%s needs exactly one free chart" % command, location="chart")
    return charts[0][1]


def _weight_module(doc: dict, group: FgAbelianGroup) -> WeightModule:
    entries = []
    for w in doc["weights"]:
        entries.append(
            (_split_degree(group, w), w.get("mult", 1), w.get("label"))
        )
    return WeightModule(group, tuple(entries))


def _atlas(doc: dict, group: FgAbelianGroup) -> EquivariantAtlas:
    charts = _named_charts(doc, group)
    if "weights" in doc:
        charts.append(("weights", _weight_module(doc, group)))
    if not charts:
        raise SchemaError(
            'nothing to act on: add "chart", "charts" or "weights"',
            location="(top level)",
        )
    return EquivariantAtlas(group, tuple(charts))


def _coords(m: GroupElement) -> list:
    return list(m.coords)


def _monoid_json(N: Submonoid) -> dict:
    return {
        "describe": N.describe(),
        "generators": [_coords(g) for g in N.generators],
    }


# every echo names its stream: click's default-stream cache maps a stream to
# itself, which keeps it alive, so each in-process run (CliRunner) would
# leak the stream it captured output in
def _emit(payload: dict | None, as_json: bool, lines: list):
    if as_json:
        click.echo(json.dumps(payload, sort_keys=True, indent=2), file=sys.stdout)
    else:
        for line in lines:
            click.echo(line, file=sys.stdout)


def guarded(fn):
    @wraps(fn)
    def inner(*args, **kwargs):
        try:
            fn(*args, **kwargs)
        except SchemaError as e:
            where = " at %s" % e.location if e.location else ""
            click.echo("schema error%s: %s" % (where, e), file=sys.stderr)
            sys.exit(2)
        except ResourceLimitError as e:
            click.echo("resource limit: %s" % e, file=sys.stderr)
            sys.exit(3)
        except MagnetError as e:
            click.echo("error: %s" % e, file=sys.stderr)
            sys.exit(1)

    return inner


@click.group()
def main():
    """Exact attractor computations for graded presentations."""


input_opt = click.option(
    "--input", "path", required=True, type=click.Path(), help="problem file (JSON)"
)
monoid_opt = click.option(
    "--monoid", "monoid_json", default=None, help="generator list as JSON"
)
json_opt = click.option("--json", "as_json", is_flag=True, help="machine output")


@main.command("attractor")
@input_opt
@monoid_opt
@json_opt
@guarded
def cmd_attractor(path, monoid_json, as_json):
    """Attractor of every chart (and the weight module) under one magnet."""
    doc = load_problem(path)
    group = _group(doc)
    N = _monoid_arg(doc, group, monoid_json)
    lines = ["attractor under %s" % N.describe()]
    charts_out = []
    for name, chart in _named_charts(doc, group):
        if isinstance(chart, FreePoly):
            res = attractor(chart, N)
            kept = [(n, d) for n, d in res.quotient.vars]
            charts_out.append(
                {
                    "name": name,
                    "kind": "free",
                    "keeps": [{"name": n, "degree": _coords(d)} for n, d in kept],
                    "kills": list(res.killed),
                }
            )
            lines.append(
                "%s: keeps %s; kills %s"
                % (
                    name,
                    ", ".join("%s %r" % (n, d) for n, d in kept) or "(nothing)",
                    ", ".join(res.killed) or "(nothing)",
                )
            )
        else:
            res = attractor(chart, N)
            rep = support_report(res.quotient)
            charts_out.append(
                {
                    "name": name,
                    "kind": "monoid_algebra",
                    "support": {
                        "members": [_coords(m) for m in rep.members],
                        "finite": rep.finite,
                        "non_reduced": rep.non_reduced,
                    },
                }
            )
            lines.append(
                "%s: support {%s} finite=%s non_reduced=%s"
                % (
                    name,
                    ", ".join(repr(m) for m in rep.members),
                    rep.finite,
                    rep.non_reduced,
                )
            )
    payload = {
        "command": "attractor",
        "magnet": _monoid_json(N),
        "charts": charts_out,
    }
    if "weights" in doc:
        W = _weight_module(doc, group)
        WN = weight_attractor(W, N)
        payload["weights"] = {
            "dimension": WN.dimension,
            "kept": [
                {"weight": _coords(w), "mult": m, "label": l}
                for w, m, l in WN.weights
            ],
        }
        lines.append("weights: %s (dimension %d)" % (WN.describe() or "0", WN.dimension))
    _emit(payload, as_json, lines)


@main.command("magnets")
@input_opt
@json_opt
@click.option("--dot", "dot_path", default=None, type=click.Path(), help="write Hasse diagram")
@click.option("--bound", default=None, type=click.IntRange(min=0), help="degree-support cap")
@guarded
def cmd_magnets(path, as_json, dot_path, bound):
    """Enumerate all pure magnets of the action described by the file."""
    doc = load_problem(path)
    group = _group(doc)
    cap = bound if bound is not None else doc.get("command-options", {}).get("bound", 20)
    poset = enumerate_magnets(_atlas(doc, group), cap=cap)
    lines = ["%d magnets" % len(poset)]
    for m in poset.magnets():
        lines.append("  " + m.describe())
    if dot_path:
        try:
            with open(dot_path, "w") as fh:
                fh.write(poset.to_dot())
        except OSError as e:
            raise SchemaError("cannot write %s: %s" % (dot_path, e.strerror), location="--dot")
        lines.append("dot: %s" % dot_path)
    # the poset's leq matrix is n x n, so only JSON output builds it
    payload = None
    if as_json:
        payload = {
            "command": "magnets",
            "count": len(poset),
            "magnets": [_monoid_json(m) for m in poset.magnets()],
            "poset": poset.to_json_dict(),
        }
        if dot_path:
            payload["dot_file"] = dot_path
    _emit(payload, as_json, lines)


@main.command("faces")
@input_opt
@monoid_opt
@json_opt
@guarded
def cmd_faces(path, monoid_json, as_json):
    """All faces of the given monoid."""
    doc = load_problem(path)
    group = _group(doc)
    N = _monoid_arg(doc, group, monoid_json)
    F = faces(N)
    lines = ["%d faces of %s" % (len(F), N.describe())]
    lines += ["  " + f.describe() for f in F]
    payload = {
        "command": "faces",
        "monoid": _monoid_json(N),
        "count": len(F),
        "faces": [_monoid_json(f) for f in F],
    }
    _emit(payload, as_json, lines)


@main.command("membership")
@input_opt
@monoid_opt
@click.option("--element", "element_json", required=True, help="coordinates as JSON")
@json_opt
@guarded
def cmd_membership(path, monoid_json, element_json, as_json):
    """Exact monoid membership of one element."""
    doc = load_problem(path)
    group = _group(doc)
    N = _monoid_arg(doc, group, monoid_json)
    m = group.element(_flag_vectors(
        element_json, "element", group.coord_count,
        "--element needs %d integer coordinates" % group.coord_count))
    member = N.contains(m)
    _emit(
        {
            "command": "membership",
            "monoid": _monoid_json(N),
            "element": _coords(m),
            "member": member,
        },
        as_json,
        ["%r in %s: %s" % (m, N.describe(), "yes" if member else "no")],
    )


def _parse_simple_roots(datum, text, flag):
    """The simple roots named in text, the value of the option flag."""
    text = text.strip()
    if text in ("", "none"):
        return ()
    out = []
    for token in text.split(","):
        token = token.strip()
        match = re.fullmatch(r"a([1-9][0-9]*)", token)
        if not match:
            raise SchemaError(
                "simple roots are named a1, a2, ...; got %r" % token, location=flag
            )
        index = int(match.group(1)) - 1
        if index >= len(datum.rootsystem.basis):
            raise SchemaError("no simple root %r in this type" % token, location=flag)
        out.append(datum.rootsystem.basis[index])
    return tuple(out)


@main.command("roots")
@click.option("--input", "path", default=None, type=click.Path(), help="problem file")
@click.option("--type", "type_name", default=None, help="root system type (A1..A4, B2, G2)")
@click.option("--levi", "levi_spec", default=None, help="simple roots, e.g. a1,a2")
@click.option("--parabolic", "parabolic_spec", default=None, help="simple roots")
@click.option("--xi", "xi_spec", default=None, help="inner simple roots for the square")
@click.option("--zeta", "zeta_spec", default=None, help="outer simple roots for the square")
@click.option("--root", "root_spec", default=None, help="root coordinates as JSON")
@click.option("--closed-subsets", "closed_flag", is_flag=True, help="enumerate closed root subsets")
@json_opt
@guarded
def cmd_roots(path, type_name, levi_spec, parabolic_spec, xi_spec, zeta_spec, root_spec, closed_flag, as_json):
    """Root-datum computations: Levi/parabolic dimensions, squares, subsets."""
    if type_name is None:
        if path is None:
            raise SchemaError("give --type or --input with a rootsystem block")
        doc = load_problem(path)
        if "rootsystem" not in doc:
            raise SchemaError("file has no rootsystem block", location="rootsystem")
        type_name = doc["rootsystem"]["type"]
    try:
        datum = build(type_name)
    except MagnetError:
        raise SchemaError("unknown root system type %r" % type_name, location="--type")
    rs = datum.rootsystem
    payload = {"command": "roots", "type": type_name}
    lines = []

    if parabolic_spec is not None:
        zeta = _parse_simple_roots(datum, parabolic_spec, "--parabolic")
        P = parabolic(datum, zeta)
        L = levi(datum, zeta)
        payload.update(
            {
                "levi_dim": L.dim,
                "parabolic_dim": P.dim,
                "levi_roots": sorted(_coords(r) for r in L.roots),
                "parabolic_roots": sorted(_coords(r) for r in P.roots),
            }
        )
        lines.append("type %s, zeta %s: L: %d, P: %d" % (type_name, parabolic_spec, L.dim, P.dim))
    elif levi_spec is not None:
        zeta = _parse_simple_roots(datum, levi_spec, "--levi")
        L = levi(datum, zeta)
        payload.update(
            {
                "levi_dim": L.dim,
                "levi_roots": sorted(_coords(r) for r in L.roots),
            }
        )
        lines.append("type %s, zeta %s: L: %d" % (type_name, levi_spec, L.dim))
    elif xi_spec is not None or zeta_spec is not None:
        xi = _parse_simple_roots(datum, xi_spec or "", "--xi")
        zeta = _parse_simple_roots(datum, zeta_spec or "", "--zeta")
        rep = cartesian_square(datum, xi, zeta)
        payload.update(
            {
                "dims": list(rep.dims),
                "face_ok": rep.face_ok,
                "complement_ok": rep.complement_ok,
                "sum_ok": rep.sum_ok,
                "identity_ok": rep.identity_ok,
                "passed": rep.passed,
            }
        )
        lines.append(
            "square dims (L', N', L, N) = %r; passed=%s" % (list(rep.dims), rep.passed)
        )
        if not rep.passed:
            _emit(payload, as_json, lines)
            sys.exit(1)
    elif root_spec is not None:
        coords = _flag_vectors(root_spec, "root", rs.lattice_rank,
                               "--root needs %d coordinates" % rs.lattice_rank)
        h, u = root_group(datum, rs.ambient.element(coords))
        payload.update({"attractor_dim": h, "unit_limit_dim": u})
        lines.append(
            "root %s: attractor dimension %d, unit-limit dimension %d"
            % (root_spec, h, u)
        )
    elif closed_flag:
        subs = closed_subsets(datum)
        payload.update(
            {
                "count": len(subs),
                "closed_subsets": [sorted(_coords(r) for r in S) for S in subs],
            }
        )
        lines.append("%d closed subsets" % len(subs))
        for S in subs:
            lines.append("  {%s}" % ", ".join(repr(r) for r in sorted(S)))
    else:
        payload.update(
            {
                "torus_rank": datum.torus_rank,
                "roots": sorted(_coords(r) for r in rs.roots),
                "basis": [_coords(r) for r in rs.basis],
                "adjoint_dim": adjoint_module(datum).dimension,
            }
        )
        lines.append(
            "type %s: torus rank %d, %d roots, adjoint dimension %d"
            % (type_name, datum.torus_rank, len(rs.roots), adjoint_module(datum).dimension)
        )
    _emit(payload, as_json, lines)


# basis lines cohomology builds from its weights, each mult expanded into
# as many lines; 10,000 lines take about 0.35 s and 33 MB for one trial
COHOMOLOGY_LINE_CAP = 10_000


def _module_from_weights(doc, group) -> GradedFreeModule:
    if "weights" not in doc:
        raise SchemaError('cohomology needs a "weights" block', location="weights")
    count = sum(w.get("mult", 1) for w in doc["weights"])
    if count > COHOMOLOGY_LINE_CAP:
        raise ResourceLimitError("cohomology over %d lines exceeds the cap of %d"
                                 % (count, COHOMOLOGY_LINE_CAP))
    lines = {}  # line name -> degree, in file order
    for i, w in enumerate(doc["weights"]):
        label = w.get("label", "w%d" % i)
        mult = w.get("mult", 1)
        deg = _split_degree(group, w)
        for name in [label] if mult == 1 else ["%s_%d" % (label, j) for j in range(mult)]:
            if name in lines:
                raise SchemaError(_clip("line name %r is used twice" % name),
                                  location="weights/%d" % i)
            lines[name] = deg
    return GradedFreeModule(group, tuple(lines.items()))


def _cochain_from_doc(doc, group, module) -> Cochain:
    block = doc["cochain"]
    names = {name for name, _ in module.lines}
    entries = {}
    for i, entry in enumerate(block["entries"]):
        loc = "cochain/entries/%d" % i
        key = tuple(group.element(a) for a in entry["args"])
        if key in entries:
            raise SchemaError("an earlier entry has the same args", location=loc + "/args")
        unknown = sorted(set(entry["value"]) - names)
        if unknown:
            raise SchemaError(_clip("unknown line names %r" % unknown),
                              location=loc + "/value")
        coeffs = {}
        for name, s in entry["value"].items():
            # the schema's pattern, read with Python's $, lets one final
            # newline through, and Fraction would strip it
            if s.endswith("\n"):
                raise SchemaError(_clip("the rational for %r ends in a newline" % name),
                                  location=loc + "/value")
            try:
                coeffs[name] = Fraction(s)
            except ValueError as e:  # a numerator or denominator past the digit limit
                raise SchemaError(_clip("the rational for %r: %s" % (name, e)),
                                  location=loc + "/value")
        entries[key] = module.element(coeffs)
    return Cochain(module, block["arity"], tuple(entries.items()))


@main.command("cohomology")
@input_opt
@click.option("--trials", default=None, type=click.IntRange(min=1), help="randomized vanishing trials")
@json_opt
@guarded
def cmd_cohomology(path, trials, as_json):
    """Cocycle check and explicit primitive; optional randomized H1 suite."""
    doc = load_problem(path)
    group = _group(doc)
    module = _module_from_weights(doc, group)
    payload = {"command": "cohomology"}
    lines = []
    if "cochain" in doc:
        xi = _cochain_from_doc(doc, group, module)
        if xi.arity == 1:
            # primitive refuses a non-cocycle, so its answer is the verdict
            p = primitive(xi)()
            cocycle = True
        else:
            cocycle = is_cocycle(xi)
        payload["cocycle"] = cocycle
        lines.append("cocycle: %s" % cocycle)
        if xi.arity == 1:
            nonzero = {
                name: str(c)
                for (name, _), c in zip(module.lines, p.coeffs)
                if c != 0
            }
            payload["primitive"] = nonzero
            lines.append(
                "primitive: %s"
                % (", ".join("%s -> %s" % kv for kv in sorted(nonzero.items())) or "0")
            )
    n = trials if trials is not None else doc.get("command-options", {}).get("trials")
    if n:
        passed = h1_zero_suite(module, trials=n, seed=0)
        payload["h1_trials"] = passed
        lines.append("h1 suite: %d/%d" % (passed, n))
    if len(payload) == 1:
        raise SchemaError('nothing to do: add "cochain" or pass --trials')
    _emit(payload, as_json, lines)


@main.command("bb")
@input_opt
@monoid_opt
@click.option("--bound", default=None, type=click.IntRange(min=0), help="hilbert check bound")
@json_opt
@guarded
def cmd_bb(path, monoid_json, bound, as_json):
    """Vector-bundle splitting of the attractor of a free chart."""
    doc = load_problem(path)
    group = _group(doc)
    N = _monoid_arg(doc, group, monoid_json)
    chart = _free_chart(doc, group, "bb")
    cap = bound if bound is not None else doc.get("command-options", {}).get("bound", 8)
    res = bb_bundle(chart, N, hilbert_check_bound=cap)
    payload = {
        "command": "bb",
        "base": [{"name": n, "degree": _coords(d)} for n, d in res.base.vars],
        "fiber_rank": res.fiber_rank,
        "fiber_degrees": list(res.fiber_degrees),
        "hilbert_counts": list(res.hilbert_counts),
        "pi0_bijective": res.pi0_bijective,
        "certificate": list(res.certificate.covector),
    }
    lines = [
        "base: %s" % (", ".join(res.base.names()) or "(point)"),
        "fiber rank %d, degrees %s"
        % (res.fiber_rank, list(res.fiber_degrees) or "[]"),
        "hilbert counts: %s" % ", ".join(str(c) for c in res.hilbert_counts),
        "pi0 bijective: %s" % res.pi0_bijective,
    ]
    _emit(payload, as_json, lines)


@main.command("dilatation-check")
@input_opt
@monoid_opt
@json_opt
@guarded
def cmd_dilatation_check(path, monoid_json, as_json):
    """Two-path dilatation/attractor commutation on a free chart."""
    doc = load_problem(path)
    group = _group(doc)
    N = _monoid_arg(doc, group, monoid_json)
    setup = DilatationSetup(_free_chart(doc, group, "dilatation-check"),
                            tuple(doc.get("center", [])))
    rep = dilatation_attractor_check(setup, N)
    payload = {
        "command": "dilatation-check",
        "equal": rep.equal,
        "diff": list(rep.diff),
        "presentation": {
            "vars": [
                {"name": n, "degree": _coords(d)}
                for n, d in rep.dilate_then_attract.ring.vars
            ],
            "divided": list(rep.dilate_then_attract.divided),
        },
    }
    lines = ["commutation %s" % ("holds" if rep.equal else "FAILS")]
    lines.append("result: %s" % rep.dilate_then_attract.ring.describe())
    if rep.dilate_then_attract.divided:
        lines.append("divided: %s" % ", ".join(rep.dilate_then_attract.divided))
    for d in rep.diff:
        lines.append("diff: %s" % d)
    _emit(payload, as_json, lines)
    if not rep.equal:
        sys.exit(1)


if __name__ == "__main__":
    main()
