"""Command-line frontend.

One subcommand per library area.  Input is a JSON problem file validated
against the shipped schema before anything is built; output is deterministic
text, canonical JSON with --json, or DOT where a diagram exists.  Exit codes:
0 success, 1 computation or identity failure, 2 schema/usage error,
3 resource limit.  The wire format is integers and rational strings, never
floats.
"""

from __future__ import annotations

import decimal
import json
import re
import sys
from fractions import Fraction
from functools import wraps
from importlib import resources

import click
import jsonschema

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


_MESSAGE_CHARS = 200


def load_problem(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh, parse_float=decimal.Decimal)  # 1.0 passes "integer", a Decimal does not
    except OSError as e:
        raise SchemaError("cannot read %s: %s" % (path, e.strerror))
    except (ValueError, RecursionError) as e:
        # malformed JSON, bytes that are not UTF-8, an integer past the
        # interpreter's digit limit, or nesting past the recursion limit
        raise SchemaError("not JSON: %s" % e, location=path)
    validator = jsonschema.Draft202012Validator(_schema())
    problems = sorted(
        validator.iter_errors(doc), key=lambda e: list(map(str, e.absolute_path))
    )
    if problems:
        first = problems[0]
        loc = "/".join(str(p) for p in first.absolute_path) or "(top level)"
        message = first.message  # echoes the offending value, however long
        if len(message) > _MESSAGE_CHARS:
            message = message[:_MESSAGE_CHARS] + "…"
        raise SchemaError(message, location=loc)
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


def _monoid_arg(doc, group, flag_value, key="monoid") -> Submonoid:
    if flag_value is not None:
        gens = _flag_vectors(flag_value, "monoid", group.coord_count,
                             "--monoid must be a list of integer vectors", nested=True)
        return Submonoid.generated_by(group, gens)
    if key in doc:
        return _file_monoid(group, doc[key])
    raise SchemaError(
        'no monoid given: add a "%s" block or pass --monoid' % key, location=key
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


def _emit(payload: dict, as_json: bool, lines: list):
    if as_json:
        click.echo(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for line in lines:
            click.echo(line)


def guarded(fn):
    @wraps(fn)
    def inner(*args, **kwargs):
        try:
            fn(*args, **kwargs)
        except SchemaError as e:
            where = " at %s" % e.location if e.location else ""
            click.echo("schema error%s: %s" % (where, e), err=True)
            sys.exit(2)
        except ResourceLimitError as e:
            click.echo("resource limit: %s" % e, err=True)
            sys.exit(3)
        except MagnetError as e:
            click.echo("error: %s" % e, err=True)
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
    payload = {
        "command": "magnets",
        "count": len(poset),
        "magnets": [_monoid_json(m) for m in poset.magnets()],
        "poset": poset.to_json_dict(),
    }
    if dot_path:
        with open(dot_path, "w") as fh:
            fh.write(poset.to_dot())
        payload["dot_file"] = dot_path
        lines.append("dot: %s" % dot_path)
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


def _parse_simple_roots(datum, text):
    if text is None:
        return None
    text = text.strip()
    if text in ("", "none"):
        return ()
    out = []
    for token in text.split(","):
        token = token.strip()
        match = re.fullmatch(r"a([1-9][0-9]*)", token)
        if not match:
            raise SchemaError(
                "simple roots are named a1, a2, ...; got %r" % token, location="--roots"
            )
        index = int(match.group(1)) - 1
        if index >= len(datum.rootsystem.basis):
            raise SchemaError("no simple root %r in this type" % token, location="--roots")
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
        zeta = _parse_simple_roots(datum, parabolic_spec)
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
        zeta = _parse_simple_roots(datum, levi_spec)
        L = levi(datum, zeta)
        payload.update(
            {
                "levi_dim": L.dim,
                "levi_roots": sorted(_coords(r) for r in L.roots),
            }
        )
        lines.append("type %s, zeta %s: L: %d" % (type_name, levi_spec, L.dim))
    elif xi_spec is not None or zeta_spec is not None:
        xi = _parse_simple_roots(datum, xi_spec or "")
        zeta = _parse_simple_roots(datum, zeta_spec or "")
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


def _module_from_weights(doc, group) -> GradedFreeModule:
    if "weights" not in doc:
        raise SchemaError('cohomology needs a "weights" block', location="weights")
    lines = []
    for i, w in enumerate(doc["weights"]):
        label = w.get("label", "w%d" % i)
        mult = w.get("mult", 1)
        deg = _split_degree(group, w)
        if mult == 1:
            lines.append((label, deg))
        else:
            lines += [("%s_%d" % (label, j), deg) for j in range(mult)]
    return GradedFreeModule(group, tuple(lines))


def _cochain_from_doc(doc, group, module) -> Cochain:
    block = doc["cochain"]
    entries = []
    for entry in block["entries"]:
        key = tuple(group.element(a) for a in entry["args"])
        value = module.element(
            {name: Fraction(s) for name, s in entry["value"].items()}
        )
        entries.append((key, value))
    return Cochain(module, block["arity"], tuple(entries))


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
        cocycle = is_cocycle(xi) if xi.arity < 3 else None
        payload["cocycle"] = cocycle
        lines.append("cocycle: %s" % cocycle)
        if xi.arity == 1:
            p = primitive(xi)()
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
    charts = _named_charts(doc, group)
    if len(charts) != 1 or not isinstance(charts[0][1], FreePoly):
        raise SchemaError(
            "bb needs exactly one free chart", location="chart"
        )
    cap = bound if bound is not None else doc.get("command-options", {}).get("bound", 8)
    res = bb_bundle(charts[0][1], N, hilbert_check_bound=cap)
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
    charts = _named_charts(doc, group)
    if len(charts) != 1 or not isinstance(charts[0][1], FreePoly):
        raise SchemaError("dilatation-check needs exactly one free chart", location="chart")
    setup = DilatationSetup(charts[0][1], tuple(doc.get("center", [])))
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
