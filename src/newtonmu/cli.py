"""Command-line surface: JSON documents in, a single JSON report out.

Input documents carry either a support set (rational exponent vectors) or
polynomial terms with parameter-dependent coefficients.  Reports echo the
command, digest the inputs, and serialize every rational as an exact "p/q"
string.  Field order is fixed so identical invocations produce identical
bytes.  One writer, _jsonable, writes a result record (a convenience
report, a face verdict, an arc, a parameter comparison) as
{field: value} in its field order; only the apex certificates and the
resolution charts, whose report keys are not their fields, are written
by hand.

Exit codes: 0 success, 2 input error (usage errors included), 3
mathematical precondition failure, 4 budget exceeded, 5 internal
inconsistency (two independent computations of the same quantity
disagreed, a bug to report).

A command pays for its own work only.  The module imports the layers
that parsing, the reports and the exit codes need (geometry, polyhedra,
families, groebner); each _cmd_* imports the layers it runs when it
runs.  main builds the subparser of the command named first on the
command line, and the full parser only when no command is named there.
"""

import argparse
import hashlib
import json
import re
import sys
from fractions import Fraction

from .families import family
from .geometry import GeometryError, InternalConsistencyError, Record
from .groebner import DEFAULT_BUDGET, BudgetExceeded
from .polyhedra import (SupportError, added_vertices, convenience_report,
                        newton_polyhedron, support_set)

SCHEMA_VERSION = 1


class InputError(ValueError):
    """Malformed document or flags; maps to exit code 2."""


class InputDocument(Record):
    schema_version: int
    variables: tuple
    parameters: tuple
    support: object   # SupportSet, or None for term documents
    family: object    # DeformationFamily, or None for support documents


_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def _rational(value, where):
    if isinstance(value, bool) or isinstance(value, float):
        raise InputError(f"{where}: rationals must be integers or 'p/q' "
                         f"strings, not {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        # Fraction alone would also take decimals and exponents, and
        # "1e10000000" would build a ten-million-digit integer first
        if not _RATIONAL.fullmatch(value):
            raise InputError(f"{where}: cannot parse rational {value!r}: "
                             "expected an integer or a 'p/q' string")
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as e:
            raise InputError(f"{where}: cannot parse rational {value!r}: {e}")
    raise InputError(f"{where}: expected a rational, got {type(value).__name__}")


def _int_vector(value, length, where):
    if not isinstance(value, list) or len(value) != length:
        raise InputError(f"{where}: expected a list of {length} integers")
    out = []
    for v in value:
        if isinstance(v, bool) or not isinstance(v, int) or v < 0:
            raise InputError(f"{where}: exponents must be integers >= 0")
        out.append(v)
    return tuple(out)


def _names(value, key):
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise InputError(f"'{key}' must be a list of names")
    return tuple(value)


def parse_input(obj):
    """Validate a raw JSON object into an InputDocument."""
    if not isinstance(obj, dict):
        raise InputError("input document must be an object")
    if obj.get("schema_version") != SCHEMA_VERSION:
        raise InputError(f"schema_version must be {SCHEMA_VERSION}")
    variables = _names(obj.get("variables"), "variables")
    if not variables:
        raise InputError("'variables' must be nonempty")
    parameters = _names(obj.get("parameters", []), "parameters")
    n, m = len(variables), len(parameters)
    has_support = "support" in obj
    has_terms = "terms" in obj
    if has_support == has_terms:
        raise InputError("document needs exactly one of 'support' or 'terms'")

    if has_support:
        raw = obj["support"]
        if not isinstance(raw, list):
            raise InputError("'support' must be a list of vectors")
        points, seen = [], set()
        for k, vec in enumerate(raw):
            if not isinstance(vec, list) or len(vec) != n:
                raise InputError(f"support[{k}]: expected {n} coordinates")
            p = tuple(_rational(c, f"support[{k}]") for c in vec)
            if p in seen:
                raise InputError(f"support[{k}]: duplicate point {vec}")
            seen.add(p)
            points.append(p)
        try:
            s = support_set(n, points)
        except SupportError as e:
            raise InputError(str(e))
        return InputDocument(SCHEMA_VERSION, variables, parameters, s, None)

    raw = obj["terms"]
    if not isinstance(raw, list):
        raise InputError("'terms' must be a list")
    terms, seen = [], set()
    for k, rec in enumerate(raw):
        if not isinstance(rec, dict):
            raise InputError(f"terms[{k}]: expected an object")
        exp = _int_vector(rec.get("exponent"), n, f"terms[{k}].exponent")
        if exp in seen:
            raise InputError(f"terms[{k}]: duplicate exponent {list(exp)}")
        seen.add(exp)
        coeff = rec.get("coefficient")
        if not isinstance(coeff, list) or not coeff:
            raise InputError(f"terms[{k}].coefficient: expected a nonempty "
                             "list of {{s_exponent, value}} records")
        entries, seen_s = [], set()
        for j, ent in enumerate(coeff):
            where = f"terms[{k}].coefficient[{j}]"
            if not isinstance(ent, dict):
                raise InputError(f"{where}: expected an object")
            s_exp = _int_vector(ent.get("s_exponent"), m, f"{where}.s_exponent")
            if s_exp in seen_s:
                raise InputError(f"{where}: duplicate s_exponent")
            seen_s.add(s_exp)
            entries.append((s_exp, _rational(ent.get("value"), f"{where}.value")))
        terms.append((exp, tuple(entries)))
    try:
        fam = family(n, m, terms)
    except (SupportError, ValueError) as e:
        raise InputError(str(e))
    return InputDocument(SCHEMA_VERSION, variables, parameters, None, fam)


def input_to_json(doc):
    """Serialize an InputDocument back to its JSON object form."""
    out = {"schema_version": doc.schema_version,
           "variables": list(doc.variables),
           "parameters": list(doc.parameters)}
    if doc.support is not None:
        out["support"] = [[_fmt(c) for c in p] for p in doc.support.points]
    else:
        out["terms"] = [
            {"exponent": list(exp),
             "coefficient": [{"s_exponent": list(s), "value": _fmt(c)}
                             for s, c in coeff]}
            for exp, coeff in doc.family.terms]
    return out


def _fmt(x):
    return str(Fraction(x))


def _jsonable(x):
    """Recursive report serialization: Fractions become 'p/q' strings, and
    a Record becomes {field: value} in field order."""
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, (tuple, list)):
        return [_jsonable(v) for v in x]
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, Record):
        return _jsonable(dict(zip(x._fields, x._astuple(x))))
    if x is None or isinstance(x, (bool, int, str)):
        return x
    raise TypeError(f"cannot serialize {type(x).__name__}")


def _load_json(path, inputs):
    """The JSON value in the file at path; its path and sha256 go on
    inputs, in the order the files are read."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as e:
        raise InputError(f"cannot read {path}: {e}")
    try:
        obj = json.loads(data)
    except json.JSONDecodeError as e:
        raise InputError(f"{path}: line {e.lineno} column {e.colno}: {e.msg}")
    except (ValueError, RecursionError) as e:
        # bytes that are not UTF-8, an integer past the digit limit of
        # int(), or nesting past the recursion limit
        raise InputError(f"{path}: {e}")
    inputs.append({"path": path, "sha256": hashlib.sha256(data).hexdigest()})
    return obj


def _support_of(doc, command):
    """The support set a combinatorial command should operate on."""
    if doc.support is not None:
        return doc.support
    fam = doc.family
    try:
        if fam.n_params == 0:
            return fam.base().support()
        return fam.generic_support()
    except SupportError as e:
        raise InputError(f"{command}: {e}")


def _polynomial_of(doc, command):
    if doc.family is None or doc.parameters:
        raise InputError(f"{command} needs a 'terms' document without "
                         "parameters; coefficients matter here")
    return doc.family.base()


def _family_of(doc, command):
    if doc.family is None:
        raise InputError(f"{command} needs a 'terms' document")
    return doc.family


# --- report rendering -------------------------------------------------------

def _render(doc, indent=0, out=None):
    """Plain-text rendering of a report tree for --pretty: a dict or a
    list, whose nonempty dicts and lists nest."""
    top = out is None
    if top:
        out = []
    pad = "  " * indent
    if isinstance(doc, dict):
        for k, v in doc.items():
            if isinstance(v, (dict, list)) and v:
                out.append(f"{pad}{k}:")
                _render(v, indent + 1, out)
            else:
                out.append(f"{pad}{k}: {_render_leaf(v)}")
    else:
        for v in doc:
            if isinstance(v, (dict, list)) and v:
                out.append(f"{pad}-")
                _render(v, indent + 1, out)
            else:
                out.append(f"{pad}- {_render_leaf(v)}")
    if top:
        return "\n".join(out) + "\n"


def _render_leaf(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if v is None:
        return "null"
    if isinstance(v, (dict, list)):
        return "{}" if isinstance(v, dict) else "[]"
    return str(v)


def _emit(doc, pretty):
    if pretty:
        sys.stdout.write(_render(doc))
    else:
        sys.stdout.write(json.dumps(doc, indent=2) + "\n")
    for w in doc.get("warnings", ()):
        print(f"warning: {w}", file=sys.stderr)


def _polytope_json(support):
    np_ = newton_polyhedron(support)
    return {"vertices": _jsonable(np_.vertices)}


def _cone_matrices(fan):
    return [_jsonable(c.rays) for c in fan.maximal]


# --- commands ---------------------------------------------------------------
#
# Each command reads its files through load, which returns the JSON value
# of a file and records its digest, and returns (results, warnings);
# main writes the report.

def _cmd_nu(args, load):
    from .newton_number import newton_number_series, volume_vector_set
    s = _support_of(parse_input(load(args.file)), "nu")
    conv = convenience_report(s)
    warnings = []
    results = {"convenience": _jsonable(conv)}
    if conv.axis_convenient:
        vv = volume_vector_set(s)
        results["mode"] = "exact"
        results["nu"] = _fmt(vv.newton_number())
        results["volume_vector"] = _jsonable(vv.V)
    elif args.series:
        if args.cap < 1:
            raise InputError(f"--cap must be at least 1, got {args.cap}")
        series = newton_number_series(s, missing_axis_cap=args.cap)
        results["mode"] = "series"
        results["nu"] = _fmt(series.value)
        results["stabilized"] = series.stabilized
        results["tried_multiples"] = list(series.tried_m)
        results["augmented_axes"] = list(series.augmented_axes)
        if not series.stabilized:
            warnings.append("series did not stabilize: the value is only a "
                            "lower bound and the Newton number may be infinite")
    else:
        raise GeometryError(
            f"support has no point on axis {conv.missing_axes[0]}; exact "
            "Newton numbers need every axis covered (use --series)")
    if args.emit_polytope:
        results["polytope"] = _polytope_json(s)
    return results, warnings


def _certificate_json(cert):
    return {"alpha": _jsonable(cert.alpha),
            "axes": list(cert.axes),
            "i": cert.i,
            "beta": _jsonable(cert.beta),
            "good": cert.good,
            "good_pairs": [{"i": i, "beta": _jsonable(b)}
                           for i, b in cert.good_pairs]}


def _cmd_mu_test(args, load):
    from .apex import mu_constant_test
    base_doc = parse_input(load(args.base))
    def_doc = parse_input(load(args.deformed))
    if len(base_doc.variables) != len(def_doc.variables):
        raise InputError(
            f"mu-test: the base has {len(base_doc.variables)} variables, the "
            f"deformation {len(def_doc.variables)}")
    s = _support_of(base_doc, "mu-test")
    s_prime = _support_of(def_doc, "mu-test")
    res = mu_constant_test(s, s_prime)
    results = {
        "verdict": res.verdict,
        "nu_base": _fmt(res.nu_s),
        "nu_deformed": _fmt(res.nu_s_prime),
        "added_vertices": [_jsonable(a)
                           for a in added_vertices(s, s_prime)],
        "certificates": [_certificate_json(c) for c in res.certificates],
    }
    if args.emit_polytope:
        results["polytope"] = {"base": _polytope_json(s),
                               "deformed": _polytope_json(s_prime)}
    return results, res.warnings


def _cmd_resolve(args, load):
    from .resolution import simultaneous_resolution
    fam = _family_of(parse_input(load(args.file)), "resolve")
    res = simultaneous_resolution(fam, skip_smoothness=args.skip_smoothness,
                                  budget=args.budget)
    results = {
        "nu": _fmt(res.nu),
        "added_vertices": _jsonable(res.added_vertices),
        "fan": {"maximal_cones": _cone_matrices(res.fan)},
        "charts": [{"generators": _jsonable(c.cone.rays),
                    "m": [_fmt(e) for e in c.monomial_exponents],
                    "dual_vertex": _jsonable(c.dual_vertex),
                    "status": c.status,
                    "witness": {k: _jsonable(v) for k, v in c.witness}}
                   for c in res.charts],
        "counts": {k: v for k, v in res.status_counts},
        "nondegeneracy": res.nondegeneracy,
    }
    if args.emit_polytope:
        results["polytope"] = _polytope_json(fam.base().support())
    return results, res.warnings


def _cmd_fan(args, load):
    from .fans import is_regular_cone, newton_fan
    s = _support_of(parse_input(load(args.file)), "fan")
    fan = newton_fan(s)
    results = {"ambient_dim": fan.ambient_dim,
               "maximal_cones": _cone_matrices(fan),
               "simplicial": [c.is_simplicial for c in fan.maximal],
               "regular": [c.is_simplicial and is_regular_cone(c)
                           for c in fan.maximal]}
    if args.emit_polytope:
        results["polytope"] = _polytope_json(s)
    return results, []


def _cmd_regularize(args, load):
    from .fans import (is_regular_cone, newton_fan, regularize_fan,
                       simplicialize)
    s = _support_of(parse_input(load(args.file)), "regularize")
    fan = regularize_fan(simplicialize(newton_fan(s)))
    results = {"ambient_dim": fan.ambient_dim,
               "maximal_cones": _cone_matrices(fan),
               "count": len(fan.maximal),
               "all_unimodular": all(is_regular_cone(c) for c in fan.maximal)}
    if args.emit_polytope:
        results["polytope"] = _polytope_json(s)
    return results, []


def _cmd_milnor(args, load):
    from .milnor import milnor_number
    f = _polynomial_of(parse_input(load(args.file)), "milnor")
    return {"mu": str(milnor_number(f, budget=args.budget))}, []


def _cmd_nondeg(args, load):
    from .milnor import nondegeneracy_check, render_face
    f = _polynomial_of(parse_input(load(args.file)), "nondeg")
    rep = nondegeneracy_check(f, budget=args.budget)
    warnings = [f"face {render_face(fc.points)} unchecked: {fc.detail}"
                for fc in rep.faces if fc.status == "unchecked"]
    return {"verdict": rep.verdict, "faces": _jsonable(rep.faces)}, warnings


def _arc_orders(value, length, where):
    if not isinstance(value, list) or len(value) != length or any(
            isinstance(v, bool) or not isinstance(v, int) or v < 1
            for v in value):
        raise InputError(f"{where}: expected a list of {length} integers >= 1")
    return value


def _arc_coeffs(value, length, where):
    if value is None:
        return None
    if not isinstance(value, list) or len(value) != length:
        raise InputError(f"{where}: expected a list of {length} rationals")
    return [_rational(c, where) for c in value]


def _parse_arcs(obj, n, m):
    from .degenerate import monomial_arc
    if not isinstance(obj, list):
        raise InputError("arcs file must be a JSON list of arc records")
    arcs = []
    for k, rec in enumerate(obj):
        if not isinstance(rec, dict):
            raise InputError(f"arcs[{k}]: expected an object")
        where = f"arcs[{k}]"
        try:
            arcs.append(monomial_arc(
                _arc_orders(rec.get("x_orders"), n, f"{where}.x_orders"),
                _arc_orders(rec.get("s_orders", []), m, f"{where}.s_orders"),
                _arc_coeffs(rec.get("x_coeffs"), n, f"{where}.x_coeffs"),
                _arc_coeffs(rec.get("s_coeffs"), m, f"{where}.s_coeffs")))
        except SupportError as e:
            raise InputError(f"{where}: {e}")
    return arcs


def _cmd_valuative(args, load):
    from .degenerate import valuative_falsifier
    fam = _family_of(parse_input(load(args.file)), "valuative")
    arcs = _parse_arcs(load(args.arcs), fam.n_vars, fam.n_params)
    rep = valuative_falsifier(fam, arcs)
    out_arcs, warnings = [], []
    for k, v in enumerate(rep.arcs):
        out_arcs.append({"arc": _jsonable(v.arc), "verdict": v.verdict,
                         "comparisons": _jsonable(v.rows)})
        if v.verdict == "indeterminate":
            warnings.append(f"arc {k} is indeterminate: leading forms cancel")
    results = {"falsified": rep.falsified, "disclaimer": rep.disclaimer,
               "arcs": out_arcs}
    return results, warnings


def _cmd_b1d(args, load):
    from .degenerate import b1d_detector
    doc = parse_input(load(args.file))
    fam = _family_of(doc, "b1d")
    try:
        j_axes = tuple(int(a) for a in args.axes.split(","))
    except ValueError:
        raise InputError(f"--axes: expected comma-separated integers, got "
                         f"{args.axes!r}")
    bad = next((a for a in j_axes if not 1 <= a <= fam.n_vars), None)
    if bad is not None:
        raise InputError(f"--axes: axis {bad} is not in 1..{fam.n_vars}")
    res = b1d_detector(fam, j_axes)
    results = {"j_axes": sorted(set(j_axes)), "found": res.found,
               "i": res.i, "beta": _jsonable(res.beta)}
    warnings = []
    if res.found:
        results["restriction"] = None
    else:
        sub = res.restriction
        results["restriction"] = input_to_json(InputDocument(
            SCHEMA_VERSION, doc.variables, doc.parameters, None, sub))
        warnings.append("no pattern point: deciding the restricted family "
                        "is as hard as the original problem; rerun the "
                        "testers on the emitted restriction")
    return results, warnings


# --- entry point ------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Usage errors keep argparse's usage text on stderr and raise
    InputError, so they end in the JSON report like every other input
    error.  The subcommand parsers share this class.  A top-level parser
    built for one subcommand prints the full parser's usage, so its
    errors read as the full parser's do."""

    partial = False

    def error(self, message):
        (_build_parser() if self.partial else self).print_usage(sys.stderr)
        raise InputError(message)


_BUDGET = {"--budget": {"type": int, "default": DEFAULT_BUDGET}}

# name, command, help, positional arguments, options, and whether
# --emit-polytope applies.  A report's arguments are the positional
# arguments and options in this order (argparse fills the namespace in
# definition order).
_COMMANDS = (
    ("nu", _cmd_nu, "Newton number of a support set", ("file",), {
        "--series": {"action": "store_true", "help": "allow supports with "
                     "empty axes via the sup procedure"},
        "--cap": {"type": int, "default": 64, "help": "largest axis "
                  "multiple the sup procedure tries"}}, True),
    ("mu-test", _cmd_mu_test, "decide Newton number equality for a nested "
     "pair by the apex criterion", ("base", "deformed"), {}, True),
    ("resolve", _cmd_resolve, "simultaneous monomial resolution charts for "
     "a deformation family", ("file",),
     {"--skip-smoothness": {"action": "store_true"}, **_BUDGET}, True),
    ("fan", _cmd_fan, "dual Newton fan of a support set", ("file",), {},
     True),
    ("regularize", _cmd_regularize, "unimodular subdivision of the Newton "
     "fan", ("file",), {}, True),
    ("milnor", _cmd_milnor, "Milnor number at the origin", ("file",),
     _BUDGET, False),
    ("nondeg", _cmd_nondeg, "face-by-face nondegeneracy check", ("file",),
     _BUDGET, False),
    ("valuative", _cmd_valuative, "arc-based falsifier for the "
     "mu-constancy order inequality", ("file",),
     {"--arcs": {"required": True,
                 "help": "JSON list of monomial arc records"}}, False),
    ("b1d", _cmd_b1d, "scan for a Kronecker-pattern support point outside "
     "the J-axes", ("file",),
     {"--axes": {"required": True,
                 "help": "comma-separated 1-based axes of J"}}, False),
)

_NAMES = {c[0] for c in _COMMANDS}

# namespace entries that are not a report's arguments
_NOT_ARGUMENTS = ("command", "run", "pretty", "emit_polytope")


def _build_parser(command=None):
    """The parser of every subcommand, or of the named one only."""
    top = _Parser(
        prog="newtonmu",
        description="Newton polyhedra, Newton numbers, and mu-constancy "
                    "tools with exact rational arithmetic.")
    top.partial = command is not None
    sub = top.add_subparsers(dest="command", required=True)
    for name, run, help_, positionals, options, polytope in _COMMANDS:
        if command not in (None, name):
            continue
        p = sub.add_parser(name, help=help_)
        for dest in positionals:
            p.add_argument(dest)
        for flag, keywords in options.items():
            p.add_argument(flag, **keywords)
        p.add_argument("--pretty", action="store_true",
                       help="human-readable rendering instead of JSON")
        if polytope:
            p.add_argument("--emit-polytope", action="store_true",
                           help="include Newton polyhedron vertex lists")
        p.set_defaults(run=run)
    return top


_EXIT_CODES = ((InputError, 2, "input"), (SupportError, 3, "precondition"),
               (GeometryError, 3, "precondition"),
               (BudgetExceeded, 4, "budget"),
               (InternalConsistencyError, 5, "internal"))


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    # a command builds only its own subparser
    parser = _build_parser(argv[0] if argv and argv[0] in _NAMES else None)
    # the subcommand is recorded here before its own arguments are parsed
    args = argparse.Namespace(command=None)
    inputs = []
    try:
        parser.parse_args(argv, args)
        if getattr(args, "budget", 0) < 0:
            raise InputError(f"--budget must be at least 0, got {args.budget}")
        results, warnings = args.run(
            args, lambda path: _load_json(path, inputs))
        arguments = {k: v for k, v in vars(args).items()
                     if k not in _NOT_ARGUMENTS}
        code = 0
    except tuple(e for e, _, _ in _EXIT_CODES) as exc:
        code, kind = next((c, k) for e, c, k in _EXIT_CODES
                          if isinstance(exc, e))
        print(f"error: {exc}", file=sys.stderr)
        arguments, inputs, warnings = {}, [], []
        results = {"error": {"type": kind, "message": str(exc)}}
    _emit({"schema_version": SCHEMA_VERSION,
           "command": args.command,
           "arguments": arguments,
           "inputs": inputs,
           "results": results,
           "warnings": list(warnings)}, getattr(args, "pretty", False))
    return code


if __name__ == "__main__":
    sys.exit(main())
