"""The command line's error contract, under a seeded fuzz of main.

Each seed runs one of the nine commands, in this process, on the
Briancon-Speder golden documents of test_cli with values dropped,
retyped, renumbered or duplicated, the origin added, six more variables,
a mutated arcs file, a file no JSON reader decodes, or mutated flags.
Every run must end in an exit code in {0, 2, 3, 4, 5} with exactly one
JSON report on stdout, whose six top-level keys are the report's, whose
error type names the exit code, and no traceback on stderr.

New numbers stay at 12 or below: regularize has no budget yet, and a
support such as x + y^(10^9) would run without bound.
"""

import copy
import json
import random

from newtonmu.cli import main
from test_cli import GOLDEN_DOCUMENTS

SEEDS = 200

ERROR_TYPES = {0: None, 2: "input", 3: "precondition", 4: "budget",
               5: "internal"}

REPORT_KEYS = ["schema_version", "command", "arguments", "inputs",
               "results", "warnings"]

# every command on the golden documents, under --budget 50 where it has one
COMMANDS = (
    ["nu", "base.json"],
    ["mu-test", "base.json", "fam.json"],
    ["resolve", "fam.json", "--budget", "50"],
    ["fan", "base.json"],
    ["regularize", "base.json"],
    ["milnor", "poly.json", "--budget", "50"],
    ["nondeg", "poly.json", "--budget", "50"],
    ["valuative", "fam.json", "--arcs", "arcs.json"],
    ["b1d", "fam.json", "--axes", "1,2"],
)

# bytes that are not UTF-8, an integer past the digit limit of int(), and
# nesting past the recursion limit
UNDECODABLE = (b"\xff", b"[" + b"7" * 5000 + b"]", b"[" * 200000)

JUNK = (1.5, 0.0, True, False, None, "x", "1/0", "1e5", "1.5", [], {})


def _paths(value, path=()):
    yield path, value
    if isinstance(value, dict):
        for key, v in value.items():
            yield from _paths(v, path + (key,))
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from _paths(v, path + (i,))


def mutate(rng, doc):
    """doc with one value, the whole document included, dropped,
    retyped or duplicated, or one number or string renumbered."""
    step = rng.choice(("drop", "retype", "number", "number", "number",
                       "duplicate"))
    path, _ = rng.choice([(p, v) for p, v in _paths(doc) if not p
                          or step != "number"
                          or not isinstance(v, (dict, list))])
    if not path:
        return rng.choice(JUNK)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    last = path[-1]
    if step == "drop":
        del parent[last]
    elif step == "number":
        parent[last] = rng.choice((
            rng.randint(0, 12), rng.randint(0, 12), -1,
            f"{rng.randint(0, 12)}/{rng.randint(1, 3)}"))
    elif step == "duplicate" and isinstance(parent, list):
        parent.insert(last, copy.deepcopy(parent[last]))
    else:
        parent[last] = rng.choice(JUNK)
    return doc


def reshape(rng, doc):
    """doc with the origin added, or with nine variables."""
    if rng.random() < 0.5:
        if "support" in doc:
            doc["support"].append(["0", "0", "0"])
        else:
            doc["terms"].append({"exponent": [0, 0, 0], "coefficient": [
                {"s_exponent": [0] * len(doc["parameters"]), "value": "1"}]})
    else:
        doc["variables"] += [f"x{i}" for i in range(4, 10)]
        for point in doc.get("support", []):
            point += ["0"] * 6
        for term in doc.get("terms", []):
            term["exponent"] += [0] * 6
    return doc


def mutate_flags(rng, argv):
    """argv with an unknown flag, without its first positional argument,
    or with an option the command takes set out of range."""
    steps = ["unknown", "missing"]
    if "--budget" in argv:
        steps.append("budget")
    if argv[0] == "nu":
        steps.append("cap")
    if argv[0] == "b1d":
        steps.append("axes")
    if argv[0] in ("nu", "mu-test", "resolve", "fan", "regularize"):
        steps.append("polytope")
    step = rng.choice(steps)
    if step == "unknown":
        argv.insert(rng.randint(1, len(argv)), "--bogus")
    elif step == "missing":
        del argv[1:2]
    elif step == "budget":
        argv += ["--budget", "-1"]
    elif step == "cap":
        argv += ["--series", "--cap", "0"]
    elif step == "axes":
        argv += ["--axes", rng.choice(("x", "", "0", "4", "-1", "1,,2"))]
    else:
        argv.append("--emit-polytope")
    return argv


def fuzz_case(k):
    """Seed k's command line and the bytes of the files in its directory."""
    rng = random.Random(k)
    argv = list(COMMANDS[k % len(COMMANDS)])
    docs = copy.deepcopy(GOLDEN_DOCUMENTS)
    names = [a for a in argv if a in docs]
    undecodable = {}
    if k % 10 == 0:
        undecodable[rng.choice(names)] = UNDECODABLE[k // 10 % 3]
    else:
        if rng.random() < 0.3:
            name = rng.choice([n for n in names if n != "arcs.json"])
            docs[name] = reshape(rng, docs[name])
        for _ in range(rng.choice((1, 1, 2))):
            if rng.random() < 0.8:
                name = rng.choice(names)
                docs[name] = mutate(rng, docs[name])
            else:
                argv = mutate_flags(rng, argv)
    files = {name: json.dumps(doc).encode() for name, doc in docs.items()}
    return argv, {**files, **undecodable}


def test_main_keeps_the_error_contract(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for k in range(SEEDS):
        argv, files = fuzz_case(k)
        for name, data in files.items():
            (tmp_path / name).write_bytes(data)
        where = f"seed {k}: newtonmu {' '.join(argv)}"
        try:
            code = main(argv)
        except (Exception, SystemExit) as exc:
            raise AssertionError(f"{where} raised {exc!r}") from exc
        out, err = capsys.readouterr()
        assert code in ERROR_TYPES, where
        report = json.loads(out)
        assert list(report) == REPORT_KEYS, where
        error = report["results"].get("error", {})
        assert error.get("type") == ERROR_TYPES[code], where
        assert "Traceback" not in err, where
