"""The public calls each workload makes on one case, and their answers.

An answer is a small JSON value, so the pool can record the expected one
and the runner can compare with plain equality.  This module imports
newtonmu; only the timed worker and the pool builder import it.
"""

import hashlib
import json
import os
import subprocess
import sys

from newtonmu.apex import mu_constant_test
from newtonmu.families import spoly
from newtonmu.fans import newton_fan, regularize_fan, simplicialize
from newtonmu.milnor import milnor_number, nondegeneracy_check
from newtonmu.newton_number import difference_region, newton_number_region
from newtonmu.polyhedra import support_set


def mu_sweep(case):
    n = case["n"]
    s = support_set(n, [tuple(p) for p in case["s"]])
    sp = support_set(n, [tuple(p) for p in case["sp"]])
    res = mu_constant_test(s, sp)
    diff = newton_number_region(difference_region(s, sp))
    return {"verdict": res.verdict, "nu_s": str(res.nu_s),
            "nu_sp": str(res.nu_s_prime), "diff": str(diff)}


def fan_regularize(case):
    s = support_set(3, [tuple(p) for p in case["s"]])
    fan = regularize_fan(simplicialize(newton_fan(s)))
    rays = json.dumps([[[str(x) for x in r] for r in c.rays]
                       for c in fan.maximal], separators=(",", ":"))
    return {"cones": len(fan.maximal),
            "digest": hashlib.sha256(rays.encode()).hexdigest()}


def germ(case):
    return spoly(case["n"], [(tuple(e), c) for e, c in case["terms"]])


def milnor_oracle(case):
    f = germ(case)
    mu = milnor_number(f)
    report = nondegeneracy_check(f)
    return {"mu": mu, "nondeg": report.verdict, "faces": len(report.faces)}


# --- cli_cold: fresh `python -m newtonmu.cli` processes on the
# Briancon-Speder documents x^5 + y^7 z + z^15 + y^8 (+ s x y^6) --------------

def _terms(monomials, s_exponent):
    return [{"exponent": list(e),
             "coefficient": [{"s_exponent": list(s), "value": "1"}]}
            for e, s in zip(monomials, s_exponent)]


_BS = [(5, 0, 0), (0, 7, 1), (0, 0, 15), (0, 8, 0)]

CLI_DOCUMENTS = {
    "base.json": {"schema_version": 1, "variables": ["x", "y", "z"],
                  "parameters": [],
                  "support": [[str(c) for c in p] for p in _BS]},
    "fam.json": {"schema_version": 1, "variables": ["x", "y", "z"],
                 "parameters": ["s"],
                 "terms": _terms(_BS + [(1, 6, 0)], [(0,)] * 4 + [(1,)])},
    "poly.json": {"schema_version": 1, "variables": ["x", "y", "z"],
                  "parameters": [], "terms": _terms(_BS, [()] * 4)},
    "arcs.json": [{"x_orders": [1, 1, 1], "s_orders": [1]}],
}

CLI_COMMANDS = {
    "nu": ["nu", "base.json"],
    "nu-emit-polytope": ["nu", "base.json", "--emit-polytope"],
    "mu-test": ["mu-test", "base.json", "fam.json"],
    "resolve": ["resolve", "fam.json"],
    "fan": ["fan", "base.json"],
    "regularize": ["regularize", "base.json"],
    "milnor": ["milnor", "poly.json"],
    "nondeg": ["nondeg", "poly.json"],
    "valuative": ["valuative", "fam.json", "--arcs", "arcs.json"],
    "b1d": ["b1d", "fam.json", "--axes", "1,2"],
}


def write_cli_documents(directory):
    os.makedirs(directory, exist_ok=True)
    for name, doc in CLI_DOCUMENTS.items():
        with open(os.path.join(directory, name), "w") as fh:
            json.dump(doc, fh)


def cli_process(argv, docs_dir, env, timeout, tracer_out=None):
    """Run one CLI command in a fresh interpreter, cwd at the documents so
    the report names them by relative path.  With tracer_out the child
    runs under the span recorder and writes its spans there."""
    if tracer_out is None:
        cmd = [sys.executable, "-m", "newtonmu.cli"] + argv
    else:
        here = os.path.dirname(os.path.abspath(__file__))
        cmd = [sys.executable, os.path.join(here, "tracing.py"), tracer_out,
               "--"] + argv
    proc = subprocess.run(cmd, cwd=docs_dir, env=env, capture_output=True,
                          timeout=timeout)
    return {"exit": proc.returncode,
            "stdout_sha256": hashlib.sha256(proc.stdout).hexdigest()}


RUNNERS = {"mu_sweep": mu_sweep, "fan_regularize": fan_regularize,
           "milnor_oracle": milnor_oracle}
