"""Build a workload's case pool with recorded, cross-checked answers.

    PYTHONPATH=src python3 perfbench/build_pool.py <workload>

writes perfbench/pool/<workload>.json.  The pool is drawn from a fixed
generator seed.  Each case runs cold (the library's module caches cleared
first), under an alarm; its build time is the least of three runs.  Cases
whose first run is slower than the admission limit are not admitted; they are kept under "excluded" with their time, so what the
timed workload leaves out stays visible.  Admitted answers are checked
against references that do not share the code path they check:

- mu_sweep: the verdict agrees with nu equality, the difference region
  agrees with nu(S) - nu(S'), an interior point strictly lowers nu, the
  planar staircase oracle gives nu for n = 2, and for n = 3 Kouchnirenko
  (mu = nu for a nondegenerate germ on S) via the Groebner oracle;
- fan_regularize: every output cone is unimodular by an integer
  determinant written here;
- milnor_oracle: closed forms prod(a_i - 1) for Brieskorn-Pham and
  p + q + r - 1 for T_pqr, Kouchnirenko (mu = nu) on nondegenerate germs,
  and sympy's Groebner basis when sympy is installed;
- cli_cold: three runs give byte-identical stdout and exit 0.

Each case carries its group (family); a timed round takes one case from
every group, and the build times let the runner spread each run's draw over
a group's whole cost range.
"""

import argparse
import itertools
import json
import os
import platform
import random
import signal
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import cases  # noqa: E402
from newtonmu import fans, geometry, polyhedra  # noqa: E402
from newtonmu.milnor import milnor_number, nondegeneracy_check  # noqa: E402
from newtonmu.newton_number import newton_number_set  # noqa: E402
from newtonmu.polyhedra import newton_polyhedron, support_set  # noqa: E402


class Cap(Exception):
    pass


def _alarm(signum, frame):
    raise Cap()


def clear_caches():
    for cache in (geometry._hull_cache, geometry._tri_cache,
                  polyhedra._np_cache, fans._section_cache,
                  fans._faces_cache):
        cache.clear()


def cold_run(fn, case, cap):
    """(seconds, answer) of one cold run, or (None, None) past the cap."""
    clear_caches()
    signal.setitimer(signal.ITIMER_REAL, cap)
    t0 = time.perf_counter()
    try:
        answer = fn(case)
    except Cap:
        return None, None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return time.perf_counter() - t0, answer


def timed(fn, case, cap, admit):
    """(seconds, answer): the least of three cold runs, whose answers must
    agree; the answer is None when the first run passes the cap or the
    admission limit.  The least time is the one a slow spell of the host
    inflates least, and the runner sorts cases by it."""
    t, answer = cold_run(fn, case, cap)
    if t is None or t > admit:
        return t, None
    for _ in range(2):
        again_t, again = cold_run(fn, case, cap)
        assert again == answer, case
        t = min(t, again_t)
    return t, answer


def with_cap(cap, fn, *args):
    """fn(*args), or None past the cap."""
    signal.setitimer(signal.ITIMER_REAL, cap)
    try:
        return fn(*args)
    except Cap:
        return None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


# --- independent references --------------------------------------------------

def nu_2d_staircase(points):
    """Planar Newton number 2*V2 - V1 + 1 from the lower convex chain of the
    minimal points; no call into the package."""
    pts = sorted({tuple(Fraction(c) for c in p) for p in points})
    x_int = min(p[0] for p in pts if p[1] == 0)
    y_int = min(p[1] for p in pts if p[0] == 0)
    minimal = [p for p in pts
               if not any(q != p and q[0] <= p[0] and q[1] <= p[1]
                          for q in pts)]
    chain = []
    for p in minimal:
        while len(chain) >= 2:
            (ox, oy), (ax, ay) = chain[-2], chain[-1]
            if (ax - ox) * (p[1] - oy) - (ay - oy) * (p[0] - ox) <= 0:
                chain.pop()
            else:
                break
        chain.append(p)
    area = sum((x2 - x1) * (y1 + y2) / 2
               for (x1, y1), (x2, y2) in zip(chain, chain[1:]))
    return 2 * area - (x_int + y_int) + 1


def int_det(rows):
    """Integer determinant by fraction-free (Bareiss) elimination."""
    m = [list(r) for r in rows]
    n, sign, prev = len(m), 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def sympy_mu(terms, n, trunc):
    """dim Q[x]/(J(f) + (x_i^trunc)) by sympy's grevlex Groebner basis:
    the standard monomials form an order ideal, counted axis by axis."""
    import sympy
    xs = sympy.symbols(f"x0:{n}")
    f = sum(sympy.Rational(str(c)) * sympy.prod([x ** e for x, e in zip(xs, ex)])
            for ex, c in terms)
    gens = [sympy.diff(f, x) for x in xs] + [x ** trunc for x in xs]
    basis = sympy.groebner(gens, *xs, order="grevlex")
    leads = [sympy.Poly(g, *xs).monoms(order="grevlex")[0] for g in basis.exprs]

    def standard(mono):
        return not any(all(a >= b for a, b in zip(mono, lead))
                       for lead in leads)

    def count(prefix):
        if len(prefix) == n:
            return 1
        total, e = 0, 0
        while standard(prefix + (e,) + (0,) * (n - len(prefix) - 1)):
            total += count(prefix + (e,))
            e += 1
        return total
    return count(())


def kouchnirenko(points, n, rng, cap):
    """True when mu = nu for a random-coefficient germ on the support that
    is nondegenerate, None when undecided (degenerate or over the cap)."""
    if any(sum(p) == 1 for p in points):
        return None      # smooth at the origin
    terms = [(tuple(int(c) for c in p), rng.choice([1, 2, 3, -1, 5]))
             for p in points]
    f = cases.germ({"n": n, "terms": terms})

    def check():
        if nondegeneracy_check(f).verdict != "nondegenerate":
            return None
        return milnor_number(f) == newton_number_set(support_set(n, points))
    return with_cap(cap, check)


# --- generators ----------------------------------------------------------------

def convenient_support(rng, n, max_intercept, extra):
    pts = {tuple(rng.randint(2, max_intercept) if j == i else 0
                 for j in range(n)) for i in range(n)}
    while len(pts) < n + extra:
        p = tuple(rng.randint(0, 4) for _ in range(n))
        if any(p):
            pts.add(p)
    return sorted(pts)


def boundary_point(rng, s, box=7):
    """A new lattice point on the hyperplane of a random compact facet."""
    facets = list(newton_polyhedron(s).compact_facets())
    rng.shuffle(facets)
    existing = {tuple(int(c) for c in p) for p in s.points}
    for nrm, off, _ in facets:
        cands = [p for p in itertools.product(range(box + 1), repeat=s.dim)
                 if any(p) and p not in existing
                 and sum(a * b for a, b in zip(nrm, p)) == off]
        if cands:
            return cands[rng.randrange(len(cands))]
    return None


def interior_point(rng, s, box=4):
    """A strictly positive lattice point strictly under the boundary."""
    np_ = newton_polyhedron(s)
    cands = [p for p in itertools.product(range(1, box + 1), repeat=s.dim)
             if not np_.contains(p)]
    return cands[rng.randrange(len(cands))] if cands else None


def split_lanes(admitted, groups, k):
    """Deal each named group, in build-time order, into k groups of the same
    cost range, so a round takes k of its cases."""
    for group in groups:
        members = sorted((c for c in admitted if c["group"] == group),
                         key=lambda c: c["t_build"])
        for i, case in enumerate(members):
            case["group"] = f"{group}-{i % k}"


# --- workloads -------------------------------------------------------------------

MU_SIZES = {2: (2, 4, 6), 3: (1, 2, 3), 4: (0, 1, 2)}


def build_mu_sweep(rng, per_group, admit, cap):
    admitted, excluded = [], []
    for n, extras in MU_SIZES.items():
        for extra, kind in itertools.product(extras, ("boundary", "interior")):
            got = 0
            while got < per_group:
                pts = convenient_support(rng, n, 5, extra)
                s = support_set(n, pts)
                alpha = (boundary_point if kind == "boundary"
                         else interior_point)(rng, s)
                if alpha is None:
                    continue
                case = {"group": f"n{n}-x{extra}", "n": n, "extra": extra,
                        "kind": kind,
                        "s": [list(p) for p in pts],
                        "sp": [list(p) for p in sorted({*pts, alpha})]}
                if any(c["s"] == case["s"] and c["sp"] == case["sp"]
                       for c in admitted):
                    continue
                t, answer = timed(cases.mu_sweep, case, cap, admit)
                if answer is None:
                    excluded.append({**case, "t_build": t,
                                     "reason": "over cap" if t is None
                                     else "over admission limit"})
                    continue
                check_mu(case, answer, rng)
                admitted.append({**case, "t_build": round(t, 4),
                                 "expect": answer})
                got += 1
            print(n, extra, kind, got, flush=True)
    # four lanes per n = 2 group make the run's median case a planar one;
    # their times hardly move with the host's slow spells, which stretch
    # the n = 3 and n = 4 cases by up to 1.5x and would decide the median
    split_lanes(admitted, ("n2-x2", "n2-x4", "n2-x6"), 4)
    return admitted, excluded


def check_mu(case, answer, rng):
    nu_s, nu_sp = Fraction(answer["nu_s"]), Fraction(answer["nu_sp"])
    assert answer["verdict"] == (nu_s == nu_sp), case
    assert Fraction(answer["diff"]) == nu_s - nu_sp, case
    if case["kind"] == "interior":
        assert not answer["verdict"] and nu_sp < nu_s, case
    refs = []
    if case["n"] == 2:
        assert nu_2d_staircase(case["s"]) == nu_s, case
        assert nu_2d_staircase(case["sp"]) == nu_sp, case
        refs.append("staircase")
    elif case["n"] == 3:
        ok = kouchnirenko(case["s"], 3, rng, 3.0)
        assert ok is not False, case
        if ok:
            refs.append("kouchnirenko")
    case["refs"] = refs


def build_fan_regularize(rng, count, admit, cap):
    admitted, excluded, seen = [], [], set()

    def consider(pts, group):
        key = tuple(map(tuple, pts))
        if key in seen:
            return
        seen.add(key)
        case = {"group": group, "s": [list(p) for p in pts]}
        t, answer = timed(cases.fan_regularize, case, cap, admit)
        if answer is None:
            excluded.append({**case, "t_build": t,
                             "reason": "over cap" if t is None
                             else "over admission limit"})
            return
        s = support_set(3, pts)
        fan = fans.regularize_fan(fans.simplicialize(fans.newton_fan(s)))
        assert all(abs(int_det([[int(x) for x in r] for r in c.rays])) == 1
                   for c in fan.maximal), case
        admitted.append({**case, "t_build": round(t, 4), "expect": answer,
                         "refs": ["unimodular"]})

    for abc in itertools.combinations_with_replacement(range(2, 7), 3):
        before = len(admitted)
        for perm in sorted(set(itertools.permutations(abc))):
            consider([[e if j == i else 0 for j in range(3)]
                      for i, e in enumerate(perm)], "brieskorn")
            if len(admitted) == before:
                break    # the other orders of an excluded ladder rung
    while sum(c["group"] == "random" for c in admitted) < count:
        consider(convenient_support(rng, 3, 5, 2), "random")
    # three random cases per Brieskorn case in a round: the Brieskorn costs
    # bunch by exponent triple, the random ones spread smoothly
    split_lanes(admitted, ("random",), 3)
    return admitted, excluded


def build_milnor_oracle(rng, count, admit, cap):
    admitted, excluded, seen = [], [], set()

    def consider(terms, group, closed_form=None):
        key = tuple(map(tuple, (e for e, _ in terms))), tuple(
            c for _, c in terms)
        if key in seen:
            return
        seen.add(key)
        case = {"group": group, "n": 3,
                "terms": [[list(e), c] for e, c in terms]}
        t, answer = timed(cases.milnor_oracle, case, cap, admit)
        if answer is None:
            excluded.append({**case, "t_build": t,
                             "reason": "over cap" if t is None
                             else "over admission limit"})
            return
        refs = []
        if closed_form is not None:
            assert answer["mu"] == closed_form, case
            refs.append("closed form")
        if answer["nondeg"] == "nondegenerate":
            nu = newton_number_set(support_set(3, [e for e, _ in terms]))
            assert nu == answer["mu"], case
            refs.append("kouchnirenko")
        mu_sympy = (with_cap(5.0, sympy_mu, terms, 3, answer["mu"] + 1)
                    if group == "perturbed" else None)
        if mu_sympy is not None:
            assert mu_sympy == answer["mu"], case
            refs.append("sympy")
        admitted.append({**case, "t_build": round(t, 4), "expect": answer,
                         "refs": refs})

    def axis_terms(e):
        return [(tuple(e[j] if k == j else 0 for k in range(3)), 1)
                for j in range(3)]

    for abc in itertools.product(range(3, 9), repeat=3):
        if abc[0] <= abc[1] <= abc[2] or rng.random() < 0.25:
            consider(axis_terms(abc), "bp",
                     (abc[0] - 1) * (abc[1] - 1) * (abc[2] - 1))
    for pqr in itertools.product(range(3, 9), repeat=3):
        if sum(Fraction(1, x) for x in pqr) < 1 and rng.random() < 0.5:
            consider(axis_terms(pqr) + [((1, 1, 1), 1)], "t", sum(pqr) - 1)
    while sum(c["group"] == "perturbed" for c in admitted) < count:
        e = [rng.randint(3, 6) for _ in range(3)]
        terms = dict(axis_terms(e))
        for _ in range(rng.randint(2, 3)):
            m = tuple(rng.randint(0, 3) for _ in range(3))
            if sum(m) >= 2 and m not in terms:
                terms[m] = rng.choice([1, -1, 2, 3])
        consider(sorted(terms.items()), "perturbed")
    return admitted, excluded


def build_cli_cold(rng, count, admit, cap):
    docs = os.path.join(HERE, "..", ".perfbench", "build-docs")
    cases.write_cli_documents(docs)
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(HERE),
                                                   "src"))
    admitted = []
    for name, argv in cases.CLI_COMMANDS.items():
        runs = []
        for _ in range(3):
            t0 = time.perf_counter()
            answer = cases.cli_process(argv, docs, env, cap)
            runs.append((time.perf_counter() - t0, answer))
        answers = [a for _, a in runs]
        assert all(a == answers[0] for a in answers), name
        assert answers[0]["exit"] == 0, name
        t = min(t for t, _ in runs)
        assert t <= admit, name
        admitted.append({"group": name, "argv": argv,
                         "t_build": round(t, 4), "expect": answers[0],
                         "refs": ["byte-identical x3"]})
    return admitted, []


GENERATOR_SEED = 20010316

BUILDERS = {
    # workload: (builder, size, admission limit s, build cap s)
    "mu_sweep": (build_mu_sweep, 30, 2.0, 20.0),
    "fan_regularize": (build_fan_regularize, 120, 1.5, 8.0),
    "milnor_oracle": (build_milnor_oracle, 120, 1.5, 8.0),
    "cli_cold": (build_cli_cold, 0, 5.0, 60.0),
}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workload", choices=sorted(BUILDERS))
    args = ap.parse_args()
    build, size, admit, cap = BUILDERS[args.workload]
    signal.signal(signal.SIGALRM, _alarm)
    rng = random.Random(f"{args.workload}-{GENERATOR_SEED}")
    t0 = time.perf_counter()
    admitted, excluded = build(rng, size, admit, cap)
    for i, case in enumerate(admitted):
        case["id"] = f"{args.workload[:3]}{i:04d}"
    pool = {"workload": args.workload, "generator_seed": GENERATOR_SEED,
            "admission_limit_s": admit, "build_cap_s": cap,
            "built_with": {"python": platform.python_version(),
                           "nproc": os.cpu_count()},
            "build_s": round(time.perf_counter() - t0, 1),
            "cases": admitted, "excluded": excluded}
    os.makedirs(os.path.join(HERE, "pool"), exist_ok=True)
    with open(os.path.join(HERE, "pool", f"{args.workload}.json"), "w") as fh:
        json.dump(pool, fh, indent=0)
        fh.write("\n")
    print(f"{args.workload}: {len(admitted)} admitted, {len(excluded)} "
          f"excluded, {pool['build_s']} s", flush=True)


if __name__ == "__main__":
    main()
