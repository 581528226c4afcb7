"""Memoization lives on the inputs, never at module level.

A Newton polyhedron is memoized on its SupportSet instance (a cached
property, no dataclass field): one support gives one polyhedron object, an
equal fresh support builds its own, and the polyhedron is freed with its
support.  Hulls, triangulations and cone faces are not memoized at all, so
running every layer leaves each module-level dict of the package as it was.
"""

import gc
import importlib
import pkgutil
import weakref
from dataclasses import astuple, fields

import newtonmu
from newtonmu import fans, geometry, polyhedra
from newtonmu.apex import mu_constant_test
from newtonmu.fans import (cone_from_rays, is_admissible, newton_fan,
                           regularize_fan, simplicialize)
from newtonmu.geometry import convex_hull, triangulate_polytope
from newtonmu.newton_number import (difference_region, newton_number_series,
                                    union_volume_vector)
from newtonmu.polyhedra import SupportSet, newton_polyhedron, support_set
from corpus import bs_base_support, bs_deformed_support

# The benchmark's per-case cache reset (perfbench/build_pool.py) clears
# these names, so they stay bound to empty dicts until it stops naming them.
BENCHMARK_RESET_NAMES = {geometry: ("_hull_cache", "_tri_cache"),
                         polyhedra: ("_np_cache",),
                         fans: ("_section_cache", "_faces_cache")}

MISSING_AXIS = [(4, 0, 0), (0, 5, 0), (1, 0, 2), (0, 1, 3)]   # no z-axis


def _module_dicts():
    """Length of every module-level dict in the newtonmu modules."""
    out = {}
    for info in pkgutil.iter_modules(newtonmu.__path__):
        mod = importlib.import_module(f"newtonmu.{info.name}")
        for name, obj in vars(mod).items():
            if type(obj) is dict and not name.startswith("__"):
                out[info.name, name] = len(obj)
    return out


def test_polyhedron_is_memoized_on_its_support():
    s = bs_base_support()
    t = bs_base_support()
    np_s = newton_polyhedron(s)
    assert newton_polyhedron(s) is np_s
    np_t = newton_polyhedron(t)
    assert np_t is not np_s and np_t == np_s
    # the memo is no field: equality, hashing and astuple see dim and points
    assert s == t and hash(s) == hash(t) == hash((s.dim, s.points))
    assert astuple(s) == (s.dim, s.points)
    assert [f.name for f in fields(SupportSet)] == ["dim", "points"]
    assert not hasattr(SupportSet, "_hash")


def test_polyhedron_is_freed_with_its_support():
    s = support_set(3, MISSING_AXIS + [(2, 2, 2)])
    ref = weakref.ref(newton_polyhedron(s))
    assert ref() is not None
    del s
    gc.collect()    # support and polyhedron refer to each other
    assert ref() is None


def test_no_module_dict_grows():
    before = _module_dicts()
    s, sp = bs_base_support(), bs_deformed_support()
    assert mu_constant_test(s, sp).verdict
    assert difference_region(s, sp).simplices
    assert newton_number_series(support_set(3, MISSING_AXIS)).stabilized
    polys = [convex_hull([(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2)]),
             convex_hull([(1, 0, 0), (3, 0, 0), (1, 2, 0), (1, 1, 1)])]
    assert all(triangulate_polytope(p) for p in polys)
    assert union_volume_vector(polys, 3)
    fan = regularize_fan(simplicialize(newton_fan(sp)))
    assert is_admissible(fan, sp)
    assert len(cone_from_rays(3, [(1, 0, 0), (0, 1, 0), (1, 0, 1),
                                  (0, 1, 1)]).faces()) == 10
    assert _module_dicts() == before
    for mod, names in BENCHMARK_RESET_NAMES.items():
        for name in names:
            assert getattr(mod, name) == {}, name


def test_series_builds_one_polyhedron_per_multiple(monkeypatch):
    calls = []
    dual_facets = polyhedra._dual_facets

    def counted(*args, **kwargs):
        calls.append(args)
        return dual_facets(*args, **kwargs)

    monkeypatch.setattr(polyhedra, "_dual_facets", counted)
    res = newton_number_series(support_set(3, MISSING_AXIS))
    assert res.stabilized and res.value == 20
    assert len(calls) == len(res.tried_m) == 4
