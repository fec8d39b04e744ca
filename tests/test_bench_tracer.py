"""The benchmark's tracer (``bench/tracer.py``) still installs on the library.

The tracer wraps methods it looks up in the class bodies of matsim
(``vars(owner)[attr]``), so a refactor that moves one of them into a base
class would first break the benchmark's traced pass.  Its count of
``is_principal``'s box points reads ``den_scalar()`` and ``norm_index()`` of
every ideal, so a traced slot cycle of ``ideal_lattice`` guards those.  The
tracer and the workloads are read and executed here without importing them
as modules, so nothing is written under ``bench/``.
"""

import importlib
import types
from pathlib import Path

from matsim.rings import QuadExt, ZLoc

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
WORKLOADS = TRACER.with_name("workloads.py")


def _load(path, name):
    mod = types.ModuleType(name)
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), mod.__dict__)
    return mod


def _load_tracer():
    return _load(TRACER, "bench_tracer")


def test_tracer_sites_resolve_and_install():
    tracer = _load_tracer()
    sites = [site for group in tracer.METHODS.values() for site in group] + tracer.RESIDUE_METHODS
    owners = {}
    for mod, cls, attr in sites:
        owner = getattr(importlib.import_module(f"matsim.{mod}"), cls)
        assert attr in vars(owner), f"{cls}.{attr} is not defined in the class body"
        owners[(owner, attr)] = vars(owner)[attr]
    rec = tracer.Tracer()
    rec.install()
    try:
        for (owner, attr), original in owners.items():
            assert vars(owner)[attr] is not original
        rec.active = True
        list(ZLoc(2).residues(2))
        list(QuadExt(ZLoc(2), 1, 1, "unramified").residues(1))
        rec.active = False
        assert rec.extra[rec.res_id] == 4 + 4
    finally:
        rec.uninstall()
    for (owner, attr), original in owners.items():
        assert vars(owner)[attr] is original


def test_traced_ideal_lattice_cycle():
    tracer, workloads = _load_tracer(), _load(WORKLOADS, "bench_workloads")
    work = workloads.WORKLOADS["ideal_lattice"]
    rec = tracer.Tracer()
    rec.install(extra_namespaces=(workloads,))
    try:
        # traced ops and untraced checks, as in the benchmark's traced pass
        for x in work.inputs(1, len(work.SLOTS)):
            rec.active = True
            try:
                ans = work.run(x)
            finally:
                rec.active = False
            work.check(x, ans)
    finally:
        rec.uninstall()
    table = rec.table()
    assert table["lattices.is_principal"]["calls"] > 0
    assert table["lattices.is_principal"]["counter"] > 0
