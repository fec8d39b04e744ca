"""The benchmark's tracer (``bench/tracer.py``) still installs on the library.

The tracer wraps methods it looks up in the class bodies of matsim
(``vars(owner)[attr]``), so a refactor that moves one of them into a base
class would first break the benchmark's traced pass.  The tracer is read
and executed here without importing it as a module, so nothing is written
under ``bench/``.
"""

import importlib
import types
from pathlib import Path

from matsim.rings import QuadExt, ZLoc

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    mod = types.ModuleType("bench_tracer")
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), mod.__dict__)
    return mod


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
