"""The measurement tools under tools/ still see every stage they report."""

import collections
import importlib.util
from pathlib import Path

from panharmonic import analysis
from panharmonic import mesh as meshing
from panharmonic.geometry import l_shape

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load_tool(name, monkeypatch):
    # A tool pins the BLAS thread variables on import; monkeypatch restores
    # them afterwards.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_rss_ladder_prints_each_stage_once_per_mu(monkeypatch, capsys):
    rss_ladder = _load_tool("rss_ladder", monkeypatch)
    # _wrap_stages patches in place; setting each attribute to itself first
    # lets monkeypatch put the originals back.
    for owner, name in ((meshing, "refine_uniform"), (meshing.Mesh, "free_stiffness"),
                        (analysis, "solve_dirichlet"), (analysis, "gradient_field"),
                        (analysis, "condition_margin")):
        monkeypatch.setattr(owner, name, getattr(owner, name))
    rss_ladder._wrap_stages(meshing, analysis)
    analysis.convexity_sweep(l_shape(), [5.0, 10.0], 0.05)
    # "stage mu triangles rss MB"; the mesh stages print no mu.
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    per_mu = collections.Counter((cells[0], cells[1]) for cells in lines
                                 if len(cells) == 5)
    assert per_mu == {(stage, mu): 1 for mu in ("5", "10") for stage in
                      ("solve_dirichlet", "gradient_field", "condition_margin")}
