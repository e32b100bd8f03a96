import json

import numpy as np
import scipy.io

from rmplates import BcFamily, MaterialParams, assemble_rm_pencil, build_rect_mesh, load_mesh, save_mesh
from rmplates.cli import main


def test_solve_rm_end_to_end(tmp_path):
    mesh_path = tmp_path / "m.json"
    save_mesh(build_rect_mesh(1, 1, 6, 6), mesh_path)
    out = tmp_path / "eigs.json"
    dump = tmp_path / "mats"
    code = main(
        [
            "solve-rm",
            "--mesh", str(mesh_path),
            "--bc", "free",
            "--E", "1", "--sigma", "0.3", "--k", "0.8333333333", "--t", "0.1",
            "--num-eigs", "6",
            "--out", str(out),
            "--dump-matrices", str(dump),
        ]
    )
    assert code == 0
    data = json.loads(out.read_text())
    assert data["bc"] == "free"
    lam = np.array(data["eigenvalues"])
    assert np.sum(np.abs(lam - 1.0) <= 1e-8) == 3
    assert max(data["residuals"]) <= 1e-9

    # Matrix Market dump: symmetric storage that reads back as the pencil
    assert "symmetric" in (dump / "A.mtx").read_text().splitlines()[0]
    A = scipy.io.mmread(dump / "A.mtx")
    assert A.shape[0] == 3 * 49
    params = MaterialParams(E=1.0, sigma=0.3, k=0.8333333333, t=0.1)
    pencil = assemble_rm_pencil(load_mesh(mesh_path), params, BcFamily.FREE)
    np.testing.assert_allclose(A.toarray(), pencil.A.toarray(), rtol=1e-15, atol=1e-15)


def test_solve_biharmonic_accepts_quad_mesh(tmp_path):
    mesh_path = tmp_path / "m.json"
    save_mesh(build_rect_mesh(1, 1, 4, 4), mesh_path)
    out = tmp_path / "eigs.json"
    code = main(
        ["solve-biharmonic", "--mesh", str(mesh_path), "--bc", "free", "--num-eigs", "4", "--out", str(out)]
    )
    assert code == 0
    lam = np.array(json.loads(out.read_text())["eigenvalues"])
    assert np.sum(np.abs(lam - 1.0) <= 1e-8) == 3


def test_solve_limit_with_profile(tmp_path):
    prof = tmp_path / "g.json"
    prof.write_text(json.dumps({"x": [0.0, 1.0], "f1": [0.5, 0.5], "f2": [0.5, 1.0]}))
    out = tmp_path / "eigs.json"
    code = main(
        [
            "solve-limit",
            "--interval", "0,1",
            "--n", "32",
            "--g-profile", str(prof),
            "--num-eigs", "4",
            "--out", str(out),
        ]
    )
    assert code == 0
    lam = np.array(json.loads(out.read_text())["eigenvalues"])
    assert np.sum(np.abs(lam - 1.0) <= 1e-8) == 2


def test_kernel_check_exit_code(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mesh_n": 6}))
    out = tmp_path / "census.json"
    assert main(["kernel-check", "--config", str(cfg), "--out", str(out)]) == 0
    table = json.loads(out.read_text())["kernel_census"]
    assert table["free"] == 3 and table["hard_clamped"] == 0


def test_poincare_subcommand(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"values": [0.4, 0.2, 0.1], "mesh_n": 16, "mesh_ny": 8}))
    assert main(["poincare", "--config", str(cfg), "--out", str(tmp_path / "rep")]) == 0
    rep = json.loads((tmp_path / "rep" / "report.json").read_text())
    assert rep["ok"]


def test_sweep_t_writes_report(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"values": [0.2, 0.1, 0.05], "mesh_n": 16, "num_eigs": 2}))
    code = main(["sweep-t", "--config", str(cfg), "--out", str(tmp_path / "rep")])
    assert code == 0
    assert (tmp_path / "rep" / "report.json").exists()
    assert (tmp_path / "rep" / "report.csv").exists()
