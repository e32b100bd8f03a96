import dataclasses
import json

import numpy as np
import pytest
import scipy.io

from rmplates import BcFamily, LimitBc, MaterialParams, assemble_rm_pencil, build_rect_mesh, load_mesh, rigid_pair, save_mesh
from rmplates.cli import SWEEPS, _parse_bc, main
from rmplates.experiments import CONFIG_KEYS, SweepConfig
from rmplates.geometry import mesh_to_dict

PROFILE = {"x": [0.0, 1.0], "f1": [0.5, 0.5], "f2": [0.5, 1.0]}


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
    # the solver's diagnostics: a square plate's LU is nested-dissection ordered
    info = data["info"]
    assert info["ordering"] == "nested_dissection"
    assert info["lu_fill"] > 3 * 49
    assert info["factor_s"] > 0
    assert info["opinv_applies"] >= 6
    assert len(info["backward_errors"]) == 6

    # Matrix Market dump: symmetric storage that reads back as the pencil,
    # its rows in ascending global dof order; on a free plate that is the
    # global order of the mass over all dofs
    assert "symmetric" in (dump / "A.mtx").read_text().splitlines()[0]
    A, B = (scipy.io.mmread(dump / f"{name}.mtx") for name in "AB")
    assert A.shape[0] == 3 * 49
    params = MaterialParams(E=1.0, sigma=0.3, k=0.8333333333, t=0.1)
    pencil = assemble_rm_pencil(load_mesh(mesh_path), params, BcFamily.FREE)
    order = np.argsort(pencil.dofmap.free)
    np.testing.assert_allclose(A.toarray(), pencil.A[order][:, order].toarray(), rtol=1e-15, atol=1e-15)
    np.testing.assert_allclose(B.toarray(), pencil.B_full.toarray(), rtol=1e-15, atol=1e-15)


def test_solve_rm_dumps_kernel_eigenvectors_in_global_order(tmp_path):
    # the README's dof layout [beta_x nodes, beta_y nodes, w nodes]: the
    # three kernel eigenvectors of a free plate span its rigid pairs
    mesh = build_rect_mesh(1, 1, 6, 6)
    save_mesh(mesh, tmp_path / "m.json")
    args = ["solve-rm", "--mesh", str(tmp_path / "m.json"), "--bc", "free", "--num-eigs", "4"]
    assert main(args + ["--out", str(tmp_path / "eigs.json"), "--dump-eigvecs", str(tmp_path / "v.mtx")]) == 0
    lam = np.array(json.loads((tmp_path / "eigs.json").read_text())["eigenvalues"])
    assert np.all(np.abs(lam[:3] - 1.0) <= 1e-8) and lam[3] > 1.1
    kernel = scipy.io.mmread(tmp_path / "v.mtx")[:, :3]
    rigid = np.column_stack([rigid_pair(mesh, a, b).concat() for a, b in (((1, 0), 0), ((0, 1), 0), ((0, 0), 1))])
    coef = np.linalg.lstsq(rigid, kernel, rcond=None)[0]
    assert np.linalg.norm(rigid @ coef - kernel) <= 1e-8 * np.linalg.norm(kernel)


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
    data = json.loads(out.read_text())
    lam = np.array(data["eigenvalues"])
    assert np.sum(np.abs(lam - 1.0) <= 1e-8) == 2
    # the limit pencil is a chain: its LU keeps SuperLU's default ordering
    assert data["info"]["ordering"] == "COLAMD"


SHORT_NAMES = {
    "free": BcFamily.FREE,
    "hard-clamped": BcFamily.HARD_CLAMPED,
    "soft-clamped": BcFamily.SOFT_CLAMPED,
    "hard-ss": BcFamily.HARD_SIMPLY_SUPPORTED,
    "soft-ss": BcFamily.SOFT_SIMPLY_SUPPORTED,
    "hard-rigid": BcFamily.HARD_RIGID,
    "soft-rigid": BcFamily.SOFT_RIGID,
    "weak-neumann": BcFamily.WEAK_NEUMANN,
}


@pytest.mark.parametrize("short,bc", SHORT_NAMES.items(), ids=list(SHORT_NAMES))
def test_bc_spellings(short, bc):
    # the short name and the value, each folded in case, "_" for "-" and
    # surrounding blanks, name a family
    for name in (short, short.upper(), short.replace("-", "_"), f" {short.title()} ", bc.value, bc.value.upper()):
        assert _parse_bc(name) is bc
    assert _parse_bc(bc.value.replace("_", "-")) is bc


@pytest.mark.parametrize("name", ["hard-simply-supported", "HARD_SIMPLY_SUPPORTED"])
def test_bc_value_spellings_are_accepted(name):
    # a value folds by the rule of the short names, also where it is not one
    assert _parse_bc(name) is BcFamily.HARD_SIMPLY_SUPPORTED


def test_limit_bc_spellings_fold(tmp_path):
    for name in ("Clamped", " NAVIER ", "intermediate", "FREE"):
        assert _parse_bc(name, LimitBc) is LimitBc(name.strip().lower())
    with pytest.raises(ValueError):
        _parse_bc("hard-clamped", LimitBc)
    save_mesh(build_rect_mesh(1, 1, 4, 4), tmp_path / "m.json")
    out = tmp_path / "eigs.json"
    assert main(["solve-biharmonic", "--mesh", str(tmp_path / "m.json"), "--bc", "Clamped", "--num-eigs", "2", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["bc"] == "clamped"


@pytest.mark.parametrize("name", ["Soft_Rigid_", "ss", "clamped", ""])
def test_bc_spellings_outside_the_set_are_rejected(name):
    with pytest.raises(ValueError):
        _parse_bc(name)


def test_kernel_check_exit_code(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mesh_n": 6}))
    out = tmp_path / "census.json"
    assert main(["kernel-check", "--config", str(cfg), "--out", str(out)]) == 0
    table = json.loads(out.read_text())["kernel_census"]
    assert table["free"] == 3 and table["hard_clamped"] == 0


@pytest.mark.parametrize("command", sorted(SWEEPS))
def test_sweep_without_config_runs_its_kinds_defaults(command, monkeypatch):
    kind, _, help_text = SWEEPS[command]
    ran = []
    monkeypatch.setitem(SWEEPS, command, (kind, lambda cfg: ran.append(cfg) or {"ok": True}, help_text))
    assert main([command]) == 0
    assert ran == [SweepConfig(kind, **CONFIG_KEYS[kind])]


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


def test_sweep_delta_writes_report(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"values": [0.4, 0.2, 0.1], "mesh_n": 16, "mesh_ny": 2}))
    assert main(["sweep-delta", "--config", str(cfg), "--out", str(tmp_path / "rep")]) == 0
    rep = json.loads((tmp_path / "rep" / "report.json").read_text())
    assert rep["parameter_values"] == [0.4, 0.2, 0.1]
    assert all(len(p["eig_gap_sums"]) == 3 for p in rep["points"])
    # the echo holds what the delta-sweep read: no boundary family, no eigenvalue count
    assert list(rep["config"]) == ["values", "mesh_n", "mesh_ny", "params", "profile"]
    assert (tmp_path / "rep" / "report.csv").exists()


def test_korn_subcommand(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"values": [0.4, 0.2, 0.1], "mesh_n": 16, "mesh_ny": 4}))
    assert main(["korn", "--config", str(cfg), "--out", str(tmp_path / "rep")]) == 0
    rep = json.loads((tmp_path / "rep" / "report.json").read_text())
    assert rep["checks"] == {"strictly_increasing": True, "square_at_least_rotation_bound": True}
    assert list(rep["config"]) == ["values", "mesh_n", "mesh_ny", "profile"]


@pytest.mark.parametrize(
    "command,config,unread",
    [
        ("sweep-delta", {"values": [0.4, 0.2, 0.1], "mesh_n": 16, "mesh_ny": 2, "bc": "hard_clamped"}, "bc"),
        ("sweep-delta", {"values": [0.4, 0.2, 0.1], "mesh_n": 16, "mesh_ny": 2, "num_eigs": 9}, "num_eigs"),
        ("sweep-t", {"values": [0.2, 0.1, 0.05], "mesh_n": 8, "num_eigs": 2, "mesh_ny": 4}, "mesh_ny"),
        ("korn", {"values": [0.4, 0.2, 0.1], "mesh_n": 16, "mesh_ny": 4, "params": {"E": 2.0, "sigma": 0.3}}, "params"),
        ("poincare", {"values": [0.4, 0.2, 0.1], "mesh_n": 16, "mesh_ny": 8, "profile": PROFILE}, "profile"),
        ("kernel-check", {"mesh_n": 4, "values": [0.4, 0.2, 0.1]}, "values"),
    ],
)
def test_config_key_the_sweep_does_not_read_is_rejected(tmp_path, command, config, unread):
    # a key the sweep would ignore is refused by name before anything runs
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    with pytest.raises(SystemExit, match=rf"does not read config keys \['{unread}'\]"):
        main([command, "--config", str(cfg), "--out", str(tmp_path / "rep")])
    assert not (tmp_path / "rep").exists()


@pytest.mark.parametrize(
    "command,config,message",
    [
        ("korn", {"values": [0.4], "mesh_n": 16, "mesh_ny": 4}, "the Korn sweep compares at least 2 values"),
        ("sweep-t", {"values": [0.2, 0.1, 0.05], "mesh_n": 8, "num_eigs": 0}, "num_eigs = 0"),
        ("sweep-t", {"values": [0.2, 0.1, 0.05], "mesh_n": 10, "num_eigs": 2}, "mesh_n = 10"),
    ],
)
def test_config_the_sweep_cannot_run_exits_with_one_line(tmp_path, command, config, message):
    # the sweep's own ValueError, named by subcommand, and no traceback
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    with pytest.raises(SystemExit, match=rf"^{command}: {message}") as exc:
        main([command, "--config", str(cfg), "--out", str(tmp_path / "rep")])
    assert "\n" not in str(exc.value.code)
    assert not (tmp_path / "rep").exists()


@pytest.mark.parametrize(
    "command,config,message",
    [
        ("sweep-t", {"params": {"E": 1.0, "nu": 0.3}}, "params must be an object of numbers E, sigma"),
        ("sweep-t", {"params": {"E": "1", "sigma": 0.3}}, "params must be an object of numbers E, sigma"),
        ("korn", {"values": 0.1}, "values must be a list of numbers, got 0.1"),
        ("korn", [0.4, 0.2, 0.1], "a config is a JSON object, got list"),
        ("sweep-t", {"mesh_n": "8"}, "mesh_n must be an integer, got '8'"),
        ("sweep-t", {"mesh_n": 8.0}, "mesh_n must be an integer, got 8.0"),
        ("sweep-t", {"values": [0.2, 0.1, 0.05], "mesh_n": 8, "num_eigs": 2.5}, "num_eigs must be an integer, got 2.5"),
        ("sweep-t", {"bc": 3}, "bc must be a string naming a BcFamily, got 3"),
        ("sweep-delta", {"profile": {"x": [0, 1]}}, r"a profile needs the keys \['f1', 'f2'\]"),
        ("sweep-delta", None, "\\[Errno 2\\] No such file"),
        ("solve-rm", {"dim": 2, "element_kind": "quad4", "nodes": [], "elements": []}, r"a mesh needs the keys \['facets'\]"),
        ("solve-rm", {"dim": 2, "element_kind": "quad4", "nodes": [], "elements": [], "facets": 3}, "a mesh's facets are a list"),
        ("solve-rm", {"dim": 2, "element_kind": "quad4", "nodes": [], "elements": [], "facets": [{"nodes": [0, 1]}]},
         r"facet 0 needs the keys \['element', 'tag', 'normal'\]"),
        ("solve-rm", None, "\\[Errno 2\\] No such file"),
    ],
    ids=["params-key", "params-value", "values", "list", "mesh_n-str", "mesh_n-float", "num_eigs", "bc", "profile",
         "no-config", "mesh-keys", "mesh-facets", "facet-keys", "no-mesh"],
)
def test_bad_input_exits_with_one_line_where_it_enters(tmp_path, command, config, message):
    # each input used to end in a traceback (TypeError, KeyError, AttributeError,
    # FileNotFoundError, or ARPACK's SystemError for num_eigs 2.5)
    path = tmp_path / "in.json"
    if config is not None:
        path.write_text(json.dumps(config))
    flag = "--mesh" if command == "solve-rm" else "--config"
    with pytest.raises(SystemExit, match=rf"^{command}: {message}") as exc:
        main([command, flag, str(path), "--out", str(tmp_path / "out")])
    assert "\n" not in exc.value.code
    assert not (tmp_path / "out").exists()


def _cut_elements(data):
    data["elements"] = [element[:3] for element in data["elements"]]


def _third_column(data):
    data["nodes"] = [node + [0.0] for node in data["nodes"]]


def _clockwise(data):
    data["elements"][0] = data["elements"][0][::-1]


def _nan_node(data):
    data["nodes"][4] = [float("nan"), 0.5]


@pytest.mark.parametrize(
    "command,edit,message",
    [
        ("solve-rm", _cut_elements, r"a quad4 mesh's elements have 4 columns, got shape \(4, 3\)"),
        ("solve-biharmonic", _cut_elements, r"a quad4 mesh's elements have 4 columns, got shape \(4, 3\)"),
        ("solve-biharmonic", lambda data: data.update(dim=3), "a quad4 mesh has dim 2, got 3"),
        ("solve-biharmonic", _third_column, r"a quad4 mesh's nodes have 2 columns, got shape \(9, 3\)"),
        ("solve-rm", lambda data: data.update(element_kind="tri3"), r"a tri3 mesh's elements have 3 columns, got shape \(4, 4\)"),
        ("solve-rm", _clockwise, "element 0: non-positive Jacobian"),
        ("solve-biharmonic", _nan_node, "element 0: zero or non-finite triangle area"),
    ],
    ids=["rm-cut-elements", "biharmonic-cut-elements", "dim-3", "third-node-column", "quads-as-tri3", "clockwise-quad",
         "nan-node"],
)
def test_bad_mesh_file_exits_with_one_line(tmp_path, command, edit, message):
    # a 2x2 square as save_mesh writes it, edited: these ended in an
    # IndexError or AssemblyError traceback, a reshape error, or exit 0
    data = json.loads(json.dumps(mesh_to_dict(build_rect_mesh(1, 1, 2, 2))))
    edit(data)
    path = tmp_path / "m.json"
    path.write_text(json.dumps(data))
    bc = "free" if command == "solve-rm" else "clamped"
    with pytest.raises(SystemExit, match=rf"^{command}: {message}$") as exc:
        main([command, "--mesh", str(path), "--bc", bc, "--num-eigs", "2", "--out", str(tmp_path / "eigs.json")])
    assert "\n" not in exc.value.code
    assert not (tmp_path / "eigs.json").exists()


@pytest.mark.parametrize("flags,message", [(["--num-eigs", "0"], "k must be at least 1"), (["--tol", "nan"], "tol must be")])
def test_solve_option_it_cannot_use_exits_with_one_line(tmp_path, flags, message):
    mesh_path = tmp_path / "m.json"
    save_mesh(build_rect_mesh(1, 1, 4, 4), mesh_path)
    with pytest.raises(SystemExit, match=rf"^solve-rm: {message}"):
        main(["solve-rm", "--mesh", str(mesh_path), *flags, "--out", str(tmp_path / "eigs.json")])
    assert not (tmp_path / "eigs.json").exists()


def test_solve_limit_default_profile_is_the_constant_one(tmp_path):
    # without --g-profile the section is f1 = f2 = 0.5 over the interval
    prof = tmp_path / "g.json"
    prof.write_text(json.dumps({"x": [0.0, 2.0], "f1": [0.5, 0.5], "f2": [0.5, 0.5]}))
    common = ["solve-limit", "--interval", "0,2", "--n", "16", "--d", "2", "--num-eigs", "4"]
    for side, extra in (("a", []), ("b", ["--g-profile", str(prof)])):
        assert main(common + extra + ["--out", str(tmp_path / f"{side}.json"), "--dump-matrices", str(tmp_path / side)]) == 0
    for name in ("A.mtx", "B.mtx"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    a, b = (json.loads((tmp_path / f"{side}.json").read_text()) for side in "ab")
    assert a["eigenvalues"] == b["eigenvalues"]


@pytest.mark.parametrize(
    "command,small",
    [
        ("sweep-t", {"values": (0.2, 0.1, 0.05), "mesh_n": 8, "num_eigs": 2}),
        ("sweep-delta", {"values": (0.4, 0.2, 0.1), "mesh_n": 16, "mesh_ny": 2}),
        ("kernel-check", {"mesh_n": 4}),
        ("korn", {"values": (0.4, 0.2, 0.1), "mesh_n": 16, "mesh_ny": 4}),
        ("poincare", {"values": (0.4, 0.2, 0.1), "mesh_n": 16, "mesh_ny": 8}),
    ],
)
def test_each_sweep_reads_exactly_its_config_keys(command, small):
    # CONFIG_KEYS decides what the CLI accepts and what a report echoes, so
    # it must name exactly the fields that the subcommand's runner reads
    kind, run, _ = SWEEPS[command]
    read = set()

    class Recording(SweepConfig):
        def __getattribute__(self, name):
            read.add(name)
            return super().__getattribute__(name)

        def to_dict(self):
            return {}

    config = Recording(kind, **small)
    read.clear()
    run(config)
    fields = {f.name for f in dataclasses.fields(SweepConfig)}
    assert read & fields == set(CONFIG_KEYS[kind])
