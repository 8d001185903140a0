"""Manifest serialization round trips and the command-line interface."""

import csv
import json

import numpy as np
import pytest

from foliate import (InputError, builtin, catalog, from_manifest,
                     load_manifest, save_manifest, to_manifest)
from foliate.cli import _emit, main
from foliate.manifold import PointGeometry

ALL_NAMES = sorted(catalog())


# ---------------------------------------------------------------------------
# manifest round trips
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ALL_NAMES)
def test_manifest_round_trip(name, rng):
    item = builtin(name)
    W = item.W
    W2 = from_manifest(to_manifest(W))
    assert (W2.nu, W2.n) == (W.nu, W.n)
    assert (W2.nu_synth, W2.n_synth) == (W.nu_synth, W.n_synth)
    pts = item.sample_points(4, rng)
    g1 = PointGeometry(W.manifold, pts).g
    g2 = PointGeometry(W2.manifold, pts).g
    np.testing.assert_array_equal(g1, g2)
    if W.weight_field is None:
        assert W2.weight_field is None
    else:
        np.testing.assert_array_equal(W.weight_field.values(pts),
                                      W2.weight_field.values(pts))
    # serialization is idempotent
    assert to_manifest(W2) == to_manifest(W)


def test_manifest_disk_round_trip(tmp_path):
    W = builtin("doubly_twisted_torus_weighted").W
    path = tmp_path / "twisted.json"
    save_manifest(W, path)
    W2 = load_manifest(path)
    assert to_manifest(W2) == to_manifest(W)
    raw = json.loads(path.read_text())
    assert raw["schema"] == "foliate/1"


def test_from_manifest_validation():
    good = to_manifest(builtin("flat_torus").W)
    with pytest.raises(InputError, match="unsupported manifest schema"):
        from_manifest({**good, "schema": "foliate/99"})
    with pytest.raises(InputError, match="missing required key"):
        from_manifest({k: v for k, v in good.items() if k != "metric"})
    with pytest.raises(InputError, match="3x3"):
        from_manifest({**good, "metric": [["1", "0"], ["0", "1"]]})
    with pytest.raises(InputError, match="split"):
        from_manifest({**good, "split": [2, 1]})
    with pytest.raises(InputError, match="spanning"):
        from_manifest({**good, "spanning": []})
    with pytest.raises(InputError, match="one entry per coordinate"):
        from_manifest({**good, "periodic": [6.28, 6.28]})
    with pytest.raises(InputError, match="JSON object"):
        from_manifest([1, 2, 3])


def test_load_manifest_errors(tmp_path):
    with pytest.raises(InputError, match="not found"):
        load_manifest(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(InputError, match="invalid JSON"):
        load_manifest(bad)


# ---------------------------------------------------------------------------
# CLI: reports and verification
# ---------------------------------------------------------------------------

def _run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_cli_report_flat(capsys):
    rc, out, _ = _run(capsys, ["report", "--gallery", "flat_torus",
                               "--point", "0,0,0"])
    assert rc == 0
    data = json.loads(out)
    assert data["split"] == [1, 2]
    assert data["invariants"]["s_mix"] == 0.0
    assert data["extrinsic_norms"]["h_tan2"] == 0.0
    assert data["gamma_max_abs"] == 0.0


def test_cli_report_hopf(capsys):
    rc, out, _ = _run(capsys, ["report", "--gallery", "hopf_s3",
                               "--point", "0.785,0.2,0.4"])
    assert rc == 0
    data = json.loads(out)
    assert data["invariants"]["s_mix"] == pytest.approx(2.0, abs=1e-10)
    assert data["invariants"]["T_nor2"] == pytest.approx(2.0, abs=1e-10)
    (spec,) = data["weighted_jacobi_spectra"]
    assert spec == pytest.approx([1.0, 1.0], abs=1e-10)


def test_cli_report_with_params(capsys):
    rc, out, _ = _run(capsys, ["report", "--gallery", "hopf_s3_weighted",
                               "--param", "c=0.8", "--point", "0.7,0.1,0.2"])
    assert rc == 0
    (spec,) = json.loads(out)["weighted_jacobi_spectra"]
    assert spec == pytest.approx([1.16, 1.16], abs=1e-10)


def test_cli_verify_pointwise(capsys):
    rc, out, _ = _run(capsys, ["verify", "pointwise", "--gallery",
                               "conformal_torus", "--points", "20", "--json"])
    assert rc == 0
    data = json.loads(out)
    assert data["seed"] == 1234
    assert len(data["reports"]) == 4
    assert all(r["passed"] for r in data["reports"])


def test_cli_verify_cd_pass_and_fail(capsys):
    base = ["verify", "cd", "--gallery", "hopf_s3", "--points", "5"]
    rc, out, _ = _run(capsys, base + ["--c", "0.999"])
    assert rc == 0 and "[pass]" in out
    rc, out, _ = _run(capsys, base + ["--c", "1.001"])
    assert rc == 1 and "[FAIL]" in out


def test_cli_verify_integral(capsys):
    rc, out, _ = _run(capsys, ["verify", "integral", "--gallery",
                               "doubly_twisted_torus_weighted",
                               "--grid", "32", "--json"])
    assert rc == 0
    assert json.loads(out)["passed"] is True


def test_cli_verify_bounds(capsys):
    rc, out, _ = _run(capsys, ["verify", "bounds", "--rho-max", "512",
                               "--json"])
    assert rc == 0
    assert json.loads(out)["passed"] is True


# ---------------------------------------------------------------------------
# CLI: error paths and exit codes
# ---------------------------------------------------------------------------

def test_cli_bad_point_dimension(capsys):
    rc, _, err = _run(capsys, ["report", "--gallery", "flat_torus",
                               "--point", "0,0"])
    assert rc == 2
    assert "error:" in err and "3 components" in err


def test_cli_unknown_gallery_item(capsys):
    rc, _, err = _run(capsys, ["report", "--gallery", "moebius",
                               "--point", "0,0,0"])
    assert rc == 2
    assert "available:" in err


def test_cli_malformed_expression_manifest(tmp_path, capsys):
    data = to_manifest(builtin("flat_torus").W)
    data["metric"][0][0] = "sin(x0"
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(data))
    rc, _, err = _run(capsys, ["report", "--manifest", str(path),
                               "--point", "0,0,0"])
    assert rc == 2
    assert "error:" in err


def test_cli_singular_metric_manifest(tmp_path, capsys):
    data = to_manifest(builtin("flat_torus").W)
    data["metric"][2][2] = "0"
    path = tmp_path / "singular.json"
    path.write_text(json.dumps(data))
    rc, _, err = _run(capsys, ["report", "--manifest", str(path),
                               "--point", "1,1,1"])
    assert rc == 3
    assert "numerical failure:" in err


def test_cli_missing_structure_flag(capsys):
    rc, _, err = _run(capsys, ["report", "--point", "0,0,0"])
    assert rc == 2
    assert "--gallery" in err or "--manifest" in err


# ---------------------------------------------------------------------------
# CLI: gallery, bounds, traces, suite
# ---------------------------------------------------------------------------

def test_cli_gallery_list(capsys):
    rc, out, _ = _run(capsys, ["gallery", "list", "--json"])
    assert rc == 0
    assert sorted(json.loads(out)) == ALL_NAMES


def test_cli_gallery_export_round_trip(tmp_path, capsys):
    path = tmp_path / "hopf.json"
    rc, out, _ = _run(capsys, ["gallery", "export", "hopf_s3_weighted",
                               "--param", "c=0.8", "--out", str(path)])
    assert rc == 0
    assert out.strip() == str(path)
    W = load_manifest(path)
    expect = builtin("hopf_s3_weighted", c=0.8).W
    assert to_manifest(W) == to_manifest(expect)


def test_cli_bounds_outputs(capsys):
    rc, out, _ = _run(capsys, ["bounds", "rho", "--n", "4096", "--json"])
    assert rc == 0 and json.loads(out)["rho"] == 25
    rc, out, _ = _run(capsys, ["bounds", "nu", "--n", "12", "--json"])
    assert rc == 0 and json.loads(out)["max_nu"] == 4
    rc, out, _ = _run(capsys, ["bounds", "diameter", "--c", "1", "--q", "1",
                               "--nu", "1", "--n", "2", "--json"])
    assert rc == 0
    assert json.loads(out)["value"] == np.pi / 2.0
    rc, out, _ = _run(capsys, ["bounds", "f-delta", "--delta", "0.7",
                               "--json"])
    assert rc == 0
    data = json.loads(out)
    assert data["f"] == pytest.approx(0.6459159457043328)
    assert data["pinching"]["holds"] is True
    rc, out, _ = _run(capsys, ["bounds", "thm418", "--k1", "0.5",
                               "--k2", "1.0"])
    assert rc == 0 and "fails" in out
    rc, _, err = _run(capsys, ["bounds", "f-delta", "--delta", "0.2"])
    assert rc == 2 and "delta" in err


def test_cli_geodesic_with_csv(tmp_path, capsys):
    path = tmp_path / "geo.csv"
    rc, out, _ = _run(capsys, ["geodesic", "--gallery", "hopf_s3",
                               "--point", "0.785,0,0",
                               "--velocity", "0,1,1", "--time", "0.5",
                               "--steps", "100", "--csv", str(path),
                               "--json"])
    assert rc == 0
    assert json.loads(out)["speed_drift"] < 1e-10
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 102


def test_cli_riccati(capsys):
    rc, out, _ = _run(capsys, ["riccati", "--gallery", "hopf_s3",
                               "--point", "0.785,0.2,0.4",
                               "--velocity", "0,1,1", "--time", "1.0",
                               "--steps", "500", "--json"])
    assert rc == 0
    data = json.loads(out)
    assert data["blow_up"] is None
    final = np.array(data["final_matrix"])
    assert np.linalg.norm(final) == pytest.approx(np.sqrt(2.0), abs=1e-8)


def test_cli_turbulence(capsys):
    rc, out, _ = _run(capsys, ["turbulence", "--gallery", "hopf_s3",
                               "--points", "3", "--dirs", "4", "--json"])
    assert rc == 0
    data = json.loads(out)
    assert data["value"] == pytest.approx(1.0, abs=1e-10)
    assert data["warned"] is False


def test_cli_suite_filter(capsys):
    rc, out, _ = _run(capsys, ["suite", "--only", "twisted", "--json"])
    assert rc == 0
    data = json.loads(out)
    assert data["seed"] == 1234
    (item,) = data["items"]
    assert item["key"] == "twisted-forms" and item["passed"] is True


def test_cli_suite_json_with_numpy_flags(capsys):
    # riccati-blowup computes its pass flag from NumPy floats
    rc, out, _ = _run(capsys, ["suite", "--only", "riccati-blowup", "--json"])
    assert rc == 0
    (item,) = json.loads(out)["items"]
    assert item["key"] == "riccati-blowup" and item["passed"] is True


def test_emit_numpy_scalars(capsys):
    data = {"b": np.bool_(True), "f": np.float32(0.5), "i": np.int8(-3),
            "u": np.uint64(7), "a": np.arange(2)}
    _emit(data, True)
    assert json.loads(capsys.readouterr().out) == {
        "b": True, "f": 0.5, "i": -3, "u": 7, "a": [0, 1]}


def test_cli_suite_unknown_filter(capsys):
    rc, _, err = _run(capsys, ["suite", "--only", "bogus"])
    assert rc == 2
    assert "error:" in err
