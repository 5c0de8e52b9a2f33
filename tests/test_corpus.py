"""The shipped certificates are ``scripts/make_data.py`` output, byte for byte.

A change to ``knotcert.synth`` must leave them as they are, or come with
the regenerated files.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "src" / "knotcert" / "data"

CERTIFICATES = [
    "elliptic_g1_n2.json", "hyperbolic_g2_n3.json", "hyperbolic_g3_n5.json",
    "parabolic_g1_n2.json", "unknotted_g1_n2.json", "unknotted_twist_n4.json",
]


def test_shipped_certificates_regenerate(tmp_path, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("make_data", ROOT / "scripts" / "make_data.py")
    make_data = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_data)
    monkeypatch.setattr(make_data, "DATA", tmp_path)
    make_data.main()
    assert sorted(p.name for p in tmp_path.iterdir()) == CERTIFICATES
    for name in CERTIFICATES:
        assert (tmp_path / name).read_bytes() == (DATA / name).read_bytes(), name
