#!/usr/bin/env python3
"""Regenerate the synthetic certificates under src/knotcert/data/.

    PYTHONPATH=src python3 scripts/make_data.py

Each certificate is ``knotcert.synth`` output; the other files in that
directory (matrices, Laurent polynomials, longitude systems and the
alternating-sum example) are written by hand and committed as they are.
"""

import json
from pathlib import Path

from knotcert.certify import certificate_to_dict
from knotcert.synth import (
    elliptic_example,
    hyperbolic_example,
    parabolic_example,
    twist_unknotted_example,
    unknotted_example,
)

DATA = Path(__file__).resolve().parent.parent / "src" / "knotcert" / "data"


def write_json(name: str, payload: dict) -> None:
    path = DATA / name
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path} ({path.stat().st_size} bytes)")


def main() -> None:
    DATA.mkdir(exist_ok=True)
    write_json("hyperbolic_g2_n3.json", certificate_to_dict(hyperbolic_example(2, 3)))
    write_json("hyperbolic_g3_n5.json", certificate_to_dict(hyperbolic_example(3, 5)))
    write_json("elliptic_g1_n2.json", certificate_to_dict(elliptic_example()))
    write_json("parabolic_g1_n2.json", certificate_to_dict(parabolic_example()))
    write_json("unknotted_g1_n2.json", certificate_to_dict(unknotted_example()))
    write_json("unknotted_twist_n4.json", certificate_to_dict(twist_unknotted_example()))


if __name__ == "__main__":
    main()
