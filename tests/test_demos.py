"""Byte-identity of the four demos.

Each demo runs in a fresh interpreter with `src` on the path; the exit
code and the length and sha256 of stdout are pinned.  The digests were
recorded from the program before the state-table views were folded into
one pass.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DEMO_GOLDENS = {
    "01_elliptic_curve.py": (0, 727,
        "f5e13cf2ddeb149bef80a78f4768d42d60650bfbffbcc996f7cbf5d39c915acb"),
    "02_fermat_quartic_k3.py": (0, 681,
        "0147af2f69efea54fe658900902ea68e869df517869793c14871e8de51d37420"),
    "03_transpose_duality.py": (0, 435,
        "1631ae1f7286e18266e2ecce08ae5e1d7aa8b002e78f675ee12b26d02b3c9830"),
    "04_k3_lattice_mirrors.py": (0, 1164,
        "02cad0e7918858f5c99db6591df8df21861d1fcc576c91b39293321c74c3b709"),
}


@pytest.mark.parametrize("demo", sorted(DEMO_GOLDENS))
def test_demo_output_is_pinned(demo):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                          capture_output=True, cwd=ROOT, timeout=60,
                          env={**os.environ, "PYTHONPATH": path})
    digest = hashlib.sha256(proc.stdout).hexdigest()
    assert (proc.returncode, len(proc.stdout), digest) == DEMO_GOLDENS[demo], proc.stderr
