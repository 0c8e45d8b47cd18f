"""Byte-identity of CLI output over the built-in catalog.

Each entry pins the length and sha256 of stdout.  The digests were
recorded from the program before the integer-coded group kernel and the
per-polynomial caches; any change to them is a change of output.
"""

import hashlib

import pytest

from bhmirror.catalog import ADMISSIBLE_CASES
from bhmirror.cli import main

VERIFY_ARGV = ["verify", "--format", "json"]
VERIFY_GOLDEN = (0, 135298,
                 "269d115ad11e8d5c158b9b4a2df6c3b2bc31fcf35d3daecff9ef17224f255752")

TABLE_GOLDENS = {
    "elliptic-sextic": (0, 8253,
        "1e5890ef7a8c24d6e32b27779bfe4ba4fcbedb611fabb6b8cc027f0b22bedf35"),
    "elliptic-cubic": (0, 3274,
        "98962630e09ca316bc50d89f8f689e979ad5b74feb0b184a13e7fd9203740252"),
    "elliptic-loop": (0, 3280,
        "49ce2ae921d8ad4199e3e8d508b1077f2c29cbb9f025827d05d9b731287bbbac"),
    "toy-k2": (0, 1204,
        "0c81a7a35d4efe7eadbc936fa11b3d3add4ceda6076ff09af2b9f99aa500d8eb"),
    "toy-k4": (0, 5083,
        "cb4c3c7d7478e32c774520478e7d22a6cecea2c9c2b34dee410a3ea767129fd5"),
    "k2-elliptic": (0, 1932,
        "9e851ba7939e0e1c8f3d5361faea098b036addcb7fdb1adba6dda2a36f1ffd84"),
    "k2-chain": (0, 1935,
        "804db438ea9ede59f0ed01b887deecc91d2b443cfffd7a360d327a433a652732"),
    "k2-k3-sextic": (0, 3087,
        "fe3241a9d2a3436a5a781c0b1b93af52d510f3d6fae468126f0c860352480d30"),
    "k2-6squares": (0, 1233,
        "130f21c28a12f994d199db9a004bbd04cc98e01f765a509a807c69c9aab957a9"),
    "fermat-quartic": (0, 6748,
        "c5f5957932d9a7732bc9333d63c38df88ebe4b93d67895ccc518e7c45567f679"),
    "k3-loop-order4": (0, 6754,
        "347c501d4b627488bef4ae2ab99da20d6387d0918487c815677702661d84a078"),
    "k3-quartic-z2z2": (0, 6732,
        "8c732217e65d246e55b6ad1624726f9324d4dc93bcb60e295628df9baf5b62fb"),
    "k3-order4-mixed": (0, 7866,
        "3f36d70c5f559dd511f4790dd055ad87dee221eef7c1525a6cc308b121ad7558"),
    "k3-order6": (0, 14678,
        "e87c401a150d4f9d374faa65612cb80cd53fb0d6e183e50a786afb496b008885"),
    "k3-order9": (0, 27563,
        "0bf396d031ada367179716154fd9d9716c2ed20f63710ee50dd74bb0253e65af"),
    "k3-p3": (0, 5023,
        "d4508a7598a552e1d5c28d6013665b7e0733b3167ba39390f48da1ad600bfd6c"),
    "k3-p3-loop": (0, 5028,
        "b8b28e67974ad23f64e7743b702fae4371162da8c9d88ab2c91f4e03787336b1"),
    "k3-p5": (0, 10122,
        "bd1cf5a534939d3d701e2028724bc7de3dca20ad7fc4432abb1f6c36819fe936"),
    "k3-p5-fermat": (0, 13777,
        "71696e8454538d1889a232dd9fa2d4acac82c479f608eed0c0052d1bee61f9c4"),
    "k3-p7": (0, 19012,
        "ea05ee8860b198f69117cafdddb92bda8d0b20a9eab2bc92556f1876c39a9544"),
    "k3-p13": (0, 56905,
        "f31a1b451ff6cdcfd82e1171924bd4b8437ef8f92df12e8ce0a321f2c86b0d0a"),
}


def table_argv(case):
    spec = ";".join(f"gen:{g}" for g in case.K) or "trivial"
    return ["table", case.polynomial, "--K", spec,
            "--format", "json", "--diamonds", "--weights"]


def digest(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out.encode()
    return code, len(out), hashlib.sha256(out).hexdigest()


def test_verify_catalog_json(capsys):
    assert digest(capsys, VERIFY_ARGV) == VERIFY_GOLDEN


@pytest.mark.parametrize("case", ADMISSIBLE_CASES, ids=lambda c: c.name)
def test_table_json(capsys, case):
    assert digest(capsys, table_argv(case)) == TABLE_GOLDENS[case.name]
