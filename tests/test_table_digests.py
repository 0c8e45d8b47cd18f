"""Byte-identity of the state tables and of the unprojected maps.

Each state table of the 21 catalog pairs, and the unprojected map
(sector, key, p, q) -> dim of each Krawitz-scan polynomial and of its
transpose, is pinned by the sha256 of its sorted entries, each written out
field by field (the form `perfbench/child.py:table_digest` uses), so a
digest does not depend on how an entry is held in memory.  The digests were
recorded from the program before `SectorAlgebra` and `UnprojectedTable`
became the maps they wrapped.
"""

import hashlib
from fractions import Fraction

import pytest

from bhmirror.catalog import ADMISSIBLE_CASES, KRAWITZ_POLYNOMIALS
from bhmirror.poly import parse_polynomial, transpose
from bhmirror.statespace import unprojected_state_space


def _frac(x) -> str:
    return str(Fraction(x))


def _vec(v) -> str:
    return ",".join(_frac(x) for x in v)


def _sha(rows) -> str:
    return hashlib.sha256("\n".join(sorted(rows)).encode()).hexdigest()


def state_table_digest(table) -> str:
    return _sha("|".join([_vec(lab.sector), _vec(lab.key),
                          *(_frac(x) for x in (lab.p, lab.q, lab.dj, lab.ds, lab.qj, lab.qs)),
                          str(lab.weight), lab.side, str(lab.x), str(lab.y), str(lab.z),
                          str(dim)])
                for lab, dim in table.entries.items())


def unprojected_digest(U: dict) -> str:
    return _sha("|".join([_vec(h), _vec(key), _frac(p), _frac(q), str(dim)])
                for (h, key, p, q), dim in U.items())


STATE_TABLE_GOLDENS = {
    "elliptic-sextic": (
        "eb9e142f58be46e409efda2e1eca2263243452b42ff7f90c5b9cdfe6e3d1cd04",
        "eb9e142f58be46e409efda2e1eca2263243452b42ff7f90c5b9cdfe6e3d1cd04"),
    "elliptic-cubic": (
        "9dadaf504e1a41b10b45d37a54771add6f852ea0c642ed8fdeab112162640004",
        "d2dc1c76b3458d0113a2297031ab94771eb6aff5ae7df2f362138c211e74fa86"),
    "elliptic-loop": (
        "b7c8bc1856f96c1e39fed94e119ede3766e3e757c4eb5c0f5773ec7ecfb3222f",
        "b7c8bc1856f96c1e39fed94e119ede3766e3e757c4eb5c0f5773ec7ecfb3222f"),
    "toy-k2": (
        "9a1bee2f4e115281aea115ca86710c5e66cdaca49342fc6187d7c01c8ed8c86a",
        "9a1bee2f4e115281aea115ca86710c5e66cdaca49342fc6187d7c01c8ed8c86a"),
    "toy-k4": (
        "d35ef0357c486dd1a588df88b1910a01e3940eb650089de15130475340905708",
        "04c397b51facd6cf8a1614bb057e7aeeff1454a20aecb432c085d451cb4695e4"),
    "k2-elliptic": (
        "42621908cf96ff7de87a6511798f17aa3b886949f5095daa6d8ea58e5601b70f",
        "a177caa0eb075c8c5912687774a26e9539beab277f9300c02c6c639a798a3b4a"),
    "k2-chain": (
        "1d4f01c9ede7e597c3e3a9c61296ebaf0939cd76eaf97ac7d73fc0129cfbf214",
        "a0245a5fcac05691051707d7717d5653a9d45bfee5b40ee4e3977c741be032a2"),
    "k2-k3-sextic": (
        "4e28c0e2a287d18f0b0ae11b0843b6c09f8d52bc234acb0ad5dee7070bd7dafc",
        "880c8c5a5eae6df5fd62676737b650d644a699f83799ada0661585000bf6133f"),
    "k2-6squares": (
        "d848195b149cd32189d89edfe5cefd66e0929c78831127c5a188a0a1fe618b8f",
        "d848195b149cd32189d89edfe5cefd66e0929c78831127c5a188a0a1fe618b8f"),
    "fermat-quartic": (
        "ea5f3c594ecf2a0ce3e15b522fd5c1d30e38e2d8d458f1f77c4efd1be1c0f9bc",
        "3ffaa2b7df3894582975c77eac79b263b0d42ba6c2c812896f861b3c7b553adb"),
    "k3-loop-order4": (
        "77ac8590ea53f58598d843da2f579fcd3f93347472835cb0ad8879ae29246deb",
        "cd8cfccd0b33c98d1b80b20135450647f80cf8bf2f099951ee08f3da8ce9dd3b"),
    "k3-quartic-z2z2": (
        "11c13e37106b7764d6b3273456855cdce5ea65e40aea8671241a84a360baaac3",
        "11c13e37106b7764d6b3273456855cdce5ea65e40aea8671241a84a360baaac3"),
    "k3-order4-mixed": (
        "5519c60533c39dcef3fd0416f810a0d0e5fd38d5ec4c4c3f02de80b56550dd6c",
        "85bd54702045389fbb5c3e8ccf5a4a1b07419edf8a6f38b7cde062b635041a1f"),
    "k3-order6": (
        "2d2586f7e4ad89fcb6e8895497dc700d9f5f6f837a92df2f34f4ed2529291cb7",
        "c2be6135928d508e42f418d245c070d91069125f04b73da262e1ffbd04ecf4e3"),
    "k3-order9": (
        "45f60e756c054b3171d751479e17349a5cdf544bd11c7983f02216cf7b0b890e",
        "f40a33369648672f7ea106206ec89c6a4468d96bba49d439de1410b7b1cf9bff"),
    "k3-p3": (
        "4e1d8d0544a18df19b92a1158815ef7b188d8d2a15318305b178a2f7c66b2b7a",
        "6880e063d8795e4a35210ab5fca7f0dee07ba7df087241a9ea2cf84848bee286"),
    "k3-p3-loop": (
        "8870683a04ce72dc3c96fba805604dda46a8ac1689d38275358c183d3a2def5d",
        "30380ddc87c85543a7f703ccb2f72d87d02748d7c6c2c8eb1925f11d91fbddf6"),
    "k3-p5": (
        "4f2716a87247ee574766f6ea7b7b421852c2e52c4a23ec0a252698d4a04f948f",
        "e677443b216578e7872c3b4f614c7904c5e7663d3b51a347fabe226796bf2aeb"),
    "k3-p5-fermat": (
        "a0435fe83fc4262e06a00e81efded58ac682080d8da02e5d56d93109bc1d838d",
        "04d6f264e9813d2ede6ac87f61f60f6bdb998f4dec90c06aa29d80ca922489b2"),
    "k3-p7": (
        "676808168abc9105bd82ce1d57650128575b50bc4df9a58feb6f59f8f702be05",
        "d165f6d13d150cc0d719005a0cb82ac2f62abc44917e93c4a82a3e21c290a05e"),
    "k3-p13": (
        "ed64ede032b114afceab9917c9e0a5e70f421b70d64e882e4177815591215218",
        "70a3f025f5a643ec274a29cca42f77f188d986e534faa2feb58504d0fa3231d3"),
    "fermat-quintic": (
        "266e9a003046dab088e633362f1a2378915bf330b45827a0a3ee147908dfd0c5",
        "693748644b280e3349b15fe132a7e6468d8ede10c394e51a2c0df4305fec37b5"),
}

UNPROJECTED_GOLDENS = {
    "x^2": (
        "52fe6235e230c88df7fe6003c8c735e15d1c05fa1ed28636dc2c05ef0804f59a",
        "52fe6235e230c88df7fe6003c8c735e15d1c05fa1ed28636dc2c05ef0804f59a"),
    "x^3": (
        "6c5a20e62c489f1639a25270889e531f020d947384319c72a7097242276effe6",
        "6c5a20e62c489f1639a25270889e531f020d947384319c72a7097242276effe6"),
    "x^5": (
        "20d6e9a8bdfc5fa73fa227432e64f1901d81340865a4d449485d9879ee8b8680",
        "20d6e9a8bdfc5fa73fa227432e64f1901d81340865a4d449485d9879ee8b8680"),
    "x^3+y^3": (
        "816f9b50b10aad44cee7a7e8aa6eb1180d184fd88fd428a36d2b3d94bba27b63",
        "816f9b50b10aad44cee7a7e8aa6eb1180d184fd88fd428a36d2b3d94bba27b63"),
    "x^4+y^2": (
        "262a3cbde12a37461d708f205701325a6ae2cb44ac826e3b7668800c288e3de1",
        "262a3cbde12a37461d708f205701325a6ae2cb44ac826e3b7668800c288e3de1"),
    "x^6+y^3+z^2": (
        "867f3e9b00c5b8d3980099c55539f86c3cdbe19bbce95062002b0f1e38d57ac1",
        "867f3e9b00c5b8d3980099c55539f86c3cdbe19bbce95062002b0f1e38d57ac1"),
    "x^3+y^3+z^3": (
        "194868e0962f8a0af71f7333a1183e35a3484e413d3a1e151dd807ff9d634963",
        "194868e0962f8a0af71f7333a1183e35a3484e413d3a1e151dd807ff9d634963"),
    "x^4+y^4+z^4+w^4": (
        "a2b1e936712c4f746a2d54f43ed7625d65b1a4eff5f9895a3327e22c781d9a5d",
        "a2b1e936712c4f746a2d54f43ed7625d65b1a4eff5f9895a3327e22c781d9a5d"),
    "x^2+y^2+z^2+w^2+v^2": (
        "059bbed0d7f8e91b913df436ebe2dcba944b4b1411e371d6ed26e2b22f395071",
        "059bbed0d7f8e91b913df436ebe2dcba944b4b1411e371d6ed26e2b22f395071"),
    "x^2*y+y^3": (
        "a0a04de92c3a30b1fa1e197e58337c35a97bd164a29505ab6fbbd9e4741937d1",
        "2126c6f3385e471f3f20ce66b50a91a04f78f9ef3cbb2fa8d01654b9ffdabaed"),
    "x^3*y+y^4": (
        "a2721caf72b0c6e71e81d8384086cbb533df004830c1eb836e604c71681676ca",
        "65500926d0ca882fda96abda3f8d521e046dc5ea4bfdcd1490c406f5827251af"),
    "x^2*y+y^5": (
        "a822e176404c08a16e0905ee76a899611254390b79ee21d97a2eed8a3085b5b1",
        "0578de88b751c0411a8271b42a471d6ff5d0f40571205079270096efd4f29fdb"),
    "x^5*y+y^2": (
        "54825373e0a0952ed07e6d2c422f325c59b804cd000e4b92aa076dbba657ee6b",
        "58d6799aacf2ee556ade5312888f42bcf04a8f8a58185a5ea1d6408fe4bed344"),
    "x^2*y+y^2*z+z^3": (
        "7c40cf3fc6aa2ef51e1d30bb407e7e3da0a84d152a20cbf24978649828558be9",
        "4cc064686009c37329d40e3364d5d13436e8225d7b7fc567566040f21174e49c"),
    "x^3*y+y^2*z+z^2": (
        "28167673489b1341f679f06711c0ba8ab761caf660d35e47dcf63fc31dba01d0",
        "5a61afcab23c339150f2c57b9ef88cfe57baa81c1e1ce792cc2c71fe2431d9aa"),
    "x^2*y+y^3*z+z^4": (
        "6a47962b565b0166cfc50ef8e1b48e894d4dd361c2bdab68991fed64770c82c6",
        "b93f312a147e9349a465b997ac8ac25ba6db031fffd390f89806dca221b95109"),
    "x^2*y+y^2*z+z^2*w+w^3": (
        "71dc707b6826d53fb5584069f972a55502dbbde87c3ca8ed09ab47ad8075d50f",
        "a19a1e71dddc2b12af5ede3f3639c4ce36a7a7dc0f2a1947422b365976f3c309"),
    "x^2*y+y^2*x": (
        "b356b17f55d96096f254cefd46c609512548e6250b99b0f24ee9c2f2ede5bdfe",
        "b356b17f55d96096f254cefd46c609512548e6250b99b0f24ee9c2f2ede5bdfe"),
    "x^3*y+y^2*x": (
        "413a087c55551a16074f2c8dad5d70197b1acde246212d426c19e252c9151178",
        "413a087c55551a16074f2c8dad5d70197b1acde246212d426c19e252c9151178"),
    "x^3*y+y^3*x": (
        "25c46f42c312ae9f162b6d27d56d4fc28e25ae51179e62c5fb4cf6f67dfa1e92",
        "25c46f42c312ae9f162b6d27d56d4fc28e25ae51179e62c5fb4cf6f67dfa1e92"),
    "x^4*y+y^3*x": (
        "11d37413182e3b79aabb42d10643c89312c525683d11139bfa9e0811be8a154d",
        "11d37413182e3b79aabb42d10643c89312c525683d11139bfa9e0811be8a154d"),
    "x^2*y+y^2*z+z^2*x": (
        "12d02d45e6bcb37c88f09c0928f824937a36547aa35e64cd88e003f721bc6307",
        "e32fefaf9f7b48f322e81d5d055401698ea396fafd643584f7a0147dc95ebb0f"),
    "x^2*y+y^3*z+z^4*x": (
        "90ffe2d81c17a99e5e987d54781800fab1f8acdfe0db4c32a2ed5bebdf04af09",
        "4927909c9c1c91e247f98b7dc334c3932a5c6c1454624fd8512e1a0d5f4e41d3"),
    "x^3*y+y^2*z+z^2*x": (
        "78724af98b3f9012e9b3577c19bd7cb49ae9773f2f15267d2fe72e6c47982861",
        "b8a8542f36b721818e5a9bf4df154aaac769129b44d682863923bb202d5ae7dd"),
    "x^2*y+y^2*z+z^2*w+w^2*x": (
        "66cbd9984579d1ddc6e74bda597dba994a1ef4f12dd314986b3394ff39fc7b49",
        "5f28093055220fe2dec666b00cbdc650a2d981e61bc4f15f8dda666baa43467c"),
    "x^2+y^2*z+z^3": (
        "e6f6bc5149fc14de8c34aadb5283e27e19dc78aaf1baa98074d880b6d0a816ef",
        "7740be3b9e99aeda4d65f9de5e6f5abe1fc882b27a260d63cb5cd57a705817cf"),
    "x^3+y^2*z+z^2*y": (
        "8f2db35f8d8c5c8ac9fb7f72be8b9bb94a5181105abcc15c6bcc8d1ed0e64a93",
        "8f2db35f8d8c5c8ac9fb7f72be8b9bb94a5181105abcc15c6bcc8d1ed0e64a93"),
    "x^4+y^3*z+z^3*y": (
        "af43eca3453a460b1c8b84b23b0de697bd919222c4d6ec484714e528d7b1aa9b",
        "af43eca3453a460b1c8b84b23b0de697bd919222c4d6ec484714e528d7b1aa9b"),
    "x^2*y+y^3+z^2*w+w^2*z": (
        "2f49c3b7903d6c2edb87e262a33ddf8f3e0c137b230635b5a6be025e1193bfb9",
        "13de0c5dbbc88caa5b7bacc5797416806c29981d6cbdf9aa01255b46df227670"),
    "x^3+y^3+z^2*w+w^3": (
        "7dbec8d8e73b27a0c065c690c14b273591e6931bceace90a62e4c057658182ae",
        "5d245c8589ea9d599b85eaeb7f3946a8ebfa2068fd0b3606be577e82f7c30b49"),
    "x^2*y+y^3+z^3*w+w^4": (
        "a822f244de20fbe3302f1527a3c40afb7bc22731ccb4fd696958518e2857d540",
        "5a977741ab2d425de874b2d8e0a0c06918cbf2d6a8a59ec7e8571a47712dc218"),
    "x^5+y^2*z+z^2*w+w^2*y": (
        "fcdde4ad08d7611a424759952a183f088ae25a875e688a05423d819c0a79b9e6",
        "5ad0a841f318a6b1d9a4dd075f69715710d989b7a36d76d57dd16d077ec778ad"),
    "x^2+y^2+z^2*w+w^2*z+v^3": (
        "a2c7c9775b6242f3bf8d382877f3d19a08c0521407414662b922d9ea04e4dfa9",
        "a2c7c9775b6242f3bf8d382877f3d19a08c0521407414662b922d9ea04e4dfa9"),
}


@pytest.mark.parametrize("case", ADMISSIBLE_CASES, ids=lambda c: c.name)
def test_state_tables(pair_cache, case):
    pair = pair_cache(case.name)
    digests = (state_table_digest(pair.source_table), state_table_digest(pair.target_table))
    assert digests == STATE_TABLE_GOLDENS[case.name]


@pytest.mark.parametrize("text", KRAWITZ_POLYNOMIALS)
def test_unprojected_maps(text):
    P = parse_polynomial(text)
    digests = (unprojected_digest(unprojected_state_space(P)),
               unprojected_digest(unprojected_state_space(transpose(P))))
    assert digests == UNPROJECTED_GOLDENS[text]
