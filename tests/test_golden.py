"""Byte identity of the files the CLI writes.

Each case runs one canonical command at N=201 into a fresh directory and
compares the SHA-256 of every file it wrote with the digests below.  The
last digits of a spectrum depend on the libm and LAPACK builds, so the
digests hold for the numpy and scipy versions they were recorded with; on
other versions the cases skip.  ``python tests/test_golden.py`` prints the
digests of the running code in the layout of ``DIGESTS``.
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

from groupcalc.cli import main

RECORDED_WITH = {"numpy": "2.4.6", "scipy": "1.17.1"}

WELL = ["solve", "--potential", "well:L=1", "--N", "201", "--k", "3", "--cross-check"]
HARMONIC = ["solve", "--potential", "harmonic:omega=1", "--N", "201", "--k", "3"]
FILE = ["solve", "--potential", "file:{pot}", "--N", "201", "--k", "3"]

CASES = {
    **{
        f"well-{spec}": WELL + ["--class", spec]
        for spec in ("bg", "tsallis:q=0.5", "tsallis:q=1.5", "kaniadakis:k=1",
                     "abe:a=1,b=-1", "series:a1=0.3")
    },
    **{
        f"harmonic-{spec}-{path}": HARMONIC + ["--class", spec, "--path", path]
        for spec in ("bg", "kaniadakis:k=1", "abe:a=1,b=-1")
        for path in ("g", "x")
    },
    "file-kaniadakis:k=1-g": FILE + ["--class", "kaniadakis:k=1", "--path", "g"],
    "file-tsallis:q=0.5-x": FILE + ["--class", "tsallis:q=0.5", "--path", "x"],
    "well-table-tsallis:q=0.5": ["well", "--L", "1", "--n", "1..3", "--class", "tsallis:q=0.5"],
}

DIGESTS = {
    "file-kaniadakis:k=1-g": {
        "spectrum_energies.csv":
            "311d84fc566f149773b71e2da5f804a06c14df89ef63a1a8e0b78f739e204bd5",
        "spectrum_meta.txt":
            "d560f251ee0ba25af5c024eca6ddb8cbd69f57fc1d286a500f5bc5cb5410e6d5",
        "spectrum_state_1.csv":
            "4dbde01c65d82d00b048a036a09e470265b94fd31b1888c81ba894093edf4289",
        "spectrum_state_2.csv":
            "9e928334a34353df3f83a23a615a5081ca73cbc4f483d9e23f769d1fb9e8cc63",
        "spectrum_state_3.csv":
            "4d231c190064e9324132955305b614fb55a9152a44f11aaaf27105c364b58bd4",
    },
    "file-tsallis:q=0.5-x": {
        "spectrum_energies.csv":
            "94b7ca00e275dfbbb2ef1cb05a733ca660e7dfdb3ab755b1a4cffa3a3eea2eb5",
        "spectrum_meta.txt":
            "08e38047e916d4f89de65502aee1cb4504fe8ba7b8c36caaab0eb8b13e2edd12",
        "spectrum_state_1.csv":
            "4ccd4f7443b2d3b64903e9e4c9992e18651f6e342afc2329b2cc61ec561878d1",
        "spectrum_state_2.csv":
            "02c1687de6ff333cf11e62e4e9d9d542289f9ff66032e17fb1e8edca9e4f57b2",
        "spectrum_state_3.csv":
            "8922770be51f7e3f8579d4bb63eb23285bdb0855459ddb08be379d16734dc8ad",
    },
    "harmonic-abe:a=1,b=-1-g": {
        "spectrum_energies.csv":
            "4f8e5e716b4234398484c7da6992849bc1f9020e18b78eba0666724bf556b6d8",
        "spectrum_meta.txt":
            "b921c7d7aaa1ba8abca23c0fc83a93e401a76cbe58127fc4ae042b967ea993f0",
        "spectrum_state_1.csv":
            "b7ac285fe010af4358030fc1064859838594335dd620d8a103c49a5fe7ef59ed",
        "spectrum_state_2.csv":
            "11ceb50acf7ce06d0758e5a945bcc5a6cde414dd57d10c6cabb552ff49b9c50c",
        "spectrum_state_3.csv":
            "708b61d41bcf572d0d6eab1f1e7f46c38708bbb2a5caa8ef24c9682dfddf1cb3",
    },
    "harmonic-abe:a=1,b=-1-x": {
        "spectrum_energies.csv":
            "0e03c20fa2f4dab91fd95d3ab5957bef5888e1f5990c388574e64b29236b5c08",
        "spectrum_meta.txt":
            "dcfcbf19e0c0b1a43b0325c53730cf07ac2514eaf2cb48a26dc3911ecfe9cf16",
        "spectrum_state_1.csv":
            "c797c8dc600068dd8a774e61362862d8da55058ab9b4397494ade928309947db",
        "spectrum_state_2.csv":
            "5b8436e2cd0e3ba6e5b6866e6341f6ac8944c6146ad3b6c5a7f707ad6d47ec20",
        "spectrum_state_3.csv":
            "13816670a43d881e65db5fb41cae01c3c22a3c1d3a179bb0e55a7ca81d733b2a",
    },
    "harmonic-bg-g": {
        "spectrum_energies.csv":
            "fa6346bb1c38396ce369c6ddae7bc3be41a6b6dc0212adc8a4a7fc3f095211a5",
        "spectrum_meta.txt":
            "b842ba6f7cbb11f6fefc04d86982eae654ccfeec9c37506a675ed953cc304011",
        "spectrum_state_1.csv":
            "ca7ae5956c384a79f249e7d7535f697b783910b6d997b4677fbd41e94a6d1a70",
        "spectrum_state_2.csv":
            "48722a445f884d698ece1e5b4209839978b0340c615bd0ec6350dbf9cdde8b61",
        "spectrum_state_3.csv":
            "ba4e37ecf4944dbda0e04c4b990d30ee5c3bfc00d569998e1dc4d5815a4f5500",
    },
    "harmonic-bg-x": {
        "spectrum_energies.csv":
            "fa6346bb1c38396ce369c6ddae7bc3be41a6b6dc0212adc8a4a7fc3f095211a5",
        "spectrum_meta.txt":
            "38feeea8117bf3029abce55be2184eb730e72f8f2cf7ec53805e99394b24129b",
        "spectrum_state_1.csv":
            "ca7ae5956c384a79f249e7d7535f697b783910b6d997b4677fbd41e94a6d1a70",
        "spectrum_state_2.csv":
            "48722a445f884d698ece1e5b4209839978b0340c615bd0ec6350dbf9cdde8b61",
        "spectrum_state_3.csv":
            "ba4e37ecf4944dbda0e04c4b990d30ee5c3bfc00d569998e1dc4d5815a4f5500",
    },
    "harmonic-kaniadakis:k=1-g": {
        "spectrum_energies.csv":
            "4f8e5e716b4234398484c7da6992849bc1f9020e18b78eba0666724bf556b6d8",
        "spectrum_meta.txt":
            "1021af7a2b23680e67b73a6f865c56752f9c77f85a262481ee5d218981947ad7",
        "spectrum_state_1.csv":
            "b7ac285fe010af4358030fc1064859838594335dd620d8a103c49a5fe7ef59ed",
        "spectrum_state_2.csv":
            "11ceb50acf7ce06d0758e5a945bcc5a6cde414dd57d10c6cabb552ff49b9c50c",
        "spectrum_state_3.csv":
            "708b61d41bcf572d0d6eab1f1e7f46c38708bbb2a5caa8ef24c9682dfddf1cb3",
    },
    "harmonic-kaniadakis:k=1-x": {
        "spectrum_energies.csv":
            "c28975412dde8d080d0baa7187e2ae4bddab55c54e5b691a1c86caf9a8daace2",
        "spectrum_meta.txt":
            "e5caf513fcbeef2eccd40988c270106e3ffa6c9f226fdaecc2e3008f34f2001e",
        "spectrum_state_1.csv":
            "c797c8dc600068dd8a774e61362862d8da55058ab9b4397494ade928309947db",
        "spectrum_state_2.csv":
            "3782a2bf4cd85c6641d0bb857dc6a68a630e2dd3694e1083ace5335ae8c9a2da",
        "spectrum_state_3.csv":
            "13816670a43d881e65db5fb41cae01c3c22a3c1d3a179bb0e55a7ca81d733b2a",
    },
    "well-abe:a=1,b=-1": {
        "spectrum_g_energies.csv":
            "0253581e12803d915a942237f66467ec7bf728226280c1030400c430d79633e2",
        "spectrum_g_meta.txt":
            "e8ed2cabf0fb1b5b97a28673de557426814c57fdc64dd3b3f2f9ee2268d54bfd",
        "spectrum_g_state_1.csv":
            "d02c565704c8955dd1fda176a52f59fabbd9e2082997a8a8f7cb1db3f1a64db0",
        "spectrum_g_state_2.csv":
            "709e37e400937f98b282c00b1799e94eaa3f73bf2bb598d1685a57eed1bbaf28",
        "spectrum_g_state_3.csv":
            "c3aa0aa0f73bbd0cd77dc1ef84a722ee2347d7d3e61ad07ffab610663076cc03",
        "spectrum_x_energies.csv":
            "79f79c2b0d4d1fc9a4ce7b5a90d952bdedfdabec82d2e0bdc90e45a41db658bb",
        "spectrum_x_meta.txt":
            "f236d97d6ca54b9e04267d80e38887d27e959ddce99b8d249a9ae27e0dabcb4d",
        "spectrum_x_state_1.csv":
            "12c6aaf10c5d9d39f846d32c62e6a5e9b6980ceee25f5c9b60918c48dc1a3248",
        "spectrum_x_state_2.csv":
            "9cf53298402949b132bef722c7fd6e3ffb26041f6dace03c676e363846f526bb",
        "spectrum_x_state_3.csv":
            "7621c30a545b6dc7d4348a29e9f695037ded2569d22ed50ab2cdc3e6dbc6570d",
    },
    "well-bg": {
        "spectrum_g_energies.csv":
            "6aaff313380ecd405723278d10ee348e11c94552eb4b92231a11acfe1247f200",
        "spectrum_g_meta.txt":
            "9b4157ce809e5c3f83ea991cb8b1ab2132d682811c1c1d93a5d581583edd921e",
        "spectrum_g_state_1.csv":
            "467c7301d5114a90cc8abb1d60dad4a6d568ef15935ae108ec70d811bf96051d",
        "spectrum_g_state_2.csv":
            "649be389c58a98ccc75a66deed2dee225299f5882c4a34811d01e3b0258a4587",
        "spectrum_g_state_3.csv":
            "ebacb22f7e0b5a160bc4387e50ef6a7fe62146aae3fc3a54054d55399bacfe49",
        "spectrum_x_energies.csv":
            "6aaff313380ecd405723278d10ee348e11c94552eb4b92231a11acfe1247f200",
        "spectrum_x_meta.txt":
            "a88bc70e821b97586298f4ed33807b4a8206c23646a46c30b60faa9c8bafdf37",
        "spectrum_x_state_1.csv":
            "467c7301d5114a90cc8abb1d60dad4a6d568ef15935ae108ec70d811bf96051d",
        "spectrum_x_state_2.csv":
            "649be389c58a98ccc75a66deed2dee225299f5882c4a34811d01e3b0258a4587",
        "spectrum_x_state_3.csv":
            "ebacb22f7e0b5a160bc4387e50ef6a7fe62146aae3fc3a54054d55399bacfe49",
    },
    "well-kaniadakis:k=1": {
        "spectrum_g_energies.csv":
            "da8b515292661137db4db8ecb6aae11845345469f2a47a05729f4339a88e8e8a",
        "spectrum_g_meta.txt":
            "3b812ba214d0269960f6376b874f1e0c91b6cfba21c505c02c4f3a108f5fd48c",
        "spectrum_g_state_1.csv":
            "d02c565704c8955dd1fda176a52f59fabbd9e2082997a8a8f7cb1db3f1a64db0",
        "spectrum_g_state_2.csv":
            "c21629a6da8ad30dad0d128298fd9bd1f5e192681c4085bd26235a48e9c22152",
        "spectrum_g_state_3.csv":
            "c3aa0aa0f73bbd0cd77dc1ef84a722ee2347d7d3e61ad07ffab610663076cc03",
        "spectrum_x_energies.csv":
            "7221144d868be6b938cc7f424fe39d90037950c0ba2c349c5d61b9640d146527",
        "spectrum_x_meta.txt":
            "167cc93c64481b0a1824a390fbd64e076f4eb49c13cdd5378e72780bba7ae50c",
        "spectrum_x_state_1.csv":
            "93a1f041092582e66fdff6050e79513f886f2b38aa861d6cb37bcee1e067233f",
        "spectrum_x_state_2.csv":
            "4e3129be0b6740c5ad069830594450ce1edb17895a0e0209c0bebf0a985ae2b4",
        "spectrum_x_state_3.csv":
            "3abd03c6caf7a0f93f805213a8e78bc225db3b2748b78daf4168b6a9c93c2c42",
    },
    "well-series:a1=0.3": {
        "spectrum_g_energies.csv":
            "371e1e2a54b8e17e2467592b18c5758b6c91460486e8c453688eeb492eda62ae",
        "spectrum_g_meta.txt":
            "82b436b014c4acd9ca6e4b9099855949d9fb34a3d3e382ff523dc99abc069ea4",
        "spectrum_g_state_1.csv":
            "4efe5141d00af841c090d56653c318a9c46e00acf489b8873dc25be07dbc9c26",
        "spectrum_g_state_2.csv":
            "96ab5e3cc14e32b21b958cf7a75c28e72fd271677e7081c1c26df04bc0e0d209",
        "spectrum_g_state_3.csv":
            "dacac7d9bc747d6fad8e5fa44e5fc1ab22721ad95190599ca9b906f83e853c6e",
        "spectrum_x_energies.csv":
            "0397767b1744de118b0d926729bcfc3fa846586dc3eda67bb8f022dd5e58214e",
        "spectrum_x_meta.txt":
            "9280af786e91445621c80b357f47186c25d39f5ad585669b91c4fced1edf344c",
        "spectrum_x_state_1.csv":
            "78b503aa83e50ed6a55e7b8e2b11f7cc97c8e981f71a46fbb3f1ef2063baf477",
        "spectrum_x_state_2.csv":
            "dfe6f525132a966dbb495461ead97bef1b7ffdf3fd3ee1ce036887f0ab21450a",
        "spectrum_x_state_3.csv":
            "ad1fc90fa05cb71fe23a10c22c04516969c874508d149b1284c7f97284702e7d",
    },
    "well-table-tsallis:q=0.5": {
        "energies.csv":
            "edb776d1ee4d2b588ff83aa056b92f0cf372fdd6136e6711b4648d880fbe5975",
        "spacings.csv":
            "90cb3b787f2492e00e497ca9970b81c663dceb24b523d79978ded27d1dc49edc",
        "well_prob_n1.csv":
            "84c71881cd45022bb57d803eca34c1c0db0994c2e60bc45361e3ce8eea11d5c4",
        "well_prob_n2.csv":
            "ecd000e10d61618ba08e06a87d8d151ba68b32259f970a294983d38ec1e62222",
        "well_prob_n3.csv":
            "b831e67a34711e641d1a353ba57b6bbba341e8ad6783d1503794268f05b1f8f0",
        "zeros.csv":
            "87d2e0f53716add51c84fd37f5d22c4526cea6385b9887a0de3dd7e2cd3d81ff",
    },
    "well-tsallis:q=0.5": {
        "spectrum_g_energies.csv":
            "01f30f9791f4b133c484691ccb36a5945d9d30b8b38f0de80c7d4c0cda9899d0",
        "spectrum_g_meta.txt":
            "ebf85609791faa822d2a7be6e08192f6b30edff2b0b64bac0ca0126ec82406cd",
        "spectrum_g_state_1.csv":
            "8c4e5168cc09a297a8886c0ce9fbe9ddc64e9eb3a10ad5b94320e5aaa517a366",
        "spectrum_g_state_2.csv":
            "0e90ba4fe695475039a702b366cdb5c9720ba2fee401ae9ddcade930cd4896d8",
        "spectrum_g_state_3.csv":
            "ae86c4cb5cb729b209c4c6dceb3d0df7bc805b939cde540e0bd7b9bb90e4d3a7",
        "spectrum_x_energies.csv":
            "788174c01bb32ad09756a2768c04bb3f003636fc065b1a8992541b1607781df7",
        "spectrum_x_meta.txt":
            "d86f1cb30e997920d5389ffdc1b59116a8bebd1e69bd2097fe918c836cb4d486",
        "spectrum_x_state_1.csv":
            "bf4ba11fa099cfc308c8bbba3043d3652eb0acbdb52668a75f7470a4f33f48d4",
        "spectrum_x_state_2.csv":
            "00b61eab92c8c3584456219d1456a504cdde1d00a3125a6aa544fd616c06c4f3",
        "spectrum_x_state_3.csv":
            "db85c9a765d931d1e49fa7dcd40b56cd0024fff0dbf4d53891b2eccdeb9e79d5",
    },
    "well-tsallis:q=1.5": {
        "spectrum_g_energies.csv":
            "ef681ba3cd8cee320b8029f257c05732624eaf1f5412fdc82bc6c249ca5e8c85",
        "spectrum_g_meta.txt":
            "6215530b49502cb8351352c6437b531b46a6beaddb35151b77945674290b6d77",
        "spectrum_g_state_1.csv":
            "565326348a051d57fd0152d0fc8b31eb335c55c19aff37675208c4f856b617b4",
        "spectrum_g_state_2.csv":
            "a64aaea47db0e11a52eee8e03d8b4d10f2c4a2faf33621d813b02b394be91ab4",
        "spectrum_g_state_3.csv":
            "ac4cb3f15101548d1f68d875b5bc87cd358ba01728b89e8fbe51edec5d6c1bb4",
        "spectrum_x_energies.csv":
            "10f04503a69e5b4d24d079d29f6e36a9637122914d2bb0582e956aae366bb27a",
        "spectrum_x_meta.txt":
            "9ddec08034cc90ff8910a422526609cb5f9e110a6a8cf76db25b180d552d85ac",
        "spectrum_x_state_1.csv":
            "b0dd39818941916fa54844d7ae96b523985716851e84d554e099b72f006f3cc1",
        "spectrum_x_state_2.csv":
            "b6a78371d3b2bc52d9e1d1cbef4a39649fe33ab46466b4dba8caa856cbadb603",
        "spectrum_x_state_3.csv":
            "528d631555dcf4cb0e441eb404635b2daa2a8947e2d5cd6b679a6ccda2921855",
    },
}


def _write_potential(path: Path) -> None:
    """Anharmonic samples on [-1.5, 3], inside the domain of tsallis q=0.5."""
    xs = np.linspace(-1.5, 3.0, 46)
    rows = [f"{x!r},{0.5 * x * x + 0.05 * x ** 3 + 0.02 * x ** 4!r}" for x in xs.tolist()]
    path.write_text("x,V\n" + "\n".join(rows) + "\n")


def run_case(name: str, workdir: Path) -> dict[str, str]:
    """Run one case in ``workdir``; the digest of every file written, by name."""
    pot = workdir / "pot.csv"
    _write_potential(pot)
    out = workdir / "out"
    argv = [arg.format(pot=pot) for arg in CASES[name]] + ["--out", str(out)]
    code = main(argv)
    if code != 0:
        raise AssertionError(f"{name} exited {code}")
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.iterdir())
    }


@pytest.mark.skipif(
    {"numpy": np.__version__, "scipy": scipy.__version__} != RECORDED_WITH,
    reason=f"digests recorded with {RECORDED_WITH}",
)
@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_files_are_byte_identical(tmp_path, capsys, name):
    assert run_case(name, tmp_path) == DIGESTS[name]


if __name__ == "__main__":
    import tempfile

    digests = {}
    for name in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp, \
                open(Path(tmp) / "stdout", "w") as sink:
            stdout, sys.stdout = sys.stdout, sink
            try:
                digests[name] = run_case(name, Path(tmp))
            finally:
                sys.stdout = stdout
    print(json.dumps(digests, indent=4))
