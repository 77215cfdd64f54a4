"""Golden artifacts: short seeded CLI runs on a copy of sample_data/ must
reproduce these exact bytes and stdout.

Every artifact is hashed, the -sstep save points included. The copy's
directory is replaced by "<dir>" in the .paras files and in stdout before
comparing, so the digests do not depend on where the test runs. A change that
must alter output bytes re-blesses the digests in a commit of its own and
says why in CHANGES.md.
"""

import contextlib
import hashlib
import io
import shutil
from pathlib import Path

import pytest

from gibbstopics.cli import main

SAMPLE_DATA = Path(__file__).resolve().parent.parent / "sample_data"

# (experiment name, CLI arguments); "{dir}" is the copy of sample_data/.
RUNS = (
    ("gLDA", ["-model", "LDA", "-corpus", "{dir}/corpus.txt", "-ntopics", "4",
              "-niters", "6", "-sstep", "3", "-twords", "5", "-seed", "11"]),
    ("gDMM", ["-model", "DMM", "-corpus", "{dir}/corpus.txt", "-ntopics", "8",
              "-beta", "0.1", "-niters", "3", "-sstep", "1", "-twords", "5", "-seed", "15"]),
    ("gLDAinf", ["-model", "LDAinf", "-paras", "{dir}/gLDA.paras",
                 "-corpus", "{dir}/unseenTest.txt", "-niters", "4", "-sstep", "2",
                 "-twords", "5", "-seed", "13"]),
    ("gDMMinf", ["-model", "DMMinf", "-paras", "{dir}/gDMM.paras",
                 "-corpus", "{dir}/unseenTest.txt", "-niters", "3", "-sstep", "1",
                 "-twords", "5", "-seed", "17"]),
)

GOLDEN = {
    "gLDA": {
        "exit": 0,
        "stdout": (
            "LDA iteration 3/6: saved <dir>/gLDA.* (3)\n"
            "LDA done: 6 iterations, outputs at <dir>/gLDA.*\n"
        ),
        "artifacts": {
            "gLDA.paras": "4fb815e3c818d38e445df1bf6d40fb6deea565f6092716ffc7dff332ef24ae2c",
            "gLDA.paras.3": "4fb815e3c818d38e445df1bf6d40fb6deea565f6092716ffc7dff332ef24ae2c",
            "gLDA.phi": "1ea246785230dba99223de3f70b300307ebdf9769d9bfcf0347e8fa70082bdb2",
            "gLDA.phi.3": "236d825323b8ed93ef3cecb7f908c743f4892e0fd8dca05d7c8a93ecf13f9039",
            "gLDA.theta": "c401440f8559d2ac3fee8f41c47f8e8cedc42a3c7191dec58968cb0cd3ef2c34",
            "gLDA.theta.3": "0dbd603961e42769e5311fa76e4a5b2df7f15f6b126dc73d5078e390580cff39",
            "gLDA.topWords": "e4f6acaf52f8f745c450533e4e26c8d3dec654eae6e7b866211ce60aae7d5ba7",
            "gLDA.topWords.3": "5e782a78aed845ed89e62cc9d7163c016b74c969af2d2381491d45f78fa2a56f",
            "gLDA.topicAssignments": "4439ea8d7ed117662a160a3e7e5d422996802a9fb93626310aa5dbed25b6fddf",
            "gLDA.topicAssignments.3": "408ec4bf86d759afe3c5e8f34368fd32303e075648aa2eb44ecdc8f15d41bd98",
        },
    },
    "gDMM": {
        "exit": 0,
        "stdout": (
            "DMM iteration 1/3: saved <dir>/gDMM.* (1)\n"
            "DMM iteration 2/3: saved <dir>/gDMM.* (2)\n"
            "DMM done: 3 iterations, outputs at <dir>/gDMM.*\n"
        ),
        "artifacts": {
            "gDMM.paras": "ae769ec5ecbd7f723250f6e318c82ddb9000913319cbba578f31cca6e9a2d3c6",
            "gDMM.paras.1": "ae769ec5ecbd7f723250f6e318c82ddb9000913319cbba578f31cca6e9a2d3c6",
            "gDMM.paras.2": "ae769ec5ecbd7f723250f6e318c82ddb9000913319cbba578f31cca6e9a2d3c6",
            "gDMM.phi": "9b3b6d46b9a9a28d65a68e1d3ed8f61d3d3b84aef0c5d78d6c7e3c4c7c9d54fc",
            "gDMM.phi.1": "6e3ae43cfd22f693705570be7ab95c2b7e1e83bef28647068321319a13f9fead",
            "gDMM.phi.2": "4b8363b0d7a1fe8d4ca58492355e75147aac1edc1d7cbb3c82ddc198dce2a18e",
            "gDMM.theta": "81ac4e97263ed80486ca38e5ee732ce9246bc81409f21489397c4017033910aa",
            "gDMM.theta.1": "29da308e8314c66835cbd5d742b833c86ff6189fae1169d0535c70608980deb9",
            "gDMM.theta.2": "014e999d3205e84afd1d8c451358b1e800f93c9c698de71872011954ad86882c",
            "gDMM.topWords": "780776eda12eb446d57c8a115160f5aa58f42f452e167e461b4adbca23eab3b9",
            "gDMM.topWords.1": "06a7b99ae0650311210ed4d8d66d2347b9afc41adf49dcbbd68cf40bb0d0eede",
            "gDMM.topWords.2": "33811d978e9e3cc149ab6c1202caac5920de16e853103407bd0cf011b766055b",
            "gDMM.topicAssignments": "8dd3d0ca90675b1815a5fce8a9693b9602358c3c8c6a3dec05f651dcb7fb7300",
            "gDMM.topicAssignments.1": "59fca027b87d61d7ef27358d6b2865351a4d51f0d5b6dfd2371b85f715cf6b19",
            "gDMM.topicAssignments.2": "0e5d298149e44076ea6a8782ae6871670f7a64ffbb5cc3c1bb40268be60d0c78",
        },
    },
    "gLDAinf": {
        "exit": 0,
        "stdout": (
            "LDAinf iteration 2/4: saved <dir>/gLDAinf.* (2)\n"
            "LDAinf done: 4 iterations, outputs at <dir>/gLDAinf.*\n"
        ),
        "artifacts": {
            "gLDAinf.paras": "72d4c15d642a85f0c07a8402f49a9a49e7398011404294e1dd9b9abed64ff8f0",
            "gLDAinf.paras.2": "72d4c15d642a85f0c07a8402f49a9a49e7398011404294e1dd9b9abed64ff8f0",
            "gLDAinf.phi": "dea52079415830c0cf39555cf7103b5fceb672b967e3e3803058674634387d60",
            "gLDAinf.phi.2": "1386bb8bea2cb2313de1ad5720b5c0e3f96223e8d943bed143c52db3f53f4fe8",
            "gLDAinf.theta": "330ec29c6e1ec2434dff2f6f3f557d6fed4e76267a4214b98db0d56e48a522fc",
            "gLDAinf.theta.2": "7f188fa533f77d2854528ef05d7a3ca6c2b725cdd72ded19fe533a836b3f2e38",
            "gLDAinf.topWords": "af9cb811cb76c41c06b2c1659d33af20515b2ee44907c03fc926029da12a2380",
            "gLDAinf.topWords.2": "5dda77e15ad85316d5885bacdbd6dcbc7ec9485671df1961facb56b5f440897c",
            "gLDAinf.topicAssignments": "705e701ec839f51c8936181ea4ca97055c74bd847ee89eda5bf55768c1e5d4af",
            "gLDAinf.topicAssignments.2": "dc018ba8d761a33756e25b3a1ba31a1b44889f78d58e895ff4224cb764220481",
        },
    },
    "gDMMinf": {
        "exit": 0,
        "stdout": (
            "DMMinf iteration 1/3: saved <dir>/gDMMinf.* (1)\n"
            "DMMinf iteration 2/3: saved <dir>/gDMMinf.* (2)\n"
            "DMMinf done: 3 iterations, outputs at <dir>/gDMMinf.*\n"
        ),
        "artifacts": {
            "gDMMinf.paras": "7a1ee520bd00c2d98706b5b98d52310bbe18f748daf13d60dae989b79ee628d0",
            "gDMMinf.paras.1": "7a1ee520bd00c2d98706b5b98d52310bbe18f748daf13d60dae989b79ee628d0",
            "gDMMinf.paras.2": "7a1ee520bd00c2d98706b5b98d52310bbe18f748daf13d60dae989b79ee628d0",
            "gDMMinf.phi": "03d0b0c230d363234956b51669232b6e93725c4fe1f9de87f7d74199f8b21d1d",
            "gDMMinf.phi.1": "03d0b0c230d363234956b51669232b6e93725c4fe1f9de87f7d74199f8b21d1d",
            "gDMMinf.phi.2": "4dc2c21890ff078def1020b31e7a21934d768231de6a5370ade8ed8b079bb2f0",
            "gDMMinf.theta": "82e68195260aab04a34d47c520d043a3c3ac121af04367dbe9146c27bfcc597a",
            "gDMMinf.theta.1": "82e68195260aab04a34d47c520d043a3c3ac121af04367dbe9146c27bfcc597a",
            "gDMMinf.theta.2": "32d98cc564d9f91086c4d7e42f061f688cb6e5f65f5e3a32c98eb2dce18a8e76",
            "gDMMinf.topWords": "b605069eaeda15d9e50cc32ecc3cb834ce8ce8f06730768e79298341ce6027b1",
            "gDMMinf.topWords.1": "b605069eaeda15d9e50cc32ecc3cb834ce8ce8f06730768e79298341ce6027b1",
            "gDMMinf.topWords.2": "6c9ec625f29b0629ab30815defd833b02ad51a9cdd16bbf8eb7ed619aededae0",
            "gDMMinf.topicAssignments": "1ff77b17dc83944ea8b73e6bc26a546c1b4d63723fe87fc947339bfb6d296d7d",
            "gDMMinf.topicAssignments.1": "1ff77b17dc83944ea8b73e6bc26a546c1b4d63723fe87fc947339bfb6d296d7d",
            "gDMMinf.topicAssignments.2": "2279feed526f65118373f251375a7655159c026c91d541c02fea6a9487929d81",
        },
    },
}


def run_all(directory: Path) -> dict:
    """Run every RUNS entry in order; per name, its exit code, stdout and the
    sha256 of each artifact it wrote."""
    placeholder = str(directory)
    results = {}
    for name, args in RUNS:
        argv = [a.replace("{dir}", placeholder) for a in args] + ["-name", name]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        digests = {}
        for path in sorted(directory.glob(f"{name}.*")):
            data = path.read_bytes()
            if ".paras" in path.name:
                data = data.replace(placeholder.encode(), b"<dir>")
            digests[path.name] = hashlib.sha256(data).hexdigest()
        results[name] = {"exit": code,
                         "stdout": out.getvalue().replace(placeholder, "<dir>"),
                         "artifacts": digests}
    return results


@pytest.fixture(scope="module")
def golden_runs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden")
    for path in SAMPLE_DATA.iterdir():
        shutil.copy(path, directory / path.name)
    return run_all(directory)


@pytest.mark.parametrize("name", [name for name, _ in RUNS])
def test_golden_run(golden_runs, name):
    assert golden_runs[name] == GOLDEN[name]
