"""Golden bundle digests: `pushsim run` output must not change by a single bit.

Each case runs the CLI in a fresh directory and compares the sha256 of every
bundle file with a digest committed here.  ``summary.json`` is hashed
without its ``metadata`` block, the one place allowed to vary between runs.
The cases cover both protocols on the demo graph, a generated 24-node graph
whose senders draw eight or more weights per round, and seeds whose entropy
takes one to three uint32 words: 0 and 5, 123456789001 and 2**32 + 5, and
2**64 + 5.  The digests were computed with one default_rng per node and
round, so they also pin the batched sampler to numpy's streams.  A second test
hashes the arrays that read_trace restores from each trace file, so a new
trace format must keep every recorded value.  The files that `pushsim
compare` and `pushsim attack` write are pinned the same way; the compare
case takes a seed above 2**64, which a float would round.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from pushsim.cli import main as cli_main
from pushsim.traceio import read_trace

from helpers import dense_weights

ROUNDS = "40"
GRAPH24 = ["gen-graph", "--n", "24", "--extra-edge-prob", "0.3", "--seed", "7", "--out", "g24.json"]

CASES = {
    "push_sum_demo": ["--protocol", "push_sum", "--graph", "demo", "--seeds", "0,4294967301"],
    "decomposed_demo": ["--protocol", "decomposed", "--graph", "demo", "--seeds", "0,4294967301"],
    "decomposed_rand24": ["--protocol", "decomposed", "--graph", "g24.json", "--seeds", "5"],
    "push_sum_rand24": ["--protocol", "push_sum", "--graph", "g24.json", "--seeds", "5"],
    "decomposed_rand24_wide": ["--protocol", "decomposed", "--graph", "g24.json",
                               "--seeds", "18446744073709551621,123456789001"],
}

# Computed with the per-stream sampler, one default_rng per node and round.
# The trace.jsonl digests are of trace format v3, which stores no sent
# products; GOLDEN_VALUES shows that the values read back from them, the
# recomputed products included, are those of the earlier v1 and v2 files.
GOLDEN = {
    "decomposed_demo": {
        "config.json": "43d49612049d4bdf764aebc484db8ff965c8a4e336871b12433a3cb51f8141a3",
        "seed_0/attack.csv": "62915cf48375f4771d334d7c57786f5357375b432b37ec59fecc3a792aeffdbf",
        "seed_0/attack.json": "c34cba85519ce81bacc931718e7bd37d5295294012c760330a5d73d195e7e696",
        "seed_0/ergodicity.csv": "5dbd7ceca29f23334a8dd733be84b26fa141063259e9a535181c1c0cdb84be11",
        "seed_0/ergodicity.json": "7adcd2176d90cf031734eb1a7f01cd7ac10a3420dea45fa127a6f628fb0cb88a",
        "seed_0/estimates.csv": "8edb13629ad760b49c4a23647fca245da83ff33fd0cde0103f28fbb6faa509c3",
        "seed_0/trace.jsonl": "f7892b6e33e3b02054be3acef7e391d7fab5ee89d3248ab1664f89c66645e581",
        "seed_4294967301/attack.csv": "8d3f43d19ad2895e378bd696288793dc7bef264791031a61d5301120e1c183d2",
        "seed_4294967301/attack.json": "e0fb40e8ff7c5c1b3de042cdffbd67f1eab89913ac08605d5ee5650d2b0d679d",
        "seed_4294967301/ergodicity.csv": "87cb6a3c2c5ccf503da2347b961b05b8a8a8b57cee46152a98e6a21d4e490c48",
        "seed_4294967301/ergodicity.json": "000cbd0c7e6696d7a8c153c3ac304b2e74ad4ea13e4efa4c61795d57839b5374",
        "seed_4294967301/estimates.csv": "af02e6cfe02a1451fc649bf24d3c9256fe504d4b7bef44adb72ebf0d80e92cdb",
        "seed_4294967301/trace.jsonl": "22865070dee2c13f815ef585c428300a2f7c7aa26fd20d9f2cf8fb4dec196778",
        "summary.json": "5af2788776b26d10cdab65cea69924f8f164dde95578333338e400c8bf0b536c",
    },
    "decomposed_rand24": {
        "config.json": "eb41eb8181b36a047fff143bc20a0dd00c5394b841e75442914dba6a4316375f",
        "seed_5/attack.csv": "cda17112c1b5124fa000aee0a2573f8ac1509b0361f941ef69ccc15fd59b2ee7",
        "seed_5/attack.json": "f57b6f9fcd7555bdcff38915cc38fe6b7e06882071ca9cb20ddf8a06db170c52",
        "seed_5/ergodicity.csv": "fe9af600c65a8b1a7cd696ac63cb1dc34bd9c12e2e5415c1a3d0aabe3c8b88c7",
        "seed_5/ergodicity.json": "ba7968267f4ee0098b8eed7095c4696fa68800f5950ce97aff212cf7fd5100f5",
        "seed_5/estimates.csv": "cb7ca62a39a506575cea8093300d58a92757962a966291c50ee55d6ddc3e0271",
        "seed_5/trace.jsonl": "cf83c80c5e2c3c5c06f1a7f54022c14f24bf729fa890c29a19a8fa880881375d",
        "summary.json": "774e0e4ed14a3405d600f11347286bfe1adfdf0797ef0acde3e7ef4caeeacf91",
    },
    "decomposed_rand24_wide": {
        "config.json": "bce6f62853ecede808126a64af6c65887ef34ab9b4626356681c9af093561386",
        "seed_123456789001/attack.csv": "68c6b9dae135515b0d763bc2354f00718d36352942cdd0c79209cd6e100d4fe5",
        "seed_123456789001/attack.json": "ff653880f172df7c17812436b650f96962c66fcca0efb0cf1195ac83d26e54e2",
        "seed_123456789001/ergodicity.csv": "ac51fe87068a073685ab5d52139d30f1648b691c542af1cc17709db7a37a310f",
        "seed_123456789001/ergodicity.json": "1fb38638e83aa93cfc25808bb72f239cb5615ab964905c22d67dc8856fff599a",
        "seed_123456789001/estimates.csv": "533fc950842f6ba3b3c35ca804f275b0a50e15e9f2df671b04f15ab98262007c",
        "seed_123456789001/trace.jsonl": "4f94dd77317a2b69a40397b2129ec4f1635ccca936e196bd9edfaf38d49923e9",
        "seed_18446744073709551621/attack.csv": "31a594de202cac4bdd671b3f8d60221d0ac02373e0fb7a3215cc47eb94f01666",
        "seed_18446744073709551621/attack.json": "957915cb7507754d23684ec638c3dc02162315e59dabd2c50c4757a56641e445",
        "seed_18446744073709551621/ergodicity.csv": "01064aae7ddadf4362e9e409d53e7ecaafc05b45a88667f9202589b6d16a6278",
        "seed_18446744073709551621/ergodicity.json": "826fe76096dd039c7c9d1cc768aff29042a607ee8082db49bc99fc84fa2fae31",
        "seed_18446744073709551621/estimates.csv": "a456694e65475d7d3c3a94bb9223a106ae4efdf87d7a37ce1d755702892dce1e",
        "seed_18446744073709551621/trace.jsonl": "623822f4e3d0b826b7cb252da3c8f3cdf89e1b575da739a82f16a54fbd6ca5f5",
        "summary.json": "ad74f42acef9e08151fe300565a6e7f59b20e76687676f449ae55e9cfb63dd3d",
    },
    "push_sum_demo": {
        "config.json": "1de5765e436595b7c982d3c048190efab38ecf250a3e36163f28da27ceb43f7c",
        "seed_0/attack.csv": "f42bd0dd28af855152c28b38b361afa183022b429c07f7dcca9d95fdeda789ce",
        "seed_0/attack.json": "1cccf29874497b1ba043d4d1bdef8634118739de7f8ba6b4f0085e6b994a8317",
        "seed_0/estimates.csv": "078fbb5cda2da2bb2f4c9477e8f5cea39509f3098ecbde9ceafda1fdc3754b81",
        "seed_0/trace.jsonl": "71ffd691cb3f7ec85143bb7f33795e07022e9054ebd999decbf8fd1919e041d9",
        "seed_4294967301/attack.csv": "6b71857d2fca8c56d82c3f6f17790eecba944bd409bdb34f536fc86ef8baefe3",
        "seed_4294967301/attack.json": "0ed95a56f3e1ad5b5af2002516ca2fa68f8be904fa87cce76de80d7043bb914f",
        "seed_4294967301/estimates.csv": "6a9d03cb116122126dfdd3bcd11702767f3ebab81d0fd937f5cd2a76b715b0a4",
        "seed_4294967301/trace.jsonl": "9f4682230c9a1ba57e2c818ecd555b544105ed94faa232855cbc28b0629b85ec",
        "summary.json": "88828a977d7c538a79386da545eb39c517501807022f50ce576e0e1f0ec1907c",
    },
    "push_sum_rand24": {
        "config.json": "2bb8cd2df54c74498bdee6af5f9ffdb657b9176f8bffb4773e395deccc8ad522",
        "seed_5/attack.csv": "de1ec52e7efabcf8207aa1b36129875c01019abea48dd9ff615bf2a48c8895b3",
        "seed_5/attack.json": "9190368c2d1c1ae1f6895a33e164b47d28c1a125c3369c4829bf981fbbe2cc11",
        "seed_5/estimates.csv": "72ece558e24f58e8e83b86c0badc3a5d8054857b667bc431fb71270237d6288b",
        "seed_5/trace.jsonl": "0b575fba44ec99f738b443e5b487dd889169ffe1811c8f7236009bc98da7bd7e",
        "summary.json": "d3f96428b35628b6ffeb4bf5ff9f9864fd51d1eb97230186dec758f0643c18d5",
    },
}


# sha256 of the files `pushsim compare` and `pushsim attack --json --csv` write.
COMPARE_ARGS = ["compare", "--graph", "demo", "--rounds", ROUNDS, "--seeds", "0,18446744073709551621"]
GOLDEN_COMMANDS = {
    "compare": {
        "compare.csv": "10d4f2554458792350a3e7285290221675f632fedfd09ad3ec44991e7f680e92",
        "compare.json": "4a785b2f0c7982cee52b61479a2ee6cdd3d0b74a24269e992ab5ed5a44cbc1e9",
    },
    "attack": {
        "attack.csv": "b18432ebe625a006f7ae4bb1bf7a8cfa8e97db7f080cfdf34884bf69e70f7e13",
        "attack.json": "b24e30d7b2948ff699ee1b8dec6b49e932e92a8267d93623f4e52958fb19ef67",
    },
}


# sha256 of the p, alpha, states and sent arrays that read_trace restores from
# each trace file, computed from the format v1 files before the move to v2.
# The decomposed_rand24_wide entries came later, from its v2 files written by
# the per-stream sampler.
GOLDEN_VALUES = {
    "decomposed_demo/seed_0/trace.jsonl": (
        "b0ddfac0f79038bf2f6736dd9f36db0eed13359fa02303d08d8c813582680b00",
        "f90cd96f15bdfe9ce8c6f0b61f1d9379f797f849052ea1f2789afb15664a9778",
        "f24d43d42c64f0eb7a135d193e7576d37fe2f73e5c95286927b2f6e0c9ccad03",
        "ceb6ca82cdb16ca2a97e3ad0dab95c3a37c9915274c099349fe36dd6a245378c",
    ),
    "decomposed_demo/seed_4294967301/trace.jsonl": (
        "304b1a1896b6f68c8fc80bb093e772770230849d374dd808c74988eda2a08237",
        "02953787e4d90a6310a717980dfc3ba36b8d1b6fab7a9263c9168cd1a7ba394f",
        "e392e25362611818c618233f21a8e205a18ae09395f85d3940ed62919436680a",
        "200e3dd79c381456e2c152394c61a575f8f80f9d43f63b27925f1070e3f4b089",
    ),
    "decomposed_rand24/seed_5/trace.jsonl": (
        "3be66af1e12673a4a459919e1b9fce48d43c385f63cd5b8903bf7a378318b7a9",
        "7ba3c9c60329d4cf977c776f0a8b27643d56a9440883a0dd6332eade5686533c",
        "c4f6e8b81d4ec237a580fb91db06556744ce8fe9a5b1adacbfd2dcf86dc22358",
        "e835db95564aceae59ecfa74955c19eba605c6af7be5b5fedb85962db27be0ad",
    ),
    "decomposed_rand24_wide/seed_123456789001/trace.jsonl": (
        "4488fb533f38e4e67ff00c4958438c311117beb8b475e52ac56dda670163e15c",
        "a8533d36f3e03d24c0776db3988141c63ce7f38bab9ed8016cca770def2d6664",
        "ba3f0d43720e9e682ecdac9c8578b3e5e0b50c338dbd95dd3981712e758b20bb",
        "f5982db07c2f917f64e90e400511517c1a96c2c5f41c617aecb93c378b238061",
    ),
    "decomposed_rand24_wide/seed_18446744073709551621/trace.jsonl": (
        "7ecf7ad3d54327d7450151f34972c71fcee9210ad25528c3eb0d4f7fd08470c0",
        "10da39bf7b163fcc5c15103616b9ad0cf06dab1e7fa3a0800fe9791fc9c11a68",
        "edffd9c8f8f6b7274b326cb28c01c542ef316b8739c6f90bc0ae2105f8aa5ecd",
        "4cdd4a06d01cf53ed9e72fd6779741ad5856744e972161e8dbac6317e7870b98",
    ),
    "push_sum_demo/seed_0/trace.jsonl": (
        "9088d50812c05cb568a72e981db4c3f78dbfbd78fd61776737109cd1bbc4ba21",
        "e61f41d57db208c5f92a35c4ce7198570924a3fc87eeba83441fceee5d6a2865",
        "6db9c45f4bf13e1e82d77c79218895609c452f6202419ba1dab2b9f3e2018265",
        "35a7938e27fdce2457b9eba2b4d280417062d1794c9e719fc743c67a0be73819",
    ),
    "push_sum_demo/seed_4294967301/trace.jsonl": (
        "336917f7baca02d39bbca007b7cb95ad9510e1ef1345562f64ed5f7be4439468",
        "e61f41d57db208c5f92a35c4ce7198570924a3fc87eeba83441fceee5d6a2865",
        "f8b852317df9877d20c8934999fb29c143b90461e8f9bf071e1c4ee92987b9ae",
        "fd234c7535ac46bff6041500a90196d3f0534583bbee3aff3d408041757639cf",
    ),
    "push_sum_rand24/seed_5/trace.jsonl": (
        "07a05151f84e84203313c46a740e2125b511567abeacc6e7d3a3c7389032594c",
        "f6e28ad1753237d42be72be187a88f09a269097eeda24bcf12908db6bd361246",
        "edb83ac3d86b714594479a1bd217d472f7475d85f599c00f947f59cfcbb7d9f7",
        "896c5241be154a2ce758cc8bc707a8f33b1278f4f6d6bf942f3c4beca2a6787b",
    ),
}


def bundle_digests(out: Path) -> dict[str, str]:
    """sha256 of every file under `out`, keyed by its relative path."""
    digests = {}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        blob = path.read_bytes()
        if path.name == "summary.json":
            summary = json.loads(blob)
            summary.pop("metadata")
            blob = json.dumps(summary, sort_keys=True).encode()
        digests[path.relative_to(out).as_posix()] = hashlib.sha256(blob).hexdigest()
    return digests


def run_case(name: str) -> dict[str, str]:
    """Run one case in the current directory and return its bundle digests."""
    args = CASES[name]
    if "g24.json" in args:
        assert cli_main(GRAPH24) == 0
    assert cli_main(["run", "--rounds", ROUNDS, "--output-dir", name] + args) == 0
    return bundle_digests(Path(name))


@pytest.mark.parametrize("name", sorted(CASES))
def test_bundle_matches_golden_digests(name, tmp_path, monkeypatch, capsys) -> None:
    monkeypatch.chdir(tmp_path)
    assert run_case(name) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_trace_values_match_v1_golden(name, tmp_path, monkeypatch, capsys) -> None:
    monkeypatch.chdir(tmp_path)
    run_case(name)
    paths = sorted(Path(name).rglob("trace.jsonl"))
    assert paths
    for path in paths:
        trace = read_trace(path)
        # the weights hash as the dense (R, n, n) array they were first pinned as
        arrays = (dense_weights(trace), trace.alpha, trace.states, trace.sent)
        assert tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in arrays) == GOLDEN_VALUES[path.as_posix()]


def test_compare_matches_golden_digests(tmp_path, monkeypatch, capsys) -> None:
    monkeypatch.chdir(tmp_path)
    assert cli_main(COMPARE_ARGS + ["--output-dir", "cmp"]) == 0
    assert bundle_digests(Path("cmp")) == GOLDEN_COMMANDS["compare"]


def test_attack_matches_golden_digests(tmp_path, monkeypatch, capsys) -> None:
    monkeypatch.chdir(tmp_path)
    run_case("decomposed_demo")
    trace = "decomposed_demo/seed_0/trace.jsonl"
    Path("atk").mkdir()
    assert cli_main(["attack", trace, "--json", "atk/attack.json", "--csv", "atk/attack.csv"]) == 0
    assert bundle_digests(Path("atk")) == GOLDEN_COMMANDS["attack"]
