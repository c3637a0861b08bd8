"""Synthesized proofs pinned byte for byte.

The line-count tests say how long a proof is; these say what it is. Each
digest is the SHA-256 of the compact JSON text of ``proof_to_json`` of a
flat proof: every template's generic at (1,1), and the expansion of
``complete_prove`` on the 21 goal shapes of the benchmark's ``prove``
workload, with its atoms x and y named p and q. A synthesized proof
cites its lemmas; for a goal with no tautological proper subformula,
expanding every citation in place gives the proof that was synthesized
before lemmas were cited, byte for byte. A goal with one proves that
subformula once and cites it, and may need no lemma at all. The cited
documents themselves, lemma table and all, are pinned too, so a
reordered or renumbered table shows even where its expansion does not.
"""

import hashlib
import json

import pytest

import inpk.proofs as proofs_module
from inpk.formula import Atom, parse
from inpk.kalmar import complete_prove
from inpk.proofs import Proof, check, expand, proof_to_json
from inpk.semantics import LogicParams
from inpk.templates import TEMPLATES, derive_template


def digest(pf: Proof) -> str:
    text = json.dumps(proof_to_json(pf), separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


TEMPLATE_DIGESTS = {
    "refl": "d1be10de53e2860b2e3c98a104fd517f31679079c0ce6198f84f673629afda82",
    "elim_classicalize": "1f6396188cf6ed71a8908ad910d92ca1dcfb695d4ca2702c4ab07d77034fa65c",
    "intro_classicalize": "aa360be9559546faafb8a9b9a93cf2a5ce51feb12ed33692f86639e4bc8c5b15",
    "star_of_star": "db37a793255ff9d3b1e1f24450f06ce3bb55deef74e9d01f74b794c4a0b5025a",
    "circ_of_star": "107b4e3ac5c2f8a1251eccf6b1db66c12da25fee7c4de67fb57cd2274c39d5d0",
    "star_of_classicalize": "3e81103c7c9624a3d222fd890567edf1de5d3cfb3ca1fca158f515eb15571e0f",
    "circ_of_classicalize": "6e6a8117a2df37dd12795ef223515915f5db74d76656cf38658db9e4c9394a75",
    "star_intro": "54af98583254d925b22143fab71c2c6f62905e232e408edf10a91f2210b6d548",
    "star_strong_to_weak_neg": "544d2a7f1175b2d5581c32e649ba3b11401f172d41d8d08bf19a61555d4508cc",
    "converse_contraposition": "0d6829f32895fcedc35bd09cfca496b4caf036bc309ba137dae67c4be12f36bc",
    "contraposition": "91814f5d1373de2356d8a267e35ce26b8afaa50fbd0e646891317b31cb1b557a",
    "strong_neg_cases_classicalize": "35a2a4807be161ae50b4e77055da8edd988d652c305f98da71f2afa03ed38372",
    "strong_neg_cases": "307e3f4cba0281a96e75e8c0b43da268b506492758ee0c77bf83e059948bb39e",
    "or_intro_left": "01119257cb2554474f1f5df595e3b2c00781405713e3c39f1bc1cdfaf0b43da7",
    "or_intro_right": "7e032a88097f4bdcb7beef84340fdfd6e302f4d9b319cc730082cd5b3c51c341",
    "and_elim_left": "8aef53c9aa13b37c75c40357d3dac6c7ca94eba8839557568c3e804a7fe18e12",
    "and_elim_right": "b7dd2642ef89545d92ca335380ff8e1f0441557c56373abd62d26ff358722d82",
    "or_elim": "430ad5435017d816e91109d0881190e28508c1ad691acdbde69590da95dc6767",
    "and_intro": "2efa8ee28eec2716c0c7261c9adb26e74c4b6c6982b66cdd6bd5ea45d311794d",
    "and_to_or": "bc4f8135f44655b81fcd775144d29d4f1a20f1d7adce021708ba239f260b711d",
    "circ_explosion": "6145b04f114da09836874a0ab24eba2d70d78f6a091037de94a7207b819a2589",
    "circ_of_circ": "1af7792b307e48a63e08154aa0f90e5cbb4c6600dda1795589f001c03f753fae",
    "negstar_to_circ": "e64ca4b9c18cbd9cb6c5736a285a5060b808a6084abb71fc45099fa425563aee",
    "strongneg_to_circ": "3c34f330647841db2321f2ceb341bd7a3ae37fa12b33e05c922a8acd82ee9228",
    "star_neg_or_left": "637f80d233414be336afe62540726cc49080e4928374fade61c179a4c83bdec5",
    "circ_refute_imp": "713646439e23b7e1226f893c6b78a2ab98a2423e3e5ad531d73f8cb451e10fa7",
    "star_of_neg_imp": "fc83b7023fb0f497c228a9ec2185ed8cf9466a90dd78bb6aaf7b7c02fdb3dff8",
    "circ_of_neg_imp": "6cfdeb0011607b6fbf849640923770e9d13421b5d3c824e394d0bf91e1cada7a",
    "circ_of_negstar": "3e7de8db1f5ce6f63e3ab9985854b0b5474856a5b54007cb3364bc13e1a3b136",
    "negstar_explosion": "195ea16ecfd1dd435835d33f120517a9b0139510a585c31637e1ed5f1d8bc4d2",
}


@pytest.mark.parametrize("tid", list(TEMPLATE_DIGESTS))
def test_template_generic_at_1_1_is_pinned(tid):
    info = TEMPLATES[tid]
    bind = {v: Atom(v) for v in info.metavariables}
    assert digest(derive_template(tid, bind, LogicParams(1, 1))) == TEMPLATE_DIGESTS[tid]


def test_every_template_is_pinned():
    assert set(TEMPLATE_DIGESTS) == set(TEMPLATES)


# (n, k, goal, digest), in the order of the workload's goal list
PROVE_DIGESTS = [
    (1, 0, "!!!p -> !p", "c103ad5ffe9e11376c9f6cf2dda179beee083d87ef6348a8e5323382aafc46b3"),
    (1, 0, "p -> (q -> p)", "bb21e8edeb44feadb41aff4059cd120068d28343435c37f33d7b889810f68712"),
    (1, 0, "(p -> q) -> (p -> q)", "76a1421283111d9761f173001e829099edba33efc13b0b11bb2455f40b55b151"),
    (1, 0, "!!(p -> p)", "8b269890c5e61989fdc604e41eb318d465d57c6e639097e5afc38979d8cd54f9"),
    (0, 0, "p -> (q -> p)", "e841b2f97a8bfaf4928128e6bdbb739818ef9775e99a55e6ecd171046a6a4819"),
    (0, 0, "(p -> q) -> (p -> q)", "81f4660cc8bbe2bca2e528dfcea3008d70efe5267d62fdc75a873133ddc6c43f"),
    (0, 0, "!!!p -> !p", "97e2e82fd1ffe1976b0ef1a69a04fbfbeccd8b16b4a7e38766963c9039a490e5"),
    (0, 0, "p -> (p -> p)", "74afa4a76b74a792d6ec95d8dfb73201b643096926fe14de2cf23c840cbb5a48"),
    (0, 1, "!!!p -> !p", "41bc9861322cf493417c19eddc2b624b62f5c10bf3d8bb3507f1f04ca46d0107"),
    (0, 1, "p -> (q -> p)", "574248ec3d09a22f34ca856f56e3c06e2dee8e7fb77c9f288dcd885395b64ab5"),
    (0, 1, "!!(p -> p)", "e0bb7db776ef274ebfea5abc4943d8f79972dd6affdb0c8ea30107748e8412ad"),
    (1, 1, "!!!p -> !p", "c1e35911caef05c90136ce93b86168fc10d062dcf6f8c791fad2eef759488078"),
    (1, 1, "p -> (p -> p)", "d627b4d78298c36d686126d89c86e62908f29b60deb2b405012999f0b2ef391d"),
    (1, 1, "!!(p -> p)", "a0b52859864a1435100036237b208208cae9eedad7ca57b1f4739468b3177f41"),
    (3, 3, "!!(p -> p)", "59ff6a04f19d3a548b40c6a5a38d4fa4bf85cca8e12fc4ec390d2f2658ee8cb0"),
    (3, 3, "p -> (p -> p)", "d043eb8bc6546c0c507d3bd1509c0eedcb9720fb95823b99d4283e24635555c2"),
    (0, 0, "p -> (q -> q)", "b52e060c4b1b12884bde7b6fd5c50144f610a4f53e38b05d2f3ff38a4a274eaf"),
    (1, 0, "q -> (p -> q)", "4e6f54a66da5420b0f01e0bdef1a912179795e37ce524c93c562c4a2d15eacc2"),
    (3, 3, "p -> p", "c30491aa4a93c917e8b92fdc1dc9fda5ad5d56836ffdf8a91a6f0df50f9670bf"),
    (0, 0, "q -> (p -> q)", "49949b8d4409e52c0447ac3aa2af8c5c4d9ec65d283cea2c09474f4469ba1bf3"),
    (1, 0, "!!!p -> !p", "c103ad5ffe9e11376c9f6cf2dda179beee083d87ef6348a8e5323382aafc46b3"),
]


@pytest.mark.parametrize(
    "n, k, text, want",
    PROVE_DIGESTS,
    ids=[f"{i}-{n}{k}-{text}" for i, (n, k, text, _) in enumerate(PROVE_DIGESTS)],
)
def test_prove_goal_is_pinned(n, k, text, want):
    pf = complete_prove(LogicParams(n, k), parse(text))
    flat = expand(pf)
    assert not flat.lemmas and check(flat)
    assert digest(flat) == want


# the SHA-256 of the cited document, lemma table included, of each goal
# of PROVE_DIGESTS, in the same order
CITED_DIGESTS = [
    "d4af0f831942a853e7e5ed9f62789b782537d490c6d5b6c8943429413647f2f7",
    "6ce3dd806cdcb3094538491c95703d9e4bad6750906529f156f23b9af139a4f7",
    "6bd6598e118b005585ca40cab8f8e9ff2149b6a96d8fe8e351a3859af863d768",
    "8b269890c5e61989fdc604e41eb318d465d57c6e639097e5afc38979d8cd54f9",
    "6d0b806a7fd82b92fe0784a24b9cd617fa74f8b4686c8d175e50354e5f97812e",
    "abd6bedd7596e1cc71dd28720c774d6acbc4cd5253e2daf63f77f8115c7e02c3",
    "e168705f43be6eab31b7f192c2e45d97f8b0ed65973ff8b80f6f18108831ada7",
    "74afa4a76b74a792d6ec95d8dfb73201b643096926fe14de2cf23c840cbb5a48",
    "845c6deeb2c74cdb9fd1d0640ea9434fe03ece35019b88b7b05f0619e66ae22a",
    "70400ca0530cbacdee148dba98d64130ceeba37c9d83690a53cb44289c0b1881",
    "e0bb7db776ef274ebfea5abc4943d8f79972dd6affdb0c8ea30107748e8412ad",
    "d1fe1fea6d6e6dff719f97ea4eef3ebc071bbb233b04f41803619245bd5656ad",
    "d627b4d78298c36d686126d89c86e62908f29b60deb2b405012999f0b2ef391d",
    "a0b52859864a1435100036237b208208cae9eedad7ca57b1f4739468b3177f41",
    "59ff6a04f19d3a548b40c6a5a38d4fa4bf85cca8e12fc4ec390d2f2658ee8cb0",
    "d043eb8bc6546c0c507d3bd1509c0eedcb9720fb95823b99d4283e24635555c2",
    "b52e060c4b1b12884bde7b6fd5c50144f610a4f53e38b05d2f3ff38a4a274eaf",
    "e822edbaf5ea1ef56ee4d4ac7310f90738545f2dfa9b9359e7ee954cf1f5ef35",
    "56cfa9ef64192103f420e3d57cbc60328ddd076af66adf9cea7c41b5c6a56ae7",
    "9d3092207ee381d984e820aa1a7606975d75e8b38587e0e6380f1a518f6a09b8",
    "d4af0f831942a853e7e5ed9f62789b782537d490c6d5b6c8943429413647f2f7",
]


@pytest.mark.parametrize(
    "n, k, text, want",
    [row[:3] + (cited,) for row, cited in zip(PROVE_DIGESTS, CITED_DIGESTS)],
    ids=[f"{i}-{n}{k}-{text}" for i, (n, k, text, _) in enumerate(PROVE_DIGESTS)],
)
def test_cited_goal_is_pinned(n, k, text, want):
    assert digest(complete_prove(LogicParams(n, k), parse(text))) == want


def test_every_goal_has_a_cited_digest():
    assert len(CITED_DIGESTS) == len(PROVE_DIGESTS)


def _cold(monkeypatch):
    """Forget every generic's numbering, keeping the generics."""
    monkeypatch.setattr(
        proofs_module, "_NUMBERED", dict.fromkeys(proofs_module._NUMBERED)
    )


@pytest.mark.parametrize(
    "n, k, text",
    [row[:3] for row in PROVE_DIGESTS],
    ids=[f"{i}-{n}{k}-{text}" for i, (n, k, text, _) in enumerate(PROVE_DIGESTS)],
)
def test_a_generic_numbers_the_same_warm_and_cold(n, k, text, monkeypatch):
    params, goal = LogicParams(n, k), parse(text)
    complete_prove(params, goal)
    warm = complete_prove(params, goal)
    _cold(monkeypatch)
    assert complete_prove(params, goal) == warm


def test_a_traced_proof_numbers_the_same_warm_and_cold(monkeypatch):
    params, goal = LogicParams(1, 1), parse("p -> (q -> p)")
    complete_prove(params, goal, trace=lambda line: None)
    warm_lines: list[str] = []
    warm = complete_prove(params, goal, trace=warm_lines.append)
    _cold(monkeypatch)
    cold_lines: list[str] = []
    assert complete_prove(params, goal, trace=cold_lines.append) == warm
    assert cold_lines == warm_lines
