"""Complete elimination outcomes, pinned by digest, past the goldens' reach.

The golden transcripts stop at 60 assignment lines per branch and at n = 10.
Here each outcome of ``extensions.eliminate`` is pinned in full as the sha256
of its display: the kind, every assignment (name, value, source equation) in
order, and the witness, or the residual and the free names. Two groups:

- every system the non-existence, classification and no-Lie scenarios
  eliminate at n = 11 and 12, seed 0, the alpha sampler's included
  (``thm45-class`` at n = 11 is left out: its sampler finds no alpha there);
- the systems of a few nilradicals past ``MAX_N``, built directly: one per
  non-nilpotency branch, or the system without hypotheses when the
  nilradical has no branch.
"""

import hashlib
from fractions import Fraction

import pytest

from leibnizalg import verify
from leibnizalg.extensions import build_extension_problem, diagonal_branches, eliminate, generate_constraints
from leibnizalg.families import make_A_algebra, make_F1s, make_F2, make_F2j, make_F3


def digest(outcome) -> str:
    lines = [outcome.kind]
    lines += [f"{name} := {value} from {source}" for name, value, source in outcome.assignments]
    if outcome.kind == "contradiction":
        lines.append(f"witness {outcome.witness}")
    else:
        lines += [f"residual {e}" for e in outcome.residual]
        lines.append("free " + " ".join(outcome.free))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


SCENARIO_DIGESTS = {
    "prop32-nonexist@11": [
        "89e46f82a32de387c27d67d677994956ea096209a59d214eab6a85d8334d2bd4",
    ],
    "prop32-nonexist@12": [
        "3811f0d7a325128a919da8236390574edc0177493a14c943cb8b7841a3c33249",
    ],
    "prop33-nonexist@11": [
        "4c32df9d179fbfb4015a8579166daf600177a80bbebdd1824b0e7dae52da5e10",
        "949356b1ff7ee19433c34e22a755cd0a47f066cfbd3e922c5a3b44da0c985b45",
    ],
    "prop33-nonexist@12": [
        "1db2a3db85e66b68343ff120bf03ea79908106beb60113c420983a50c5339315",
        "1645d967dfc61f651d57fd28914eadf42e4fcbdc0ec616917943c2c7992d20ac",
    ],
    "thm39-nonexist@11": [
        "4e2325010ab2bbc7f634322fde63e54344a8ed3efdcb240e078b7b840b3e2acb",
        "8cacaf33ad921eac9ad5a3635c0137d48fffe07edcf2ab22aa1e812942c8b482",
        "2908be696b9f4d061c76f74ac47e8bbcee6b1c3868f667b2ecfb3f7aaf7eee44",
        "6c095ef972ddc1ad2220e5c6e4a2974829ef52f21614066e22b735ecfe950bd5",
    ],
    "thm39-nonexist@12": [
        "c4400ca1ca6e2b7947aea95de71ab8785d8dba9a7231944109eee71f3a3777c2",
        "943eab7dbbc1128feae5fbc786fe91dea0c54c59c5d00deca509291340483985",
        "fd89050c4fce8dd0f4708ffbc3e1d40fcdb7a9d242363f97ae39689785152b0d",
    ],
    "thm35-class@11": [
        "85149df0a8067286f8c77fe2eb9ad5f410af4dc5fa55da36f7b158cd2e039401",
    ],
    "thm36-class@12": [
        "6ad07b21bc240fd8e3df04ffd21ae15dd1d7701f32d6ce60b2dc5f5df4f7356e",
    ],
    "thm37-class@11": [
        "a56d31a2c275ab70a1807dbcd99a6fc12362006420e459725d30203fa62c155a",
        "977896836adfee7b3440d4274e9ee43539aac2794ddc93f1ef1d3a31f0b0c37d",
        "9cbb548a69217828f74cf02898337d59b4c96dde2fe2c02582e3547d5a1be500",
    ],
    "thm37-class@12": [
        "a79ea5015a62031100cf83fced7f75e358563d735925e5741c550bbb8acc8728",
        "f6dbc3fb2ad0b285156e8cd858720e91799197bc15174e588c5f6397a7d754f1",
        "f989bc24bb4b8e2f2497210ed230dbff1eb2837e11826759429dcf1d32532896",
    ],
    "thm42-class@11": [
        "731c176a8da3449430570caca202469bcb2638b8a241c627af328a1181165fcb",
        "d31f219ba55e6f262a4520b1a8035b6e5b25fafcc56fec1076e397ec57201f0a",
        "c6f3ed4240e30853b1d87d4c67c0ced245082f24e658e7b510c65010bc94456b",
        "4015e1b949b8d08493bc63ed7f2e25148c811d968e82736b716b9ed04105f398",
        "f548865c2d3ea89fa4bbec105c605003a7fd4d178c67c8140874634894a5c75d",
        "0fafd59517d492e5aff4c856cf8e016bf4ae2c049f8db992be66b99325f1bbcb",
        "7a5ef468452717913d8ff0b6ebcdae22fb9f3aa22951a83acf1a1c556fc25523",
        "8dfca6b6b5b18c8b3ed9daaf9175aee5dbe53142fce2df5f9e6b8412fadbde32",
        "74ac2c301f014fe924be0ae52aea305d8e5a2764f5f97a0925d33a7012d4711e",
    ],
    "thm42-class@12": [
        "8fd3d9dabea3f0603ac6f54a9611d6067df32e3d07611e28ca98843a30d384be",
        "d31f219ba55e6f262a4520b1a8035b6e5b25fafcc56fec1076e397ec57201f0a",
        "c6f3ed4240e30853b1d87d4c67c0ced245082f24e658e7b510c65010bc94456b",
        "f9f770ca525fb66b5e3a37fd93c740d0691817f70a6a2354b63d9da45d45bbc8",
        "7cec7ee1bf941d433cd2d120231478b81253df452e4757d3c00cfa70215f41f2",
        "0fafd59517d492e5aff4c856cf8e016bf4ae2c049f8db992be66b99325f1bbcb",
        "05548497fc5846203023746f841fdb509e50bc11a11b0b7db8b31b67006ee9ff",
        "ad53c1be8f7f664846e1f25c65de2bcce2d1103d18a8c8f2054f49cd78c36027",
        "1e164e9d514e8e2c5c2eb4c6c780a91b47c7b174b8c075c3b1fc4ff933d7b728",
    ],
    "prop43-nolie@11": [
        "847499d5ff5fafb60c42974239e5dde8bd08971e87a9fbd9cb95b320de5da1e1",
        "2782dce15996e5b69545c474db9aa7781a787282934fa9cff313ec3f9b443ebf",
        "e3a951c203438206c9e1c889462164395bfc8c1e4b37da8b927396e13cf5012e",
        "d909741f946bc5aac2e450bfa77df7eb3a4b7902715fcb5a7ef22e4bba970725",
        "be6ce933c10eb63b4e72bb6526ef6d55b63b76ba56ef2fb02c9fc1ff246621c4",
        "9af57b694e11e1f4acab64864b1e3f9d2c1c3b391e0f22a09c9df78a0f3b4adc",
        "48e33d1dfa323beebc798b551e3aaf318c6667d2d26619b84a19e20d33fc5a98",
        "735a7f74496ad0888050557b4d981e2418cf5a7830d9f16d8714a71ce1e414f4",
        "120abe4d890b110c2fd8ff6d6757a55945737a7633f4c17e9add6303a5637f4a",
        "2319ef347418600a70fadfb282afc1dc6f5e976d471a2a0db0cdfbf3e7dd751a",
        "a7915aeddd59bb766d8ffb61dba490a9d32c43d1fcae64394bbecad1c93b03d5",
    ],
    "prop43-nolie@12": [
        "8ee95c1680342c0509c34bce4255507fde3c1dc64068cc62acbb0a356b87e558",
        "9a3bbdb00072fe826564cf58d4735a9376e3ba27cdc5aef85ab6b7c8a4f37da0",
        "55e66fb8acb6d62851a93bdc1509e8fd32ef1ebe254908e52cb757d6e7cdd6b8",
        "e6800c5e26ca92837f9e11200cd5de0877ef158e4f3c3022caeee251d1cd0e27",
    ],
    "prop46-nolie@11": [
        "5ee9e26cface5ef866f8a3f038eadacc8da1fafac91450ba57f9cdc59c0593f7",
        "4a842620e5617d7afa50859edb6928cc39c61756e39ae94889f645ce6fd89065",
        "9e2d552cb01368d6b4d1558d4551d996e7f1ac192f14213df0bfdee57480f807",
        "ec71111e6ec19a7245e58fe88f467685fe9fcd40431d781002cf7195deea4eb2",
    ],
}

LARGE = {
    "F1s(20,3)": lambda: make_F1s(20, 3),
    "F1s(24,4)": lambda: make_F1s(24, 4),
    "F3(21,0,0,1,1)": lambda: make_F3(21, 0, 0, 1, 1),
    "F2j(16,3)": lambda: make_F2j(16, 3),
    "F2j(16,5)": lambda: make_F2j(16, 5),
    "F2(15)": lambda: make_F2(15, {}, 1),
    "A(14,1)": lambda: make_A_algebra(14, 1, {k: Fraction(v) for k, v in enumerate((0, 0, 0, 0, 1, 15), 1)}),
}

LARGE_DIGESTS = {
    "F1s(20,3)": [
        "12f6d992d176adcbf51b6348ed3fa994cfaf2bfa249c5280de44d90c2faf97ad",
    ],
    "F1s(24,4)": [
        "4c8c9e63381480110519d9f8c1d8fd9e40807369311b56921bcbc8d200a26802",
    ],
    "F3(21,0,0,1,1)": [
        "713b9a1357264cc6194ef1c53033590009cc159bf7fc8f391275e9209b8900a6",
    ],
    "F2j(16,3)": [
        "e9ba4c6e9d75273971d4c70ba7c7f46af0b1f216b6f8338b11774c1561c7a3e8",
    ],
    "F2j(16,5)": [
        "9307221036a43d6cdb6a1e532660c10de32320bdcca08ccbfc2d2651f3e8af3e",
    ],
    "F2(15)": [
        "7a29fbc25a415ffdd61498dc21452267aa0a29ce4cdb19ab44b6515f395210e6",
    ],
    "A(14,1)": [
        "966ec720e6be4dc5c79986c6c6055d4d58def5e5022f0b629dc6aa6922694b46",
    ],
}


def scenario_digests(sid: str, n: int, monkeypatch) -> list:
    digests = []

    def eliminating(system):
        outcome = solve(system)
        digests.append(digest(outcome))
        return outcome

    solve = verify.eliminate
    monkeypatch.setattr(verify, "eliminate", eliminating)
    assert verify.run_scenario(sid, n, 0).verdict == "pass"
    return digests


def large_digests(name: str) -> list:
    problem = build_extension_problem(LARGE[name]())
    branches = diagonal_branches(problem) or [[]]
    return [digest(eliminate(generate_constraints(problem, hypotheses=hyp))) for hyp in branches]


@pytest.mark.parametrize("case", sorted(SCENARIO_DIGESTS))
def test_scenario_eliminations_are_pinned(case, monkeypatch):
    sid, n = case.split("@")
    assert scenario_digests(sid, int(n), monkeypatch) == SCENARIO_DIGESTS[case]


@pytest.mark.parametrize("name", sorted(LARGE))
def test_large_eliminations_are_pinned(name):
    assert large_digests(name) == LARGE_DIGESTS[name]
