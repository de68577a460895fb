"""Constructors for every named algebra family, validated on construction.

Family ids:

* nilpotent filiform Leibniz: ``F1``, ``F2``, ``F3`` (three concrete
  theta-instances plus the alternating top product), ``F1s``, ``F2j``,
  ``F2j1``
* filiform Lie: ``Ln``, ``Qn``, ``A``, ``B``
* solvable extensions (one extra generator ``x``): ``L1``, ``L2``, ``L3``,
  ``SolvA``, ``SolvB``

Omitted products are zero. Parameters must be int or Fraction; any other
type raises TypeError. Every constructor validates the Leibniz identity
and fails loudly naming the first offending basis triple; families declared
Lie are additionally checked for antisymmetry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Optional

from .algebra import Algebra, algebra_from_products, is_lie, leibniz_check, product_table, table_bracket
from .linalg import binomial, to_fraction

FAMILY_IDS = (
    "F1", "F2", "F3", "F1s", "F2j", "F2j1", "Ln", "Qn", "A", "B",
    "L1", "L2", "L3", "SolvA", "SolvB",
)

LIE_FAMILIES = frozenset({"Ln", "Qn", "A", "B", "SolvA", "SolvB"})
SOLVABLE_FAMILIES = frozenset({"L1", "L2", "L3", "SolvA", "SolvB"})


class ConstructionError(ValueError):
    """Raised for arity/range violations and identity failures."""


@dataclass(frozen=True)
class FamilySpec:
    family: str
    n: int
    params: Mapping[str, Fraction] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "params", {k: to_fraction(v) for k, v in dict(self.params).items()})


def _e_labels(n: int, with_x: bool = False) -> tuple:
    labels = tuple(f"e{i}" for i in range(n + 1))
    return labels + ("x",) if with_x else labels


def _take_params(spec: FamilySpec, allowed: set[str]) -> dict:
    unknown = set(spec.params) - allowed
    if unknown:
        raise ConstructionError(
            f"{spec.family}: unknown parameter(s) {sorted(unknown)}; allowed: {sorted(allowed)}"
        )
    return dict(spec.params)


def _require(cond: bool, msg: str):
    if not cond:
        raise ConstructionError(msg)


def _validated(products, labels, metadata) -> Algebra:
    alg = algebra_from_products(labels, products, metadata)
    report = leibniz_check(alg)
    if not report.ok:
        i, j, k, defect = report.failures[0]
        raise ConstructionError(
            f"{metadata.get('family')}: Leibniz identity fails on ({labels[i]},{labels[j]},{labels[k]}), "
            f"defect {defect}"
        )
    if metadata.get("lie") and not is_lie(alg):
        raise ConstructionError(f"{metadata.get('family')}: antisymmetry fails")
    return alg


# -- nilpotent filiform Leibniz families --------------------------------------


def _f1_products(n: int, alphas: dict, theta: Fraction) -> dict:
    prods = {(0, 0): [(2, Fraction(1))]}
    for i in range(1, n):
        prods[(i, 0)] = [(i + 1, Fraction(1))]
    row01 = [(k, alphas[k]) for k in range(3, n) if alphas[k]]
    if theta:
        row01.append((n, theta))
    prods[(0, 1)] = row01
    for i in range(1, n - 1):
        prods[(i, 1)] = [(k, alphas[k + 1 - i]) for k in range(i + 2, n + 1) if alphas[k + 1 - i]]
    return prods


def make_F1(n: int, alphas: Mapping[int, Fraction], theta: Fraction, family="F1", extra=None) -> Algebra:
    _require(n >= 3, "F1 needs n >= 3")
    full = {k: to_fraction(alphas.get(k, 0)) for k in range(3, n + 1)}
    theta = to_fraction(theta)
    meta = {"family": family, "n": n,
            "params": {**{f"alpha{k}": v for k, v in full.items()}, "theta": theta}}
    if extra:
        meta["params"].update(extra)
    return _validated(_f1_products(n, full, theta), _e_labels(n), meta)


def _f2_products(n: int, betas: dict, gamma: Fraction) -> dict:
    prods = {(0, 0): [(2, Fraction(1))]}
    for i in range(2, n):
        prods[(i, 0)] = [(i + 1, Fraction(1))]
    prods[(0, 1)] = [(k, betas[k]) for k in range(3, n + 1) if betas[k]]
    for i in range(2, n - 1):
        prods[(i, 1)] = [(k, betas[k + 1 - i]) for k in range(i + 2, n + 1) if betas[k + 1 - i]]
    if gamma:
        prods[(1, 1)] = [(n, gamma)]
    return prods


def make_F2(n: int, betas: Mapping[int, Fraction], gamma: Fraction, family="F2", extra=None) -> Algebra:
    _require(n >= 3, "F2 needs n >= 3")
    full = {k: to_fraction(betas.get(k, 0)) for k in range(3, n + 1)}
    gamma = to_fraction(gamma)
    meta = {"family": family, "n": n,
            "params": {**{f"beta{k}": v for k, v in full.items()}, "gamma": gamma}}
    if extra:
        meta["params"].update(extra)
    return _validated(_f2_products(n, full, gamma), _e_labels(n), meta)


def make_F3(n: int, theta1, theta2, theta3, alpha=0) -> Algebra:
    """Concrete representatives of the third filiform family: the generic
    antisymmetric products are taken to be zero, the alternating top product
    [e_i, e_{n-i}] = alpha*(-1)^i e_n is kept (alpha in {0,1}, odd n only)."""
    _require(n >= 3, "F3 needs n >= 3")
    alpha = to_fraction(alpha)
    _require(alpha in (0, 1), "F3: alpha must be 0 or 1")
    _require(alpha == 0 or n % 2 == 1, "F3: alpha=1 requires odd n")
    t1, t2, t3 = to_fraction(theta1), to_fraction(theta2), to_fraction(theta3)
    prods: dict = {}
    for i in range(1, n):
        prods[(i, 0)] = [(i + 1, Fraction(1))]
    for i in range(2, n):
        prods[(0, i)] = [(i + 1, Fraction(-1))]
    prods[(0, 0)] = [(n, t1)] if t1 else []
    prods[(0, 1)] = [(2, Fraction(-1))] + ([(n, t2)] if t2 else [])
    if t3:
        prods[(1, 1)] = [(n, t3)]
    if alpha:
        for i in range(1, n):
            j = n - i
            prods.setdefault((i, j), []).append((n, alpha * (-1) ** i))
    meta = {"family": "F3", "n": n,
            "params": {"theta1": t1, "theta2": t2, "theta3": t3, "alpha": alpha}}
    return _validated(prods, _e_labels(n), meta)


def f1s_alphas(n: int, s: int) -> dict:
    """Coefficients of F1^s from the derivation-compatibility recursion at
    a_0=1, a_1=s-2: alpha_k*(s-k) = (k/2)(s-2) * sum_{a+b=k+2} alpha_a alpha_b,
    alpha_s normalized to 1, alpha_k = 0 off the residue class of s mod s-2."""
    _require(3 <= s <= n, "F1s needs 3 <= s <= n")
    alphas = {k: Fraction(0) for k in range(3, n + 1)}
    alphas[s] = Fraction(1)
    for k in range(s + 1, n + 1):
        if (k - s) % (s - 2) != 0:
            continue
        conv = sum((alphas[j - 1] * alphas[k - j + 3] for j in range(4, k + 1)), Fraction(0))
        alphas[k] = Fraction(k * (s - 2), 2 * (s - k)) * conv
    return alphas


def catalan_number(m: int) -> int:
    return int(binomial(2 * m, m)) // (m + 1)


def make_F1s(n: int, s: int) -> Algebra:
    alphas = f1s_alphas(n, s)
    return make_F1(n, alphas, theta=alphas[n], family="F1s", extra={"s": Fraction(s)})


def make_F2j(n: int, j: int) -> Algebra:
    _require(n >= 4 and 3 <= j <= n, "F2j needs n >= 4 and 3 <= j <= n")
    return make_F2(n, {j: Fraction(1)}, gamma=Fraction(0), family="F2j", extra={"j": Fraction(j)})


def make_F2j1(n: int, beta) -> Algebra:
    _require(n >= 4 and n % 2 == 0, "F2j1 needs even n >= 4")
    beta = to_fraction(beta)
    return make_F2(n, {(n + 2) // 2: beta}, gamma=Fraction(1), family="F2j1", extra={"beta": beta})


# -- filiform Lie families -----------------------------------------------------


def make_Ln(n: int) -> Algebra:
    _require(n >= 2, "Ln needs n >= 2")
    prods: dict = {}
    for i in range(1, n):
        prods[(0, i)] = [(i + 1, Fraction(1))]
        prods[(i, 0)] = [(i + 1, Fraction(-1))]
    meta = {"family": "Ln", "n": n, "params": {}, "lie": True}
    return _validated(prods, _e_labels(n), meta)


def make_Qn(n: int) -> Algebra:
    _require(n >= 3 and n % 2 == 1, "Qn needs odd n >= 3")
    prods: dict = {}
    for i in range(1, n - 1):
        prods[(0, i)] = [(i + 1, Fraction(1))]
        prods[(i, 0)] = [(i + 1, Fraction(-1))]
    for i in range(1, n):
        prods.setdefault((i, n - i), []).append((n, Fraction((-1) ** i)))
    meta = {"family": "Qn", "n": n, "params": {}, "lie": True}
    return _validated(prods, _e_labels(n), meta)


def _graded_coefficient(i: int, j: int, t: int, alphas: dict) -> Fraction:
    """Coefficient of e_{i+j+r} in [e_i, e_j] for the A/B families."""
    return sum(
        ((-1) ** (k - i)) * alphas[k] * binomial(j - k - 1, k - i)
        for k in range(i, t + 1)
    ) if i <= t else Fraction(0)


def make_A(n: int, r: int, alphas: Mapping[int, Fraction], family="A", lie_meta=True) -> dict:
    """Product table of the first graded filiform Lie family (dict form)."""
    _require(n >= 4 and 1 <= r <= n - 3, "A needs n >= 4 and 1 <= r <= n - 3")
    t = (n - r - 1) // 2
    full = {k: to_fraction(alphas.get(k, 0)) for k in range(1, t + 1)}
    _require(any(full.values()), "A: at least one alpha must be nonzero")
    prods: dict = {}
    for i in range(1, n):
        prods[(0, i)] = [(i + 1, Fraction(1))]
        prods[(i, 0)] = [(i + 1, Fraction(-1))]
    for i in range(1, n - 1):
        for j in range(i + 1, n - 1):
            if i + j + r > n:
                continue
            c = _graded_coefficient(i, j, t, full)
            if c:
                prods.setdefault((i, j), []).append((i + j + r, c))
                prods.setdefault((j, i), []).append((i + j + r, -c))
    return {"prods": prods, "t": t, "alphas": full}


def make_A_algebra(n: int, r: int, alphas: Mapping[int, Fraction]) -> Algebra:
    data = make_A(n, r, alphas)
    meta = {"family": "A", "n": n, "lie": True,
            "params": {"r": Fraction(r), **{f"alpha{k}": v for k, v in data["alphas"].items()}}}
    return _validated(data["prods"], _e_labels(n), meta)


def make_B(n: int, r: int, alphas: Mapping[int, Fraction]) -> dict:
    """Product table of the second graded filiform Lie family (dict form).

    The wide range 1 <= r <= n-3 is accepted; at r = n-3 the alpha arity is
    zero and the table degenerates to the Qn table.
    """
    _require(n >= 5 and n % 2 == 1, "B needs odd n >= 5")
    _require(1 <= r <= n - 3, "B needs 1 <= r <= n - 3")
    t = (n - r - 2) // 2
    full = {k: to_fraction(alphas.get(k, 0)) for k in range(1, t + 1)}
    _require(t == 0 or any(full.values()), "B: at least one alpha must be nonzero")
    prods: dict = {}
    for i in range(1, n - 1):
        prods[(0, i)] = [(i + 1, Fraction(1))]
        prods[(i, 0)] = [(i + 1, Fraction(-1))]
    for i in range(1, n):
        prods.setdefault((i, n - i), []).append((n, Fraction((-1) ** i)))
    for i in range(1, n):
        for j in range(i + 1, n):
            if i + j + r > n - 1:
                continue
            c = _graded_coefficient(i, j, t, full)
            if c:
                prods.setdefault((i, j), []).append((i + j + r, c))
                prods.setdefault((j, i), []).append((i + j + r, -c))
    return {"prods": prods, "t": t, "alphas": full}


def make_B_algebra(n: int, r: int, alphas: Mapping[int, Fraction]) -> Algebra:
    data = make_B(n, r, alphas)
    meta = {"family": "B", "n": n, "lie": True,
            "params": {"r": Fraction(r), **{f"alpha{k}": v for k, v in data["alphas"].items()}}}
    return _validated(data["prods"], _e_labels(n), meta)


# -- classified solvable algebras ----------------------------------------------


def make_L1(n: int) -> Algebra:
    """Solvable extension of F2(0,...,0,1), odd n. The displayed classification
    omits [e_i,x]=i*e_i and [x,e_0]=-e_0, both derived in its own construction;
    without them the Leibniz identity fails, so they are included here."""
    _require(n >= 3 and n % 2 == 1, "L1 needs odd n >= 3")
    x = n + 1
    half = Fraction(n, 2)
    prods = {(0, 0): [(2, Fraction(1))], (1, 1): [(n, Fraction(1))]}
    for i in range(2, n):
        prods[(i, 0)] = [(i + 1, Fraction(1))]
    prods[(0, x)] = [(0, Fraction(1))]
    prods[(1, x)] = [(1, half)]
    for i in range(2, n + 1):
        prods[(i, x)] = [(i, Fraction(i))]
    prods[(x, 0)] = [(0, Fraction(-1))]
    prods[(x, 1)] = [(1, -half)]
    meta = {"family": "L1", "n": n, "params": {}}
    return _validated(prods, _e_labels(n, with_x=True), meta)


def make_L2(n: int, beta) -> Algebra:
    """Solvable extension of F2^1(beta_{(n+2)/2}, gamma=1), even n."""
    _require(n >= 4 and n % 2 == 0, "L2 needs even n >= 4")
    beta = to_fraction(beta)
    x = n + 1
    half = Fraction(n, 2)
    mid = (n + 2) // 2
    prods = {(0, 0): [(2, Fraction(1))], (1, 1): [(n, Fraction(1))]}
    for i in range(2, n):
        prods[(i, 0)] = [(i + 1, Fraction(1))]
    if beta:
        prods[(0, 1)] = [(mid, beta)]
        for i in range(2, n // 2 + 1):
            prods[(i, 1)] = [((n + 2 * i) // 2, beta)]
    prods[(0, x)] = [(0, Fraction(1))]
    prods[(1, x)] = [(1, half)]
    for i in range(2, n + 1):
        prods[(i, x)] = [(i, Fraction(i))]
    prods[(x, 0)] = [(0, Fraction(-1))]
    prods[(x, 1)] = [(1, -half)] + ([(n // 2, -beta)] if beta else [])
    meta = {"family": "L2", "n": n, "params": {"beta": beta}}
    return _validated(prods, _e_labels(n, with_x=True), meta)


def make_L3(n: int, j0: int) -> Algebra:
    """Solvable extension of F2^{j0}. The nilradical products [e_i,e_1] run to
    i = n+1-j0 (forced by the Leibniz identity; the displayed range n-1-j0 is
    inconsistent with the nilradical)."""
    _require(n >= 4 and 3 <= j0 <= n, "L3 needs n >= 4 and 3 <= j0 <= n")
    x = n + 1
    prods = {(0, 0): [(2, Fraction(1))], (0, 1): [(j0, Fraction(1))]}
    for i in range(2, n):
        prods[(i, 0)] = [(i + 1, Fraction(1))]
    for i in range(2, n + 2 - j0):
        prods[(i, 1)] = [(j0 + i - 1, Fraction(1))]
    prods[(0, x)] = [(0, Fraction(1))]
    prods[(1, x)] = [(1, Fraction(j0 - 1))]
    for i in range(2, n + 1):
        prods[(i, x)] = [(i, Fraction(i))]
    prods[(x, 0)] = [(0, Fraction(-1))]
    prods[(x, 1)] = [(1, Fraction(1 - j0)), (j0 - 1, Fraction(-1))]
    meta = {"family": "L3", "n": n, "params": {"j0": Fraction(j0)}}
    return _validated(prods, _e_labels(n, with_x=True), meta)


def _solvable_lie_extension(n: int, nil_prods: dict, row0, row1, family: str,
                            params: dict, e_n_route) -> Algebra:
    """Assemble a solvable Lie algebra N + <x> from the action rows of e_0 and
    e_1, propagating [e_{i+1},x] = [[e_0,x],e_i] + [e_0,[e_i,x]] along the
    chain products, antisymmetrizing, and validating."""
    dim = n + 2
    x = n + 1
    labels = _e_labels(n, with_x=True)
    table = product_table(nil_prods, dim)
    rows = {0: list(row0), 1: list(row1)}
    basis = lambda i: [Fraction(1 if j == i else 0) for j in range(dim)]
    for i in range(1, n):
        lhs = table_bracket(table, rows[0], basis(i))
        rhs = table_bracket(table, basis(0), rows[i])
        rows[i + 1] = [a + b for a, b in zip(lhs, rhs)]
    if e_n_route is not None:
        # the top row is reached through the alternating product instead
        i, sign = e_n_route
        lhs = table_bracket(table, rows[i], basis(n - i))
        rhs = table_bracket(table, basis(i), rows[n - i])
        rows[n] = [sign * (a + b) for a, b in zip(lhs, rhs)]
    prods = dict(nil_prods)
    for i in range(n + 1):
        prods[(i, x)] = [(k, c) for k, c in enumerate(rows[i]) if c]
        prods[(x, i)] = [(k, -c) for k, c in enumerate(rows[i]) if c]
    meta = {"family": family, "n": n, "lie": True, "params": params}
    return _validated(prods, labels, meta)


def make_SolvA(n: int, r: int, alphas: Mapping[int, Fraction], a1, bs: Mapping[int, Fraction]) -> Algebra:
    """Solvable Lie extension over an A-family nilradical, free parameters
    a1 and b_2..b_n kept explicit."""
    data = make_A(n, r, alphas)
    a1 = to_fraction(a1)
    b = {k: to_fraction(bs.get(k, 0)) for k in range(2, n + 1)}
    dim = n + 2
    row0 = [Fraction(0)] * dim
    row0[0] = Fraction(1)
    row0[1] = a1
    row1 = [Fraction(0)] * dim
    row1[1] = Fraction(1 + r)
    for k in range(2, n + 1):
        row1[k] = b[k]
    params = {"r": Fraction(r), **{f"alpha{k}": v for k, v in data["alphas"].items()},
              "a1": a1, **{f"b{k}": v for k, v in b.items()}}
    return _solvable_lie_extension(n, data["prods"], row0, row1, "SolvA", params, None)


def make_SolvB(n: int, r: int, alphas: Mapping[int, Fraction], bs: Mapping[int, Fraction]) -> Algebra:
    """Solvable Lie extension over a B-family nilradical, free parameters
    b_2..b_{n-1} kept explicit."""
    _require(1 <= r <= n - 4, "SolvB needs 1 <= r <= n - 4")
    data = make_B(n, r, alphas)
    b = {k: to_fraction(bs.get(k, 0)) for k in range(2, n)}
    dim = n + 2
    row0 = [Fraction(0)] * dim
    row0[0] = Fraction(1)
    row1 = [Fraction(0)] * dim
    row1[1] = Fraction(1 + r)
    for k in range(2, n):
        row1[k] = b[k]
    params = {"r": Fraction(r), **{f"alpha{k}": v for k, v in data["alphas"].items()},
              **{f"b{k}": v for k, v in b.items()}}
    # e_n is not in the e_0-chain; reach it through [e_1, e_{n-1}] = -e_n
    return _solvable_lie_extension(n, data["prods"], row0, row1, "SolvB", params, (1, Fraction(-1)))


# -- dispatch -------------------------------------------------------------------


def _int_param(params: Mapping, name: str, default: int = 1) -> int:
    """The integer parameter ``name`` (``default`` when absent); a value that
    is not an integer raises ConstructionError instead of being truncated."""
    value = to_fraction(params.get(name, default))
    _require(value.denominator == 1, f"parameter {name} must be an integer, got {value}")
    return value.numerator


def _alpha_map(params: Mapping, prefix: str, lo: int, hi: int) -> dict:
    return {k: to_fraction(params.get(f"{prefix}{k}", 0)) for k in range(lo, hi + 1)}


def make_family(spec: FamilySpec) -> Algebra:
    fam, n, p = spec.family, spec.n, spec.params
    if fam == "F1":
        _take_params(spec, {f"alpha{k}" for k in range(3, n + 1)} | {"theta"})
        return make_F1(n, _alpha_map(p, "alpha", 3, n), p.get("theta", Fraction(0)))
    if fam == "F2":
        _take_params(spec, {f"beta{k}" for k in range(3, n + 1)} | {"gamma"})
        return make_F2(n, _alpha_map(p, "beta", 3, n), p.get("gamma", Fraction(0)))
    if fam == "F3":
        _take_params(spec, {"theta1", "theta2", "theta3", "alpha"})
        return make_F3(n, p.get("theta1", 0), p.get("theta2", 0), p.get("theta3", 0), p.get("alpha", 0))
    if fam == "F1s":
        _take_params(spec, {"s"})
        _require("s" in p, "F1s requires parameter s")
        return make_F1s(n, _int_param(p, "s"))
    if fam == "F2j":
        _take_params(spec, {"j"})
        _require("j" in p, "F2j requires parameter j")
        return make_F2j(n, _int_param(p, "j"))
    if fam == "F2j1":
        _take_params(spec, {"beta"})
        return make_F2j1(n, p.get("beta", Fraction(0)))
    if fam == "Ln":
        _take_params(spec, set())
        return make_Ln(n)
    if fam == "Qn":
        _take_params(spec, set())
        return make_Qn(n)
    if fam == "A":
        r = _int_param(p, "r")
        t = (n - max(1, r) - 1) // 2
        _take_params(spec, {"r"} | {f"alpha{k}" for k in range(1, max(t, 0) + 1)})
        _require("r" in p, "A requires parameter r")
        return make_A_algebra(n, r, _alpha_map(p, "alpha", 1, max(t, 0)))
    if fam == "B":
        r = _int_param(p, "r")
        t = (n - max(1, r) - 2) // 2
        _take_params(spec, {"r"} | {f"alpha{k}" for k in range(1, max(t, 0) + 1)})
        _require("r" in p, "B requires parameter r")
        return make_B_algebra(n, r, _alpha_map(p, "alpha", 1, max(t, 0)))
    if fam == "L1":
        _take_params(spec, set())
        return make_L1(n)
    if fam == "L2":
        _take_params(spec, {"beta"})
        return make_L2(n, p.get("beta", Fraction(0)))
    if fam == "L3":
        _take_params(spec, {"j0"})
        _require("j0" in p, "L3 requires parameter j0")
        return make_L3(n, _int_param(p, "j0"))
    if fam == "SolvA":
        r = _int_param(p, "r")
        t = (n - r - 1) // 2
        allowed = {"r", "a1"} | {f"alpha{k}" for k in range(1, max(t, 0) + 1)} | {f"b{k}" for k in range(2, n + 1)}
        _take_params(spec, allowed)
        _require("r" in p, "SolvA requires parameter r")
        return make_SolvA(n, r, _alpha_map(p, "alpha", 1, max(t, 0)), p.get("a1", Fraction(0)),
                          _alpha_map(p, "b", 2, n))
    if fam == "SolvB":
        r = _int_param(p, "r")
        t = (n - r - 2) // 2
        allowed = {"r"} | {f"alpha{k}" for k in range(1, max(t, 0) + 1)} | {f"b{k}" for k in range(2, n)}
        _take_params(spec, allowed)
        _require("r" in p, "SolvB requires parameter r")
        return make_SolvB(n, r, _alpha_map(p, "alpha", 1, max(t, 0)), _alpha_map(p, "b", 2, n - 1))
    raise ConstructionError(f"unknown family {fam!r}; known: {', '.join(FAMILY_IDS)}")


@dataclass(frozen=True)
class FamilyInfo:
    family: str
    description: str
    params: str
    constraints: str
    parity: Optional[str]
    min_n: int


def family_catalog() -> tuple:
    """Template catalog for CLI discovery and verify-module iteration."""
    return (
        FamilyInfo("F1", "first filiform Leibniz family", "alpha3..alpha<n>, theta", "n >= 3", None, 3),
        FamilyInfo("F2", "second filiform Leibniz family", "beta3..beta<n>, gamma", "n >= 3", None, 3),
        FamilyInfo("F3", "third filiform family, concrete representatives",
                   "theta1, theta2, theta3, alpha", "alpha in {0,1}; alpha=1 needs odd n", None, 3),
        FamilyInfo("F1s", "first family with non-nilpotent derivation, recursion coefficients",
                   "s", "3 <= s <= n", None, 3),
        FamilyInfo("F2j", "second family, single unit parameter", "j", "3 <= j <= n and n >= 4", None, 4),
        FamilyInfo("F2j1", "second family, middle parameter and unit top square",
                   "beta", "n even", "even", 4),
        FamilyInfo("Ln", "model filiform Lie algebra", "", "n >= 2", None, 2),
        FamilyInfo("Qn", "filiform Lie algebra with alternating top product", "", "n odd", "odd", 3),
        FamilyInfo("A", "graded filiform Lie family", "r, alpha1..alpha<t>",
                   "1 <= r <= n-3; t = floor((n-r-1)/2); some alpha nonzero", None, 4),
        FamilyInfo("B", "graded filiform Lie family with alternating top product",
                   "r, alpha1..alpha<t>", "1 <= r <= n-3; t = floor((n-r-2)/2); n odd", "odd", 5),
        FamilyInfo("L1", "solvable extension of F2(0,...,0,1)", "", "n odd", "odd", 3),
        FamilyInfo("L2", "solvable extensions of F2j1", "beta", "n even", "even", 4),
        FamilyInfo("L3", "solvable extensions of F2j", "j0", "3 <= j0 <= n", None, 4),
        FamilyInfo("SolvA", "solvable Lie extensions over A nilradicals",
                   "r, alpha1..alpha<t>, a1, b2..b<n>", "1 <= r <= n-3", None, 4),
        FamilyInfo("SolvB", "solvable Lie extensions over B nilradicals",
                   "r, alpha1..alpha<t>, b2..b<n-1>", "1 <= r <= n-4; n odd", "odd", 5),
    )
