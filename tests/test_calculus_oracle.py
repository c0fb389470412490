"""A third bracket route, written as calculus in sympy.

The monomial x^α t^i is exp(α·y) · Π t_s^{i_s}, the p-th derivative is
∂/∂y_s + ∂/∂t_s at p's slot s, the grading is Σ ∂/∂y_s over the weight
group slots plus Σ t_s ∂/∂t_s over the weight exponent slots, and the
shift monomials are exp(shift·y).  The derivative of t^0 is 0 by itself,
so no dropped-term convention is coded, and sympy's own `Rational`
arithmetic sums the terms: this route shares no code with
`bracket_operator` or `bracket_terms`.
"""

from __future__ import annotations

import copy
import random
from fractions import Fraction

import sympy

from contactk import sample_index
from contactk.algebra import bracket_support, bracket_terms


def variables(config) -> tuple:
    """The symbols (y_s) and (t_s), one of each per slot."""
    dim = config.shape.dim
    return sympy.symbols(f"y:{dim}"), sympy.symbols(f"t:{dim}")


def exp_of(config, vector):
    """exp(vector·y); the entries may be numbers or sympy expressions."""
    y, _t = variables(config)
    return sympy.exp(sum(sympy.sympify(a) * ys for a, ys in zip(vector, y)))


def monomial(config, idx):
    """x^α t^i as exp(α·y) · Π t_s^{i_s}."""
    _y, t = variables(config)
    return exp_of(config, idx.alpha.vector) * sympy.Mul(*[ts ** e for ts, e in zip(t, idx.exps)])


def calculus_expression(config, u, v):
    """[u, v] of two expressions in the variables, by calculus."""
    shape = config.shape
    y, t = variables(config)

    def d(p, expr):
        s = shape.slot(p)
        return sympy.diff(expr, y[s]) + sympy.diff(expr, t[s])

    def two_minus_grading(expr):
        return (2 * expr
                - sum(sympy.diff(expr, y[s]) for s in config.weight_group_slots)
                - sum(t[s] * sympy.diff(expr, t[s]) for s in config.weight_exp_slots))

    out = two_minus_grading(u) * d(0, v) - d(0, u) * two_minus_grading(v)
    for p in shape.blocks(1, 6):
        pb = p + shape.n
        out += exp_of(config, shape.shift_vector(p)) * (d(p, u) * d(pb, v) - d(pb, u) * d(p, v))
    return out


def calculus_bracket(config, iu, iv) -> dict:
    """[x^α t^i, x^β t^j] as {(group vector, exponents): coefficient}."""
    shape = config.shape
    y, t = variables(config)
    out = calculus_expression(config, monomial(config, iu), monomial(config, iv))

    terms: dict[tuple, Fraction] = {}
    for term in sympy.Add.make_args(sympy.expand(out)):
        coeff, arg, exps = sympy.Integer(1), sympy.Integer(0), [0] * shape.dim
        for factor in sympy.Mul.make_args(term):
            if factor.is_Number:
                coeff *= factor
            elif isinstance(factor, sympy.exp):
                arg += factor.args[0]
            else:
                base, e = factor.as_base_exp()
                exps[t.index(base)] += int(e)
        key = (tuple(Fraction(str(arg.coeff(ys))) for ys in y), tuple(exps))
        terms[key] = terms.get(key, 0) + Fraction(str(coeff))
    return {k: c for k, c in terms.items() if c}


def _key(index) -> tuple:
    return tuple(Fraction(x) for x in index.alpha.vector), tuple(index.exps)


def _keyed(terms: dict) -> dict:
    return {_key(r): Fraction(c) for r, c in terms.items()}


def _without_exponent_exponent_family(config):
    mutant = copy.copy(config)
    mutant.pair_rows = tuple(row[:6] + (False,) for row in config.pair_rows)
    return mutant


def test_calculus_route_agrees_with_the_closed_route(all_configs):
    # seeded pairs: 16 per single-block config and 2 on mixed, where one
    # pair costs about 0.2 s.  The calculus route's indices lie in
    # bracket_support of the pair's sums.  Negative control: the closed
    # route without the exponent-exponent family disagrees with it on
    # every config that has that family
    flagged = {}
    for name, config in all_configs.items():
        rng = random.Random(43)
        mutant = _without_exponent_exponent_family(config)
        for _ in range(2 if name == "mixed" else 16):
            iu, iv = sample_index(config, rng), sample_index(config, rng)
            calculus = calculus_bracket(config, iu, iv)
            assert calculus == _keyed(bracket_terms(config, iu, iv)), (name, iu, iv)
            support = bracket_support(config, iu.alpha.add(iv.alpha), iu.exps.add(iv.exps))
            assert calculus.keys() <= {_key(r) for r in support}
            if calculus != _keyed(bracket_terms(mutant, iu, iv)):
                flagged[name] = flagged.get(name, 0) + 1
    with_family = {name for name, config in all_configs.items()
                   if any(row[6] for row in config.pair_rows)}
    assert with_family == {"l3", "l5", "l6z", "l6n", "mixed"}
    assert flagged.keys() == with_family, flagged
