"""Shared configuration fixtures, and the bracket shape of an index.

One configuration per active block, a mixed configuration touching all
six blocks, and a wider lattice for decomposition tests.  Session scope:
a config is immutable (its lattice interns nothing, so using a config
changes nothing in it; `test_sessions_leave_no_state_in_a_config` holds
this), and construction re-solves lattice pivots.
"""

from __future__ import annotations

from operator import sub

import pytest

from contactk import make_config


@pytest.fixture(scope="session")
def cfg_caseB():
    # block 1 active, zero exponent mode, lattice with a zero-slot axis
    return make_config((1, 0, 0, 0, 0, 0), "zero",
                       [(1, 0, 0), (0, 1, 0), (0, 0, 1)])


@pytest.fixture(scope="session")
def cfg_l2():
    # block 2 active, natural exponents; also the case-A shape
    return make_config((0, 1, 0, 0, 0, 0), "naturals",
                       [(0, 1, 0), (0, 0, 1)])


@pytest.fixture(scope="session")
def cfg_l3():
    return make_config((0, 0, 1, 0, 0, 0), "naturals",
                       [(0, 1, 0), (0, 0, 1)])


@pytest.fixture(scope="session")
def cfg_l4():
    return make_config((0, 0, 0, 1, 0, 0), "naturals", [(0, 1, 0)])


@pytest.fixture(scope="session")
def cfg_l5():
    return make_config((0, 0, 0, 0, 1, 0), "naturals", [(0, 1, 0)])


@pytest.fixture(scope="session")
def cfg_l6z():
    return make_config((0, 0, 0, 0, 0, 1), "zero", [(1, 0, 0)])


@pytest.fixture(scope="session")
def cfg_l6n():
    return make_config((0, 0, 0, 0, 0, 1), "naturals", [(1, 0, 0)])


def _unit(dim, slot):
    v = [0] * dim
    v[slot] = 1
    return tuple(v)


@pytest.fixture(scope="session")
def cfg_mixed():
    # all six blocks active; generators cover every required member
    ell = (1, 1, 1, 1, 1, 1)
    dim = 13
    slots = [1, 2, 3, 4, 5, 6, 7, 9]  # indices 1,1bar,2,2bar,3,3bar,4,5
    return make_config(ell, "naturals", [_unit(dim, s) for s in slots])


@pytest.fixture(scope="session")
def cfg_decomp():
    # block 2 with a zero-slot generator: nonzero outer and hom-star parts
    return make_config((0, 1, 0, 0, 0, 0), "naturals",
                       [(1, 0, 0), (0, 1, 0), (0, 0, 1)])


@pytest.fixture(scope="session")
def all_configs(cfg_caseB, cfg_l2, cfg_l3, cfg_l4, cfg_l5, cfg_l6z,
                cfg_l6n, cfg_mixed):
    return {
        "caseB": cfg_caseB, "l2": cfg_l2, "l3": cfg_l3, "l4": cfg_l4,
        "l5": cfg_l5, "l6z": cfg_l6z, "l6n": cfg_l6n, "mixed": cfg_mixed,
    }


def _bracket_shape(r, alpha_sum, exps_sum):
    """The shape of a bracket index r of a pair with sums (alpha_sum,
    exps_sum), to be looked up in `table_shapes`: r's move from
    alpha_sum, and the slots where r lowers exps_sum."""
    return (tuple(map(sub, r.alpha.coords, alpha_sum.coords)),
            tuple(s for s, (a, b) in enumerate(zip(exps_sum, r.exps)) if a != b))


def table_shapes(config) -> set:
    """Every entry of `config.bracket_shapes` as (shift coordinates,
    lowered slots)."""
    return {(shift.coords, slots)
            for shift, shapes in config.bracket_shapes for slots in shapes}


@pytest.fixture(scope="session")
def bracket_shape():
    return _bracket_shape


@pytest.fixture(scope="session", name="table_shapes")
def table_shapes_fixture():
    return table_shapes
