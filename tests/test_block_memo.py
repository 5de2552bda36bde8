"""The block memo ``reversers._block``: memoized blocks give the same
certificates as blocks built afresh, the memo stays within its bound over
the whole sweep, a shared block cannot be changed, and every check still
runs from scratch."""
import dataclasses
import functools

import pytest
from hypothesis import given, settings, strategies as st

from conftest import naive_place, sweep_blocks
from quatrev.canonical import JordanSpec, jordan_matrix
from quatrev.classify import classify_psl
from quatrev.decompose import verify_certificate
from quatrev.errors import NotConstructible
from quatrev.matrix import QMatrix
from quatrev.reversers import (_BLOCK_MEMO, _D, _KINDS, _PLAIN,
                               FLAVOR_INVOLUTION, FLAVOR_SKEW, TARGET_INVERSE,
                               TARGET_NEG_INVERSE, _block, assemble_reverser,
                               neg_reverser_i_matrix)
from quatrev.scalar import GR_I, gr


@functools.cache
def _admitted():
    """Every (spec, kind) of the total-size <= 6 sweep that classifies as
    constructible, kinds as (target, flavor)."""
    out = []
    for blocks in sweep_blocks():
        spec = JordanSpec.of(blocks)
        cls = classify_psl(spec)
        for ok, kind in ((cls.reversible, (TARGET_INVERSE, FLAVOR_SKEW)),
                         (cls.strongly_reversible,
                          (TARGET_INVERSE, FLAVOR_INVOLUTION)),
                         (cls.neg_reversible,
                          (TARGET_NEG_INVERSE, FLAVOR_INVOLUTION))):
            if ok:
                out.append((spec, kind))
    return out


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_memoized_blocks_match_fresh_builds(data):
    spec, kind = data.draw(st.sampled_from(_admitted()))
    assemble_reverser(spec, *kind)
    warm = assemble_reverser(spec, *kind)
    assert warm.g == naive_place(spec, *kind)
    _block.cache_clear()
    cold = assemble_reverser(spec, *kind)
    assert cold.g == warm.g
    assert cold.to_json() == warm.to_json()


def test_memo_stays_within_its_bound_over_the_sweep():
    _block.cache_clear()
    built = 0
    for blocks in sweep_blocks():
        spec = JordanSpec.of(blocks)
        for kind in _KINDS:
            try:
                assemble_reverser(spec, *kind)
            except NotConstructible:
                continue
            built += 1
    info = _block.cache_info()
    assert built == len(_admitted()) == 1987
    assert info.maxsize == _BLOCK_MEMO
    assert info.currsize <= _BLOCK_MEMO
    assert info.misses == info.currsize    # nothing was evicted
    assert info.hits > info.misses


def test_cached_block_rejects_attribute_writes():
    blk = _block(gr(2), 3, _PLAIN, False, 1)
    assert _block(gr(2), 3, _PLAIN, False, 1) is blk
    before = blk._ints
    for name in ("_ints", "n_rows", "n_cols", "extra"):
        with pytest.raises(AttributeError):
            setattr(blk, name, None)
        with pytest.raises(AttributeError):
            delattr(blk, name)
    assert blk._ints == before


def test_neg_reverser_i_shares_the_memo():
    _block.cache_clear()
    n = 3
    m = neg_reverser_i_matrix(n)
    assert _block.cache_info().misses == 1
    cert = assemble_reverser(JordanSpec.of([(GR_I, n)]), TARGET_NEG_INVERSE)
    info = _block.cache_info()
    assert (info.hits, info.misses) == (1, 1)
    assert cert.g == m == _block(GR_I, n, _D, False, 1)


@pytest.mark.parametrize("blocks,kind", [
    ([(gr(2), 2), (gr("1/2"), 2), (gr(-1), 1)],
     (TARGET_INVERSE, FLAVOR_INVOLUTION)),
    ([(gr("3/5", "4/5"), 2), (gr(1, 1), 1), (gr("1/2", "1/2"), 1)],
     (TARGET_INVERSE, FLAVOR_SKEW)),
    ([(GR_I, 2), (gr(2), 1), (gr("-1/2"), 1)],
     (TARGET_NEG_INVERSE, FLAVOR_INVOLUTION)),
])
def test_tampered_certificate_fails_with_a_warm_memo(blocks, kind):
    spec = JordanSpec.of(blocks)
    a = jordan_matrix(spec)
    assemble_reverser(spec, *kind)
    cert = assemble_reverser(spec, *kind)
    assert verify_certificate(a, cert).ok
    d, rows = cert.g._ints
    tampered = [list(row) for row in rows]
    j, e = next((j, e) for j, e in enumerate(tampered[0]) if e)
    tampered[0][j] = (e[0] + d, *e[1:])    # one entry moved by 1
    bad = dataclasses.replace(cert, g=QMatrix._of_ints(d, tampered))
    assert not verify_certificate(a, bad).ok
    assert assemble_reverser(spec, *kind).g == cert.g
