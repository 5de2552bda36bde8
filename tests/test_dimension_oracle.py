"""Every reversibility "no" checked by linear algebra that does not read the
paper's pairing criteria (Byrnes and Gauger, Linear Multilinear Algebra 5,
1977).

A ~ B exactly when dim Hom(A, A) = dim Hom(A, B) = dim Hom(B, B), where
Hom(A, B) = {X : A X = X B}.  Over H, A ~ B iff Phi(A) ~ Phi(B) over C, and
Phi(A^-1) = Phi(A)^-1.  So A is reversible iff dim R+ = dim C and
negatively reversible iff dim R- = dim C, for C the centralizer of Phi(J)
and R+- = {X : Phi(J) X = +-X Phi(J)^-1}.  For a Jordan matrix these
dimensions have a closed form: a block J(lam, s) of J gives Phi(J) the
blocks lam and conj(lam) of size s, and two single Jordan blocks of sizes s
and t intertwine in a space of dimension min(s, t) when their eigenvalues
match, else zero (Gantmacher, The Theory of Matrices I, ch. VIII).  Hence,
summed over ordered pairs of blocks of J, dim C adds min(s, t) for each pair
(mu, nu) of their Phi-eigenvalues with mu = nu, and dim R+- for each pair
with mu * nu = +-1.

Strong reversibility has no such linear criterion; its "no" stays pinned
by the coset control of the acceptance tests.
"""
from hypothesis import given, settings

from conftest import jordan_specs, sweep_blocks
from quatrev.canonical import JordanSpec
from quatrev.classify import classify_psl
from test_ladder_digest import LADDER


def dimensions(spec):
    """(dim C, dim R+, dim R-) for the Jordan matrix of spec, in integers:
    each Phi-eigenvalue (x + y i)/z is the triple (x, y, z), and
    mu * nu = +-1 reads (a + b i)(d + e i) = +-c f."""
    phi = [((lam._ints, lam.conjugate()._ints), s) for lam, s in spec.blocks]
    dim_c = dim_plus = dim_minus = 0
    for mus, s in phi:
        for nus, t in phi:
            m = min(s, t)
            for mu in mus:
                a, b, c = mu
                for nu in nus:
                    d, e, f = nu
                    dim_c += m * (mu == nu)
                    if a * e + b * d == 0:
                        re = a * d - b * e
                        dim_plus += m * (re == c * f)
                        dim_minus += m * (re == -c * f)
    return dim_c, dim_plus, dim_minus


def _agrees(spec):
    dim_c, dim_plus, dim_minus = dimensions(spec)
    cls = classify_psl(spec)
    return (cls.reversible == (dim_plus == dim_c)
            and cls.neg_reversible == (dim_minus == dim_c))


def test_dimensions_of_small_cases():
    # J(2,1) + J(1/2,1): Phi has 2, 2, 1/2, 1/2; C is 2 + 2, R+ pairs 2 with
    # 1/2 both ways (8), R- is empty
    assert dimensions(JordanSpec.of([("2", 1), ("1/2", 1)])) == (8, 8, 0)
    # J(i,2): Phi has i and -i of size 2; i * (-i) = 1 and i * i = -1
    assert dimensions(JordanSpec.of([("i", 2)])) == (4, 4, 4)
    # J(2,1) alone is neither reversible nor negatively reversible
    assert dimensions(JordanSpec.of([("2", 1)])) == (4, 0, 0)


def test_closed_form_agrees_on_the_sweep_and_the_ladder():
    """Over all total-size <= 6 sweep specs and the benchmark's 22 ladder
    specs, ``reversible`` iff dim R+ = dim C and ``neg_reversible`` iff
    dim R- = dim C."""
    specs = [JordanSpec.of(blocks) for blocks in sweep_blocks()]
    specs += [JordanSpec.of(blocks) for blocks, _ in LADDER]
    assert len(specs) == 17589 + 22
    assert [spec for spec in specs if not _agrees(spec)] == []


@settings(max_examples=300, deadline=None)
@given(jordan_specs())
def test_closed_form_agrees_on_random_specs(spec):
    assert _agrees(spec)
