"""Built-in worked instances: abstract Hodge models for the transfer
morphism, and small GBV algebras.  Shared by the CLI, the deterministic
suite, and the test fixtures."""

from __future__ import annotations

from fractions import Fraction

from .core import Element, GradedBasis
from .gbv import GBVStructure, GradedCommAlgebra
from .linfty import HodgeModel

F = Fraction


def _e(i, c=1):
    return Element.basis_vector(i, F(c))


def trivial_hodge_model() -> HodgeModel:
    """Everything harmonic: del = delbar = tau = 0, h i = id."""
    space = GradedBasis.of(("h0", 0), ("h1", 1))
    bideg = [(0, 0), (1, 0)]
    h_space = GradedBasis.of(("H0", 0), ("H1", 1))
    incl = {0: _e(0), 1: _e(1)}
    proj = {0: _e(0), 1: _e(1)}
    source = GradedBasis.of(("r", 0),)
    hat = {0: {0: _e(0)}}
    return HodgeModel(
        space, bideg, h_space, incl, proj, {}, {}, {}, source, {}, {}, hat
    )


def rank_one_hodge_model() -> HodgeModel:
    """Four-dimensional space with a rank-1 delbar; the bidegree slots force
    del = 0 and hence tau = sigma del = 0."""
    space = GradedBasis.of(("c", 0), ("x", 1), ("hp", 1), ("hq", 2))
    bideg = [(0, 0), (0, 1), (1, 0), (1, 1)]
    h_space = GradedBasis.of(("Hp", 1), ("Hq", 2))
    incl = {0: _e(2), 1: _e(3)}
    proj = {2: _e(0), 3: _e(1)}
    delbar = {0: _e(1)}
    source = GradedBasis.of(("r", 0),)
    hat = {0: {2: _e(2)}}
    return HodgeModel(
        space, bideg, h_space, incl, proj, {}, delbar, {}, source, {}, {}, hat
    )


def derived_hodge_model() -> HodgeModel:
    """Ten-dimensional space with del != 0 and tau = sigma del != 0 built
    from an explicit splitting sigma (x -> v, q -> p, and the mirrored
    pair); the seven-element source makes the transfer identity genuinely
    cancel at arities 2 and 3."""
    space = GradedBasis.of(
        ("w0", 0), ("w2", 2),
        ("v", 0), ("x", 1), ("p", 1), ("q", 2),
        ("v2", 0), ("x2", 1), ("p2", 1), ("q2", 2),
    )
    bideg = [
        (0, 0), (1, 1),
        (0, 0), (0, 1), (1, 0), (1, 1),
        (0, 0), (0, 1), (1, 0), (1, 1),
    ]
    W0, W2, V, X, P, Q_, V2, X2, P2, Q2 = range(10)
    h_space = GradedBasis.of(("H0", 0), ("H2", 2))
    incl = {0: _e(W0), 1: _e(W2)}
    proj = {W0: _e(0), W2: _e(1)}
    delbar = {V: _e(X), P: _e(Q_), V2: _e(X2), P2: _e(Q2)}
    del_op = {V: _e(P), X: _e(Q_, -1), V2: _e(P2), X2: _e(Q2, -1)}
    tau = {X: _e(P, -1), X2: _e(P2, -1)}

    source = GradedBasis.of(
        ("a", 0), ("g", 0), ("b", 1), ("c", 1), ("b2", 1), ("c2", 1), ("ee", 2)
    )
    A_, G_, B_, C_, B2_, C2_, E_ = range(7)
    hat = {
        A_: {W0: _e(V)},
        G_: {P: _e(X2)},
        B_: {P: _e(W2)},
        C_: {W0: _e(X)},
        B2_: {P2: _e(W2)},
        C2_: {W0: _e(X2)},
        E_: {W0: _e(W2)},
    }
    d_table = {A_: _e(C_)}
    q_table = {(A_, G_): _e(C2_), (A_, B_): _e(E_, -1)}
    return HodgeModel(
        space, bideg, h_space, incl, proj, del_op, delbar, tau,
        source, d_table, q_table, hat,
    )


HODGE_BUILTINS = {
    "trivial": trivial_hodge_model,
    "rank-one": rank_one_hodge_model,
    "derived": derived_hodge_model,
}


def exterior_gbv(scale=2) -> GBVStructure:
    """Four-dimensional exterior algebra on two odd generators (degrees -1
    and +1) with a second-order delta: delta(th1) = 1, delta(th1 th2) =
    scale * th2, so the derived product is q(th1, th2) = (scale - 1) th2;
    at scale 1 delta is an honest odd derivation (q = 0)."""
    basis = GradedBasis.of(("one", 0), ("th1", -1), ("th2", 1), ("th12", 0))
    table = {(1, 2): _e(3)}
    algebra = GradedCommAlgebra(basis, table, unit="one")
    return GBVStructure(algebra, {1: _e(0), 3: _e(2, scale)})
