"""Element is one plain value: its constructor checks the terms, the
library's operations build with ``Element._make`` and trust them, and
degrees are exact, zeros included.

The operations skip the constructor's checks at run time, so these tests
run the checks on what they return."""

import random
import re
import sys

import pytest

from sqhit import f2linalg, hit, modules, structure, suites
from sqhit.homotopy import HomotopySystem, null_span, preimage_chain, shift
from test_homotopy import CHAIN_PIECES, null_delta_classes
from sqhit.modules import (
    ORBIT_KINDS,
    POSITIVE_KINDS,
    Bidegree,
    Element,
    ModuleKind,
    basis,
    concat_product,
    element_from_json,
    project_to_orbit,
    sq,
)

G = ModuleKind.GAMMA


def checked(y):
    """y, after the constructor's checks pass on its fields."""
    assert type(y) is Element and Element(*y) == y
    return y


def seeded_element(rng, kind, s, d):
    if kind is ModuleKind.NABLA:
        terms = []
        for _ in range(rng.randint(0, 6)):
            head = [rng.randint(-6, 6) for _ in range(s - 1)]
            terms.append(tuple(head) + (d - sum(head),))
        return Element.from_monomials(kind, s, d, terms)
    return suites.random_element(rng, kind, s, d)


@pytest.mark.parametrize("kind", list(ModuleKind), ids=[k.value for k in ModuleKind])
def test_operations_build_what_the_constructor_accepts(kind):
    rng = random.Random(11)
    for _ in range(40):
        s = rng.randint(1, 4)
        d = rng.randint(s, s + 7)
        x, y = seeded_element(rng, kind, s, d), seeded_element(rng, kind, s, d)
        checked(x + y)
        for l in range(d + 2):
            checked(sq(x, l))
        checked(shift(x, 1 if kind in ORBIT_KINDS else rng.randint(1, s), rng.randint(0, 5)))
        if kind in POSITIVE_KINDS:
            bits = hit.element_to_vector(x, Bidegree(s, d), kind)
            assert checked(hit.vector_to_element(bits, Bidegree(s, d), kind)) == x
        if kind is G:
            checked(concat_product(x, seeded_element(rng, G, 2, rng.randint(2, 5))))
            for orbit in ORBIT_KINDS:
                checked(project_to_orbit(x, orbit))


def test_add_refuses_a_zero_of_another_degree():
    x = Element.single(G, (1, 2))
    for other in (Element.zero(G, 2, 4), Element.zero(G, 2, 2)):
        with pytest.raises(ValueError, match="different degree"):
            x + other
        with pytest.raises(ValueError, match="different degree"):
            other + x
    with pytest.raises(ValueError, match="different degree"):
        Element.zero(G, 2, 3) + Element.zero(G, 2, 4)
    assert Element.zero(G, 2, 3) + x == x


def test_zero_repr_names_its_piece():
    assert repr(Element.zero(G, 2, 3)) == "0(gamma,2,3)"
    assert repr(Element.single(G, (1, 2)) + Element.single(G, (1, 2))) == "0(gamma,2,3)"


@pytest.mark.parametrize("kind", list(ModuleKind), ids=[k.value for k in ModuleKind])
def test_constructor_refuses_negative_arity(kind):
    # An empty support has no term to contradict s, so the constructor
    # checks s itself, with the message element_from_json gives.
    for build in (lambda: Element(kind, -1, 3, frozenset()), lambda: Element.from_monomials(kind, -1, 3, []),
                  lambda: Element.zero(kind, -1, 3)):
        with pytest.raises(ValueError, match=r"^arity s=-1 must be >= 0$"):
            build()
    assert Element(kind, 0, 0, frozenset()).is_zero()
    # A negative degree stays allowed: sq past d builds such zeros.
    assert Element(kind, 2, -5, frozenset()) == sq(Element.zero(kind, 2, 0), 5)


@pytest.mark.parametrize("tag", ["gamma-cyc", "bogus", None])
def test_constructors_refuse_a_kind_that_is_not_a_module_kind(tag):
    # A ModuleKind equals its string tag, so only the type tells them apart;
    # a tag let through would fail later, inside sq or an error message.
    for build in (lambda: Element(tag, 2, 5, frozenset({(3, 2)})), lambda: Element.zero(tag, 2, 5),
                  lambda: Element.from_monomials(tag, 2, 5, [(3, 2)]), lambda: HomotopySystem(tag, 1)):
        with pytest.raises(ValueError) as err:
            build()
        assert str(err.value) == f"kind {tag!r} is not a ModuleKind"


@pytest.mark.parametrize("build,message", [
    (lambda: Element.single(G, (1.5, 1.5)), "entries must be plain ints: gamma[1.5, 1.5]"),
    (lambda: Element.single(ModuleKind.GAMMA_SYM, (True, True)), "entries must be plain ints: gamma-sym[True, True]"),
    (lambda: Element.single(G, ("1", 2)), "entries must be plain ints: gamma['1', 2]"),
    (lambda: Element.single(G, (None, 2)), "entries must be plain ints: gamma[None, 2]"),
    (lambda: Element.single(ModuleKind.NABLA, (2.0, -1)), "entries must be plain ints: nabla[2.0, -1]"),
    # Mixed entry types do not sort: the least printed form is named.
    (lambda: Element(G, 2, 3, frozenset({(None, 3), (1, 2), ("a", 2), (1.5, 1.5)})),
     "entries must be plain ints: gamma['a', 2]"),
])
def test_constructor_refuses_entries_that_are_not_plain_ints(build, message):
    # Before, the str and None entries raised TypeError from sum, and the rest
    # were built, to fail later in sq or in element_from_json.
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message


@pytest.mark.parametrize("build,message", [
    (lambda: Element(G, 1, 1, frozenset({5})), "terms must be tuples: 5"),
    (lambda: Element(G, 1, 1, frozenset({frozenset({1})})), "terms must be tuples: frozenset({1})"),
    (lambda: Element(G, 1, 1, frozenset({range(1, 2)})), "terms must be tuples: range(1, 2)"),
    (lambda: Element(G, 1, 1, frozenset({b"\x01"})), "terms must be tuples: b'\\x01'"),
    (lambda: Element(G, 2, 2, frozenset({Bidegree(1, 1)})), "terms must be tuples: Bidegree(s=1, d=1)"),
    # Terms of different types do not sort: the least repr is named.
    (lambda: Element(ModuleKind.GAMMA_SYM, 1, 1, frozenset({(1,), 5, "a"})), "terms must be tuples: 'a'"),
    (lambda: Element.single(G, [1, 2]), "terms must be tuples: [1, 2]"),
    (lambda: Element.from_monomials(G, 2, 3, [[1, 2]]), "terms must be tuples: [1, 2]"),
    (lambda: Element.from_monomials(G, 2, 3, [(1, 2), [2, 1], (2, 1)]), "terms must be tuples: [2, 1]"),
], ids=["int", "frozenset", "range", "bytes", "namedtuple", "mixed", "single-list", "from_monomials-list",
        "from_monomials-mixed"])
def test_constructor_refuses_terms_that_are_not_tuples(build, message):
    # Such a term has no entries to check: an int term or a list would raise
    # TypeError, and a frozenset term would be built only to fail later, in
    # json.dumps.
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message


@pytest.mark.parametrize("s,d,message", [
    (True, 1, "arity s=True must be a plain int"),
    (1.0, 1, "arity s=1.0 must be a plain int"),
    (1, 1.0, "degree d=1.0 must be a plain int"),
    (1, False, "degree d=False must be a plain int"),
])
def test_constructors_refuse_s_and_d_that_are_not_plain_ints(s, d, message):
    support = frozenset({(1,)}) if d else frozenset()
    for build in (lambda: Element(G, s, d, support), lambda: Element.zero(G, s, d)):
        with pytest.raises(ValueError) as err:
            build()
        assert str(err.value) == message


def test_zeros_of_different_degree_differ():
    assert Element.zero(G, 2, 3) != Element.zero(G, 2, 4)
    assert sq(Element.single(G, (1, 1)), 1) == Element.zero(G, 2, 1)


def test_operations_run_without_the_constructor(monkeypatch):
    b = Bidegree(4, 18)
    h = HomotopySystem(G, 2, 1)
    null = f2linalg.intersect(hit.delta_basis(b, 2, G), null_span(b, h))
    bits = null.basis[0]
    x = hit.vector_to_element(bits, b, G)
    one = Element.single(G, (3,))
    chain = preimage_chain(x, h)
    # Element.zero is a public constructor and runs the checks, so the
    # zeros compared with build before the patch.
    zero_17, zero_3 = Element.zero(G, 4, 17), Element.zero(G, 4, 3)

    def refuse(*args, **kwargs):
        raise AssertionError("Element.__new__ ran")

    monkeypatch.setattr(Element, "__new__", refuse)
    with pytest.raises(AssertionError, match="Element.__new__ ran"):
        Element(G, 1, 3, frozenset({(3,)}))
    assert hit.vector_to_element(bits, b, G) == x
    assert sq(x, 1) == zero_17
    assert sq(x, 15) == zero_3  # 15 > d - s: no term survives
    assert sq(shift(x, 1, 1), 1) == x
    assert (x + x).is_zero()
    assert concat_product(one, x).d == 21
    assert project_to_orbit(x, ModuleKind.GAMMA_SYM).kind is ModuleKind.GAMMA_SYM
    assert preimage_chain(x, h) == chain


def test_a_refused_decode_builds_the_element_once(monkeypatch):
    # gamma[2, 2] is inconsistent with (gamma,2,3): Element's checks name it
    # on their one run, and the decode runs no second parse to name it.
    monkeypatch.setattr(modules, "EXPANSIONS", modules.Expansions())
    built = []
    new = Element.__new__

    def counted(cls, *args):
        built.append(args)
        return new(cls, *args)

    monkeypatch.setattr(Element, "__new__", counted)
    with pytest.raises(ValueError, match=re.escape("monomial gamma[2, 2] inconsistent with element (gamma,2,3)")):
        element_from_json({"kind": "gamma", "s": 2, "d": 3, "monomials": [[1, 2], [2, 2]]})
    assert len(built) == 1


def sized(x):
    """x, after its support is found sized as a set copied into a frozenset
    sizes it: by its length alone, on any CPython."""
    assert sys.getsizeof(x.support) == sys.getsizeof(frozenset(set(x.support))), (len(x.support), x.kind, x.s, x.d)
    return x


def whole(kind, s, d):
    """The sum of the whole basis of (s, d), built by the constructor."""
    return Element(kind, s, d, frozenset(basis(Bidegree(s, d), kind)))


@CHAIN_PIECES
def test_chain_outputs_are_sized(kind, s, d, orders, positions):
    rng = random.Random(37)
    for k in orders:
        for p in positions:
            h = HomotopySystem(kind, k, p)
            for x in null_delta_classes(kind, s, d, k, p, rng, 3):
                # Cold, then warm: the memo misses and the memo hits.
                for _ in range(2):
                    for y in preimage_chain(x, h):
                        sized(y)


@pytest.mark.parametrize("build", [
    lambda: Element.from_monomials(G, 4, 14, basis(Bidegree(4, 14), G) * 3),
    lambda: hit.vector_to_element((1 << 286) - 1, Bidegree(4, 14), G),
    lambda: shift(whole(G, 4, 14), 2, 3),
    lambda: shift(whole(ModuleKind.GAMMA_CYC, 4, 22), 1, 1),
    # Each orbit's canonical term once, as a gamma element.
    lambda: project_to_orbit(Element(G, 4, 24, whole(ModuleKind.GAMMA_SYM, 4, 24).support), ModuleKind.GAMMA_SYM),
    lambda: project_to_orbit(Element(G, 4, 22, whole(ModuleKind.GAMMA_CYC, 4, 22).support), ModuleKind.GAMMA_CYC),
    lambda: concat_product(whole(G, 2, 9), whole(G, 2, 12)),
    lambda: max(structure.decompose_first_factor(whole(G, 4, 14)).values(), key=lambda x: len(x.support)),
    lambda: structure.compose_first_factor({1: whole(G, 3, 13), 2: whole(G, 3, 12)}, 4, 14),
], ids=["from_monomials", "vector_to_element", "shift", "shift-cyc", "project_to_orbit-sym",
        "project_to_orbit-cyc", "concat_product", "decompose_first_factor", "compose_first_factor"])
def test_operations_size_their_supports(build):
    # Each support here is large enough that one grown term by term from an
    # iterator would hold a table of another size.
    x = checked(sized(build()))
    assert len(x.support) > 20
