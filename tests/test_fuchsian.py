import cmath
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest

from modlab import fuchsian
from modlab.diskgeom import (
    IDENTITY,
    MobiusAutomorphism,
    hyp_distance,
    mobius_apply,
    mobius_compose,
    mobius_invert,
    mobius_to_zero,
)
from modlab.fuchsian import (
    DirichletDomain,
    EllipticElementError,
    FuchsianGroup,
    GrowthOverflowError,
    NotReducedError,
    PrecisionLossError,
    build_dirichlet_domain,
    cyclic_group,
    dirichlet_membership,
    enumerate_elements,
    genus2_group,
    injectivity_radius,
    load_group,
    project_to_fundamental,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def brute_force_words(generators, max_len):
    """Oracle: expand every letter sequence, reduce numerically by dedup."""
    letters = []
    for g in generators:
        letters.append(g)
        letters.append(mobius_invert(g))
    found = []

    def matches(a, b):
        return a.coefficient_distance(b) < 1e-9

    for length in range(1, max_len + 1):
        for seq in itertools.product(letters, repeat=length):
            w = IDENTITY
            for s in seq:
                w = mobius_compose(w, s)
            if matches(w, IDENTITY):
                continue
            if not any(matches(w, f) for f in found):
                found.append(w)
    return found


def enumeration_oracle(group):
    """Scalar enumeration: one composition at a time, each element kept unless it
    lies within 1e-9 (up to sign) of the identity or of an element kept before,
    found through hash buckets of rounded coefficients."""

    def bucket(g):
        a, c = g.a, g.c
        if a.real < 0 or (a.real == 0 and (a.imag < 0 or (a.imag == 0 and c.real < 0))):
            a, c = -a, -c
        q = 1e6  # bucket width 1e-6 >> dedup tolerance, << element separation
        return (round(a.real * q), round(a.imag * q), round(c.real * q), round(c.imag * q))

    buckets = {}

    def add(g):
        key = bucket(g)
        for dk in itertools.product((-1, 0, 1), repeat=4):
            near = tuple(k + d for k, d in zip(key, dk))
            if any(g.coefficient_distance(h) < 1e-9 for h in buckets.get(near, ())):
                return False
        buckets.setdefault(key, []).append(g)
        return True

    alphabet = []
    for i, g in enumerate(group.generators):
        alphabet += [(2 * i, g), (2 * i + 1, mobius_invert(g))]
    add(IDENTITY)
    elements = []
    frontier = [(None, IDENTITY)]  # (last letter index, element)
    for _ in range(group.max_word_length):
        next_frontier = []
        for last, w in frontier:
            for idx, letter in alphabet:
                if last is not None and (idx ^ 1) == last:
                    continue  # free reduction: skip immediate inverse
                elem = mobius_compose(w, letter)
                if elem.coefficient_distance(IDENTITY) < 1e-9 or not add(elem):
                    continue
                if abs(elem.a.real) < 1.0 + 1e-12:
                    raise EllipticElementError(f"|Re a| = {abs(elem.a.real):.6f}")
                elements.append(elem)
                next_frontier.append((idx, elem))
                if len(elements) > group.element_cap:
                    raise GrowthOverflowError(f"cap of {group.element_cap} elements")
        frontier = next_frontier
    return elements


def assert_same_elements(elems, oracle):
    """Same count and order, every coefficient equal (bit for bit up to the sign of zero)."""
    assert isinstance(elems, MobiusAutomorphism) and elems.a.ndim == elems.c.ndim == 1
    assert len(elems) == len(oracle)
    np.testing.assert_array_equal(elems.a, np.array([g.a for g in oracle], dtype=complex))
    np.testing.assert_array_equal(elems.c, np.array([g.c for g in oracle], dtype=complex))


def membership_oracle(z, elements, tol=1e-9):
    """Brute force about 0: every half-plane tested with its own scalar distances."""
    d_center = hyp_distance(z, 0j)
    d_images = [hyp_distance(z, mobius_apply(h, 0j)) for h in elements]
    if any(d_center >= d + tol for d in d_images):
        return "outside"
    if any(d_center > d - tol for d in d_images):
        return "boundary"
    return "inside"


PRUNE_CASES = [
    pytest.param(genus2_group(3), 0j, id="genus2-3"),
    pytest.param(genus2_group(4), 0j, id="genus2-4"),
    pytest.param(cyclic_group(2.0, 12), 0j, id="cyclic-2.0-12"),
    pytest.param(genus2_group(3), 0.3 + 0.1j, id="genus2-3-off-center"),
]


def full_set_label(z, center, images, tol=1e-9):
    """Membership on the half-plane of every element, unpruned: the oracle for the prune."""
    d_center = hyp_distance(z, center)
    d_images = hyp_distance(z, images)
    if np.any(d_center >= d_images + tol):
        return "outside"
    if np.any(d_center > d_images - tol):
        return "boundary"
    return "inside"


def geodesic_midpoint(p, q):
    """The hyperbolic midpoint of p and q, found with p moved to 0."""
    to_p = mobius_to_zero(p)
    u = mobius_apply(to_p, q)
    return mobius_apply(mobius_invert(to_p), math.tanh(0.5 * math.atanh(abs(u))) * u / abs(u))


ARRAY_GROUPS = [
    pytest.param(cyclic_group(2.0, 12), id="cyclic-2.0-12"),
    pytest.param(genus2_group(3), id="genus2-3"),
]


class TestEnumeration:
    def test_empty_generators(self):
        assert len(enumerate_elements(FuchsianGroup(()))) == 0

    def test_cyclic_words(self):
        grp = cyclic_group(translation_length=2.0, max_word_length=3)
        elems = enumerate_elements(grp)
        oracle = brute_force_words(grp.generators, 3)
        assert len(elems) == 6  # g, g^-1, g^2, g^-2, g^3, g^-3
        assert len(oracle) == 6
        for e in elems:
            assert any(e.coefficient_distance(o) < 1e-9 for o in oracle)

    def test_two_generator_free_counts(self):
        g2 = genus2_group()
        grp = FuchsianGroup(g2.generators[:2], max_word_length=2)
        elems = enumerate_elements(grp)
        oracle = brute_force_words(grp.generators, 2)
        # 4 words of length 1 plus 12 freely reduced words of length 2
        assert len(elems) == 16
        assert len(oracle) == 16

    def test_closed_under_inversion(self):
        grp = genus2_group(max_word_length=2)
        elems = enumerate_elements(grp)
        for e in elems:
            inv = mobius_invert(e)
            assert any(inv.coefficient_distance(f) < 1e-9 for f in elems)

    def test_elliptic_rejected(self):
        rot = MobiusAutomorphism(complex(math.cos(0.3), math.sin(0.3)), 0.0)
        with pytest.raises(EllipticElementError):
            enumerate_elements(FuchsianGroup((rot,), max_word_length=1))

    def test_growth_overflow(self):
        grp = FuchsianGroup(genus2_group().generators, max_word_length=3, element_cap=20)
        with pytest.raises(GrowthOverflowError):
            enumerate_elements(grp)

    def test_identity_never_listed(self):
        grp = cyclic_group(max_word_length=4)
        for e in enumerate_elements(grp):
            assert e.coefficient_distance(IDENTITY) > 1e-9

    @pytest.mark.parametrize("L", [19, 20])
    def test_precision_loss_is_typed(self, L):
        # g^19 has |a| near cosh 19 = 8.9e7: |a|^2 and |c|^2 lie where floats
        # are 1 apart, so their difference rounds to 0
        assert issubclass(PrecisionLossError, ValueError)
        assert "PrecisionLossError" in fuchsian.__all__
        with pytest.raises(PrecisionLossError, match="lost float resolution"):
            enumerate_elements(cyclic_group(2.0, L))
        assert len(enumerate_elements(cyclic_group(2.0, 18))) == 36

    def test_precision_loss_is_typed_one_composition_at_a_time(self):
        # the same word built from automorphisms one at a time raises the same error
        g = cyclic_group(2.0).generators[0]
        w = IDENTITY
        for _ in range(18):
            w = mobius_compose(w, g)
        with pytest.raises(PrecisionLossError, match="lost float resolution"):
            mobius_compose(w, g)


def _redundant_cyclic():
    # generators g and g^2: g g (length 2) repeats g^2 (length 1)
    g = cyclic_group(2.0).generators[0]
    return FuchsianGroup((g, mobius_compose(g, g)), max_word_length=3)


ORACLE_GROUPS = [
    *(pytest.param(genus2_group(L), id=f"genus2-{L}") for L in range(1, 5)),
    pytest.param(cyclic_group(2.0, 8), id="cyclic-2.0-8"),
    pytest.param(cyclic_group(2.0, 12), id="cyclic-2.0-12"),
    # here squaring |a| by x * x instead of pow(x, 2) moves a rescaled word
    pytest.param(cyclic_group(2.84, 12), id="cyclic-2.84-12"),
    pytest.param(FuchsianGroup(genus2_group().generators[:2], max_word_length=3), id="free-2"),
    pytest.param(_redundant_cyclic(), id="cyclic-redundant"),
]


class TestEnumerationOracle:
    @pytest.mark.parametrize("grp", ORACLE_GROUPS)
    def test_matches_scalar_enumeration(self, grp):
        assert_same_elements(enumerate_elements(grp), enumeration_oracle(grp))

    def test_genus2_counts(self):
        # 8 * 7^(L-1) reduced words per length; the relator of length 8 makes 8
        # pairs of length-4 words equal
        assert [len(enumerate_elements(genus2_group(L))) for L in range(1, 5)] == [8, 64, 456, 3192]
        assert len(enumerate_elements(_redundant_cyclic())) == 12  # g^-6 .. g^6 without I

    @staticmethod
    def _turned(g, offset):
        # turning c keeps |a|^2 - |c|^2, so the constructor does not rescale
        h = MobiusAutomorphism(g.a, g.c * cmath.exp(1j * offset / abs(g.c)))
        assert g.coefficient_distance(h) == pytest.approx(offset, rel=1e-6)
        return h

    @pytest.mark.parametrize("offset, count", [(5e-10, 2), (5e-9, 4)])
    def test_near_duplicate_generator(self, offset, count):
        g = genus2_group().generators[0]
        grp = FuchsianGroup((g, self._turned(g, offset)), max_word_length=1)
        elems = enumerate_elements(grp)
        assert len(elems) == count  # within 1e-9 the first occurrence wins
        assert_same_elements(elems, enumeration_oracle(grp))

    def test_duplicate_of_a_dropped_word_is_kept(self):
        # g, h, k with h 7e-10 from both g and k, and k 1.4e-9 from g: h is
        # dropped as a copy of g, so k, close only to the dropped h, is kept
        g = genus2_group().generators[0]
        grp = FuchsianGroup((g, self._turned(g, 7e-10), self._turned(g, 1.4e-9)),
                            max_word_length=1)
        elems = enumerate_elements(grp)
        assert len(elems) == 4
        assert_same_elements(elems, enumeration_oracle(grp))

    @pytest.mark.parametrize("cap", [1, 7, 8, 63, 64, 455])  # a cap below 1 is refused when the group is built
    def test_cap_counts_kept_elements(self, cap):
        grp = FuchsianGroup(genus2_group().generators, max_word_length=3, element_cap=cap)
        for enumerate_ in (enumerate_elements, enumeration_oracle):
            with pytest.raises(GrowthOverflowError):
                enumerate_(grp)
        grp = FuchsianGroup(genus2_group().generators, max_word_length=3, element_cap=456)
        assert len(enumerate_elements(grp)) == 456

    @pytest.mark.parametrize("cap, error", [(1, GrowthOverflowError), (2, EllipticElementError)])
    def test_elliptic_and_cap_in_word_order(self, cap, error):
        # the words g, g^-1, r, r^-1: the cap falls due at the second, the
        # elliptic r is reached third
        rot = MobiusAutomorphism(complex(math.cos(0.3), math.sin(0.3)), 0.0)
        grp = FuchsianGroup((genus2_group().generators[0], rot), max_word_length=2, element_cap=cap)
        for enumerate_ in (enumerate_elements, enumeration_oracle):
            with pytest.raises(error):
                enumerate_(grp)


class TestElementSets:
    def test_indexing_returns_stored_coefficients(self):
        elems = enumerate_elements(cyclic_group(2.0, 12))
        oracle = enumeration_oracle(cyclic_group(2.0, 12))
        for g, h in zip(elems, oracle):
            assert type(g.a) is complex and type(g.c) is complex
            assert (g.a, g.c) == (h.a, h.c)
        head = elems[:5]
        assert isinstance(head.a, np.ndarray) and len(head) == 5
        assert np.array_equal(head.a, elems.a[:5]) and np.array_equal(head.c, elems.c[:5])
        assert elems[-1].a == elems.a[-1]
        with pytest.raises(TypeError):
            len(elems[0])

    def test_iteration_is_indexing(self):
        # iteration goes through __getitem__, which raises IndexError past the end
        elems = enumerate_elements(genus2_group(2))
        assert list(elems) == [elems[k] for k in range(len(elems))]

    def test_rebuilding_keeps_coefficients(self):
        # normalized coefficients pass through the constructor unchanged, also
        # for long words whose determinant rounds more than 1e-12 from 1
        elems = enumerate_elements(genus2_group(4))
        for g in elems:
            h = MobiusAutomorphism(g.a, g.c)
            assert (h.a, h.c) == (g.a, g.c)
        again = MobiusAutomorphism(elems.a, elems.c)
        assert np.array_equal(again.a, elems.a) and np.array_equal(again.c, elems.c)

    def test_read_only(self):
        elems = enumerate_elements(genus2_group(1))
        assert not elems.a.flags.writeable and not elems.c.flags.writeable

    def test_domain_converts_automorphisms(self):
        g = cyclic_group().generators[0]
        dom = DirichletDomain(0j, (g,))
        assert isinstance(dom.constraints, MobiusAutomorphism) and len(dom.constraints) == 1
        assert (dom.constraints.a[0], dom.constraints.c[0]) == (g.a, g.c)
        assert dom.center == 0j
        # a domain compares and hashes by identity, as its coefficient arrays cannot
        assert dom == dom and dom != DirichletDomain(0j, (g,)) and hash(dom) == hash(dom)

    def test_domain_center_inside_disk(self):
        g = cyclic_group().generators[0]
        for center in (1.0 + 0j, complex(math.nan, 0.0)):
            with pytest.raises(ValueError):
                DirichletDomain(center, (g,))


class TestDirichlet:
    def test_center_inside(self):
        grp = cyclic_group(max_word_length=3)
        dom = build_dirichlet_domain(grp)
        assert dirichlet_membership(0j, dom) == "inside"

    def test_bisector_midpoint_on_boundary(self):
        grp = cyclic_group(translation_length=2.0, max_word_length=3)
        dom = build_dirichlet_domain(grp)
        # midpoint of the geodesic from 0 to g(0) lies at hyperbolic distance 1
        mid = math.tanh(0.5)
        assert dirichlet_membership(complex(mid, 0), dom) == "boundary"

    def test_orbit_translate_outside(self):
        grp = cyclic_group(max_word_length=4)
        dom = build_dirichlet_domain(grp)
        elems = enumerate_elements(grp)
        z = 0.1 + 0.05j  # interior point
        assert dirichlet_membership(z, dom) == "inside"
        for g in elems:
            w = mobius_apply(g, z)
            assert membership_oracle(w, elems) == "outside"
            assert dirichlet_membership(w, dom) == "outside"

    def test_far_images_near_the_rim(self):
        # g^11(0) and g^12(0) lie more than 37 from these points, where t rounds to 1
        dom = build_dirichlet_domain(cyclic_group(2.0, 12))
        assert dirichlet_membership(-(1 - 1e-7), dom) == "outside"
        assert dirichlet_membership(complex(0.0, 1 - 1e-7), dom) == "inside"

    @pytest.mark.parametrize("grp", ARRAY_GROUPS)
    def test_kept_constraints_are_elements(self, grp):
        elems = enumerate_elements(grp)
        dom = build_dirichlet_domain(grp, elements=elems)
        # a subset of the elements, in their order
        index = [int(np.flatnonzero((elems.a == g.a) & (elems.c == g.c))[0]) for g in dom.constraints]
        assert 0 < len(index) < len(elems) and index == sorted(set(index))
        scalar = np.array([mobius_apply(g, 0j) for g in dom.constraints])
        # numpy divides complex numbers through the reciprocal, so the last bit may differ
        np.testing.assert_allclose(dom.images, scalar, rtol=1e-15, atol=0.0)
        assert not dom.images.flags.writeable

    @pytest.mark.parametrize("grp, center", PRUNE_CASES)
    def test_pruned_labels_near_vertices_and_sides(self, grp, center):
        # every kept bisector meets the polygon, so the points that decide the
        # prune are the vertices and the sides, at offsets across the tolerance
        elems = enumerate_elements(grp)
        dom = build_dirichlet_domain(grp, center, elems)
        images = mobius_apply(elems, dom.center)
        anchors = [geodesic_midpoint(dom.center, w) for w in dom.images]
        for v, v_next in zip(dom.vertices, np.roll(dom.vertices, -1)):
            anchors += [v, geodesic_midpoint(v, v_next)]
        offsets = [0.0] + [d * cmath.exp(1j * math.pi * k / 4) for d in (1e-10, 1e-9, 2e-9) for k in range(8)]
        points = [p + d for p in anchors for d in offsets]
        found = [dirichlet_membership(z, dom) for z in points]
        assert found == [full_set_label(z, dom.center, images) for z in points]
        assert {"inside", "boundary", "outside"} <= set(found)

    def test_genus2_octagon(self):
        dom = build_dirichlet_domain(genus2_group(4))
        # 8 sides, and the 5 further bisectors through each of the 8 vertices
        assert len(dom.constraints) == 48
        v = dom.vertices
        assert len(v) == 8
        assert np.min(np.abs(v[:, None] - v[None, :]) + np.eye(8)) > 0.1
        np.testing.assert_allclose(hyp_distance(0j, v), math.acosh(3.0 + 2.0 * math.sqrt(2.0)),
                                   rtol=0.0, atol=1e-9)
        assert not v.flags.writeable

    def test_cyclic_keeps_its_generator_pair(self):
        grp = cyclic_group(2.0, 12)
        dom = build_dirichlet_domain(grp)
        pair = (grp.generators[0], mobius_invert(grp.generators[0]))
        assert {(h.a, h.c) for h in dom.constraints} == {(g.a, g.c) for g in pair}
        assert len(dom.vertices) == 0  # the strip meets the rim, not the disk

    @pytest.mark.parametrize("name, center", [("genus2", 0j), ("cyclic", 0j), ("genus2", 0.1 + 0.05j)],
                             ids=["genus2", "cyclic", "genus2-off-center"])
    def test_boundary_is_where_each_ray_leaves(self, name, center):
        dom = build_dirichlet_domain(load_group(CONFIG_DIR / "groups" / f"{name}.json"), center)
        angles = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
        boundary = fuchsian.dirichlet_boundary(dom, angles)
        # rays from the center are rays from 0 once the center is moved there
        to_zero = mobius_to_zero(dom.center)
        from_zero = mobius_invert(to_zero)
        rims = 0
        for theta, b, end in zip(angles, boundary, mobius_apply(to_zero, boundary)):
            ray, r = cmath.exp(1j * theta), abs(end)
            assert abs(end - r * ray) < 1e-12
            if r > 1.0 - 1e-9:  # the ray never leaves the polygon
                rims += 1
                assert dirichlet_membership(mobius_apply(from_zero, (1.0 - 1e-6) * ray), dom) != "outside"
                continue
            assert dirichlet_membership(b, dom) == "boundary"
            assert dirichlet_membership(mobius_apply(from_zero, (r - 1e-7) * ray), dom) != "outside"
            assert dirichlet_membership(mobius_apply(from_zero, (r + 1e-7) * ray), dom) == "outside"
        assert (rims > 0) == (name == "cyclic")  # the strip meets the rim, the octagon does not

    @pytest.mark.parametrize("grp", ARRAY_GROUPS)
    def test_membership_matches_scalar_oracle(self, grp):
        elems = enumerate_elements(grp)
        dom = build_dirichlet_domain(grp, elements=elems)
        rng = np.random.default_rng(17)
        r = np.tanh(0.5 * rng.uniform(0.0, 3.0, 150))
        points = list(r * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 150)))
        # midpoints of the geodesics from 0 to the first images lie on the bisectors
        for g in elems[:50]:
            w = mobius_apply(g, 0j)
            points.append(math.tanh(0.5 * math.atanh(abs(w))) * w / abs(w))
        found = [dirichlet_membership(z, dom) for z in points]
        assert found == [membership_oracle(z, elems) for z in points]
        assert {"inside", "boundary", "outside"} <= set(found)

    @pytest.mark.parametrize("grp", [genus2_group(2), genus2_group(4), cyclic_group()],
                             ids=["genus2-2", "genus2-4", "cyclic"])
    def test_membership_matches_two_call_definition(self, grp):
        # one distance row and one min over the images label as the per-image tests do
        dom = build_dirichlet_domain(grp)
        rng = np.random.default_rng(11)
        points = list(np.tanh(0.5 * rng.uniform(0.0, 4.0, 1000)) * np.exp(2j * np.pi * rng.uniform(size=1000)))
        points += list(dom.vertices)
        sides = [geodesic_midpoint(v, w) for v, w in zip(dom.vertices, np.roll(dom.vertices, -1))]
        sides += list(fuchsian.dirichlet_boundary(dom, np.linspace(0.0, 2.0 * math.pi, 256, endpoint=False)))
        # and offsets across the tolerance, so that labels straddle it
        offsets = [0.0] + [d * cmath.exp(1j * math.pi * k / 4) for d in (3e-10, 1e-9, 2e-9) for k in range(8)]
        points += [p + d for p in sides for d in offsets]
        points = [z for z in points if abs(z) < 1.0 - 1e-9]  # a ray that never leaves ends on the rim
        found = [dirichlet_membership(z, dom) for z in points]
        assert found == [full_set_label(z, dom.center, dom.images) for z in points]
        assert {"inside", "boundary", "outside"} <= set(found)

    def test_constraint_fixing_center_rejected(self):
        rot_like = MobiusAutomorphism(math.cosh(1.0), math.sinh(1.0))
        dom_center = 0j
        fixes = mobius_compose(rot_like, mobius_invert(rot_like))
        with pytest.raises(ValueError):
            DirichletDomain(dom_center, (fixes,))


class TestProjection:
    def test_already_inside(self):
        grp = cyclic_group(max_word_length=3)
        dom = build_dirichlet_domain(grp)
        rep, word = project_to_fundamental(0.1j, grp, dom)
        assert rep == 0.1j
        assert word.coefficient_distance(IDENTITY) < 1e-12

    def test_single_translate(self):
        grp = cyclic_group(max_word_length=3)
        dom = build_dirichlet_domain(grp)
        g = grp.generators[0]
        w = 0.2 + 0.1j
        z = mobius_apply(mobius_invert(g), w)
        rep, word = project_to_fundamental(z, grp, dom)
        assert abs(rep - w) < 1e-12
        assert word.coefficient_distance(g) < 1e-9

    def test_deep_translate(self):
        grp = cyclic_group(translation_length=2.0, max_word_length=6)
        dom = build_dirichlet_domain(grp)
        elems = enumerate_elements(grp)
        g = grp.generators[0]
        g5 = IDENTITY
        for _ in range(5):
            g5 = mobius_compose(g5, g)
        w = 0.15 + 0.2j
        z = mobius_apply(mobius_invert(g5), w)
        rep, word = project_to_fundamental(z, grp, dom, elems)
        assert dirichlet_membership(rep, dom) != "outside"
        assert abs(rep - w) < 1e-9
        # oracle: exhaustive search over the enumerated set finds the same orbit point
        best = min(elems, key=lambda h: hyp_distance(mobius_apply(h, z), 0j))
        assert abs(mobius_apply(best, z) - rep) < 1e-9

    def test_not_reduced_when_bound_too_small(self):
        # a translate deeper than the step budget of the enumerated set errors
        grp_big = cyclic_group(translation_length=2.0, max_word_length=12)
        g = grp_big.generators[0]
        z = 0.05j
        for _ in range(9):
            z = mobius_apply(g, z)
        grp_small = cyclic_group(translation_length=2.0, max_word_length=2)
        dom = build_dirichlet_domain(grp_small)
        with pytest.raises(NotReducedError):
            project_to_fundamental(z, grp_small, dom)
        # a larger bound reduces the same point fine
        grp_ok = cyclic_group(translation_length=2.0, max_word_length=9)
        dom_ok = build_dirichlet_domain(grp_ok)
        rep, _ = project_to_fundamental(z, grp_ok, dom_ok)
        assert dirichlet_membership(rep, dom_ok) != "outside"

    def test_projection_has_zero_quotient_distance(self):
        # word(z) = rep, so z and rep are one point of the quotient
        grp = genus2_group(max_word_length=2)
        elems = enumerate_elements(grp)
        dom = build_dirichlet_domain(grp, elements=elems)
        rng = np.random.default_rng(2)
        for _ in range(10):
            z = 0.85 * math.sqrt(rng.uniform()) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            rep, word = project_to_fundamental(z, grp, dom, elems)
            assert hyp_distance(rep, mobius_apply(word, z)) < 1e-10


    def test_orbit_points_share_representative(self):
        # z and h(z) are one point of the quotient, so they reduce to one representative
        grp = genus2_group(max_word_length=2)
        elems = enumerate_elements(grp)
        dom = build_dirichlet_domain(grp, elements=elems)
        rng = np.random.default_rng(6)
        for _ in range(5):
            w = 0.3 * math.sqrt(rng.uniform()) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            for h in grp.generators:
                rep, _ = project_to_fundamental(mobius_apply(h, w), grp, dom, elems)
                assert abs(rep - w) < 1e-9

    def test_representative_is_fixed(self):
        grp = genus2_group(max_word_length=2)
        elems = enumerate_elements(grp)
        dom = build_dirichlet_domain(grp, elements=elems)
        rep, _ = project_to_fundamental(0.8 - 0.3j, grp, dom, elems)
        again, word = project_to_fundamental(rep, grp, dom, elems)
        assert again == rep
        assert word.coefficient_distance(IDENTITY) < 1e-12


class TestInjectivityRadius:
    def test_trivial_group_unbounded(self):
        assert injectivity_radius(0j, FuchsianGroup(())) == math.inf

    def test_on_axis_half_translation_length(self):
        # oracle: minimum displacement over the brute-force orbit
        ell = 2.0
        grp = cyclic_group(translation_length=ell, max_word_length=5)
        elems = enumerate_elements(grp)
        oracle = 0.5 * min(hyp_distance(0j, mobius_apply(g, 0j)) for g in elems)
        assert injectivity_radius(0j, grp) == pytest.approx(oracle, abs=1e-14)
        assert injectivity_radius(0j, grp) == pytest.approx(ell / 2, abs=1e-12)

    def test_off_axis_at_least_half(self):
        grp = cyclic_group(translation_length=2.0, max_word_length=5)
        for y in (0.1, 0.3, 0.5):
            assert injectivity_radius(complex(0, y), grp) >= 1.0 - 1e-12


    def test_half_minimal_displacement_off_axis(self):
        # oracle: the brute-force minimum over the enumerated orbit, per point
        grp = genus2_group(max_word_length=2)
        elems = enumerate_elements(grp)
        rng = np.random.default_rng(7)
        for _ in range(5):
            z = 0.6 * math.sqrt(rng.uniform()) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            oracle = 0.5 * min(hyp_distance(z, mobius_apply(g, z)) for g in elems)
            assert injectivity_radius(z, grp, elems) == pytest.approx(oracle, rel=1e-12)


class TestGroupIO:
    def test_round_trip(self, tmp_path):
        grp = genus2_group(max_word_length=2)
        path = tmp_path / "group.json"
        path.write_text(json.dumps({
            "generators": [{"a_re": g.a.real, "a_im": g.a.imag, "c_re": g.c.real, "c_im": g.c.imag}
                           for g in grp.generators],
            "max_word_length": grp.max_word_length,
            "element_cap": grp.element_cap,
        }))
        loaded = load_group(path)
        assert loaded.max_word_length == 2
        assert len(loaded.generators) == 4
        for g, h in zip(grp.generators, loaded.generators):
            assert g.coefficient_distance(h) < 1e-15

    @pytest.mark.parametrize("change, field", [
        (lambda grp: grp["generators"][0].pop("a_im"), "a_im"),
        (lambda grp: grp["generators"][0].update(a_re="1.5430806348152437"), "a_re"),
        (lambda grp: grp["generators"][0].update(c_re=True), "c_re"),
        (lambda grp: grp.update(max_word_length=2.7), "max_word_length"),
        (lambda grp: grp.update(max_word_length=True), "max_word_length"),
        (lambda grp: grp.update(element_cap="1000000"), "element_cap"),
        (lambda grp: grp.update(element_cap=0), "element_cap"),
    ], ids=["a-im-missing", "a-re-string", "c-re-boolean", "word-length-fraction", "word-length-boolean",
            "cap-string", "cap-zero"])
    def test_malformed_file_names_the_field(self, tmp_path, change, field):
        group = json.loads((CONFIG_DIR / "groups" / "cyclic.json").read_text())
        change(group)
        path = tmp_path / "group.json"
        path.write_text(json.dumps(group))
        with pytest.raises(ValueError, match=field):
            load_group(path)

    @pytest.mark.parametrize("change, key", [
        (lambda grp: grp.update(max_word_lenght=8), "max_word_lenght"),
        (lambda grp: grp["generators"][0].update(b_re=0.0), "b_re"),
    ], ids=["word-length-misspelled", "generator-unknown-key"])
    def test_unknown_key_is_refused(self, tmp_path, change, key):
        # read on its defaults, a misspelled max_word_length would enumerate words of length 4
        group = json.loads((CONFIG_DIR / "groups" / "cyclic.json").read_text())
        change(group)
        path = tmp_path / "group.json"
        path.write_text(json.dumps(group))
        with pytest.raises(ValueError, match=f"unknown key '{key}'; known keys: "):
            load_group(path)

    @pytest.mark.parametrize("text", [None, "{nope", "\udcff"], ids=["missing", "not-json", "not-utf8"])
    def test_unreadable_file_names_the_path(self, tmp_path, text):
        path = tmp_path / "group.json"
        if text is not None:
            path.write_bytes(text.encode("utf-8", "surrogateescape"))
        with pytest.raises(ValueError, match="group file .*group.json"):
            load_group(path)

    @pytest.mark.parametrize("cap", [0, -3])
    def test_element_cap_must_be_positive(self, cap):
        with pytest.raises(ValueError, match="element_cap"):
            FuchsianGroup(genus2_group().generators, element_cap=cap)
