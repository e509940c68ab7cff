"""OBJ export: counts, numeric residuals, determinism, refusals, the file
bytes against the line-by-line writer, and the integer tabulation and the
row certification in column form against the per-vertex path."""

import math
import random
from fractions import Fraction
from itertools import product

import pytest

from revolutio import QQ, InvalidInput, MultiPoly, NoRealEmbedding, SurfaceParam, sphere_witness
from revolutio import mesh
from revolutio.mesh import export_obj, sample_grid
from revolutio.numeric import RealEmbedding, default_real_embedding, numeric_eval
from revolutio.tower import FieldElement

from oracles import FractionEmbedding, NotConverged, certify_in_order, fraction_range, obj_text, power_range

u = MultiPoly.variable("u", ("u", "v"))
v = MultiPoly.variable("v", ("u", "v"))


def paraboloid():
    return SurfaceParam.make([u, v, u ** 2 + v ** 2])


def test_vertex_and_face_counts(tmp_path):
    out = tmp_path / "p.obj"
    stats = export_obj(paraboloid(), 8, (-1, 1), (-1, 1), str(out))
    assert stats == {"vertices": 64, "faces": 49}
    text = out.read_text().splitlines()
    assert sum(1 for line in text if line.startswith("v ")) == 64
    assert sum(1 for line in text if line.startswith("f ")) == 49


def test_two_sheet_vertices_satisfy_surface(tmp_path):
    # rational-tower witness: vertices are exact up to float rounding, so the
    # 10x-tolerance contract holds with room to spare
    from revolutio.realparam import two_sheet_components

    s = SurfaceParam.make(list(two_sheet_components()))
    tol = Fraction(1, 10 ** 9)
    verts = sample_grid(s, 6, (0, 1), (0, 1), tol)
    for x, y, z in verts:
        assert abs(x * x + y * y - z * z + 1) <= 10 * 1e-9


def test_cubic_witness_vertices(tmp_path):
    from revolutio import cubic_example

    verts = sample_grid(cubic_example(), 5, (-1, 1), (-1, 1), Fraction(1, 10 ** 9))
    for x, y, z in verts:
        assert abs(x * x + y * y - z ** 3 - 1) <= 1e-6


def test_complex_witness_refused(tmp_path):
    with pytest.raises(NoRealEmbedding):
        export_obj(sphere_witness(), 4, (-1, 1), (-1, 1), str(tmp_path / "s.obj"))


def test_deterministic_output(tmp_path):
    a, b = tmp_path / "a.obj", tmp_path / "b.obj"
    export_obj(paraboloid(), 5, (-2, 3), (Fraction(1, 3), 2), str(a))
    export_obj(paraboloid(), 5, (-2, 3), (Fraction(1, 3), 2), str(b))
    assert a.read_bytes() == b.read_bytes()


def test_bad_grid(tmp_path):
    with pytest.raises(InvalidInput):
        export_obj(paraboloid(), 1, (-1, 1), (-1, 1), str(tmp_path / "x.obj"))
    with pytest.raises(InvalidInput):
        export_obj(paraboloid(), 4, (1, -1), (-1, 1), str(tmp_path / "x.obj"))


# -- integer tabulation against the per-vertex path ---------------------------

SQRT2 = QQ.extend("th", [-2, 0, 1], embedding=(Fraction(1), Fraction(2)))
SQRT_THIRD = QQ.extend("r", [Fraction(-1, 3), 0, 1])  # no hint: the greatest root
# a = -sqrt(2), then b^3 = 2: the monomials a*b^j have negative ranges
TWO_STEP = QQ.extend("a", [-2, 0, 1], embedding=(Fraction(-2), Fraction(-1))).extend(
    "b", [-2, 0, 0, 1], embedding=(Fraction(1), Fraction(2))
)
TOWERS = {"QQ": QQ, "sqrt2": SQRT2, "sqrt_third": SQRT_THIRD, "two_step": TWO_STEP}
RANGES = [
    ((Fraction(-1, 3), Fraction(5, 7)), (Fraction(2, 9), 3)),
    ((0, 1), (0, 1)),  # equal ranges: grid points on the diagonal u == v
]
TOL = Fraction(1, 10 ** 9)


def column_form(values, scale=1):
    """Tower elements as one component of a row in column form, ``(keys,
    den, columns)``: the union of their power-basis keys (the unit key when
    all are zero) and one integer column per key, one entry per element,
    over their common denominator times ``scale``."""
    tower = values[0].tower
    keys = tuple(sorted({key for value in values for key in value.terms})) or ((0,) * tower.height,)
    den = math.lcm(*(q.denominator for value in values for q in value.terms.values())) * scale
    zero = Fraction(0)
    columns = [[value.terms.get(key, zero) * den for value in values] for key in keys]
    return keys, den, [[int(q) for q in col] for col in columns]


def certify_one(value, emb, tol, scale=1):
    """``numeric_eval`` of one tower element as a one-vertex row."""
    [[got]] = numeric_eval([column_form([value], scale)], emb, tol)
    return got


def one_vertex_calls(row, emb, tol):
    """``numeric_eval`` of each value of ``row`` as a one-vertex row against
    ``emb``, in the row's order: vertex by vertex, then component by component."""
    return [numeric_eval([(keys, den, [[col[j]] for col in cols])], emb, tol)
            for j in range(len(row[0][2][0])) for keys, den, cols in row]


def in_vertex_order(floats):
    """``numeric_eval``'s float lists, one per component, read vertex by
    vertex, then component by component."""
    return [x for vertex in zip(*floats) for x in vertex]


def reference_grid(s, n, u_range, v_range, tol, emb=None):
    """The per-vertex path: exact ``eval_at`` at every grid point, then
    ``numeric_eval`` of each value as a one-vertex row with one embedding
    (``emb``, else a fresh one), row-major in u then v."""
    (u0, u1), (v0, v1) = [tuple(map(Fraction, r)) for r in (u_range, v_range)]
    if emb is None:
        emb = default_real_embedding(s.tower)
    verts = []
    for iu in range(n):
        uq = u0 + (u1 - u0) * iu / (n - 1)
        for iv in range(n):
            vq = v0 + (v1 - v0) * iv / (n - 1)
            point = {"u": uq, "v": vq}
            verts.append(tuple(certify_one(c.eval_at(point), emb, tol) for c in s.components))
    return verts


def random_element(rng, tower):
    terms = {
        m: Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        for m in product(*(range(step.degree) for step in tower.steps))
        if rng.random() < 0.7
    }
    return FieldElement(tower, terms)


def random_component(rng, tower):
    du, dv = rng.randint(0, 3), rng.randint(0, 3)
    terms = {(a, b): random_element(rng, tower) for a, b in product(range(du + 1), range(dv + 1))
             if rng.random() < 0.6}
    return MultiPoly(("u", "v"), terms, tower)


def special_components(tower):
    """A constant, a component in u only, one in v only, and one whose
    irrational part vanishes on the diagonal u == v."""
    g = tower.gen(0) if tower.height else tower.rational(Fraction(7, 5))
    return [
        MultiPoly.constant(Fraction(-5, 2) * g, ("u", "v"), tower),
        u * u * g - Fraction(1, 3) * u,
        Fraction(-3, 4) * g * v ** 3 + v,
        (u - v) * g + v * v - 1,
    ]


@pytest.mark.parametrize("tower_name", sorted(TOWERS))
@pytest.mark.parametrize("n", range(2, 8))
def test_sample_grid_matches_per_vertex_evaluation(tower_name, n):
    tower = TOWERS[tower_name]
    rng = random.Random(20261018 + 10 * sorted(TOWERS).index(tower_name) + n)
    comps = [random_component(rng, tower) for _ in range(2)] + special_components(tower)
    for u_range, v_range in RANGES:
        for trio in (comps[:3], comps[3:]):
            s = SurfaceParam.make(trio)
            assert sample_grid(s, n, u_range, v_range, TOL) == reference_grid(s, n, u_range, v_range, TOL)


@pytest.mark.parametrize("tower_name", ["sqrt2", "sqrt_third", "two_step"])
@pytest.mark.parametrize("tol", [TOL, Fraction(1, 10 ** 15)])
def test_sample_grid_refines_as_the_per_vertex_path(monkeypatch, tower_name, tol):
    # one batch per grid row must refine exactly as one call per vertex does
    tower = TOWERS[tower_name]
    rng = random.Random(20261020 + sorted(TOWERS).index(tower_name))
    used = []

    def recording(t):
        used.append(default_real_embedding(t))
        return used[-1]

    monkeypatch.setattr(mesh, "default_real_embedding", recording)
    s = SurfaceParam.make([random_component(rng, tower) for _ in range(2)] + special_components(tower)[3:])
    ref = default_real_embedding(tower)
    assert sample_grid(s, 7, *RANGES[0], tol) == reference_grid(s, 7, *RANGES[0], tol, ref)
    [emb] = used
    assert emb.intervals == ref.intervals != default_real_embedding(tower).intervals


@pytest.mark.parametrize("tower_name", sorted(TOWERS))
@pytest.mark.parametrize("n", range(2, 9))
def test_obj_bytes_match_the_line_by_line_writer(tmp_path, tower_name, n):
    tower = TOWERS[tower_name]
    rng = random.Random(20261027 + 10 * sorted(TOWERS).index(tower_name) + n)
    comps = [random_component(rng, tower) for _ in range(3)]
    # vertices printed in exponent form: below 1e-4 and from 1e12 on
    tiny, huge = Fraction(1, 100000) * u, 10 ** 13 * u + v ** 5
    out = tmp_path / "m.obj"
    for trio in (comps, [tiny, comps[0], huge]):
        s = SurfaceParam.make(trio)
        for u_range, v_range in RANGES:
            export_obj(s, n, u_range, v_range, str(out), TOL)
            assert out.read_bytes() == obj_text(sample_grid(s, n, u_range, v_range, TOL), n).encode()


@pytest.mark.parametrize("block", [1, 2, 3, 64])
@pytest.mark.parametrize("n", [2, 3, 4, 7])
def test_obj_bytes_do_not_depend_on_the_block(tmp_path, monkeypatch, block, n):
    monkeypatch.setattr(mesh, "BLOCK_ROWS", block)
    rng = random.Random(20261028 + n)
    s = SurfaceParam.make([random_component(rng, TOWERS["sqrt2"]) for _ in range(3)])
    out = tmp_path / "m.obj"
    export_obj(s, n, *RANGES[0], str(out), TOL)
    assert out.read_bytes() == obj_text(sample_grid(s, n, *RANGES[0], TOL), n).encode()


def test_a_grid_beyond_one_block_is_written_a_block_at_a_time(tmp_path, monkeypatch):
    # 130 rows: vertex blocks of 64, 64 and 2 rows, quad blocks of 64, 64
    # and 1 row, after the two header lines
    n, writes = 130, []
    real_open = open

    class Recorder:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return self.fh.__exit__(*exc)

        def write(self, text):
            writes.append(text.count("\n"))
            return self.fh.write(text)

    monkeypatch.setattr("builtins.open", lambda *a, **k: Recorder(real_open(*a, **k)))
    out = tmp_path / "p.obj"
    export_obj(paraboloid(), n, (-1, 1), (-1, 1), str(out))
    monkeypatch.undo()
    assert writes == [2, 64 * n, 64 * n, 2 * n, 64 * (n - 1), 64 * (n - 1), n - 1]
    assert out.read_bytes() == obj_text(sample_grid(paraboloid(), n, (-1, 1), (-1, 1)), n).encode()


def test_components_in_fewer_variables():
    # components keyed by (u,), (v,) and () directly, not reindexed onto (u, v)
    th = SQRT2.gen("th")
    cu = MultiPoly.variable("u") * th + Fraction(2, 3)
    cv = MultiPoly.variable("v") ** 2 * (-th)
    const = MultiPoly.constant(th * 5)
    s = SurfaceParam((cu, cv, const), SQRT2)
    ranges = ((Fraction(-1, 3), Fraction(5, 7)), (-1, 2))
    assert sample_grid(s, 4, *ranges, TOL) == reference_grid(s, 4, *ranges, TOL)


def test_component_in_another_variable_refused():
    w = MultiPoly.variable("w", ("u", "w"))
    s = SurfaceParam((w, u, v), QQ)
    with pytest.raises(InvalidInput, match="'w'"):
        sample_grid(s, 3, (0, 1), (0, 1))


def term_by_term(value, emb, tol):
    """Enclosure of a tower element by interval products term by term, the
    generator intervals bisected until narrower than tol: (mid, radius)."""
    names = [step.name for step in value.tower.steps]
    for _ in range(400):
        lo = hi = Fraction(0)
        for key, q in value.terms.items():
            tlo = thi = q
            for name, e in zip(names, key):
                plo, phi = power_range(emb.intervals[name], e)
                products = (tlo * plo, tlo * phi, thi * plo, thi * phi)
                tlo, thi = min(products), max(products)
            lo, hi = lo + tlo, hi + thi
        if hi - lo < tol:
            return (lo + hi) / 2, (hi - lo) / 2
        emb.refine_all()
    raise AssertionError("the term-by-term enclosure did not converge")


@pytest.mark.parametrize(
    "intervals",
    [
        None,  # the recorded ones: a < 0, b > 0
        {"a": (Fraction(-3, 2), Fraction(1, 3)), "b": (Fraction(-1, 2), Fraction(5, 3))},  # both straddle 0
        {"a": (Fraction(-7, 3), Fraction(-5, 4)), "b": (Fraction(-2), Fraction(-1, 3))},  # both negative
        {"a": (Fraction(0), Fraction(3, 7)), "b": (Fraction(-5, 6), Fraction(0))},  # an end at 0
        {"a": (Fraction(-9, 8), Fraction(-9, 8)), "b": (Fraction(4, 3), Fraction(4, 3))},  # degenerate
    ],
    ids=["recorded", "straddle", "negative", "zero_end", "degenerate"],
)
def test_monomial_range_is_the_fraction_interval_product(intervals):
    names = [step.name for step in TWO_STEP.steps]
    emb = default_real_embedding(TWO_STEP)
    if intervals is not None:
        emb = RealEmbedding(TWO_STEP, intervals, {})
    keys = tuple(product(*(range(step.degree) for step in TWO_STEP.steps)))
    for key in keys:
        lo, hi = fraction_range(emb.intervals, names, key)
        got = emb.monomial_range(key)
        assert all(type(x) is int for x in got)
        assert got == (lo * emb.den, hi * emb.den)
    mids, widths = emb.ranges(keys)
    assert [(m - w, m + w) for m, w in zip(mids, widths)] == [
        (2 * lo, 2 * hi) for lo, hi in map(emb.monomial_range, keys)
    ]


@pytest.mark.parametrize("tower_name", ["sqrt2", "sqrt_third", "two_step"])
def test_numeric_eval_matches_term_by_term_intervals(tower_name):
    tower = TOWERS[tower_name]
    rng = random.Random(20261019 + sorted(TOWERS).index(tower_name))
    emb, ref = default_real_embedding(tower), default_real_embedding(tower)
    # negative coefficients on every monomial, then random signs
    values = [FieldElement(tower, {m: Fraction(-3, 2) for m in product(*(range(s.degree) for s in tower.steps))})]
    values += [random_element(rng, tower) for _ in range(20)]
    for value in values:
        scale = rng.randint(1, 5)
        for tol in (Fraction(1, 10 ** 3), Fraction(1, 10 ** 12)):
            got = certify_one(value, emb, tol, scale)
            mid, radius = term_by_term(value, ref, tol)
            assert got == float(mid)
            assert 2 * radius < tol
            assert emb.intervals == ref.intervals


@pytest.mark.parametrize("tower_name", ["sqrt2", "sqrt_third", "two_step"])
def test_batch_equals_consecutive_single_calls(tower_name):
    # a row of three components of 14 vertices each, certified in one call,
    # against one-vertex rows in vertex order, then component order
    tower = TOWERS[tower_name]
    rng = random.Random(20261021 + sorted(TOWERS).index(tower_name))
    values = [random_element(rng, tower) for _ in range(40)]
    values += [FieldElement(tower, {}), tower.rational(Fraction(-5, 3))]  # zero and rational
    rng.shuffle(values)
    row = [column_form(values[c::3], rng.randint(1, 5)) for c in range(3)]
    tol = Fraction(1, 10 ** 12)
    batch_emb, single_emb = default_real_embedding(tower), default_real_embedding(tower)
    batch = numeric_eval(row, batch_emb, tol)
    singles = one_vertex_calls(row, single_emb, tol)
    assert all(len(one) == 1 and len(one[0]) == 1 for one in singles)
    assert in_vertex_order(batch) == [single for [[single]] in singles]
    assert batch_emb.intervals == single_emb.intervals
    assert batch_emb.intervals != default_real_embedding(tower).intervals


def test_row_over_its_bound_with_every_value_under_tol_refines_nothing():
    # two vertices, each wide in a different monomial: the whole-row bound
    # adds both widths and reaches tol, each value alone stays under it
    keys = ((1, 0), (0, 1))
    batch_emb, single_emb = default_real_embedding(TWO_STEP), default_real_embedding(TWO_STEP)
    for emb in (batch_emb, single_emb):
        for _ in range(30):
            emb.refine_all()
    before = dict(batch_emb.intervals)
    _, (w0, w1) = batch_emb.ranges(keys)
    assert w0 and w1
    k = 7
    tol = Fraction(k * (w0 + w1), batch_emb.den)
    row = [(keys, 1, [[k, 0], [0, k]]), (((0, 0), (1, 1)), 3, [[1, -2], [1, 1]])]
    got = numeric_eval(row, batch_emb, tol)
    assert in_vertex_order(got) == [x for [[x]] in one_vertex_calls(row, single_emb, tol)]
    assert batch_emb.intervals == single_emb.intervals == before


def test_only_the_last_value_refines_where_single_calls_do(monkeypatch):
    # every value is under tol at the current ranges but the last one of the
    # last component, which is 1000 times wider
    keys = ((0,), (1,))
    batch_emb, single_emb = default_real_embedding(SQRT2), default_real_embedding(SQRT2)
    before = dict(batch_emb.intervals)
    _, (_, w) = batch_emb.ranges(keys)
    tol = Fraction(2 * w, batch_emb.den)
    row = [
        (keys, 5, [[1, 2, 3, 4], [1, -1, 1, -1]]),
        (keys, 2, [[0, 7, -7, 1], [-1, 1, 1, 1000]]),
    ]
    singles = []
    steps = {"batch": [], "single": []}  # per refinement, the single calls made before it

    def recording(emb, name):
        refine_all = emb.refine_all

        def refine():
            steps[name].append(len(singles))
            refine_all()
        monkeypatch.setattr(emb, "refine_all", refine)

    recording(batch_emb, "batch")
    recording(single_emb, "single")
    got = numeric_eval(row, batch_emb, tol)
    for j in range(4):
        for keys_, den, cols in row:
            singles += numeric_eval([(keys_, den, [[col[j]] for col in cols])], single_emb, tol)
    assert in_vertex_order(got) == [x for [x] in singles]
    assert batch_emb.intervals == single_emb.intervals != before
    assert len(steps["batch"]) == len(steps["single"]) and set(steps["single"]) == {7}


@pytest.mark.parametrize("tower_name", ["sqrt2", "sqrt_third", "two_step"])
def test_numeric_eval_within_tol_of_sympy(tower_name):
    import sympy

    tower = TOWERS[tower_name]
    # the real value of each generator under the embedding its tower gets
    gens = {
        "sqrt2": [sympy.sqrt(2)],
        "sqrt_third": [sympy.sqrt(sympy.Rational(1, 3))],  # the greatest root
        "two_step": [-sympy.sqrt(2), sympy.cbrt(2)],
    }[tower_name]
    rng = random.Random(20261022 + sorted(TOWERS).index(tower_name))
    values = [random_element(rng, tower) for _ in range(30)]
    exact = [
        sum(sympy.Rational(q.numerator, q.denominator) * sympy.Mul(*(g ** e for g, e in zip(gens, key)))
            for key, q in value.terms.items())
        for value in values
    ]
    emb = default_real_embedding(tower)
    for tol in (Fraction(1, 10 ** 3), Fraction(1, 10 ** 9), Fraction(1, 10 ** 13)):
        got = numeric_eval([column_form([value], rng.randint(1, 5)) for value in values], emb, tol)
        for [x], truth in zip(got, exact):
            error = abs(sympy.N(truth - sympy.Rational(*x.as_integer_ratio()), 50))
            assert error <= sympy.Rational(tol.numerator, tol.denominator), (x, truth, tol)
    assert emb.intervals != default_real_embedding(tower).intervals


def test_rational_value_is_not_refined():
    emb = default_real_embedding(SQRT2)
    before = dict(emb.intervals)
    th = SQRT2.gen("th")
    assert certify_one(th - th + Fraction(1, 3), emb, Fraction(1, 10 ** 30)) == 1 / 3
    # with a zero irrational coefficient, over 6
    assert numeric_eval([(((0,), (1,)), 6, [[2], [0]])], emb, Fraction(1, 10 ** 30)) == [[1 / 3]]
    # a row without components has no values
    assert numeric_eval([], emb, Fraction(1, 10 ** 30)) == []
    assert emb.intervals == before


@pytest.mark.parametrize(
    "row, message",
    [
        ([(((1,),), 1, [[1, 2]]), ((), 1, [])], "at least one key"),
        ([(((0,), (1,)), 1, [[1, 2]])], "one column per key"),
        ([(((1,),), 1, [[1, 2]]), (((0,),), 1, [[5]])], "one entry per vertex"),
        ([(((0,), (1,)), 1, [[1, 2], [3]])], "one entry per vertex"),
    ],
    ids=["no_keys", "missing_column", "short_component", "short_column"],
)
def test_numeric_eval_refuses_a_row_of_another_shape(row, message):
    emb = default_real_embedding(SQRT2)
    before = dict(emb.intervals)
    with pytest.raises(InvalidInput, match=message):
        numeric_eval(row, emb, Fraction(1, 10 ** 30))
    assert emb.intervals == before


@pytest.mark.parametrize(
    "value",
    [
        (((0,),), 3, [[10 ** 400]]),
        column_form([FieldElement(SQRT2, {(0,): Fraction(-(10 ** 400), 7), (1,): Fraction(1, 2)})]),
        column_form([FieldElement(SQRT2, {(0,): Fraction(10 ** 400)})]),
    ],
    ids=["fraction", "irrational", "rational_field_element"],
)
def test_value_outside_float_range_is_invalid_input(value):
    with pytest.raises(InvalidInput, match="outside the float range"):
        numeric_eval([value], default_real_embedding(SQRT2), TOL)


def test_integer_form_needs_an_embedding():
    with pytest.raises(InvalidInput, match="an embedding"):
        numeric_eval([(((1,),), 2, [[1]])], None, TOL)


# -- the row passes against the value-by-value Fraction oracle ------------------

# a recorded embedding with ends that are not dyadic
NON_DYADIC = QQ.extend("r", [Fraction(-1, 3), 0, 1], embedding=(Fraction(1, 3), Fraction(7, 5)))
# x^3 - 2x: the low end 0 is another root, sqrt(2) is the one in (0, 2]
ROOT_AT_END = QQ.extend("g", [0, -2, 0, 1], embedding=(Fraction(0), Fraction(2)))
# (x - 3/2)(x^2 + 1): the first midpoint is the root, then an exact root (r, r)
ROOT_AT_MID = QQ.extend("h", [Fraction(-3, 2), 1, Fraction(-3, 2), 1], embedding=(Fraction(1), Fraction(2)))
EXACT_ROOT = QQ.extend("h", [Fraction(-3, 2), 1, Fraction(-3, 2), 1], embedding=(Fraction(3, 2), Fraction(3, 2)))
ORACLE_TOWERS = {
    "sqrt2": SQRT2, "sqrt_third": SQRT_THIRD, "two_step": TWO_STEP, "non_dyadic": NON_DYADIC,
    "root_at_end": ROOT_AT_END, "root_at_mid": ROOT_AT_MID, "exact_root": EXACT_ROOT,
}


def fraction_embedding(tower):
    """The oracle's embedding from the intervals the package starts from."""
    minpolys = {step.name: [c.as_rational() for c in step.minpoly] for step in tower.steps}
    return FractionEmbedding([step.name for step in tower.steps], default_real_embedding(tower).intervals, minpolys)


def grid_values(s, n, u_range, v_range):
    """The exact values at the grid points as ``{key: Fraction}`` dicts, row
    by row, vertex by vertex, then component by component."""
    (u0, u1), (v0, v1) = [tuple(map(Fraction, r)) for r in (u_range, v_range)]
    return [c.eval_at({"u": u0 + (u1 - u0) * iu / (n - 1), "v": v0 + (v1 - v0) * iv / (n - 1)}).terms
            for iu in range(n) for iv in range(n) for c in s.components]


@pytest.mark.parametrize("tower_name", sorted(ORACLE_TOWERS))
@pytest.mark.parametrize("n, tol", [(7, TOL), (23, Fraction(1, 10 ** 12)), (40, Fraction(1, 10 ** 15))])
def test_sample_grid_matches_the_in_order_oracle(monkeypatch, tower_name, n, tol):
    tower = ORACLE_TOWERS[tower_name]
    rng = random.Random(20261101 + 10 * sorted(ORACLE_TOWERS).index(tower_name) + n)
    s = SurfaceParam.make([random_component(rng, tower) for _ in range(2)] + special_components(tower)[3:])
    ranges = ((0, 8), (Fraction(-1, 3), 3))  # |u| grows row by row
    used, rows = [], []

    def recording(t):
        used.append(default_real_embedding(t))
        return used[-1]

    def counting(row, emb, tol_):
        rows.append(len(row))
        return numeric_eval(row, emb, tol_)

    monkeypatch.setattr(mesh, "default_real_embedding", recording)
    monkeypatch.setattr(mesh, "numeric_eval", counting)
    got = sample_grid(s, n, *ranges, tol)
    ref = fraction_embedding(tower)
    want = certify_in_order(grid_values(s, n, *ranges), ref, tol)
    assert got == list(zip(*[iter(want)] * 3))
    [emb] = used
    assert emb.intervals == ref.intervals
    if tower_name == "exact_root":
        assert ref.refined_at == [] and rows == []
    if n == 40:
        # (row, column) of the vertices refined at: later rows refine past
        # their first vertex, and rows that need no refinement fail the
        # a-priori bound too (the first row always does)
        refined = {divmod(i // 3, n) for i in ref.refined_at}
        if tower_name in ("root_at_end", "sqrt2", "two_step"):
            assert any(iu and iv for iu, iv in refined)
        if tower_name in ("root_at_end", "sqrt2"):
            assert len({iu for iu, _ in refined}) < len(rows) < n


def row_of(values, stride):
    """``values`` in certification order as a row of ``stride`` components:
    value ``i`` is vertex ``i // stride`` of component ``i % stride``."""
    return [column_form(values[c::stride]) for c in range(stride)]


@pytest.mark.parametrize("tower_name", sorted(ORACLE_TOWERS))
@pytest.mark.parametrize("stride", [1, 3])
def test_numeric_eval_matches_the_in_order_oracle(tower_name, stride):
    tower = ORACLE_TOWERS[tower_name]
    rng = random.Random(20261102 + sorted(ORACLE_TOWERS).index(tower_name))
    # values that grow along the row, so that later ones are due refinements
    values = [random_element(rng, tower) * rng.randint(1, 2 ** (i // 2)) for i in range(36 * stride)]
    emb, ref = default_real_embedding(tower), fraction_embedding(tower)
    for tol in (Fraction(1, 10 ** 6), Fraction(1, 10 ** 15)):
        got = numeric_eval(row_of(values, stride), emb, tol)
        assert in_vertex_order(got) == certify_in_order([v.terms for v in values], ref, tol)
        assert emb.intervals == ref.intervals


CAP_VALUES = {
    "fine": {(1,): Fraction(1, 3)},
    "slow": {(1,): Fraction(10 ** 300)},  # in the float range, too wide after 400 refinements
    "huge": {(1,): Fraction(10 ** 400)},  # beyond the float range at both ends from the start
    # straddles 0 until the fourth refinement, then lies beyond the float range
    "late": {(0,): Fraction(-3, 2) * 10 ** 400, (1,): Fraction(10 ** 400)},
}


def outcome(call):
    """What ``call`` raises, by kind: the package's InvalidInput or the oracle's errors."""
    try:
        call()
    except (InvalidInput, NotConverged, OverflowError) as exc:
        if isinstance(exc, NotConverged) or "did not converge" in str(exc):
            return "not converged"
        assert isinstance(exc, OverflowError) or "outside the float range" in str(exc)
        return "outside the float range"
    return "certified"


@pytest.mark.parametrize(
    "names, expected",
    [
        (("fine", "slow", "huge"), "not converged"),
        (("fine", "huge", "slow"), "outside the float range"),
        (("late", "slow"), "outside the float range"),
        (("slow", "late"), "not converged"),
        (("fine", "late", "fine"), "outside the float range"),
    ],
)
@pytest.mark.parametrize("stride", [1, 2])
def test_refinement_cap_and_refusal_order_match_the_oracle(names, expected, stride):
    # the first value in order that fails decides, after as many refinements as the oracle's
    values = [FieldElement(SQRT2, CAP_VALUES[name]) for name in names]
    values += [FieldElement(SQRT2, CAP_VALUES["fine"])] * (-len(values) % stride)
    emb, ref = default_real_embedding(SQRT2), fraction_embedding(SQRT2)
    assert outcome(lambda: numeric_eval(row_of(values, stride), emb, TOL)) == expected
    assert outcome(lambda: certify_in_order([v.terms for v in values], ref, TOL)) == expected
    assert emb.intervals == ref.intervals
    if expected == "not converged":
        assert ref.refined_at.count(names.index("slow")) == 400
    if names[0] == "late":
        assert ref.refined_at == [0] * 4


def test_a_value_beyond_the_float_range_is_refused_before_its_refinement_cap():
    # 10^400 sqrt(2) has no float, and 400 halvings of (1, 2) cannot narrow
    # it to 1e-9: it is refused as outside the float range, unrefined
    emb = default_real_embedding(SQRT2)
    before = emb.intervals
    with pytest.raises(InvalidInput, match="outside the float range"):
        certify_one(FieldElement(SQRT2, CAP_VALUES["huge"]), emb, TOL)
    assert emb.intervals == before


def test_the_first_value_in_order_beyond_the_float_range_is_refused():
    # zero-width values, never refined: vertex 0 of component 1 comes before
    # vertex 1 of component 0, so 10^500 is named, not 10^400
    def message(row):
        with pytest.raises(InvalidInput, match="outside the float range") as exc:
            numeric_eval(row, default_real_embedding(SQRT2), TOL)
        return str(exc.value)

    unit = ((0,), (1,))
    both = [(unit, 1, [[1, 10 ** 400], [0, 0]]), (unit, 1, [[10 ** 500, 1], [0, 0]])]
    assert message(both) == message([(unit, 1, [[10 ** 500], [0]])]) != message([(unit, 1, [[10 ** 400], [0]])])
