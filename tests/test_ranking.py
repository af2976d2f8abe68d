import pytest
from hypothesis import given, strategies as st

from rankjoin import (
    Database,
    ProbeCapError,
    SchemaError,
    ScoreModel,
    Table,
    WeightError,
    brute_force_ranked,
    gyo_join_tree,
    materialize_bags,
    parse_query,
    parse_ranking,
    probe_decomposable,
)
from rankjoin.ranking import MONOIDS, MAX_IDENTITY

from helpers import rerooted

ints = st.integers(min_value=-(2**31), max_value=2**31 - 1)
small_pos = st.integers(min_value=1, max_value=10**6)


class TestParse:
    @pytest.mark.parametrize(
        "text,kind,op",
        [
            ("tuple_sum", "tuple", "sum"),
            ("tuple_max", "tuple", "max"),
            ("tuple_product", "tuple", "product"),
            ("vertex_sum", "vertex", "sum"),
        ],
    )
    def test_monoid_specs(self, text, kind, op):
        rf = parse_ranking(text)
        assert (rf.kind, rf.op) == (kind, op)

    def test_lex(self):
        rf = parse_ranking("lex(z,x,y)")
        assert rf.kind == "lex" and rf.lex_order == ("z", "x", "y")

    def test_bounded(self):
        rf = parse_ranking("bounded(tuple_sum; x,y)")
        assert rf.kind == "tuple" and rf.op == "sum"
        assert rf.bound_vars == {"x", "y"}
        rf = parse_ranking("bounded(vertex_max; y)")
        assert (rf.kind, rf.op, rf.bound_vars) == ("vertex", "max", {"y"})
        assert parse_ranking("vertex_max").bound_vars is None

    def test_garbage(self):
        with pytest.raises(SchemaError):
            parse_ranking("tuple_median")

    @pytest.mark.parametrize(
        "text, err",
        [
            ("lex( , )", "lex ranking needs at least one variable"),
            ("lex(x,x)", "lex order ('x', 'x') repeats a variable"),
            ("bounded(tuplesum; x)", "bad inner ranking 'tuplesum'"),
            ("bounded(lex_sum; x)", "bad inner ranking 'lex_sum'"),
            ("bounded(tuple_sum; )", "bounded ranking needs at least one variable"),
            ("tuple_median", "unknown ranking spec 'tuple_median'"),
        ],
    )
    def test_error_messages(self, text, err):
        with pytest.raises(SchemaError) as info:
            parse_ranking(text)
        assert str(info.value) == err

    def test_spec_roundtrip(self):
        for text in ("tuple_sum", "vertex_max", "lex(a,b)", "bounded(vertex_sum; a)"):
            assert parse_ranking(parse_ranking(text).spec()) == parse_ranking(text)


class TestMonoidLaws:
    """Every op is associative, commutative and monotone, with its identity
    neutral; product over the strictly positive weights it accepts. The
    `@given` tests are static methods: Hypothesis refuses (as differing
    executors) a method that pytest calls on one instance per parameter."""

    @staticmethod
    @pytest.mark.parametrize("op", ["sum", "max"])
    @given(a=ints, b=ints, c=ints)
    def test_assoc_comm_identity(op, a, b, c):
        _check_laws(MONOIDS[op], a, b, c)

    @staticmethod
    @given(a=small_pos, b=small_pos, c=small_pos)
    def test_product_laws(a, b, c):
        _check_laws(MONOIDS["product"], a, b, c)
        _check_monotone(MONOIDS["product"], a, b, c)

    @staticmethod
    @pytest.mark.parametrize("op", ["sum", "max"])
    @given(a=ints, b=ints, c=ints)
    def test_monotone(op, a, b, c):
        _check_monotone(MONOIDS[op], a, b, c)

    def test_product_overflow_checked(self):
        with pytest.raises(WeightError):
            MONOIDS["product"].combine(2**40, 2**40)

    def test_max_identity_below_everything(self):
        assert MAX_IDENTITY < -(2**63)


def _check_laws(m, a, b, c):
    f = m.combine
    assert f(f(a, b), c) == f(a, f(b, c))
    assert f(a, b) == f(b, a)
    assert f(a, m.identity) == a


def _check_monotone(m, a, b, c):
    lo, hi = sorted((a, b))
    assert m.combine(hi, c) >= m.combine(lo, c)


PATH = "Q(x,y,z) :- R(x,y), S(y,z)"


def _path_db():
    return Database.build([
        Table.from_rows("R", ("x", "y"), [("1", "2")], weights=[3]),
        Table.from_rows("S", ("y", "z"), [("2", "4")], weights=[5]),
    ], {"1": 10, "2": 20, "4": 40})


def _scores_per_rooting(spec):
    """The one output's score on the path's join tree rooted at each node,
    combined from the node scores, and the oracle's score of it."""
    uq = parse_query(PATH)
    cq, db, rf = uq.disjuncts[0], _path_db(), parse_ranking(spec)
    scores = []
    for d in rerooted(gyo_join_tree(cq)):
        model = ScoreModel(rf, db, cq, d)
        bags = materialize_bags(db, d)
        score = model.identity
        for nid in d.nodes:
            (own,) = model.node_scores(nid, bags[nid])
            score = model.combine(score, own)
        scores.append(score)
    (output,) = brute_force_ranked(db, uq, rf)
    return scores, output.score


class TestCompatibility:
    """A ranking fits every decomposition, but not every job: `ScoreModel`
    refuses weights or a head that its ranking cannot score."""

    def test_monoid_always_compatible(self):
        for spec in ("tuple_sum", "vertex_max"):
            scores, want = _scores_per_rooting(spec)
            assert scores == [want, want], spec

    def test_lex_always_compatible(self):
        scores, want = _scores_per_rooting("lex(z,x,y)")
        assert scores == [want, want]

    def test_bounded_fits_a_tree_without_its_set(self):
        """Rooted at the {x,y} bag, the root lacks z, and the {y,z} child
        lacks x: each node scores only its own terms inside the set."""
        for spec, want in (("bounded(vertex_sum; z)", 40),
                           ("bounded(tuple_max; x,y)", 3)):
            assert _scores_per_rooting(spec) == ([want, want], want), spec

    def test_product_requires_positive_weights(self):
        cq = parse_query("Q(x,y) :- R(x,y)").disjuncts[0]
        t = Table.from_rows("R", ("x", "y"), [("1", "2")], weights=[-3])
        db = Database.build([t])
        with pytest.raises(WeightError):
            ScoreModel(parse_ranking("tuple_product"), db, cq, gyo_join_tree(cq))

    def test_lex_order_must_cover_head(self):
        cq = parse_query("Q(x,y) :- R(x,y)").disjuncts[0]
        db = Database.build([Table.from_rows("R", ("x", "y"), [("1", "2")])])
        with pytest.raises(SchemaError, match="every head variable"):
            ScoreModel(parse_ranking("lex(x)"), db, cq, gyo_join_tree(cq))


@pytest.mark.parametrize("spec, root, child", [
    ("bounded(tuple_sum; y,z)", 0, 5),
    ("bounded(tuple_sum; x,y,z)", 3, 5),
    ("bounded(tuple_product; x)", 1, 1),
    ("bounded(vertex_sum; x,z)", 10, 40),
    ("bounded(vertex_max; y)", 20, MAX_IDENTITY),
])
def test_bounded_node_scores_keep_their_terms_inside_the_set(spec, root, child):
    """Each node of the plain join tree scores only its own terms inside the
    set: its assigned atoms whose variables all lie in it, or its values of
    it. A node with none scores the identity."""
    cq, db = parse_query(PATH).disjuncts[0], _path_db()
    d = gyo_join_tree(cq)
    assert [n.val_vars for n in d.nodes.values()] == [("x", "y"), ("z",)]
    model = ScoreModel(parse_ranking(spec), db, cq, d)
    bags = materialize_bags(db, d)
    assert [list(model.node_scores(nid, bags[nid])) for nid in d.nodes] == [
        [root], [child],
    ]


class TestProbe:
    DOMS = {v: ["-1", "1"] for v in ("x1", "x2", "y1", "y2")}

    @staticmethod
    def _inner_product(val):
        return int(val["x1"]) * int(val["y1"]) + int(val["x2"]) * int(val["y2"])

    def test_vertex_sum_passes_any_s(self):
        w = {"-1": 4, "1": 9}

        def scorer(val):
            return sum(w[val[v]] for v in val)

        for s in (["x1"], ["x1", "x2"], ["x1", "y2"], []):
            assert (
                probe_decomposable(scorer, list(self.DOMS), s, self.DOMS) is None
            )

    def test_inner_product_witness(self):
        wit = probe_decomposable(
            self._inner_product, list(self.DOMS), ["x1", "x2"], self.DOMS
        )
        assert wit is not None
        theta1, theta2, phi1, phi2 = wit
        # the witness really exhibits an order reversal
        s1 = self._inner_product({**theta1, **phi1})
        s2 = self._inner_product({**theta2, **phi1})
        s3 = self._inner_product({**theta1, **phi2})
        s4 = self._inner_product({**theta2, **phi2})
        assert (s1 < s2) and (s3 > s4)

    def test_empty_s_passes(self):
        assert (
            probe_decomposable(self._inner_product, list(self.DOMS), [], self.DOMS)
            is None
        )

    def test_cap(self):
        doms = {v: [str(i) for i in range(200)] for v in ("a", "b")}
        with pytest.raises(ProbeCapError):
            probe_decomposable(lambda v: 0, ["a", "b"], ["a"], doms)
