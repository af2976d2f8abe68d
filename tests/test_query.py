import pytest

from rankjoin import QueryParseError, connected_components, parse_query


def test_single_disjunct_four_atoms():
    q = parse_query("Q(x,y,z,w,u) :- R1(x,y), R2(y,z), R3(z,w), R4(z,u)")
    assert len(q.disjuncts) == 1
    cq = q.disjuncts[0]
    assert len(cq.atoms) == 4
    assert cq.head == ("x", "y", "z", "w", "u")
    assert cq.atoms[2].relation == "R3"


def test_smallest_query():
    q = parse_query("Q(x) :- R(x)")
    assert q.disjuncts[0].atoms[0].variables == ("x",)


def test_repeated_variable_in_atom_rejected():
    with pytest.raises(QueryParseError, match="repeated"):
        parse_query("Q(x,y) :- R(x,x), S(x,y)")


def test_constants_rejected():
    with pytest.raises(QueryParseError):
        parse_query("Q(x) :- R(x,3)")


def test_non_full_head_rejected():
    with pytest.raises(QueryParseError, match="non-full"):
        parse_query("Q(x,y,z,u) :- R1(x,y), R2(y,z), R3(z,w), R4(z,u)")


def test_unused_head_variable_rejected():
    with pytest.raises(QueryParseError):
        parse_query("Q(x,y) :- R(x)")


def test_arity_conflict_across_selfjoin():
    with pytest.raises(QueryParseError, match="arity"):
        parse_query("Q(x,y,z) :- R(x,y), R(x,y,z)")


def test_selfjoin_same_arity_ok():
    q = parse_query("Q(x,y,z) :- R(x,y), R(y,z)")
    assert len(q.disjuncts[0].atoms) == 2


def test_union_shares_head():
    q = parse_query("Q(x,y) :- R(x,y) | S(x,y)")
    assert len(q.disjuncts) == 2
    assert q.disjuncts[0].head == q.disjuncts[1].head


def test_comments_ignored():
    q = parse_query("# heading\nQ(x) :- R(x)\n# trailing\n")
    assert q.name == "Q"


def test_roundtrip():
    text = "Q(x,y,z) :- R(x,y), S(y,z) | R(x,y), T(y,z)"
    q = parse_query(text)
    assert parse_query(str(q)) == q


class TestComponents:
    def test_connected(self):
        cq = parse_query("Q(x,y,z) :- R(x,y), S(y,z)").disjuncts[0]
        assert len(connected_components(cq)) == 1

    def test_cartesian(self):
        cq = parse_query("Q(x1,y1,x2,y2) :- R(x1,y1), S(x2,y2)").disjuncts[0]
        comps = connected_components(cq)
        assert len(comps) == 2
        assert comps[0].head == ("x1", "y1")
        assert comps[1].head == ("x2", "y2")

    def test_single_atom(self):
        cq = parse_query("Q(x) :- R(x)").disjuncts[0]
        assert len(connected_components(cq)) == 1

    def test_components_share_no_variable(self):
        cq = parse_query(
            "Q(a,b,c,d,e) :- R(a,b), S(b,c), T(d,e)"
        ).disjuncts[0]
        comps = connected_components(cq)
        varsets = [set(c.head) for c in comps]
        assert varsets[0] & varsets[1] == set()


NOT_A_VARIABLE = "atom R: '' is not a variable (constants are not allowed)"


@pytest.mark.parametrize(
    "text, err",
    [
        ("Q(x,y) :- R(x,,y)", NOT_A_VARIABLE),
        ("Q(x,y) :- R(x,y,)", NOT_A_VARIABLE),
        ("Q(x,,y) :- R(x,y)", "cannot parse head 'Q(x,,y)'"),
    ],
)
def test_empty_name_rejected(text, err):
    """An empty name between commas is an error, not a name to drop."""
    with pytest.raises(QueryParseError) as info:
        parse_query(text)
    assert str(info.value) == err


@pytest.mark.parametrize(
    "text, err",
    [
        ("Q(x) :- 1R(x)", "cannot parse atom near '1R(x)'"),
        ("Q(x) :- R()", "atom R has no variables"),
        ("Q(x) :- R( )", "atom R has no variables"),
        ("Q(x,y) :- R(x,y) S(y)", "unexpected text after atom: 'S(y)'"),
        ("Q(x) :- ", "empty query body"),
        ("Q(x) :- R(x) | ", "empty query body"),
        ("Q(x) R(x)", "expected 'Head(vars) :- body'"),
        ("Q(x,x) :- R(x)", "repeated variable in head"),
        ("Q(x :- R(x)", "cannot parse head 'Q(x'"),
    ],
)
def test_parse_error_messages(text, err):
    with pytest.raises(QueryParseError) as info:
        parse_query(text)
    assert str(info.value) == err
