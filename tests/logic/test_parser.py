"""Formula parser + pretty-printer round-trip tests."""

import pytest

from repro.logic import FormulaSyntaxError, ast as fo, parse_formula, unparse_formula


class TestParsing:
    def test_atoms(self):
        assert parse_formula("a(x)") == fo.LabelAtom("a", "x")
        assert parse_formula("child(x,y)") == fo.Rel("child", "x", "y")
        assert parse_formula("x=y") == fo.Eq("x", "y")
        assert parse_formula("x!=y") == fo.Not(fo.Eq("x", "y"))
        assert parse_formula("true") == fo.TRUE
        assert parse_formula("false") == fo.FALSE

    def test_precedence(self):
        f = parse_formula("a(x) | b(x) & c(x)")
        assert isinstance(f, fo.Or)
        assert isinstance(f.right, fo.And)

    def test_implication_right_associative(self):
        f = parse_formula("a(x) -> b(x) -> c(x)")
        # a -> (b -> c), desugared to ¬a ∨ (¬b ∨ c)
        assert f == fo.implies(
            fo.LabelAtom("a", "x"),
            fo.implies(fo.LabelAtom("b", "x"), fo.LabelAtom("c", "x")),
        )

    def test_quantifier_scopes_right(self):
        f = parse_formula("exists y. child(x,y) & a(y)")
        assert isinstance(f, fo.Exists)
        assert isinstance(f.body, fo.And)

    def test_multi_variable_quantifier(self):
        f = parse_formula("exists y z. child(x,y) & child(y,z)")
        assert isinstance(f, fo.Exists) and isinstance(f.body, fo.Exists)

    def test_tc_and_rtc(self):
        f = parse_formula("tc[u,v](child(u,v))(x,y)")
        assert f == fo.TC("u", "v", fo.Rel("child", "u", "v"), "x", "y")
        g = parse_formula("rtc[u,v](child(u,v))(x,y)")
        assert g == fo.Or(fo.Eq("x", "y"), fo.TC("u", "v", fo.Rel("child", "u", "v"), "x", "y"))

    def test_root_leaf_sugar(self):
        assert parse_formula("root(x)") == fo.root_formula("x")
        assert parse_formula("leaf(x)") == fo.leaf_formula("x")

    def test_first_last_sugar(self):
        assert parse_formula("first(x)") == fo.first_formula("x")
        assert parse_formula("last(y)") == fo.last_formula("y")
        assert parse_formula("last(y)") == fo.Not(
            fo.Exists("_s", fo.Rel("right", "y", "_s"))
        )
        with pytest.raises(FormulaSyntaxError):
            parse_formula("exists last. a(last)")  # a keyword, not a variable

    @pytest.mark.parametrize(
        "text",
        ["", "a(x", "child(x)", "exists . a(x)", "tc[u](a(u))(x,y)", "a(x) &", "exists child. true"],
    )
    def test_malformed_rejected(self, text):
        with pytest.raises(FormulaSyntaxError):
            parse_formula(text)


class TestRoundTrip:
    SAMPLES = [
        "exists y. child(x,y) & a(y)",
        "all x. (root(x) -> a(x))",
        "tc[u,v](right(u,v))(x,y) | x=y",
        "~(a(x) & ~b(x))",
        "exists y z. child(x,y) & child(y,z) & leaf(z)",
        "x!=y & descendant(x,y)",
        "tc[u,v](exists w. child(u,w) & child(w,v))(x,y)",
    ]

    @pytest.mark.parametrize("text", SAMPLES)
    def test_parse_unparse_fixpoint(self, text):
        f = parse_formula(text)
        assert parse_formula(unparse_formula(f)) == f


class TestAstHelpers:
    def test_free_variables(self):
        f = parse_formula("exists y. child(x,y) & a(y)")
        assert fo.free_variables(f) == {"x"}
        g = parse_formula("tc[u,v](child(u,v) & a(z))(x,y)")
        assert fo.free_variables(g) == {"x", "y", "z"}

    def test_tc_requires_distinct_bound_vars(self):
        with pytest.raises(ValueError):
            fo.TC("u", "u", fo.TRUE, "x", "y")

    def test_rel_name_validated(self):
        with pytest.raises(ValueError):
            fo.Rel("sibling", "x", "y")

    def test_big_and_or(self):
        assert fo.big_and([]) == fo.TRUE
        assert fo.big_or([]) == fo.FALSE
        parts = [fo.LabelAtom("a", "x"), fo.LabelAtom("b", "x")]
        assert fo.big_and(parts) == fo.And(*parts)

    def test_fresh_variable(self):
        used = {"v0", "v1"}
        assert fo.fresh_variable(used) == "v2"
        assert "v2" in used

    def test_formula_size(self):
        assert parse_formula("a(x)").size == 1
        assert parse_formula("a(x) & b(x)").size == 3
