"""Call-graph builder tests — resolution corners and the caller walk."""

import textwrap

from repro.staticcheck.callgraph import (
    build_call_graph,
    chain_of,
    module_name_for,
)


def graph_of(**sources):
    """Build a graph from ``name=source`` pairs (name -> name.py)."""
    items = [
        (f"{name}.py", textwrap.dedent(src))
        for name, src in sorted(sources.items())
    ]
    return build_call_graph(items)


class TestModuleNames:
    def test_src_prefix_stripped(self):
        assert module_name_for("src/repro/noc/router.py") == "repro.noc.router"

    def test_init_dropped(self):
        assert module_name_for("src/repro/__init__.py") == "repro"


class TestResolution:
    def test_plain_function_call(self):
        g = graph_of(m="""
            def helper():
                pass

            def entry():
                helper()
        """)
        assert g.calls["m.entry"] == ["m.helper"]
        assert g.callers_of("m.helper") == ["m.entry"]

    def test_decorated_method_still_resolves(self):
        g = graph_of(m="""
            import functools

            class C:
                @functools.lru_cache(maxsize=None)
                def cached(self):
                    return 1

                def run(self):
                    return self.cached()
        """)
        assert "m.C.cached" in g.calls["m.C.run"]

    def test_super_dispatch_resolves_to_base(self):
        g = graph_of(m="""
            class Base:
                def step(self):
                    pass

            class Derived(Base):
                def step(self):
                    super().step()
        """)
        assert g.calls["m.Derived.step"] == ["m.Base.step"]

    def test_self_call_includes_subclass_overrides(self):
        g = graph_of(m="""
            class Base:
                def run(self):
                    self.step()

                def step(self):
                    pass

            class Derived(Base):
                def step(self):
                    pass
        """)
        assert {"m.Base.step", "m.Derived.step"} <= set(g.calls["m.Base.run"])

    def test_property_access_resolves_as_value(self):
        g = graph_of(m="""
            class C:
                @property
                def depth(self):
                    return 3

                def use(self):
                    return self.depth + 1
        """)
        assert g.calls["m.C.use"] == ["m.C.depth"]
        assert g.functions["m.C.depth"].is_property

    def test_aliased_import_resolves_across_modules(self):
        g = graph_of(
            util="""
                def compute():
                    pass
            """,
            app="""
                from util import compute as c

                def entry():
                    c()
            """,
        )
        assert g.calls["app.entry"] == ["util.compute"]

    def test_instance_local_method_call(self):
        g = graph_of(m="""
            class Widget:
                def poke(self):
                    pass

            def entry():
                w = Widget()
                w.poke()
        """)
        assert g.calls["m.entry"] == ["m.Widget.poke"]  # no ctor defined

    def test_generic_method_name_not_guessed(self):
        g = graph_of(m="""
            class C:
                def append(self, x):
                    pass

            def entry(items):
                items.append(1)
        """)
        # ``items`` is untyped and ``append`` is a generic container
        # method: resolution must NOT guess C.append.
        assert g.calls["m.entry"] == []


    def test_inherited_method_resolves_and_override_wins(self):
        g = graph_of(m="""
            class Base:
                def a(self):
                    pass

                def b(self):
                    pass

            class Derived(Base):
                def b(self):
                    pass

                def run(self):
                    self.a()
                    self.b()
        """)
        assert g.calls["m.Derived.run"] == ["m.Base.a", "m.Derived.b"]

    def test_bound_method_local_is_a_call_edge(self):
        g = graph_of(m="""
            class C:
                def step(self):
                    pass

                def run(self):
                    step = self.step
                    step()
        """)
        assert g.callers_of("m.C.step") == ["m.C.run"]


class TestQueries:
    def test_function_at_finds_innermost(self):
        src = textwrap.dedent("""
            class C:
                def outer(self):
                    x = 1
                    return x
        """)
        g = build_call_graph([("m.py", src)])
        fn = g.function_at("m.py", 4)
        assert fn is not None and fn.qname == "m.C.outer"

    def test_syntax_error_skipped_not_raised(self):
        g = build_call_graph([("bad.py", "def broken(:\n")])
        assert not g.functions


class TestChains:
    def test_chain_of_subscript_and_attr(self):
        import ast

        expr = ast.parse("self.routers[3].vcs", mode="eval").body
        assert chain_of(expr, {}) == "self.routers[].vcs"


class TestWalrusAndZip:
    def test_walrus_binds_like_assignment(self):
        g = graph_of(m="""
            class Router:
                def tick(self):
                    pass

            def f():
                if (r := Router()) is not None:
                    r.tick()
        """)
        assert "m.Router.tick" in g.calls["m.f"]

    def test_chain_passes_through_walrus(self):
        import ast

        expr = ast.parse("(x := net.router)", mode="eval").body
        assert chain_of(expr, {}) == "net.router"

    def test_zip_loop_binds_positional_elements(self):
        import textwrap

        src = textwrap.dedent("""
            class Router:
                def tick(self):
                    pass

            class Link:
                def pulse(self):
                    pass

            class Net:
                def step(self):
                    for r, ln in zip(self.routers, self.links):
                        r.tick()
                        ln.pulse()
        """)
        g = build_call_graph(
            [("m.py", src)],
            {"routers[]": ("Router",), "links[]": ("Link",)},
        )
        assert {"m.Router.tick", "m.Link.pulse"} <= set(g.calls["m.Net.step"])

    def test_starred_target_aliases_the_element(self):
        import textwrap

        src = textwrap.dedent("""
            class Router:
                def tick(self):
                    pass

            class Net:
                def step(self):
                    head, *rest = self.routers
                    for r in rest:
                        r.tick()
        """)
        g = build_call_graph([("m.py", src)], {"routers[]": ("Router",)})
        assert "m.Router.tick" in g.calls["m.Net.step"]

    def test_setdefault_aliases_an_element(self):
        import ast

        expr = ast.parse("table.setdefault(k, [])", mode="eval").body
        assert chain_of(expr, {}) == "table[]"
