"""The benchmark's tracer (perfbench/tracing.py) wraps library functions and
engine methods by name; a refactor that renames or moves them breaks it."""

import pathlib

from symquiv import cartan, functors, grassmann, hmod
from symquiv.fields import RATIONALS, prime_field_spec

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
B2 = cartan.validate_datum([[2, -1], [-2, 2]], [2, 1])
SPEC_B2 = hmod.HAlgebraSpec(B2, cartan.validate_orientation(B2, [(0, 1)]), RATIONALS)
G2 = cartan.validate_datum([[2, -1], [-3, 2]], [3, 1])
SPEC_G2 = hmod.HAlgebraSpec(G2, cartan.validate_orientation(G2, [(0, 1)]), RATIONALS)


def test_tracer_records_engine_layers(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    # the flag recursion must reach the group methods through the instance,
    # so the wrapped methods see every bottom factor of both engines
    methods = [(grassmann.Counter, "flag_count"), (grassmann.Counter, "bottom_e_groups"),
               (grassmann.ClassFlagCounter, "_sub_groups"), (grassmann.ClassFlagCounter, "count")]
    originals = {(cls, name): cls.__dict__[name] for cls, name in methods}
    original_iter = grassmann._iter_lf_submodules
    tracer = tracing.Tracer()
    tracer.install()
    try:
        e1 = hmod.generalized_simple(SPEC_B2, 0)
        assert grassmann.EulerEngine().flag_euler(hmod.direct_sum(e1, e1), (0, 0)) == 2
        table = functors.all_root_modules(SPEC_B2)
        idx = table.betas.index((1, 2))
        found = grassmann.PBWEngine(table).filtration_exists(
            table.module_of((1, 2)), [(idx, 1)], primes=(5,))
        assert found == {5: True}
        # filtration_exists searches for a first flag without count, so a
        # pairing reaches the counting methods
        m = tuple(int(beta in ((1, 0), (0, 1))) for beta in table.betas)
        assert grassmann.PBWEngine(table).pairing(m, m) == 1
    finally:
        tracer.uninstall()
    calls = tracer.counts.calls
    for cls, name in methods:
        assert calls.get(f"grassmann.{cls.__name__}.{name}", 0) > 0, name
        assert cls.__dict__[name] is originals[(cls, name)]
    assert calls.get("grassmann._iter_lf_submodules", 0) > 0
    assert grassmann._iter_lf_submodules is original_iter


def test_tracer_counts_inner_hom_basis_calls(monkeypatch):
    # hmod.hom_basis.calls must keep counting the Hom bases that hom_dim and
    # is_isomorphic compute, so both reach it through the module global
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    originals = {"is_isomorphic": hmod.is_isomorphic, "hom_basis": hmod.hom_basis}
    spec = SPEC_B2.with_field(prime_field_spec(5))
    m = hmod.random_locally_free(spec, (2, 1), 3)
    n = hmod.random_locally_free(spec, (2, 1), 4)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        hmod.hom_dim(m, n)
        after_hom_dim = tracer.counts.calls.get("hmod.hom_basis", 0)
        hmod.is_isomorphic(m, n)
    finally:
        tracer.uninstall()
    calls = tracer.counts.calls
    assert after_hom_dim == 1
    assert calls.get("hmod.is_isomorphic", 0) == 1
    assert calls.get("hmod.hom_basis", 0) > after_hom_dim
    assert hmod.is_isomorphic is originals["is_isomorphic"]
    assert hmod.hom_basis is originals["hom_basis"]


def test_tracer_sees_pairing_root_counts(monkeypatch):
    # a pairing is recorded under its own name, and the flag counts on its
    # root modules reach the class-flag counter through the instance, so the
    # grassmann.classflag.self_s layer still covers them
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    for cls_name, (cls, names) in tracing.CLASS_METHODS.items():
        for name in names:
            assert name in cls.__dict__, f"{cls_name}.{name}"
    assert {"pairing", "filtration_exists"} <= set(
        tracing.CLASS_METHODS["grassmann.PBWEngine"][1])
    assert {"_sub_groups", "count"} <= set(
        tracing.CLASS_METHODS["grassmann.ClassFlagCounter"][1])
    table = functors.all_root_modules(SPEC_B2)
    # M(1,0) (+) M(0,1): counted on each summand, never as a direct sum
    m = tuple(int(beta in ((1, 0), (0, 1))) for beta in table.betas)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert grassmann.PBWEngine(table).pairing(m, m) == 1
    finally:
        tracer.uninstall()
    counts = tracer.counts
    for name in ("PBWEngine.pairing", "ClassFlagCounter.count", "ClassFlagCounter._sub_groups"):
        assert counts.calls.get("grassmann." + name, 0) > 0, name
        assert counts.self_s.get("grassmann." + name, 0) > 0, name
    # the class quotients merge through the registry ClassFlagCounter
    # inherits, so the wrapped Counter.class_rep sees them
    assert counts.calls.get("grassmann.Counter.class_rep", 0) > 0
    assert counts.calls.get("hmod.direct_sum", 0) == 0


def test_tracer_sees_pi_generation_and_ext(monkeypatch):
    # pimod.generate.self_s and pimod.ext1.self_s are the self times of
    # random_E_filtered and ext1_pi: the relation linearization they run
    # must stay inside them, not move to a traced public helper
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    from symquiv import pimod

    # the preproj workload calls these three by name
    names = ("check_pi_relations", "random_E_filtered", "ext1_pi")
    assert set(names) <= set(tracing._public_functions(pimod))
    spec = SPEC_B2.with_field(prime_field_spec(7))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        a = pimod.random_E_filtered(spec, (0, 1, 0), 5)
        b = pimod.random_E_filtered(spec, (1, 0), 6)
        assert pimod.ext1_pi(a, b) == pimod.ext1_pi(b, a)
    finally:
        tracer.uninstall()
    counts = tracer.counts
    for name in ("pimod.random_E_filtered", "pimod.ext1_pi"):
        assert counts.calls.get(name, 0) == 2, name
        assert counts.self_s.get(name, 0) > 0, name


def test_lf_candidates_are_the_accepted_candidates(monkeypatch):
    # grassmann.lf_candidates counts what iter_free_submodules yields; the
    # vertex step enumerates only the candidates containing the forced span,
    # so the metric equals what the enumerate-then-filter oracle accepts
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    from test_grassmann import B3, count_with_spend, root_table, vertex_candidates_oracle

    module = hmod.reduce_mod_p(root_table(B3, [(0, 1), (1, 2)]).module_of((1, 2, 2)), 5)
    e = (1, 1, 1)
    count, spend, accepted = count_with_spend(vertex_candidates_oracle, module, e)
    assert spend > len(accepted) > 0
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.set_phase("setup")
        tracer.set_phase("queries")
        assert grassmann.count_locally_free_submodules(module, e) == count
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer)
    assert metrics["grassmann.lf_candidates"]["value"] == len(accepted)
    assert metrics["grassmann.lf_submodules"]["value"] == count


def test_e_letters_are_not_lf_candidates(monkeypatch):
    # E-letters come from the same enumeration as the vertex steps, but a
    # flag count enumerates no vertex step, so grassmann.lf_candidates reads
    # 0 on it (perfbench/selftest.py predicts 0 on serre and preproj)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    module = hmod.reduce_mod_p(hmod.random_locally_free(SPEC_G2, (2, 1), 3), 5)
    letters = []
    for j in range(2):
        letters.extend(grassmann._e_letter_generators(module, j))
    assert letters
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.set_phase("setup")
        tracer.set_phase("queries")
        assert grassmann.Counter().flag_count(module, (0, 0, 1)) > 0
    finally:
        tracer.uninstall()
    assert tracer.counts.calls.get("grassmann.Counter.bottom_e_groups", 0) > 0
    assert tracing.layer_metrics(tracer)["grassmann.lf_candidates"]["value"] == 0


def test_f_polynomial_reduces_once_and_fits_per_e(monkeypatch):
    # a traced F-polynomial reduces its module once per sampled prime, fits
    # once per e in the box, and the integer fit is still a linalg span, so
    # grassmann.interp.self_s keeps its time
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    # the G2 root (2, 3) fails the torus gate, so its counts are fitted
    module = functors.all_root_modules(SPEC_G2).module_of((2, 3))
    engine = grassmann.EulerEngine()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.set_phase("setup")
        tracer.set_phase("queries")
        assert engine.f_polynomial(module) == {(0, 0): 1, (1, 0): 2, (1, 1): 3, (2, 0): 1,
                                               (2, 1): 3, (2, 2): 3, (2, 3): 1}
    finally:
        tracer.uninstall()
    counts = tracer.counts
    sampled = {p for poly in engine.transcripts.values() for p, _ in poly.samples + (poly.held_out,)}
    assert counts.calls.get("hmod.reduce_mod_p", 0) == len(sampled) > 0
    assert counts.calls.get("grassmann.interpolate_counts", 0) == 3 * 4
    assert counts.calls.get(tracing.COUNT_FN, 0) > len(sampled)
    fits = "linalg.lagrange_interpolate.none"
    assert counts.calls.get(fits, 0) >= 3 * 4 and counts.self_s.get(fits, 0) > 0
    metrics = tracing.layer_metrics(tracer)
    assert metrics["grassmann.interp.self_s"]["value"] >= counts.self_s[fits]


def test_gated_f_polynomial_counts_no_points(monkeypatch):
    # a module that passes the torus gate is answered by coordinate_counts:
    # no reduction mod p, no point count and no fit
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    module = functors.all_root_modules(SPEC_B2).module_of((1, 1))
    engine = grassmann.EulerEngine()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.set_phase("setup")
        tracer.set_phase("queries")
        assert engine.f_polynomial(module) == {(0, 0): 1, (1, 0): 1, (1, 1): 1}
    finally:
        tracer.uninstall()
    calls = tracer.counts.calls
    assert calls.get("grassmann.coordinate_counts", 0) == 1
    for name in ("hmod.reduce_mod_p", "grassmann.interpolate_counts",
                 "grassmann.count_locally_free_submodules", "grassmann.iter_free_submodules"):
        assert calls.get(name, 0) == 0, name
    assert engine.transcripts == {"grlf [1, 1] [0, 0]": 1, "grlf [1, 1] [0, 1]": 0,
                                  "grlf [1, 1] [1, 0]": 1, "grlf [1, 1] [1, 1]": 1}
