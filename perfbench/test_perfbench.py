"""Self-tests of the benchmark's own machinery.

Run from the root of a checkout:  python3 -m pytest perfbench -q
"""

import functools
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import inputs  # noqa: E402
import spans  # noqa: E402
from run import tail_percentile  # noqa: E402


@pytest.mark.parametrize("name", sorted(inputs.GENERATORS))
def test_generator_is_deterministic(name):
    gen = inputs.GENERATORS[name]
    assert gen(7) == gen(7)
    if name != "validate":  # the battery's inputs are fixed
        assert gen(7) != gen(8)


def test_generator_keeps_the_mix_across_seeds():
    def kinds(spec):
        return sorted((r["space"], r["coords"], r["model"]) for r in spec["requests"])

    assert kinds(inputs.cold_joint(1)) == kinds(inputs.cold_joint(2))
    for s in (1, 2):
        ops = inputs.lab_export(s)["ops"]
        assert sorted(o["count"] for o in ops if o["export"]) == [inputs.LAB_EXPORT_COUNT] * 2
        sizes = sorted(o["count"] for o in ops if not o["export"])
        assert all(lo <= c < hi for c, (lo, hi) in zip(sizes[::2], inputs.LAB_BANDS))


def test_cold_joint_configs_parse():
    from spdc_coherence.params import read_config

    for req in inputs.cold_joint(3)["requests"]:
        p, c = read_config(req["config"])
        assert c.L > 0 and p.w > 0


@pytest.mark.parametrize(
    "n, percentile, rank",
    [(11, 100.0 / 11, 1), (20, 50.0, 10), (40, 75.0, 30), (100, 90.0, 90), (5, 20.0, 1)],
)
def test_tail_percentile_leaves_ten_samples_beyond(n, percentile, rank):
    samples = [float(v) for v in range(n, 0, -1)]  # shuffled order does not matter
    pct, value = tail_percentile(samples)
    assert pct == pytest.approx(percentile)
    assert value == rank
    if n > 10:
        assert sum(s > value for s in samples) == 10


def _span(sid, start, end, parent=None):
    return (sid, f"s{sid}", start, end, parent, 0, 0.0)


def test_self_time_subtracts_covered_child_intervals():
    spans_ = [
        _span(1, 0.0, 10.0),
        _span(2, 1.0, 3.0, 1),
        _span(3, 2.0, 5.0, 1),  # overlaps span 2: union 1..5 counts once
        _span(4, 2.5, 4.0, 3),  # grandchild: only its parent subtracts it
        _span(5, 9.0, 12.0, 1),  # runs past the parent's end: clipped at 10
        _span(6, 20.0, 21.0),
    ]
    own = spans.self_times(spans_)
    assert own[1] == pytest.approx(10.0 - 4.0 - 1.0)
    assert own[2] == pytest.approx(2.0)
    assert own[3] == pytest.approx(3.0 - 1.5)
    assert own[4] == pytest.approx(1.5)
    assert own[5] == pytest.approx(3.0)
    assert own[6] == pytest.approx(1.0)


def test_tracer_records_nesting_and_collapses_recursion():
    tracer = spans.Tracer()

    def leaf(x):
        return x + 1

    def rec(n):
        return 0 if n == 0 else wrapped_rec(n - 1)

    wrapped_leaf = tracer.wrap("leaf", leaf)
    wrapped_rec = tracer.wrap("rec", rec)

    def outer():
        return wrapped_leaf(1) + wrapped_rec(3)

    wrapped_outer = tracer.wrap("outer", outer)
    tracer.active = True
    assert wrapped_outer() == 2
    names = {s[1]: s for s in tracer.spans}
    assert sorted(names) == ["leaf", "outer", "rec"]  # recursion gives one span
    assert names["leaf"][4] == names["outer"][0]
    assert names["rec"][4] == names["outer"][0]
    calls, busy, _ = tracer.by_name()["outer"]
    assert calls == 1 and 0.0 <= busy <= names["outer"][3] - names["outer"][2]


def test_install_wraps_every_binding_and_undo_restores():
    import spdc_coherence
    from spdc_coherence import cli, joint, numerics, phasematch, validation

    def bindings():
        return (cli.evaluate_grid, joint.evaluate_grid, phasematch.bessel_j0, validation.hankel0,
                validation.check_si_vs_hankel, joint.JointGrid.__dict__["from_json"])

    before = bindings()
    tracer = spans.Tracer()
    spans.install(tracer, spdc_coherence)
    try:
        assert cli.evaluate_grid is joint.evaluate_grid is not before[0]
        assert phasematch.bessel_j0 is numerics.bessel_j0 is not before[2]
        assert validation.hankel0 is numerics.hankel0 is not before[3]
        assert validation.check_si_vs_hankel is not before[4]
    finally:
        tracer.uninstall()
    assert bindings() == before


def test_wrapper_cost_is_positive_and_nesting_is_cheaper():
    recorded, nested = spans.wrapper_cost(batches=3), spans.wrapper_cost(nested=True, batches=3)
    assert 0.0 < nested < recorded < 1e-3


def test_cache_clear_empties_every_cache_it_finds():
    import spdc_coherence
    from spdc_coherence import joint, phasematch
    from spdc_coherence.params import CrystalParams, PumpParams

    caches = spans.CacheSet(spdc_coherence)
    assert any(name.endswith("joint._factor_pair") for name in caches.caches)
    assert any(name.endswith("phasematch._position_table") for name in caches.caches)
    # an independent scan finds no lru_cache the helper missed
    for mod in spans.package_modules(spdc_coherence):
        for val in vars(mod).values():
            if isinstance(val, functools._lru_cache_wrapper):
                assert val in caches.caches.values()

    caches.clear()
    caches.reset_totals()
    p = PumpParams(w=10.0, k_p=10.0, ell_c=20.0)
    c = CrystalParams(L=1000.0, k_p=10.0, z0=500.0)
    # each call looks the factor pair up twice: itself, then via default_axes
    joint.evaluate_grid(p, c, phasematch.GAUSSIAN_APPROX, "momentum", "rotated")
    joint.evaluate_grid(p, c, phasematch.GAUSSIAN_APPROX, "momentum", "rotated")
    phasematch.calibrate_alpha()
    phasematch._u_sinc_1e()
    assert sum(fn.cache_info().currsize for fn in caches.caches.values()) > 0
    caches.clear()
    assert all(fn.cache_info().currsize == 0 for fn in caches.caches.values())
    assert caches.hit_ratio("joint._factor_pair") == pytest.approx(3 / 4)
    assert math.isfinite(caches.hit_ratio("no.such.cache"))
