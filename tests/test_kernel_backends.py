"""Kernel-backend parity oracle and selection semantics.

Every registered backend of :mod:`repro.engine.jit` must be
bit-identical to the numpy reference (and to the brute-force oracle)
on anticorrelated/independent/correlated data for every d in 2..8,
with duplicate and tied rows present.  The suite must pass both with
and without the ``[accel]`` extra installed: backend-specific tests
run for whichever backends probe available, and the fallback tests
force an import failure to prove the graceful degradation path.
"""

import json
import sys
import warnings

import numpy as np
import pytest

from repro.core.verify import brute_force_skycube
from repro.data.generator import generate
from repro.engine import packed
from repro.engine.jit import (
    BACKEND_CHOICES,
    KERNEL_BACKENDS,
    BackendUnavailableError,
    clear_backend_cache,
    get_backend,
    probe_backends,
    resolve_backend,
)
from repro.engine.kernels import fast_skycube
from repro.instrument.counters import Counters


def available_backends():
    return [probe.name for probe in probe_backends() if probe.available]


AVAILABLE = available_backends()


def backend_workloads():
    """Seeded A/I/C cases, every d in 2..8, duplicates and ties mixed in."""
    cases = []
    for dist in ("anticorrelated", "independent", "correlated"):
        for d in range(2, 9):
            data = generate(dist, 70, d, seed=3 + d)
            data = np.vstack([data, data[:9]])  # exact duplicates
            data[10, 0] = data[11, 0]  # per-dimension tie
            cases.append((f"{dist[:1]}-d{d}", data))
    return cases


@pytest.fixture(params=backend_workloads(), ids=lambda case: case[0])
def workload(request):
    return request.param[1]


@pytest.fixture(params=AVAILABLE)
def backend_name(request):
    return request.param


# -- parity oracle: every available backend, every workload ------------


def test_backend_masks_match_reference(workload, backend_name):
    backend = get_backend(backend_name)
    rows = np.ascontiguousarray(workload)
    expected = packed.packed_point_masks(rows)
    assert np.array_equal(backend.point_masks(rows), expected)
    counters = Counters()
    filtered = backend.filtered_point_masks(rows, counters=counters)
    assert np.array_equal(filtered, expected)


def test_backend_skycube_matches_oracle(workload, backend_name):
    reference = fast_skycube(workload, engine="packed-filtered")
    for engine in ("packed", "packed-filtered"):
        cube = fast_skycube(workload, engine=engine, backend=backend_name)
        assert cube.store == reference.store
    assert reference == brute_force_skycube(workload)


# -- registry selection semantics --------------------------------------


def test_registry_constants():
    assert KERNEL_BACKENDS == ("numpy", "numba")
    assert BACKEND_CHOICES == ("auto", "numpy", "numba")
    assert "numpy" in AVAILABLE  # the reference is always available


def test_resolve_defaults_to_numpy():
    assert resolve_backend(None).name == "numpy"
    assert resolve_backend("numpy").name == "numpy"


def test_resolve_auto_picks_an_available_backend():
    assert resolve_backend("auto").name in AVAILABLE


def test_unknown_backend_suggests():
    with pytest.raises(ValueError, match="did you mean 'numba'"):
        resolve_backend("nmba")
    with pytest.raises(ValueError, match="choose from"):
        get_backend("simd")


def test_probes_report_detail():
    for probe in probe_backends():
        assert probe.name in KERNEL_BACKENDS
        assert probe.detail  # human-readable either way


def test_preferred_block_positive():
    for name in AVAILABLE:
        backend = get_backend(name)
        for d in (2, 5, 8, 14, 15, 16):
            assert backend.preferred_block(d) >= 1
    numpy_backend = get_backend("numpy")
    assert numpy_backend.preferred_block(8) == packed.DEFAULT_BLOCK
    # Above the dense table the block shrinks with the closure rows.
    assert numpy_backend.preferred_block(16) == packed.default_block(16) == 4


# -- graceful degradation: forced import failure -----------------------


@pytest.fixture
def broken_numba(monkeypatch):
    """Make ``import numba`` fail even if the extra is installed."""
    clear_backend_cache()
    monkeypatch.setitem(sys.modules, "numba", None)
    yield
    clear_backend_cache()


def test_missing_backend_degrades_to_numpy(broken_numba):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        backend = resolve_backend("numba")
    assert backend.name == "numpy"
    messages = [str(w.message) for w in caught if w.category is RuntimeWarning]
    assert any("numba" in m and "bit-identical" in m for m in messages)
    # One warning per process: a second resolve stays silent.
    with warnings.catch_warnings(record=True) as again:
        warnings.simplefilter("always")
        assert resolve_backend("numba").name == "numpy"
    assert not [w for w in again if w.category is RuntimeWarning]


def test_missing_backend_fallback_is_bit_identical(broken_numba):
    data = generate("anticorrelated", 90, 4, seed=8)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cube = fast_skycube(data, engine="packed-filtered", backend="numba")
    assert cube.store == fast_skycube(data, engine="packed-filtered").store


def test_missing_backend_strict_raises_typed(broken_numba):
    with pytest.raises(BackendUnavailableError) as info:
        resolve_backend("numba", strict=True)
    assert info.value.backend == "numba"
    assert "accel" in str(info.value)  # names the missing extra


def test_probe_failure_names_install_hint(broken_numba):
    probe = [p for p in probe_backends() if p.name == "numba"][0]
    assert not probe.available
    assert "accel" in probe.detail


# -- the GPU hook ------------------------------------------------------


def test_default_hook_gpu_simulate_accepts_simulation():
    from repro.skyline.registry import default_hook
    from repro.skyline.skyalign import SkyAlign

    # The GPU hook is the instrumented simulation: it never raises for
    # a missing device.
    hook = default_hook("gpu", parallel=True)
    assert isinstance(hook, SkyAlign)
    assert hook.architecture == "gpu"


# -- template and serve integration ------------------------------------


def test_mdmc_backend_matches_default():
    from repro.templates.mdmc import MDMC

    data = generate("independent", 130, 4, seed=17)
    data = np.vstack([data, data[:8]])
    base = MDMC(engine="packed-filtered").materialise(data)
    for name in AVAILABLE:
        run = MDMC(engine="packed-filtered", backend=name).materialise(data)
        assert run.skycube.store == base.skycube.store


def test_mdmc_process_backend_matches_serial():
    from repro.templates.mdmc import MDMC

    data = generate("anticorrelated", 140, 4, seed=23)
    serial = MDMC(engine="packed").materialise(data)
    run = MDMC(executor="process", workers=2, backend="numpy").materialise(
        data
    )
    assert run.skycube.store == serial.skycube.store


def test_mdmc_backend_validation():
    from repro.templates.mdmc import MDMC

    with pytest.raises(ValueError, match="backend must be one of"):
        MDMC(engine="packed", backend="simd")
    with pytest.raises(ValueError, match="engine="):
        MDMC(backend="numpy")  # serial instrumented loop has no backends
    MDMC(executor="process", backend="numpy")  # process default engine is fine


def test_serving_snapshot_backend():
    from repro.serve.snapshot import ServingSnapshot

    data = generate("independent", 80, 4, seed=29)
    reference = ServingSnapshot.build(data)
    for name in AVAILABLE:
        snapshot = ServingSnapshot.build(data, backend=name)
        for delta in (1, 5, 9, 15):
            assert snapshot.skyline(delta) == reference.skyline(delta)


def test_profile_backend_knob(tmp_path):
    from repro.config import ProfileError, load_profile

    path = tmp_path / "accel.toml"
    path.write_text("[engine]\nbackend = \"numba\"\n")
    assert load_profile(str(path)).engine.backend == "numba"
    bad = tmp_path / "bad.toml"
    bad.write_text("[engine]\nbackend = \"simd\"\n")
    with pytest.raises(ProfileError, match="backend"):
        load_profile(str(bad))


def test_builder_backend_scoped_to_mdmc():
    from repro.experiments.runner import _builder

    with pytest.raises(ValueError, match="backend"):
        _builder("stsc", backend="numpy")
    template = _builder("mdmc-cpu", "process", None, None, "numpy")
    assert template.backend == "numpy"


# -- the backends CLI --------------------------------------------------


def test_backends_cli(capsys):
    from repro.__main__ import main

    assert main(["backends"]) == 0
    out = capsys.readouterr().out
    for name in KERNEL_BACKENDS:
        assert name in out
    assert "available" in out


def test_backends_cli_json(capsys):
    from repro.__main__ import main

    assert main(["backends", "--json", "--refresh"]) == 0
    probes = json.loads(capsys.readouterr().out)
    assert [p["name"] for p in probes] == list(KERNEL_BACKENDS)
    by_name = {p["name"]: p for p in probes}
    assert by_name["numpy"]["available"] is True
    assert {"name", "available", "detail"} <= set(by_name["numba"])
