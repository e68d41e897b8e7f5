import ctypes
import hashlib
import json
import math
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tinopt import (
    SimConfig,
    check_tin_condition,
    condition_probability,
    erceg_pathloss,
    from_link_budget,
    sample_network,
    sweep,
    sweep_to_csv,
)
from tinopt import netsim
from tinopt.channel_model import EPS_CONDITION, condition_extremes, extreme_margins, link_exponents
from tinopt.netsim import (
    ANTENNA_GAIN_DB,
    BOUNDARY_SNR_TARGET_DB,
    K_MAX_SIM,
    LINKS_MAX_SIM,
    NOISE_FLOOR_DBM,
    PATHLOSS_SLOPE,
    RADIUS_MAX_M,
    RADIUS_MIN_M,
    REF_DISTANCE_M,
    SHADOWING_MAX_DB,
    TRIAL_LINKS,
    WAVELENGTH_M,
    _link_distances,
    _wilson_interval,
    transmit_power_dbm,
)
from _oracles import oracle_layout, oracle_trial_verdict

DATA = Path(__file__).parent / "data"


def cfg_no_fading(**kw):
    base = dict(K=3, coverage_radius=100.0, trials=200, master_seed=7,
                shadowing_sigma_db=None)
    base.update(kw)
    return SimConfig(**base)


class TestErcegPathloss:
    def test_reference_distance_continuity(self):
        d0 = REF_DISTANCE_M
        A = 20 * math.log10(4 * math.pi * d0 / WAVELENGTH_M)
        assert erceg_pathloss(d0) == pytest.approx(A, rel=1e-12)
        # approaching from below (free space) meets the same anchor
        assert erceg_pathloss(d0 - 1e-9) == pytest.approx(A, abs=1e-6)

    def test_monotone_in_distance(self):
        d = np.linspace(1.0, 5000.0, 400)
        pl = erceg_pathloss(d)
        assert np.all(np.diff(pl) > 0)

    def test_double_reference_distance_slope(self):
        d0 = REF_DISTANCE_M
        expected = erceg_pathloss(d0) + 10 * PATHLOSS_SLOPE * math.log10(2)
        assert erceg_pathloss(2 * d0) == pytest.approx(expected, rel=1e-12)

    def test_category_b_slope_value(self):
        # terrain B at a 30 m base station: 4.0 - 0.195 + 0.57; 15 cm at 2 GHz
        assert PATHLOSS_SLOPE == pytest.approx(4.375, rel=1e-12)
        assert WAVELENGTH_M == pytest.approx(0.149896229, rel=1e-9)
        assert erceg_pathloss(REF_DISTANCE_M) == pytest.approx(78.4684, abs=1e-4)

    def test_rejects_nonpositive_distance(self):
        with pytest.raises(ValueError):
            erceg_pathloss(0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -0.0, [1.0, math.nan],
                                     [math.inf, 5.0], np.array([[3.0, 2.0], [math.nan, 1.0]])])
    def test_rejects_nonfinite_distance(self, bad):
        # nan used to come back as nan and inf as inf
        with pytest.raises(ValueError, match="^distance must be positive"):
            erceg_pathloss(bad)

    def test_public_check_around_the_unchecked_helper(self, monkeypatch):
        for bad in (0.0, -5.0, [3.0, -1e-300], math.inf, [2.0, math.nan]):
            with pytest.raises(ValueError, match="^distance must be positive and finite$"):
                erceg_pathloss(bad)
        assert erceg_pathloss(np.empty(0)).shape == (0,)
        d = np.array([[1.0, 99.9, 100.0], [100.5, 2.5e6, 1e-3]])
        assert np.array_equal(netsim._pathloss_db(d), erceg_pathloss(d))
        # the simulation's distances are clamped and bounded: it reads only the helper
        monkeypatch.setattr(netsim, "erceg_pathloss", lambda d: pytest.fail("checked"))
        condition_probability(SimConfig(K=3, coverage_radius=100.0, trials=100))

    def test_scalar_array_and_empty_inputs(self):
        d = np.array([0.5, 99.0, 100.0, 101.0, 4000.0])
        pl = erceg_pathloss(d)
        assert [erceg_pathloss(float(x)) for x in d] == pl.tolist()
        assert isinstance(erceg_pathloss(50.0), float)
        assert erceg_pathloss(np.empty((0, 3))).shape == (0, 3)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimConfig(K=0, coverage_radius=100.0)
        with pytest.raises(ValueError):
            SimConfig(K=2, coverage_radius=2000.0, cell_radius=1000.0)
        for bad in (
            dict(shadowing_sigma_db=math.nan),
            dict(shadowing_sigma_db=math.inf),
            dict(shadowing_sigma_db=-1.0),
            dict(cell_radius=math.inf),
            dict(coverage_radius=math.nan),
            dict(K=K_MAX_SIM + 1),
            dict(cell_radius=1e300),
            dict(coverage_radius=1e200, cell_radius=1e200),
            dict(shadowing_sigma_db=1e4),
            dict(cell_radius=RADIUS_MIN_M / 2, coverage_radius=RADIUS_MIN_M / 2),
        ):
            with pytest.raises(ValueError):
                SimConfig(**{"K": 2, "coverage_radius": 100.0, **bad})
        for tiny in (1e-300, 5e-324, RADIUS_MIN_M / 2, math.nextafter(RADIUS_MIN_M, 0.0)):
            with pytest.raises(ValueError, match="coverage_radius"):
                SimConfig(K=3, coverage_radius=tiny, trials=100)
        SimConfig(K=K_MAX_SIM, coverage_radius=100.0, shadowing_sigma_db=0.0)
        SimConfig(K=np.int64(3), coverage_radius=100.0, trials=np.int32(100),
                  master_seed=np.uint64(2**63))
        SimConfig(K=3, coverage_radius=np.float64(100.0), cell_radius=np.int64(1000),
                  shadowing_sigma_db=np.float32(8.0))
        widest = SimConfig(K=3, coverage_radius=RADIUS_MAX_M, cell_radius=RADIUS_MAX_M,
                           shadowing_sigma_db=SHADOWING_MAX_DB, trials=100)
        condition_probability(widest)  # no overflow warning (they are errors here)
        # smallest coverage in the largest cell: no gain underflows to 0, which
        # the positivity check on every gain would refuse
        corner = SimConfig(K=3, coverage_radius=RADIUS_MIN_M, cell_radius=RADIUS_MAX_M,
                           shadowing_sigma_db=SHADOWING_MAX_DB, trials=100)
        condition_probability(corner)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("K", 1.5),  # raised TypeError inside condition_probability
            ("trials", 100.5),  # the same
            ("K", True),  # accepted as K=1
            ("trials", True),
            ("K", 3.0),
            ("K", "3"),
            ("K", None),
            ("trials", np.float64(200.0)),
            ("master_seed", 0.5),
            ("master_seed", False),
        ],
    )
    def test_non_integer_count_names_it(self, field, value):
        base = {"K": 3, "coverage_radius": 100.0, "trials": 100}
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            SimConfig(**{**base, field: value})

    @pytest.mark.parametrize(
        "field,value",
        [
            ("coverage_radius", True),  # accepted as a 1 m radius
            ("coverage_radius", "50"),  # TypeError: '<=' not supported
            ("coverage_radius", None),
            ("cell_radius", [1000.0]),
            ("cell_radius", np.bool_(True)),
            ("shadowing_sigma_db", True),  # accepted as a 1 dB spread
            ("shadowing_sigma_db", "8"),
            ("shadowing_sigma_db", 8j),
        ],
    )
    def test_non_real_radius_or_spread_names_it(self, field, value):
        base = {"K": 3, "coverage_radius": 100.0, "trials": 100}
        with pytest.raises(ValueError, match=f"^{field} must be (None or )?a real number"):
            SimConfig(**{**base, field: value})
        if field == "coverage_radius":  # sweep ran float(radius): True ran a 1 m radius
            with pytest.raises(ValueError, match="^coverage_radius must be a real number"):
                sweep(SimConfig(**base), [2], [value])


class TestSampleNetwork:
    def test_deterministic_per_trial(self):
        cfg = SimConfig(K=5, coverage_radius=150.0, trials=100, master_seed=42)
        a = sample_network(cfg, 13)
        b = sample_network(cfg, np.int64(13))
        assert np.array_equal(a.tx_positions, b.tx_positions)
        assert np.array_equal(a.alpha.alpha, b.alpha.alpha)
        c = sample_network(cfg, 14)
        assert not np.array_equal(c.tx_positions, a.tx_positions)

    @pytest.mark.parametrize("bad", [1.5, True, False, "3", -1, np.int64(-2), None, 2.0])
    def test_rejects_bad_trial_index(self, bad):
        # 1.5, True and "3" used to run trials 1, 1 and 3; -1 raised numpy's own error
        with pytest.raises(ValueError, match="^trial_index must be a nonnegative integer"):
            sample_network(cfg_no_fading(), bad)

    def test_link_distances_are_norm_bits(self):
        rng = np.random.default_rng(5)
        for scale in (1e-3, 1.0, 1e3, 2e6):
            tx, rx = rng.uniform(-scale, scale, size=(2, 3, 17, 2))
            want = np.linalg.norm(rx[:, :, None, :] - tx[:, None, :, :], axis=-1)
            planes = [np.ascontiguousarray(np.moveaxis(xy, -1, 0)) for xy in (tx, rx)]
            assert np.array_equal(_link_distances(*planes), want)

    def test_geometry_constraints(self):
        cfg = cfg_no_fading(K=6)
        for t in range(30):
            inst = sample_network(cfg, t)
            own = np.linalg.norm(inst.rx_positions - inst.tx_positions, axis=1)
            assert np.all(own <= cfg.coverage_radius + 1e-9)
            assert np.all(
                np.linalg.norm(inst.tx_positions, axis=1) <= cfg.cell_radius + 1e-9
            )

    def test_boundary_snr_calibration(self):
        # median SNR at exactly the coverage radius equals the 0 dB target
        cfg = cfg_no_fading()
        ptx = transmit_power_dbm(cfg)
        snr_db = ptx + ANTENNA_GAIN_DB - erceg_pathloss(cfg.coverage_radius) - NOISE_FLOOR_DBM
        assert snr_db == pytest.approx(BOUNDARY_SNR_TARGET_DB, abs=1e-9)

    def test_clipping_and_exponent_range(self):
        cfg = SimConfig(K=8, coverage_radius=300.0, trials=100, master_seed=3)
        for t in range(20):
            inst = sample_network(cfg, t)
            assert np.all(inst.snr_inr_linear >= 1.0)
            assert np.all(inst.alpha.alpha >= 0.0)
            assert np.all(inst.alpha.alpha <= 1.0 + 1e-12)
            assert inst.nominal_P >= 2.0

    def test_mean_own_link_distance(self):
        # area-uniform placement in a disk has mean radius 2/3 of the radius
        cfg = cfg_no_fading(K=1)
        dists = []
        for t in range(10_000):
            inst = sample_network(cfg, t)
            dists.append(
                float(np.linalg.norm(inst.rx_positions[0] - inst.tx_positions[0]))
            )
        mean = float(np.mean(dists))
        expected = 2.0 / 3.0 * cfg.coverage_radius
        assert abs(mean - expected) / expected < 0.02

    def test_condition_verdict_independent_of_power_policy(self):
        cfg = SimConfig(K=6, coverage_radius=200.0, trials=100, master_seed=9)
        for t in range(25):
            inst = sample_network(cfg, t)
            base = check_tin_condition(inst.alpha)
            lin = inst.snr_inr_linear
            for P in (2.0, inst.nominal_P**2, 1e9):
                alt = from_link_budget(np.diag(lin), lin, P)
                assert check_tin_condition(alt).per_user == base.per_user

    def test_instance_json_dump(self):
        inst = sample_network(cfg_no_fading(), 0)
        doc = inst.to_dict()
        assert doc["K"] == 3
        assert len(doc["tx"]) == 3 and len(doc["alpha"]) == 3


class TestConditionProbability:
    def test_single_user_always_passes(self):
        est = condition_probability(cfg_no_fading(K=1, trials=150))
        assert est.prob == 1.0

    def test_requires_enough_trials(self):
        with pytest.raises(ValueError):
            condition_probability(cfg_no_fading(trials=50))

    def test_wilson_interval_known_value(self):
        lo, hi = _wilson_interval(1000, 2000)
        assert lo == pytest.approx(0.478, abs=1e-3)
        assert hi == pytest.approx(0.522, abs=1e-3)
        assert _wilson_interval(0, 100)[0] == pytest.approx(0.0, abs=1e-12)

    def test_worker_count_does_not_change_estimate(self):
        cfg = SimConfig(K=4, coverage_radius=150.0, trials=300, master_seed=11)
        a = condition_probability(cfg, workers=1)
        b = condition_probability(cfg, workers=4)
        assert a == b
        assert condition_probability(cfg, workers=np.int64(2)) == a

    def test_trials_bounded_before_any_trial(self, monkeypatch):
        # a run is bounded by its cost, trials * (K * K + TRIAL_LINKS): the
        # bound on trials * K * K alone admitted 1e9 trials at K=1, hours of work
        monkeypatch.setattr(netsim, "_sample_links", lambda *args: pytest.fail("a trial ran"))
        refused = r"^trials \* \(K \* K \+ 150\) must be at most 1000150000, got "
        for K, most in [(1, 6_623_509), (10, 4_000_600), (K_MAX_SIM, 1000)]:
            assert most == LINKS_MAX_SIM // (K * K + TRIAL_LINKS)
            for trials in (most, np.int64(most)):
                SimConfig(K=K, coverage_radius=100.0, trials=trials)
            for trials in (most + 1, np.int64(most + 1), 10**15):
                with pytest.raises(ValueError, match=f"{refused}{(K * K + 150) * int(trials)}$"):
                    SimConfig(K=K, coverage_radius=100.0, trials=trials)
        cfg = SimConfig(K=2, coverage_radius=100.0, trials=6_494_480)  # the most at K=2
        with pytest.raises(ValueError, match=refused):
            sweep(cfg, [2, 4], [100.0])

    @pytest.mark.parametrize(
        "workers,message",
        [
            (True, "an integer"),  # accepted as 1
            (1.5, "an integer"),  # accepted
            (2.0, "an integer"),
            ("2", "an integer"),  # TypeError: '<' not supported
            (None, "an integer"),
            (0, ">= 1"),
            (np.int64(-3), ">= 1"),
        ],
    )
    def test_bad_workers_refused_before_any_trial(self, monkeypatch, workers, message):
        cfg = SimConfig(K=3, coverage_radius=100.0, trials=100)

        def no_trials(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(netsim, "_sample_links", no_trials)
        with pytest.raises(ValueError, match=f"^workers must be {message}"):
            condition_probability(cfg, workers=workers)
        for K_values in ([2, 3], []):  # an empty grid used to return [] unchecked
            with pytest.raises(ValueError, match=f"^workers must be {message}"):
                sweep(cfg, K_values, [100.0], workers=workers)

    @pytest.mark.parametrize("K", [2.5, True, 3.0, "3"])
    def test_sweep_passes_K_unchanged(self, K):
        # sweep ran int(K): 2.5 ran K=2 and True ran K=1
        cfg = SimConfig(K=3, coverage_radius=100.0, trials=100)
        with pytest.raises(ValueError, match="^K must be an integer"):
            sweep(cfg, [K], [100.0])
        assert sweep(cfg, [np.int64(2)], [100.0])[0].K == 2
        assert sweep(cfg, [2], [100]) == sweep(cfg, [2], [100.0])

    def test_sweep_csv_stable_bytes(self):
        cfg = SimConfig(K=3, coverage_radius=100.0, trials=120, master_seed=5)
        rows1 = sweep(cfg, [2, 3], [80.0, 120.0], workers=1)
        rows2 = sweep(cfg, [2, 3], [80.0, 120.0], workers=3)
        assert sweep_to_csv(rows1) == sweep_to_csv(rows2)
        assert sweep_to_csv(rows1).splitlines()[0] == (
            "K,coverage_radius_m,trials,prob,ci_low,ci_high"
        )


class TestLayoutOracle:
    # Coverage radii below, at and above the 100 m reference distance; at
    # 1 mm coverage the 1 m minimum distance clamps every own link.
    @pytest.mark.parametrize(
        "K,coverage,shadowing,seed,extra",
        [
            (1, 5.0, None, 0, {}),
            (2, 1e-3, 100.0, -1, {}),
            (3, 50.0, 8.0, 2**63, {}),
            (6, 100.0, 0.0, 7, {}),
            (6, 99.5, 8.0, 2**80, {}),
            (9, 250.0, 8.0, 3, {"cell_radius": 250.0}),
            (12, 1000.0, None, 11, {"cell_radius": 5000.0}),
        ],
    )
    def test_sample_network_matches_oracle(self, K, coverage, shadowing, seed, extra):
        cfg = SimConfig(K=K, coverage_radius=coverage, trials=100, master_seed=seed,
                        shadowing_sigma_db=shadowing, **extra)
        for t in (0, 1, 17):
            got, want = sample_network(cfg, t), oracle_layout(cfg, t)
            assert np.array_equal(got.tx_positions, want["tx"])
            assert np.array_equal(got.rx_positions, want["rx"])
            np.testing.assert_allclose(got.pathloss_db, want["pathloss_db"], rtol=1e-12, atol=0)
            assert got.nominal_P == pytest.approx(want["nominal_P"], rel=1e-9)


class TestBatchedTrials:
    # Trial counts just past a whole number of batches of 4096 link
    # entries (4096, 1024, 455, 40 and 18 trials at K = 1, 2, 3, 10, 15;
    # one trial at K = 64 and 100).
    @pytest.mark.parametrize(
        "K,trials", [(1, 4097), (2, 1025), (3, 457), (10, 101), (15, 257), (64, 101), (100, 101)]
    )
    @settings(max_examples=1, deadline=None, derandomize=True)
    @given(seed=st.integers(-(2**80), 2**80), shadowing=st.sampled_from([8.0, None]),
           coverage=st.sampled_from([5.0, 100.0, 250.0]))
    @example(seed=2**63, shadowing=8.0, coverage=100.0)
    @example(seed=-1, shadowing=None, coverage=5.0)
    def test_passes_match_per_trial_oracle(self, K, trials, seed, shadowing, coverage):
        cfg = SimConfig(K=K, coverage_radius=coverage, trials=trials, master_seed=seed,
                        shadowing_sigma_db=shadowing)
        layouts = (oracle_layout(cfg, t) for t in range(trials))
        passes = sum(oracle_trial_verdict(o["gains"], o["nominal_P"]) for o in layouts)
        assert condition_probability(cfg).passes == passes

    # Toward the ends of the accepted inputs, each at the largest shadowing
    # spread: a single user, whose cross extremes are only the floor; 1 mm
    # coverage in a 1e6 m cell, the smallest gains (below 1e-50 here); 1e6 m
    # coverage, the largest.
    @pytest.mark.parametrize(
        "K,coverage,cell,seed",
        [(1, 100.0, 1000.0, 3), (1, 1e-3, 1e6, 4), (1, 1e6, 1e6, 5),
         (2, 1e-3, 1e6, 6), (7, 1e-3, 1e6, -1), (7, 1e6, 1e6, 2**63), (12, 1e6, 1e6, 8)],
    )
    def test_gain_range_ends_match_per_trial_oracle(self, K, coverage, cell, seed):
        cfg = SimConfig(K=K, coverage_radius=coverage, cell_radius=cell, trials=101,
                        master_seed=seed, shadowing_sigma_db=SHADOWING_MAX_DB)
        layouts = (oracle_layout(cfg, t) for t in range(cfg.trials))
        passes = sum(oracle_trial_verdict(o["gains"], o["nominal_P"]) for o in layouts)
        assert condition_probability(cfg).passes == passes


class TestGainPowers:
    """``condition_probability`` decides each trial on its extremes in dB over 10;
    only trials within ``_FILTER_DELTA`` of the band's edge take the exact path,
    which raises their extremes to powers of 10.  That path has the bits of
    raising every gain first, its largest raised extreme being the largest gain,
    only while ``np.power(10.0, .)`` never decreases and maps 0 to 1, so a numpy
    release where it does not fails here."""

    # gains in dB over 10 at the accepted radii and spreads lie within about
    # -130 and 122 (README, "Cellular Monte-Carlo")
    LOW, HIGH = -131.0, 123.0

    def test_ten_to_the_zero_is_one(self):
        assert np.power(10.0, np.array([0.0, -0.0])).tolist() == [1.0, 1.0]

    def test_never_decreases_on_neighbouring_doubles(self):
        rng = np.random.default_rng(20131)
        y = np.concatenate([rng.uniform(self.LOW, self.HIGH, 400_000),
                            rng.uniform(-1.0, 1.0, 100_000), [0.0, self.LOW, self.HIGH]])
        # each value with the doubles just below and above it, and runs of
        # 256 consecutive doubles from starts spread over the range
        runs = [np.linspace(self.LOW, self.HIGH, 2001)]
        for _ in range(255):
            runs.append(np.nextafter(runs[-1], np.inf))
        z = np.unique(np.concatenate([np.nextafter(y, -np.inf), y, np.nextafter(y, np.inf), *runs]))
        assert (np.diff(np.power(10.0, z)) >= 0).all()


def _exact_verdicts(ext: np.ndarray) -> list:
    """Per trial, the verdict of the exact path: powers of 10, exponents, margins."""
    gains = np.power(10.0, ext)
    margins = extreme_margins(link_exponents(gains, np.maximum(gains.max(axis=(-2, -1)), 2.0)))
    return np.all(margins >= -EPS_CONDITION, axis=-1).tolist()


class TestVerdictFilter:
    """A trial's verdict is read off its extremes in dB; only trials within
    ``_FILTER_DELTA`` of ``-EPS_CONDITION`` take powers and logarithms."""

    DELTA = netsim._FILTER_DELTA

    @staticmethod
    def layout(offset: float, scale: float) -> np.ndarray:
        """Two users in dB over 10, largest entry ``scale``; user 1's margin over the
        log scale ``s = max(scale, log10 2)`` is ``-EPS_CONDITION + offset``."""
        s = max(scale, math.log10(2.0))
        direct = 0.5 * scale + (offset - EPS_CONDITION) * s
        return np.array([[scale, 0.25 * scale], [0.25 * scale, direct]])

    @staticmethod
    def spy(monkeypatch) -> list:
        """The gains of every ``link_exponents`` call ``netsim`` makes, in order."""
        calls = []

        def spying(gains, nominal_P, _real=link_exponents):
            calls.append(np.array(gains))
            return _real(gains, nominal_P)

        monkeypatch.setattr(netsim, "link_exponents", spying)
        return calls

    @pytest.mark.parametrize("scale", [1.0, 0.1, 3.7, 122.0])
    def test_only_trials_inside_the_band_take_the_exact_path(self, monkeypatch, scale):
        offsets = [-2.0, -0.5, 0.5, 2.0]  # in DELTA; +-0.5 inside the band, +-2 outside
        y = np.stack([self.layout(o * self.DELTA, scale) for o in offsets])
        ext = condition_extremes(y)
        gains = np.power(10.0, y)
        verdicts = [oracle_trial_verdict(g, max(2.0, float(g.max()))) for g in gains]
        assert verdicts[0] is False and verdicts[3] is True
        calls = self.spy(monkeypatch)
        assert netsim._count_passes(ext) == sum(verdicts)
        assert len(calls) == 1
        assert np.array_equal(calls[0], np.power(10.0, ext[1:3]))
        for k, want in enumerate(verdicts):  # one trial at a time, the same verdicts
            calls.clear()
            assert netsim._count_passes(ext[k:k + 1]) == want
            assert len(calls) == (k in (1, 2))

    def test_no_trial_near_the_band_makes_no_exact_call(self, monkeypatch):
        cfg = SimConfig(K=10, coverage_radius=100.0, trials=400, master_seed=5)
        (words,) = netsim._trial_streams(cfg.master_seed, range(cfg.trials))
        y = netsim._sample_links(cfg, *netsim._stream_generator(), words,
                                 transmit_power_dbm(cfg)).y
        ext = condition_extremes(y)
        want = sum(_exact_verdicts(ext))
        calls = self.spy(monkeypatch)
        assert netsim._count_passes(ext) == want
        assert 0 < want < cfg.trials
        assert calls == []

    def test_verdicts_outside_the_band_are_the_exact_ones(self):
        # worst margins spread over four band half-widths either side of the edge,
        # log scales from below log10(2) to the largest gains, a direct extreme below 0
        rng = np.random.default_rng(2913)
        n, K = 4000, 6
        scale = 10.0 ** rng.uniform(-2.0, 2.1, n)
        s = np.maximum(scale, math.log10(2.0))
        ext = rng.uniform(0.0, 0.4, (n, 3, K)) * scale[:, None, None]
        ext[:, 0] = ext[:, 1] + ext[:, 2] + 0.1 * scale[:, None]
        ext[:, 0, 0] = scale  # the largest extreme
        ext[:, 0, 1] = -0.3 * scale  # a gain below 1, its user caused and suffered nothing
        ext[:, 1:, 1] = 0.0
        offset = rng.uniform(-4.0, 4.0, n) * self.DELTA
        ext[:, 0, 2] = ext[:, 1, 2] + ext[:, 2, 2] + (offset - EPS_CONDITION) * s
        want = _exact_verdicts(ext)
        got = [netsim._count_passes(ext[k:k + 1]) == 1 for k in range(n)]
        assert got == want
        assert netsim._count_passes(ext) == sum(want)

    def test_nan_takes_the_exact_path(self):
        ext = condition_extremes(np.array([[[1.0, 0.1], [0.1, math.nan]]]))
        with pytest.raises(ValueError, match="nonnegative, finite"):
            netsim._count_passes(ext)


def _state_words(state: dict) -> list:
    """A PCG64 ``bit_generator.state`` as ``[state_lo, state_hi, inc_lo, inc_hi]``."""
    s, inc = state["state"]["state"], state["state"]["inc"]
    return [s & (2**64 - 1), s >> 64, inc & (2**64 - 1), inc >> 64]


class TestTrialStreams:
    """Each trial's stream is ``default_rng([master_seed mod 2**64, t])``, bit for bit.

    The states are derived from numpy's seeding arithmetic rather than
    asked of numpy, so a numpy release that seeds differently fails here.
    """

    INDICES = [0, 1, 2**32 - 1, 2**32, 2**40, 2**64, 2**100]

    @pytest.mark.parametrize(
        "seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1, -1, -(2**32), 2**80 + 3, -(2**81) - 5]
    )
    def test_state_is_numpy_seeding(self, seed):
        for t in self.INDICES:
            want = np.random.PCG64(np.random.SeedSequence([seed % 2**64, t])).state
            entropy = netsim._uint32_words(seed % 2**64) + netsim._uint32_words(t)
            assert netsim._stream_words(entropy).tolist() == [_state_words(want)], t

    @pytest.mark.parametrize("seed", [0, 2**32 - 1, -1, np.int64(-7), 2**80 + 3])
    def test_blocks_are_numpy_seeding(self, seed, monkeypatch):
        # blocks of three, so ranges cross block boundaries; indices around
        # 2**32, where an index gains its second word
        monkeypatch.setattr(netsim, "_STREAM_BLOCK", 3)
        for trials in (range(0, 8), range(2**32 - 4, 2**32 + 3), range(2**40, 2**40 + 2)):
            blocks = list(netsim._trial_streams(seed, trials))
            assert [len(words) for words in blocks] == [
                len(trials[i:i + 3]) for i in range(0, len(trials), 3)]
            for words in blocks:
                assert words.dtype == np.uint64 and words.flags.c_contiguous
            want = [_state_words(np.random.PCG64(np.random.SeedSequence([int(seed) % 2**64, t])).state)
                    for t in trials]
            assert [row for words in blocks for row in words.tolist()] == want

    @pytest.mark.parametrize("K", [1, 7, 64])
    def test_reused_generator_draws_as_default_rng(self, K, monkeypatch):
        seed = 2**63 + 11
        (words,) = netsim._trial_streams(seed, range(3, 7))
        # both setters: the raw write, then the state dict a changed layout falls back to
        for setter in ("raw", "dict"):
            if setter == "dict":
                monkeypatch.setattr(netsim, "_raw_state_checked", lambda: False)
            rng, set_state = netsim._stream_generator()
            for t, row in zip(range(3, 7), words):
                set_state(row)
                fresh = np.random.default_rng([seed % 2**64, t])
                assert rng.bit_generator.state == fresh.bit_generator.state, (setter, t)
                for draw in (
                    lambda g: g.integers(2**32, size=1, dtype=np.uint32),
                    lambda g: g.random((4, K)),
                    lambda g: g.normal(size=(K, K)),
                    # an odd count leaves half a 64-bit word for the next trial
                    # to discard
                    lambda g: g.integers(2**32, size=3, dtype=np.uint32),
                ):
                    assert np.array_equal(draw(rng), draw(fresh)), (setter, t)

    def test_dict_fallback_keeps_every_estimate(self, monkeypatch):
        cfgs = [SimConfig(K=K, coverage_radius=100.0, trials=150, master_seed=seed)
                for K, seed in [(1, 2**64 - 1), (6, -3), (20, 5)]]
        want = [condition_probability(cfg) for cfg in cfgs]
        monkeypatch.setattr(netsim, "_raw_state_checked", lambda: False)
        assert [condition_probability(cfg) for cfg in cfgs] == want

    def test_views_past_the_generator_are_refused(self, monkeypatch):
        # the call's own views missing once the probe has passed: the dict setter, same estimates
        cfgs = [SimConfig(K=K, coverage_radius=100.0, trials=150, master_seed=seed)
                for K, seed in [(1, 2**64 - 1), (6, -3), (20, 5)]]
        want = [condition_probability(cfg) for cfg in cfgs]
        layouts = [sample_network(cfg, 7).to_dict() for cfg in cfgs]
        assert netsim._raw_state_checked()
        monkeypatch.setattr(netsim, "_raw_state", lambda bitgen: None)
        assert [condition_probability(cfg) for cfg in cfgs] == want
        assert [sample_network(cfg, 7).to_dict() for cfg in cfgs] == layouts

    def test_raw_state_reads_only_inside_the_object(self):
        class StandIn:
            __slots__ = ("ctypes", "a", "b", "c", "d", "e", "f")

        stand_in = StandIn()
        # a state address outside the object, holding a pointer into it: refused unread
        outside = ctypes.c_void_p(id(stand_in))
        stand_in.ctypes = SimpleNamespace(state_address=ctypes.addressof(outside))
        assert netsim._raw_state(stand_in) is None
        # an address inside it (its slot ``a``, after the object header) whose pointer,
        # another object, lies outside it
        stand_in.a = object()
        slot_a = id(stand_in) + 2 * ctypes.sizeof(ctypes.c_void_p)
        stand_in.ctypes = SimpleNamespace(state_address=slot_a)
        assert ctypes.c_void_p.from_address(slot_a).value == id(stand_in.a)
        assert netsim._raw_state(stand_in) is None

    def test_layout_check_refuses_a_changed_layout(self, monkeypatch):
        # a layout whose words run the other way (numpy's emulated 128-bit
        # integers keep the high word first): the round trip fails, so the dict
        # setter takes over
        assert netsim._raw_state_checked()
        real = netsim._raw_state

        def reversed_words(bitgen):
            words, buffered = real(bitgen)
            return words[::-1], buffered  # a view: the probe is written, in the wrong places

        monkeypatch.setattr(netsim, "_raw_state", reversed_words)
        assert not netsim._raw_state_checked.__wrapped__()
        monkeypatch.setattr(netsim, "_raw_state", lambda bitgen: None)
        assert not netsim._raw_state_checked.__wrapped__()

    @pytest.mark.parametrize("trials", [1025, 2049])
    @pytest.mark.parametrize("K,coverage", [(1, 100.0), (65, 5.0)])
    def test_block_and_batch_ends_match_per_trial_oracle(self, K, coverage, trials, monkeypatch):
        # stream blocks of 1024 trials; link batches of 1024 trials at K=1, one at K=65
        cfg = SimConfig(K=K, coverage_radius=coverage, trials=trials, master_seed=2**80 + 3)
        batches = []
        sample = netsim._sample_links

        def spy(*args):
            batches.append(sample(*args))
            return batches[-1]

        monkeypatch.setattr(netsim, "_sample_links", spy)
        passes = condition_probability(cfg).passes
        assert len(batches) == (3 if trials == 2049 else 2) if K == 1 else trials
        tx = np.concatenate([links.tx for links in batches], axis=1)
        rx = np.concatenate([links.rx for links in batches], axis=1)
        for t in (0, 1, 1023, 1024, trials - 2, trials - 1):
            want = oracle_layout(cfg, t)
            assert np.array_equal(tx[:, t].T, want["tx"]), t
            assert np.array_equal(rx[:, t].T, want["rx"]), t
        monkeypatch.setattr(netsim, "_sample_links", sample)
        verdicts = [check_tin_condition(sample_network(cfg, t).alpha).overall
                    for t in range(trials)]
        assert passes == sum(verdicts)
        assert 0 < passes < trials or K == 1

    def test_large_trial_index_and_numpy_seed(self):
        cfg = SimConfig(K=4, coverage_radius=150.0, trials=100, master_seed=np.int64(-5))
        want = oracle_layout(replace(cfg, master_seed=-5), 2**100)
        got = sample_network(cfg, 2**100)
        assert np.array_equal(got.tx_positions, want["tx"])
        assert np.array_equal(got.rx_positions, want["rx"])

    def test_no_generator_per_trial(self, monkeypatch):
        built = Counter()
        for name in ("default_rng", "SeedSequence", "PCG64", "Generator"):
            def counting(*args, _real=getattr(np.random, name), _name=name, **kwargs):
                built[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(np.random, name, counting)
        blocks = []
        derive = netsim._generate_state

        def spy(entropy):
            blocks.append(max(np.size(word) for word in entropy))
            return derive(entropy)

        monkeypatch.setattr(netsim, "_generate_state", spy)
        netsim._raw_state_checked()  # its probe generator is built once per process
        # K=1: three blocks of states for 2500 trials; K=80: one block for
        # 101 trials, although each link batch holds one trial
        for K, trials, want in [(1, 2500, [1024, 1024, 452]), (80, 101, [101])]:
            built.clear()
            blocks.clear()
            condition_probability(SimConfig(K=K, coverage_radius=100.0, trials=trials))
            assert built == {"PCG64": 1, "Generator": 1}
            assert blocks == want

    def test_concurrent_callers_keep_their_streams(self):
        cfgs = [SimConfig(K=K, coverage_radius=100.0, trials=300, master_seed=seed)
                for K, seed in [(3, 1), (5, 2), (8, 3), (12, 4)]]
        want = [condition_probability(cfg) for cfg in cfgs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                got = list(pool.map(condition_probability, cfgs * 3, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert got == want * 3


def _sha256(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a, dtype="<f8").tobytes()).hexdigest()


class TestMonteCarloBytes:
    """Bytes recorded before distances and path losses were computed per coordinate."""

    FIXTURE = json.loads((DATA / "netsim_bytes.json").read_text())

    @pytest.mark.parametrize("sweep_doc", FIXTURE["sweeps"],
                             ids=lambda d: f"seed{d['master_seed']}-sigma{d['shadowing_sigma_db']}")
    def test_sweep_csv_bytes(self, sweep_doc):
        base = SimConfig(K=2, coverage_radius=100.0, trials=self.FIXTURE["trials"],
                         master_seed=int(sweep_doc["master_seed"]),
                         shadowing_sigma_db=sweep_doc["shadowing_sigma_db"])
        rows = sweep(base, self.FIXTURE["K_values"], self.FIXTURE["coverage_radii_m"])
        assert sweep_to_csv(rows) == sweep_doc["csv"]

    def test_sample_network_digests(self):
        for net in self.FIXTURE["networks"]:
            cfg = SimConfig(K=net["K"], coverage_radius=net["coverage_radius_m"], trials=100,
                            master_seed=int(net["master_seed"]),
                            shadowing_sigma_db=net["shadowing_sigma_db"])
            inst = sample_network(cfg, net["trial"])
            got = {name: _sha256(getattr(inst, name)) for name in
                   ("tx_positions", "rx_positions", "pathloss_db", "snr_inr_linear")}
            got["alpha"] = _sha256(inst.alpha.alpha)
            got["nominal_P"] = float(inst.nominal_P).hex()
            assert got == net["sha256"], net
