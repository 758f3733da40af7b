"""Metamorphic relations of the engine (Chen et al., "Metamorphic Testing:
A Review of Challenges and Opportunities", ACM CSUR 51(1), 2018): a known
transform of the channel stack must move the outcomes in a known way.
Each relation runs harness.evaluate, the engine's own evaluation, on draws
that draw_round keeps both before and after the transform."""

import dataclasses
import math

import numpy as np
import pytest

from sncsim.channel import sample_extended_channel, trial_generators
from sncsim.harness import SimConfig, evaluate
from sncsim.snc import draw_round, extension_dims

GRID_DB = (-10.0, 60.0, 10.0)  # start, stop, step


def evaluate_pair(cfg, transform, seed, snr_shift_db=0.0, keep_cfg=None, trials=40):
    """evaluate's tables for *cfg* on the draws of *trials* fresh channels
    of *keep_cfg* (default *cfg*) that draw_round keeps both as drawn and
    after *transform*: the drawn stack on GRID_DB, and its transform on
    GRID_DB shifted by *snr_shift_db*."""
    start, stop, step = GRID_DB
    keep_cfg = keep_cfg or cfg
    plan = extension_dims(keep_cfg.M, keep_cfg.n)
    h = sample_extended_channel(keep_cfg.M, keep_cfg.n_ext, keep_cfg.channel_model,
                                trial_generators(seed, range(trials)))
    moved = transform(h)
    both = draw_round(h, plan)[0] & draw_round(moved, plan)[0]
    assert both.sum() >= trials // 4  # enough draws for the relation to bite
    tables = []
    for stack, shift in ((h[both], 0.0), (moved[both], snr_shift_db)):
        passed, *arrays = draw_round(stack, plan)
        assert passed.all()  # a draw's rank test does not depend on the others
        rngs = trial_generators(seed, range(len(stack)))
        at = dataclasses.replace(cfg, snr_start=start + shift, snr_stop=stop + shift,
                                 snr_step=step)
        tables.append(evaluate(at, stack, rngs, *arrays))
    return tables


def permute_slots(h):
    """*h* with its N slots in a fixed shuffled order, which moves at least
    one slot."""
    N = h.shape[-1]
    order = np.roll(np.random.default_rng(0).permutation(N), 1)
    assert (order != np.arange(N)).any()
    return h[..., order]


SNC_CONFIGS = [
    dict(K=2, n=1),
    dict(K=2, n=2),
    dict(K=3, n=1),
    dict(K=3, n=2),
]


class TestSncRelations:
    # c = 0.3 - 1.7j scales every link by |c| and turns every phase alike
    C = 0.3 - 1.7j
    # the precoders of c h are those of h up to the rounding of the ratio
    # table, which the inverse of V_1 magnifies by its condition number:
    # the largest relative gap measured on these configs was 5.3e-13
    RTOL = 1e-9

    @pytest.mark.parametrize("overrides", SNC_CONFIGS)
    def test_scaling_the_channel_shifts_the_snr(self, overrides):
        # the uncapped rates on c h at s dB are those on h at
        # s + 20 log10|c| dB: each stream's gain scales by |c|^2
        cfg = SimConfig(scheme="snc", channel_model="complex", cap_enabled=False,
                        **overrides)
        shift = -20.0 * math.log10(abs(self.C))
        on_h, on_ch = evaluate_pair(cfg, lambda h: self.C * h, seed=31,
                                    snr_shift_db=shift)
        # on_ch is on GRID_DB - 20 log10|c|, where c h reads what h reads on GRID_DB
        assert np.allclose(on_ch["snc"]["rate"], on_h["snc"]["rate"],
                           rtol=self.RTOL, atol=0.0)
        assert not np.array_equal(on_h["snc"]["rate"][:-1], on_h["snc"]["rate"][1:])

    @pytest.mark.parametrize("cap_enabled", [True, False])
    @pytest.mark.parametrize("overrides", SNC_CONFIGS)
    def test_conjugate_channel_gives_the_same_rates(self, overrides, cap_enabled):
        # every gain is a modulus, and rounding commutes with conjugation
        cfg = SimConfig(scheme="snc", channel_model="complex", cap_enabled=cap_enabled,
                        **overrides)
        on_h, on_conj = evaluate_pair(cfg, np.conj, seed=32)
        a, b = on_h["snc"]["rate"], on_conj["snc"]["rate"]
        assert a.dtype == b.dtype and np.array_equal(a, b)

    @pytest.mark.parametrize("cap_enabled", [True, False])
    @pytest.mark.parametrize("channel_model", ["real", "complex"])
    @pytest.mark.parametrize("overrides", SNC_CONFIGS)
    def test_permuting_the_slots_gives_the_same_rates(self, overrides, channel_model,
                                                      cap_enabled):
        # a slot permutation permutes the rows of V_1, V_other and the
        # diagonal channels alike, so every stream's gain stays put; the
        # slot sums reorder, so the rates match only to rounding.  detected
        # is outside the relation: the noise is drawn per slot index and is
        # not permuted.  The largest relative gap measured was 3.3e-12, at
        # K=3, n=2, real
        cfg = SimConfig(scheme="snc", channel_model=channel_model,
                        cap_enabled=cap_enabled, **overrides)
        on_h, permuted = evaluate_pair(cfg, permute_slots, seed=34)
        assert np.allclose(permuted["snc"]["rate"], on_h["snc"]["rate"],
                           rtol=self.RTOL, atol=0.0)


class TestCfRelations:
    @pytest.mark.parametrize("q", [2, 3])
    @pytest.mark.parametrize("transform", [
        pytest.param(lambda h: h[:, [2, 0, 1]], id="receiver-permutation"),
        pytest.param(lambda h: h[:, [1, 0, 2]], id="receiver-swap"),
        pytest.param(np.negative, id="negation"),
    ])
    def test_rates_and_outages_are_invariant(self, transform, q):
        # a receiver permutation reorders the rows of every coefficient
        # matrix and h -> -h flips their signs: the worst receiver rate
        # and whether det A vanishes mod q stay put, bit for bit
        # the draws are those the alignment scheme keeps at K=3, n=1, whose
        # N=2 slots the CF leg evaluates at any prime q
        cfg = SimConfig(K=3, n=1, scheme="cf", q=q)
        on_h, moved = evaluate_pair(cfg, transform, seed=33,
                                    keep_cfg=SimConfig(K=3, n=1, scheme="both"))
        assert list(on_h) == list(moved) == ["cf"]
        for name in ("rate", "outage"):
            a, b = on_h["cf"][name], moved["cf"][name]
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert on_h["cf"]["outage"].any() and not on_h["cf"]["outage"].all()

    @pytest.mark.parametrize("overrides", [dict(K=2, n=2), dict(K=3, n=1), dict(K=3, n=2)])
    def test_permuting_the_slots_keeps_outages_and_rates(self, overrides):
        # each slot's coefficient search and determinant see the same rows,
        # so the outage share is bit-identical; the total rate sums the
        # slots in another order, and the largest relative gap measured was
        # 4.4e-16
        cfg = SimConfig(scheme="both", q=2, **overrides)
        on_h, permuted = evaluate_pair(cfg, permute_slots, seed=35)
        a, b = on_h["cf"]["outage"], permuted["cf"]["outage"]
        assert a.dtype == b.dtype and np.array_equal(a, b)
        assert np.allclose(permuted["cf"]["rate"], on_h["cf"]["rate"], rtol=1e-12, atol=0.0)
