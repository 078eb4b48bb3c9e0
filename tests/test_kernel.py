"""Tests for the subsampled-Gaussian RDP kernel: agreement with
high-precision reference values, input validation, and analytic edge
cases."""

from __future__ import annotations

import functools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idpacct import kernel
from idpacct.kernel import sgm_rdp_matrix
from idpacct.rdp_math import default_orders

from conftest import max_rel_diff

# 60-digit arbitrary-precision evaluations of
#   rho_alpha = log(sum_k C(alpha,k) (1-q)^(alpha-k) q^k e^{k(k-1)/(2 s^2)})
#               / (alpha - 1)
# spanning tiny/huge rho, tiny/huge noise, and the q = 1 Gaussian edge.
_REFERENCE_RHO = [
    (0.01, 1.0, 2, 0.00017181342207454793),
    (0.01, 1.0, 16, 3.0878507836962446),
    (0.01, 1.0, 64, 27.32173187455178),
    (0.1, 0.5, 2, 0.42916959059789968),
    (0.1, 0.5, 8, 13.368474179442488),
    (0.1, 2.0, 32, 1.6272023010194358),
    (0.001, 4.0, 2, 6.4494456838091903e-8),
    (0.001, 1.0, 13, 1.220375664755585e-5),
    (0.5, 0.5, 4, 7.0758119556209987),
    (0.5, 8.0, 256, 1.3233661351161786),
    (1.0, 1.0, 4, 2.0),
    (0.0001, 1.0, 128, 54.717137262890147),
    (0.3, 0.1, 3, 148.1940407935111),
    (0.2, 0.001, 2, 999996.78112417513),
    (1e-06, 10.0, 2, 1.0050167084168007e-14),
    (0.02, 0.3, 32, 173.73956048185195),
]


@pytest.mark.parametrize("q,sigma,alpha,expected", _REFERENCE_RHO)
def test_reference_values_default_backend(q, sigma, alpha, expected):
    got = sgm_rdp_matrix(q, np.asarray([sigma]), np.asarray([alpha]))[0, 0]
    assert got == pytest.approx(expected, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("q,sigma,alpha,expected", _REFERENCE_RHO)
def test_reference_values_numpy_backend(q, sigma, alpha, expected):
    # The same values read out of a batched call: an infinite multiplier
    # (masked out of the per-order pass) and neighbouring rows and orders
    # must not change the entry.
    sigmas = np.asarray([np.inf, sigma, 2.0 * sigma])
    orders = np.asarray([2, alpha, alpha + 1], dtype=np.int64)
    got = sgm_rdp_matrix(q, sigmas, orders)
    assert got[1, 1] == pytest.approx(expected, rel=1e-13, abs=0.0)
    assert np.all(got[0] == 0.0)


# The same 60-digit evaluation over a (q, multiplier, order) grid that spans
# the kernel's regimes: multipliers from 1e-4 (every term in log space) to
# 1e6 (rho near 1e-24), sampling rates from 1e-6 to 0.9, orders up to 1024.
_REGIME_ORDERS = (2, 3, 16, 64, 256, 512, 1024)
_REGIME_RHO = {
    (1e-06, 0.0001): (99999972.36897887, 149999979.27673414, 799999985.2634553, 3199999985.965195, 12799999986.13031, 25599999986.15745, 51199999986.17098),
    (1e-06, 0.01): (9972.368978884071, 14979.276734163053, 79985.26345540484, 319985.96519562363, 1279986.1303109692, 2559986.1574532175, 5119986.170984544),
    (1e-06, 0.3): (6.690949285284611e-08, 0.0001498575280768792, 74.152344293727, 341.52075117921095, 1408.3525331914818, 2830.6018976622963, 5675.059873433019),
    (1e-06, 0.9): (2.4368931225307394e-12, 3.6553558271409925e-12, 1.9496350530310076e-11, 25.47136846316151, 144.15500232728408, 302.20683593390123, 618.2697499762284),
    (1e-06, 1.0): (1.7182818284575688e-12, 2.5774297080276433e-12, 1.3746774746224037e-11, 17.96519562365534, 114.1303109692594, 242.15745321785184, 498.1709845441296),
    (1e-06, 1.7): (4.13431960121147e-13, 6.201482319035752e-13, 3.3074774630674226e-12, 1.323020859125489e-11, 30.420968408705765, 74.73876809674458, 163.33361430191508),
    (1e-06, 8.0): (1.5747708586685623e-14, 2.362156325396619e-14, 1.2598169661417848e-13, 5.039271693695851e-13, 2.0157148041154486e-12, 4.0314459460850065e-12, 8.062957244650382e-12),
    (1e-06, 1000.0): (1.0000005000001666e-18, 1.5000007500017498e-18, 8.000004000113333e-18, 3.200001600198933e-17, 1.2800006403253334e-16, 2.560001281306027e-16, 5.120002565233495e-16),
    (1e-06, 1000000.0): (1.0000000000004999e-24, 1.5000000000007499e-24, 8.000000000003999e-24, 3.2000000000016e-23, 1.2800000000006403e-22, 2.560000000001281e-22, 5.120000000002565e-22),
    (0.001, 0.0001): (99999986.18448943, 149999989.63836706, 799999992.6317276, 3199999992.9825974, 12799999993.065155, 25599999993.078724, 51199999993.08549),
    (0.001, 0.01): (9986.184489442036, 14989.638367081527, 79992.63172770242, 319992.9825978118, 1279993.0651554845, 2559993.078726609, 5119993.085492272),
    (0.001, 0.3): (0.06476614687694766, 6.305035752013011, 81.52061659130796, 348.53815336738325, 1415.287377706852, 2837.523171053371, 5681.974381160954),
    (0.001, 0.9): (2.4368901533144873e-06, 3.6714695578701505e-06, 2.508280576670684, 32.488770651333844, 151.08984684265437, 309.1281093249753, 625.1842577041635),
    (0.001, 1.0): (1.7182803522145153e-06, 2.5843814093686965e-06, 0.6320600079259339, 24.98259781182767, 121.0651554846297, 249.07872660892593, 505.0854922720648),
    (0.001, 1.7): (4.134318746582632e-07, 6.204392773479086e-07, 3.329419401026552e-06, 4.055262517698433, 37.35581292407607, 81.66004148781866, 170.24812202985026),
    (0.001, 8.0): (1.5747708462690585e-08, 2.362193626016103e-08, 1.260095683181087e-07, 5.044214133369382e-07, 2.023847248686555e-06, 4.064283449797586e-06, 1.0856066755133522),
    (0.001, 1000.0): (1.0000004999996666e-12, 1.500000751498002e-12, 8.000004111885484e-12, 3.200001798200814e-11, 1.280000964794996e-10, 2.56000258429617e-10, 5.120007787419732e-10),
    (0.001, 1000000.0): (1.0000000000005e-18, 1.5000000000007516e-18, 8.000000000004113e-18, 3.2000000000017986e-17, 1.280000000000965e-16, 2.560000000002584e-16, 5.120000000007787e-16),
    (0.05, 0.0001): (99999994.00853544, 149999995.50640157, 799999996.8045522, 3199999996.956716, 12799999996.99252, 25599999996.9984, 51199999997.001335),
    (0.05, 0.01): (9994.008535452891, 14995.506401589668, 79996.80455224153, 319996.9567164205, 1279996.9925197568, 2559996.9984052368, 5119997.001339347),
    (0.05, 0.3): (5.125592044624939, 12.173068262714787, 85.69344113043131, 352.51227197607216, 1419.214741978968, 2841.4428496811183, 5685.890228235791),
    (0.05, 0.9): (0.006073750185018499, 0.011033627049397815, 6.681095635196837, 36.46288926002275, 155.01721111477048, 313.04778795272324, 629.1001047790007),
    (0.05, 1.0): (0.004286504370418978, 0.007261243252781458, 4.804558441609214, 28.95671642051658, 124.99251975674579, 252.99840523667388, 509.00133934690194),
    (0.05, 1.7): (0.0010330461243663173, 0.001584322383646074, 0.014536573173427126, 8.0293807869589, 41.28317719619216, 85.57972011556663, 174.16396910468745),
    (0.05, 8.0): (3.936849651728586e-05, 5.9097156854558313e-05, 0.00031830754117248783, 0.0013223656029174875, 0.006350057371520118, 1.0050472221016955, 5.001341520900222),
    (0.05, 1000.0): (2.5000012468754138e-09, 3.75000204843836e-09, 2.0000023275031983e-08, 8.000027550122797e-08, 3.200040204662895e-07, 6.400158237141734e-07, 1.2800627800491429e-06),
    (0.05, 1000000.0): (2.500000000001247e-15, 3.7500000000020485e-15, 2.0000000000023278e-14, 8.000000000027551e-14, 3.2000000000402044e-13, 6.400000000158233e-13, 1.280000000062776e-12),
    (0.3, 0.0001): (99999997.59205438, 149999998.19404078, 799999998.7157623, 3199999998.776916, 12799999998.791304, 25599999998.793667, 51199999998.794846),
    (0.3, 0.01): (9997.592054391347, 14998.19404079351, 79998.71576234205, 319998.77691651625, 1279998.7913057336, 2559998.7936710846, 5119998.794850292),
    (0.3, 0.3): (8.70331660502109, 14.860707460959583, 87.60465123094123, 354.3324720717959, 1421.0135279559186, 2843.238115528956, 5687.683739180551),
    (0.3, 0.9): (0.19829363879584094, 0.4640508036012619, 8.592305574498031, 38.28308935574649, 156.815997091721, 314.84305380056037, 630.8936157237607),
    (0.3, 1.0): (0.14379325315634015, 0.3049003840074933, 6.715763103415953, 30.77691651624032, 126.79130573369632, 254.793671084511, 510.794850291662),
    (0.3, 1.7): (0.03653333269715124, 0.05994801118917249, 1.4982990283826145, 9.849580876910071, 43.08196317314268, 87.37498596340373, 175.9574800494475),
    (0.3, 8.0): (0.0014162903599577975, 0.0021314872878192242, 0.011885458277813678, 0.057685621723531456, 0.8381732029107466, 2.7944699573141794, 6.794850558640414),
    (0.3, 1000.0): (9.000004095001119e-08, 1.3500008977505061e-07, 7.200024444094952e-07, 2.880038808616954e-06, 1.1520619758003088e-05, 2.3042478384191232e-05, 4.6089913192849984e-05),
    (0.3, 1000000.0): (9.000000000004094e-14, 1.3500000000008977e-13, 7.200000000024443e-13, 2.880000000038808e-12, 1.1520000000619718e-11, 2.3040000002478067e-11, 4.6080000009910655e-11),
    (0.9, 0.0001): (99999999.78927895, 149999999.8419592, 799999999.8876153, 3199999999.8929667, 12799999999.894224, 25599999999.894432, 51199999999.89453),
    (0.9, 0.01): (9999.789278968685, 14999.841959226513, 79999.88761544996, 319999.8929670952, 1279999.894226306, 2559999.894433299, 5119999.894536492),
    (0.9, 0.3): (10.900393585486006, 16.508625893217157, 88.77650433885388, 355.4485226507603, 1422.1164485280717, 2844.3388777438245, 5688.783425381525),
    (0.9, 0.9): (1.0898686506498176, 1.7081851790846958, 9.76415866091625, 39.39913993471092, 157.91891766387408, 315.9438160154294, 631.9933019247345),
    (0.9, 1.0): (0.8720496828142521, 1.3649351639554317, 7.88761548622009, 31.89296709520475, 127.8942263058494, 255.89443329938, 511.8945364926358),
    (0.9, 1.7): (0.28884131604286195, 0.4439395589072092, 2.6564427866548903, 10.965631455104823, 44.184883745295764, 88.47574817827277, 177.05716625042123),
    (0.9, 8.0): (0.012674975985865467, 0.01903894059663744, 0.10331364859036606, 0.4351256742606176, 1.8963080383427946, 3.894471239132691, 7.894536505348996),
    (0.9, 1000.0): (8.100000769499841e-07, 1.2150002247749187e-06, 6.480008780379652e-06, 2.5920147094599907e-05, 0.00010368237988319952, 0.00020736953679143368, 0.00041475817948082705),
    (0.9, 1000000.0): (8.10000000000077e-13, 1.2150000000002247e-12, 6.4800000000087806e-12, 2.59200000001471e-11, 1.0368000000237998e-10, 2.0736000000953754e-10, 4.147200000381854e-10),
}


@pytest.mark.parametrize("q", sorted({q for q, _ in _REGIME_RHO}))
def test_reference_values_across_regimes(q):
    sigmas = [s for qq, s in _REGIME_RHO if qq == q]
    expected = np.asarray([_REGIME_RHO[q, s] for s in sigmas])
    got = sgm_rdp_matrix(q, np.asarray(sigmas), np.asarray(_REGIME_ORDERS))
    assert max_rel_diff(got, expected) <= 1e-10


def test_batch_matches_single_row_calls(rng):
    # more than one chunk of rows, unsorted, with zero-cost (s = inf) and
    # all-log-space (s = 1e-200, where 1/s^2 overflows) rows mixed in, on an
    # unsorted order grid
    orders = np.asarray([256, 2, 64, 3])
    n = 2 * (kernel._CHUNK_CELLS // (orders.max() - 1)) + 37
    sigmas = np.geomspace(1e-3, 1e4, n)
    sigmas[rng.choice(n, 12, replace=False)] = np.inf
    sigmas[rng.choice(n, 5, replace=False)] = 1e-200
    rng.shuffle(sigmas)
    got = sgm_rdp_matrix(0.05, sigmas, orders)
    single = np.vstack([sgm_rdp_matrix(0.05, sigmas[i:i + 1], orders)
                        for i in range(n)])
    tiny = sigmas == 1e-200
    assert max_rel_diff(got[~tiny], single[~tiny]) <= 1e-14
    assert np.all(got[np.isinf(sigmas)] == 0.0)
    assert np.all(got[tiny] == np.inf) and np.all(single[tiny] == np.inf)


@pytest.mark.parametrize("q", [1e-4, 0.1, 0.9])
@pytest.mark.parametrize("orders", [default_orders(), np.asarray([256, 2, 64, 3, 65, 128, 5])],
                         ids=["default", "unsorted"])
def test_order_groups_match_single_order_calls(q, orders):
    # a single-order call has no column past k = a, so a log-space group
    # that let such terms into an order would show here
    sigmas = np.concatenate([np.geomspace(1e-3, 1e4, 300), [np.inf, 1e-200]])
    got = sgm_rdp_matrix(q, sigmas, orders)
    for j, a in enumerate(orders):
        single = sgm_rdp_matrix(q, sigmas, [a])[:, 0]
        assert max_rel_diff(got[:-2, j], single[:-2]) <= 1e-14, a
        assert single[-2] == 0.0 and single[-1] == np.inf
    assert np.all(got[-2] == 0.0) and np.all(got[-1] == np.inf)


def test_order_tables_are_cached_read_only():
    sigmas = np.geomspace(1e-2, 1e2, 200)
    orders, orders2 = default_orders(), np.asarray([3, 7, 100])
    kernel._order_tables.cache_clear()
    first = sgm_rdp_matrix(0.01, sigmas, orders)
    sgm_rdp_matrix(0.2, sigmas, orders)
    sgm_rdp_matrix(0.01, sigmas, orders2)
    again = sgm_rdp_matrix(0.01, sigmas, orders)
    assert np.array_equal(first, again)
    assert kernel._order_tables.cache_info().hits >= 1
    tables = kernel._order_tables(0.01, tuple(orders.tolist()))
    for table in (tables.kk, tables.log_w, tables.w_t, tables.denom):
        with pytest.raises(ValueError):
            table[0] = 1.0


@functools.lru_cache(maxsize=None)
def _exact_log_binomials(a_max):
    # out[a, k] = math.log(math.comb(a, k)), with each exact C(a, k) built
    # from C(a, k - 1) (many times faster than math.comb per cell)
    out = np.full((a_max + 1, a_max + 1), -np.inf)
    for a in range(2, a_max + 1):
        c = a
        for k in range(2, a + 1):
            c = c * (a - k + 1) // k
            out[a, k] = math.log(c)
    return out


# bounds: the largest error of the scipy-gammaln log-binomials these tables
# replaced, on the default grid and at a = 1024 (2.44e-12 over 2..1024).
# At smaller q the k log q term dominates, and one ulp of it already
# exceeds the default grid's bound.
@pytest.mark.parametrize("q", [0.01, 0.1, 0.5, 0.9])
@pytest.mark.parametrize("orders, bound", [(tuple(default_orders().tolist()), 4.12e-13),
                                           (tuple(range(2, 1025)), 1.83e-12)],
                         ids=["default", "2..1024"])
def test_order_table_log_weights_match_exact_binomials(q, orders, bound):
    log_w = kernel._order_tables(q, orders).log_w
    log_c = _exact_log_binomials(max(orders))
    k = np.arange(2, max(orders) + 1)
    for row, a in zip(log_w, orders):
        ref = log_c[a, 2:a + 1] + (a - k[:a - 1]) * math.log1p(-q) + k[:a - 1] * math.log(q)
        assert np.max(np.abs(row[:a - 1] - ref)) <= bound, a
        assert np.all(row[a - 1:] == -np.inf), a


def test_zero_sampling_rate_gives_zero_curve():
    out = sgm_rdp_matrix(0.0, np.asarray([0.5, 1.0, 2.0]), np.asarray([2, 3, 64]))
    assert np.all(out == 0.0)


def test_infinite_multiplier_gives_zero_curve():
    out = sgm_rdp_matrix(0.3, np.asarray([np.inf]), np.asarray([2, 17]))
    assert np.all(out == 0.0)


@pytest.mark.parametrize("q", [0.3, 1.0])
def test_tiny_multiplier_gives_infinite_curve_quietly(q):
    # 1/s^2 overflows (1e-160) or s^2 underflows to zero (1e-200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = sgm_rdp_matrix(q, np.asarray([1e-160, 1e-200]), np.asarray([2, 17]))
    assert np.all(out == np.inf)


def test_order_without_large_term_keeps_small_sum():
    # s^2 = 1/2 gives e_k = k(k-1), first above 36 at k = 7: orders 7..9
    # share a log-space pass in which order 2 has no large term at all.
    # rho_2 = log1p(q^2 expm1(2)) is about 6.4e-300, so a log-space term of
    # e^-700 wrongly added there would show at 4.6e-5 relative.
    q = 1e-150
    got = sgm_rdp_matrix(q, [2 ** -0.5], np.arange(2, 10))
    assert got[0, 0] == pytest.approx(math.log1p(q * q * math.expm1(2.0)), rel=1e-13, abs=0.0)


def _log_sum_exp_rho(q, sigma, alpha):
    """rho_alpha from every binomial term k = 0..alpha in log space, with
    math.lgamma and math.fsum; also returns the terms and their maximum."""
    t = [math.lgamma(alpha + 1) - math.lgamma(k + 1) - math.lgamma(alpha - k + 1)
         + (alpha - k) * math.log1p(-q) + k * math.log(q) + k * (k - 1) / (2 * sigma ** 2)
         for k in range(alpha + 1)]
    m = max(t)
    return (m + math.log(math.fsum(math.exp(v - m) for v in t))) / (alpha - 1), t, m


@pytest.mark.parametrize("q,sigma,alpha", [(0.1, 0.3, 256), (0.9, 0.5, 128)])
def test_terms_far_below_the_maximum_do_not_move_rho(q, sigma, alpha):
    # nearly every large term lies more than 700 nats below the maximum,
    # where the log-space pass raises it to -700 before exp
    expected, t, m = _log_sum_exp_rho(q, sigma, alpha)
    large = [k for k in range(2, alpha + 1) if k * (k - 1) / (2 * sigma ** 2) > 36]
    assert sum(t[k] < m - 700 for k in large) >= len(large) - 2
    got = sgm_rdp_matrix(q, [sigma], [alpha])[0, 0]
    # the reference itself is within 1.1e-16 of a 60-digit evaluation here
    assert got == pytest.approx(expected, rel=1e-14, abs=0.0)


def test_oversized_order_grid_rejected_before_allocating():
    # the per-(q, orders) tables hold orders x (largest order - 1) cells
    cap = kernel._MAX_TABLE_CELLS
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"2 orders x 100000001 binomial terms"):
            sgm_rdp_matrix(0.01, [1.0], [2, 100_000_002])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    with pytest.raises(ValueError, match=rf"2 orders x {cap // 2 + 1} binomial terms"):
        sgm_rdp_matrix(0.01, [1.0], [2, cap // 2 + 2])
    with pytest.raises(ValueError, match=r"2999 orders x 2999 binomial terms"):
        sgm_rdp_matrix(0.5, [1.0], np.arange(2, 3001))
    # q = 0 and q = 1 build no table
    assert np.all(sgm_rdp_matrix(0.0, [1.0], [2, 100_000_002]) == 0.0)
    assert sgm_rdp_matrix(1.0, [1.0], [2, 100_000_002])[0, 1] == 50_000_001.0


def test_full_sampling_reduces_to_gaussian():
    sigmas = np.asarray([0.5, 1.0, 3.0])
    orders = np.asarray([2, 5, 33])
    out = sgm_rdp_matrix(1.0, sigmas, orders)
    expected = orders[None, :] / (2.0 * sigmas[:, None] ** 2)
    assert max_rel_diff(out, expected) <= 1e-14


@pytest.mark.parametrize("bad_call", [
    lambda: sgm_rdp_matrix(-0.1, np.asarray([1.0]), np.asarray([2])),
    lambda: sgm_rdp_matrix(1.1, np.asarray([1.0]), np.asarray([2])),
    lambda: sgm_rdp_matrix(0.5, np.asarray([0.0]), np.asarray([2])),
    lambda: sgm_rdp_matrix(0.5, np.asarray([-1.0]), np.asarray([2])),
    lambda: sgm_rdp_matrix(0.5, np.asarray([np.nan]), np.asarray([2])),
    lambda: sgm_rdp_matrix(0.5, np.asarray([1.0]), np.asarray([1])),
    lambda: sgm_rdp_matrix(0.5, np.asarray([1.0]), np.asarray([2.5])),
    lambda: sgm_rdp_matrix(0.5, np.asarray([[1.0]]), np.asarray([2])),
    lambda: sgm_rdp_matrix(True, np.asarray([1.0]), np.asarray([2])),
    lambda: sgm_rdp_matrix(np.bool_(False), np.asarray([1.0]), np.asarray([2])),
    lambda: sgm_rdp_matrix(np.asarray([0.5]), np.asarray([1.0]), np.asarray([2])),
    lambda: sgm_rdp_matrix([0.1, 0.2], np.asarray([1.0]), np.asarray([2])),
])
def test_rejects_bad_inputs(bad_call):
    with pytest.raises((ValueError, TypeError)):
        bad_call()


@settings(max_examples=60, deadline=None)
@given(q=st.floats(0.0, 1.0), sigma=st.floats(1e-3, 1e3),
       alpha=st.integers(2, 300))
def test_rho_nonnegative_finite_and_monotone_in_order(q, sigma, alpha):
    orders = np.asarray(sorted({2, alpha, alpha + 1, 2 * alpha}))
    row = sgm_rdp_matrix(q, np.asarray([sigma]), orders)[0]
    assert np.all(np.isfinite(row)) and np.all(row >= 0.0)
    # Renyi divergence is nondecreasing in the order
    assert np.all(np.diff(row) >= -1e-12 * np.maximum(row[:-1], 1.0))


@settings(max_examples=40, deadline=None)
@given(q=st.floats(1e-6, 1.0), sigma=st.floats(1e-2, 1e2))
def test_rho_monotone_in_sampling_rate(q, sigma):
    orders = np.asarray([2, 8, 32])
    lo = sgm_rdp_matrix(q * 0.5, np.asarray([sigma]), orders)[0]
    hi = sgm_rdp_matrix(q, np.asarray([sigma]), orders)[0]
    assert np.all(hi >= lo - 1e-12 * np.maximum(hi, 1.0))


@settings(max_examples=40, deadline=None)
@given(q=st.floats(1e-6, 1.0), sigma=st.floats(1e-2, 1e2))
def test_rho_decreasing_in_noise(q, sigma):
    orders = np.asarray([2, 8, 32])
    noisy = sgm_rdp_matrix(q, np.asarray([sigma * 2]), orders)[0]
    base = sgm_rdp_matrix(q, np.asarray([sigma]), orders)[0]
    assert np.all(noisy <= base + 1e-12 * np.maximum(base, 1.0))
