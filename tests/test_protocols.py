"""Topology bookkeeping, backend plumbing, and the four scheme compositions."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fbrelay import (
    Backend,
    BackendKind,
    DomainError,
    EstimateMethod,
    FbrelayError,
    LinConvention,
    NumericError,
    ProtocolKind,
    SnrValue,
    TopologyConfig,
    fading_outage_mc,
    link_outages,
    protocol_outage,
    rayleigh_outage,
)
from fbrelay import protocols
from fbrelay._cells import Grid
from fbrelay._estimates import lazy_binding
from fbrelay.analysis import _coarse_grid

TEN_DB = SnrValue.from_db(10.0)


def outage(protocol: str, c: TopologyConfig, backend: Backend) -> float:
    return protocol_outage(protocol, c, backend).value


def cfg(**kw) -> TopologyConfig:
    base = dict(total_snr=TEN_DB, eta=0.5, beta=0.5, path_loss_exp=0.0)
    base.update(kw)
    return TopologyConfig(**base)


class TestTopologyConfig:
    def test_snr_budget_split(self):
        c = cfg(eta=0.3)
        assert c.omega_sd == pytest.approx(3.0, rel=1e-12)
        assert c.omega_sr == pytest.approx(3.0, rel=1e-12)  # alpha = 0: no geometry
        assert c.omega_rd == pytest.approx(7.0, rel=1e-12)

    def test_path_loss_shortens_both_hops(self):
        c = cfg(eta=0.5, beta=0.5, path_loss_exp=3.0)
        # half distance at exponent 3: each hop sees an 8x SNR gain
        assert c.omega_sr == pytest.approx(8.0 * c.omega_sd, rel=1e-12)
        assert c.omega_rd == pytest.approx(8.0 * (1.0 - c.eta) * float(TEN_DB), rel=1e-12)

    def test_relay_silent_detection(self):
        assert cfg(eta=1.0).relay_silent
        assert not cfg(eta=0.999).relay_silent

    def test_rates_follow_framing(self):
        c = cfg(n_s=500, n_r=250, k=125)
        assert c.rate_s == 0.25
        assert c.rate_r == 0.5

    @pytest.mark.parametrize(
        "kw",
        [dict(eta=0.0), dict(eta=1.2), dict(beta=0.0), dict(beta=1.0),
         dict(path_loss_exp=-1.0), dict(path_loss_exp=math.inf),
         dict(total_snr=0.0), dict(n_s=50), dict(k=0)],
    )
    def test_validation(self, kw):
        with pytest.raises(DomainError):
            cfg(**kw)

    def test_short_blocklength_override(self):
        with pytest.warns(UserWarning):
            c = cfg(n_s=80, n_r=80, k=40, allow_short=True)
        assert c.rate_s == 0.5


class TestBackend:
    def test_factories(self):
        assert Backend.closed_form().kind is BackendKind.CLOSED_FORM
        assert Backend.quadrature().label == "quad"
        mc = Backend.monte_carlo(100_000, 42)
        assert (mc.trials, mc.seed) == (100_000, 42)

    def test_mc_requires_sampling_parameters(self):
        with pytest.raises(DomainError):
            Backend(BackendKind.MONTE_CARLO)
        with pytest.raises(DomainError):
            Backend(BackendKind.MONTE_CARLO, trials=0, seed=1)

    def test_mc_trials_below_the_oracle_minimum_rejected(self):
        # the oracle's own rule and message, at construction instead of per cell
        for make in (lambda: Backend.monte_carlo(5000, 1),
                     lambda: fading_outage_mc(500, 0.5, 10.0, 5000, 1)):
            with pytest.raises(DomainError, match=r"^trials must be >= 10000, got 5000$"):
                make()
        assert Backend.monte_carlo(10_000, 1).trials == 10_000

    def test_deterministic_backends_take_none(self):
        with pytest.raises(DomainError):
            Backend(BackendKind.CLOSED_FORM, trials=1000)
        with pytest.raises(DomainError):
            Backend(BackendKind.QUAD_TRUE_Q, seed=3)


class TestProtocolKind:
    def test_parse(self):
        assert ProtocolKind.parse("MRC") is ProtocolKind.MRC
        assert ProtocolKind.parse(" dt ") is ProtocolKind.DT
        assert ProtocolKind.parse(ProtocolKind.SC) is ProtocolKind.SC
        with pytest.raises(DomainError):
            ProtocolKind.parse("amplify")


class TestLinkOutages:
    """Reference topology: 10 dB budget, even split, no geometry."""

    def test_frozen_closed_quadruple(self):
        links = link_outages(cfg(), Backend.closed_form(), "nats")
        # all three single links see mean 5.0 here
        for eps in (links.eps_sd, links.eps_sr, links.eps_rd):
            assert eps == pytest.approx(0.07947095483421393, rel=1e-13)
        assert links.eps_srd == pytest.approx(0.003278086148669243, rel=1e-13)

    def test_frozen_quad_quadruple(self):
        links = link_outages(cfg(), Backend.quadrature(), "nats")
        for eps in (links.eps_sd, links.eps_sr, links.eps_rd):
            assert eps == pytest.approx(0.07985683730813627, rel=1e-12)
        assert links.eps_srd == pytest.approx(0.0033140488521273023, rel=1e-12)

    def test_combined_link_beats_direct_link(self):
        for backend in (Backend.closed_form(), Backend.quadrature()):
            links = link_outages(cfg(), backend, "nats")
            assert links.eps_srd <= links.eps_sd

    def test_method_tags(self):
        links = link_outages(cfg(), Backend.quadrature())
        assert links.sd.method is EstimateMethod.QUAD_TRUE_Q
        links_mc = link_outages(cfg(), Backend.monte_carlo(50_000, 3))
        assert links_mc.srd.method is EstimateMethod.MONTE_CARLO
        assert links_mc.srd.std_error is not None


class TestCompositions:
    def test_frozen_protocol_values(self):
        backend = Backend.closed_form()
        assert outage("dt", cfg(), backend) == pytest.approx(0.0405665829756156, rel=1e-13)
        assert outage("df", cfg(), backend) == pytest.approx(0.15262627700616618, rel=1e-13)
        assert outage("sc", cfg(), backend) == pytest.approx(0.012129355966471257, rel=1e-13)
        assert outage("mrc", cfg(), backend) == pytest.approx(0.009333206174667357, rel=1e-13)

    def test_compositions_reconstruct_from_links(self):
        c = cfg(eta=0.35, beta=0.6, path_loss_exp=2.0)
        for backend in (Backend.closed_form(), Backend.quadrature(),
                        Backend.monte_carlo(20_000, 5)):
            links = link_outages(c, backend)
            sd, sr, rd, srd = links.eps_sd, links.eps_sr, links.eps_rd, links.eps_srd
            assert outage("df", c, backend) == sr + (1 - sr) * rd
            assert outage("sc", c, backend) == sd * sr + (1 - sr) * sd * rd
            assert outage("mrc", c, backend) == sd * sr + (1 - sr) * srd

    def test_dt_uses_the_full_budget_and_ignores_eta(self):
        backend = Backend.closed_form()
        assert outage("dt", cfg(eta=0.2), backend) == outage("dt", cfg(eta=0.9), backend)
        assert outage("dt", cfg(), backend) == pytest.approx(
            rayleigh_outage(500, 0.5, float(TEN_DB)), rel=1e-15
        )

    def test_df_symmetric_under_mirrored_topology(self):
        # a + b - a*b is symmetric, so swapping (eta, beta) -> (1-eta, 1-beta)
        # swaps the two hop SNRs and leaves DF unchanged
        backend = Backend.closed_form()
        a = outage("df", cfg(eta=0.3, beta=0.4, path_loss_exp=3.0), backend)
        b = outage("df", cfg(eta=0.7, beta=0.6, path_loss_exp=3.0), backend)
        assert a == pytest.approx(b, rel=1e-12)

    def test_mrc_never_behind_sc(self):
        for eta in (0.3, 0.5, 0.8):
            c = cfg(eta=eta, path_loss_exp=3.0)
            quad, closed = Backend.quadrature(), Backend.closed_form()
            assert outage("mrc", c, quad) <= outage("sc", c, quad) + 1e-12
            assert outage("mrc", c, closed) <= outage("sc", c, closed) + 1e-6

    def test_protocol_ordering_with_geometry(self):
        c = cfg(path_loss_exp=3.0)
        backend = Backend.closed_form()
        vals = {p: protocol_outage(p, c, backend).value for p in ("dt", "df", "sc", "mrc")}
        assert vals["mrc"] < vals["sc"] < vals["df"]


class TestSilentRelay:
    """eta = 1 sends the whole budget through the source."""

    @pytest.mark.parametrize(
        "backend",
        [Backend.closed_form(), Backend.quadrature(), Backend.monte_carlo(50_000, 17)],
        ids=["closed", "quad", "mc"],
    )
    def test_degeneracy_across_backends(self, backend):
        links = link_outages(cfg(eta=1.0), backend)
        assert links.eps_rd == 1.0
        assert links.eps_srd == links.eps_sd
        assert outage("df", cfg(eta=1.0), backend) == pytest.approx(1.0, abs=1e-12)
        assert outage("sc", cfg(eta=1.0), backend) == pytest.approx(links.eps_sd, rel=1e-12)
        assert outage("mrc", cfg(eta=1.0), backend) == pytest.approx(links.eps_sd, rel=1e-12)

    def test_mc_silent_forward_hop_has_zero_spread(self):
        links = link_outages(cfg(eta=1.0), Backend.monte_carlo(50_000, 17))
        assert links.rd.std_error == 0.0
        assert links.rd.method is EstimateMethod.MONTE_CARLO


class TestMixedFraming:
    def test_closed_form_refuses(self):
        c = cfg(n_s=500, n_r=250, k=125)
        with pytest.raises(DomainError, match="blocklength"):
            outage("mrc", c, Backend.closed_form())

    def test_oracles_accept_at_source_framing(self):
        from fbrelay import HypoexpParams, fading_outage_quadrature

        c = cfg(n_s=500, n_r=250, k=125)
        links = link_outages(c, Backend.quadrature())
        direct = fading_outage_quadrature(
            c.n_s, c.rate_s, HypoexpParams(c.omega_sd, c.omega_rd)
        ).value
        assert links.eps_srd == direct
        mc = link_outages(c, Backend.monte_carlo(50_000, 23))
        assert 0.0 <= mc.eps_srd <= 1.0

    def test_df_and_sc_still_use_their_own_framings(self):
        # DF has no combined link, so mixed framing is fine closed-form
        c = cfg(n_s=500, n_r=250, k=125)
        val = outage("df", c, Backend.closed_form())
        assert 0.0 < val < 1.0


class TestMonteCarloProtocols:
    def test_pinned_protocol_estimate(self):
        est = protocol_outage("df", cfg(), Backend.monte_carlo(100_000, 42), "nats")
        assert est.value == 0.15362646991270612
        assert est.std_error == 0.0010799786337094685

    def test_tracks_closed_form(self):
        closed = outage("df", cfg(), Backend.closed_form())
        est = protocol_outage("df", cfg(), Backend.monte_carlo(100_000, 42))
        assert abs(est.value - closed) <= 4.0 * est.std_error

    def test_composition_spread_never_exceeds_link_sum(self):
        links = link_outages(cfg(), Backend.monte_carlo(100_000, 42))
        est = protocol_outage("mrc", cfg(), Backend.monte_carlo(100_000, 42))
        bound = sum(x.std_error for x in (links.sd, links.sr, links.srd))
        assert 0.0 < est.std_error <= bound


class TestLazyOracleBindings:
    """The oracle names the protocol layer calls import the oracles on first
    use, and a wrapper bound over them (a tracer's, a test's) sees every call."""

    def test_stand_in_rebinds_itself_on_first_call(self):
        namespace = {}
        namespace["sqrt"] = stand_in = lazy_binding(namespace, "math", "sqrt")
        assert stand_in(4.0) == 2.0
        assert namespace["sqrt"] is math.sqrt

    def test_stand_in_leaves_a_wrapper_bound(self):
        namespace = {}
        stand_in = lazy_binding(namespace, "math", "sqrt")

        def wrapper(x):
            return stand_in(x)

        namespace["sqrt"] = wrapper
        assert wrapper(9.0) == 3.0
        assert namespace["sqrt"] is wrapper

    @pytest.mark.parametrize("backend,name", [
        (Backend.quadrature(), "fading_outage_quadrature"),
        (Backend.monte_carlo(20_000, 7), "fading_outage_mc"),
    ])
    def test_wrapped_oracle_sees_every_link(self, monkeypatch, backend, name):
        inner = getattr(protocols, name)
        calls = []

        def wrapper(*args, **kwargs):
            calls.append(args[:2])
            return inner(*args, **kwargs)

        monkeypatch.setattr(protocols, name, wrapper)
        for _ in range(2):
            protocol_outage("mrc", cfg(), backend)
        assert len(calls) == 6  # direct, broadcast and combined links, twice
        assert getattr(protocols, name) is wrapper


@settings(max_examples=25, deadline=None)
@given(
    st.floats(min_value=0.05, max_value=0.95),
    st.floats(min_value=0.1, max_value=0.9),
    st.sampled_from([0.0, 2.0, 3.0]),
)
def test_compositions_land_in_unit_interval(eta, beta, alpha):
    c = cfg(eta=eta, beta=beta, path_loss_exp=alpha)
    for proto in ("dt", "df", "sc", "mrc"):
        v = protocol_outage(proto, c, Backend.closed_form()).value
        assert 0.0 <= v <= 1.0


_BLOCKLENGTHS = st.one_of(st.integers(1, 120), st.integers(100, 3000), st.integers(100, 3000),
                          st.sampled_from([2 ** 53, 2 ** 53 + 1, 2 ** 63 + 1]))
_COLUMNS = {
    "total_snr": st.floats(1e-4, 1e6),
    "eta": st.one_of(st.just(1.0), st.floats(0.01, 1.0)),
    "n": _BLOCKLENGTHS,
    "k": st.integers(1, 4000),
}


@st.composite
def batches(draw):
    """A valid base topology and 1-3 values of one of its fields."""
    n_s = draw(_BLOCKLENGTHS)
    base = TopologyConfig(
        total_snr=SnrValue.from_db(draw(st.floats(-40.0, 60.0))),
        eta=draw(_COLUMNS["eta"]),
        beta=draw(st.floats(0.01, 0.99)),
        path_loss_exp=draw(st.one_of(st.sampled_from([0.0, 2.0]), st.floats(0.0, 2000.0))),
        n_s=n_s,
        n_r=draw(st.one_of(st.just(n_s), _BLOCKLENGTHS)),  # mixed framing
        k=draw(st.integers(1, 4000)),
        allow_short=True,
    )
    field = draw(st.sampled_from(sorted(_COLUMNS)))
    return base, field, draw(st.lists(_COLUMNS[field], min_size=1, max_size=3))


def _per_cell(protocol, base, field, value, backend, convention):
    if field == "n":
        topology = dataclasses.replace(base, n_s=value, n_r=value)
    elif field == "total_snr":
        topology = dataclasses.replace(base, total_snr=SnrValue(value))
    else:
        topology = dataclasses.replace(base, **{field: value})
    try:
        est = protocol_outage(protocol, topology, backend, convention)
    except FbrelayError as exc:
        return [type(exc), str(exc)]
    return [est.value.hex(), est.std_error]


@pytest.mark.filterwarnings("ignore:blocklength n=")
@pytest.mark.parametrize("backend, convention, examples", [
    (Backend.closed_form(), "nats", 60),
    (Backend.closed_form(), "bits", 60),
    (Backend.quadrature(), "nats", 15),
    (Backend.monte_carlo(10_000, 3), "nats", 6),
], ids=["closed-nats", "closed-bits", "quad", "mc"])
def test_batch_equals_each_cell(backend, convention, examples):
    """``outages`` over a batch is ``protocol_outage`` of each cell, failures included."""

    @settings(max_examples=examples, derandomize=True, deadline=None)
    @given(batches())
    def check(batch):
        base, field, values = batch
        cells = protocols.TopologyCells(base, **{field: values})
        for protocol in ("dt", "df", "sc", "mrc"):
            outage, std_error, failures = protocols.outages(protocol, cells, backend, convention)
            for i, value in enumerate(values):
                exc = failures.get(i)
                got = ([outage[i].item().hex(), std_error[i]] if exc is None
                       else [type(exc), str(exc)])
                assert got == _per_cell(protocol, base, field, value, backend, convention)

    check()


#: The fixture topology whose relay-hop gain 0.0010000000000000009 ** -200.0
#: overflows, and a batch over it: plain cells (0 and 5), a refused cell
#: (1), a cell whose rate terms overflow at n = 1 and 600 bits (2), one
#: whose broadcast SNR overflows to inf and whose direct link fails on the
#: closed form (3), and a silent relay (4).
_HOP_GAIN_BASE = dict(total_snr=TEN_DB, eta=0.5, beta=0.999, path_loss_exp=200.0,
                      allow_short=True)
_HOP_GAIN_BATCH = dict(total_snr=[10.0, 10.0, 10.0, 1.7e308, 10.0, 10.0],
                       eta=[0.5, 0.5, 0.5, 0.9, 1.0, 0.3],
                       n=[500, 500, 1, 500, 500, 300], k=[250, 250, 600, 250, 250, 150])
_HOP_GAIN_ERROR = [NumericError, "omega_rd: path-loss gain 0.0010000000000000009 ** -200.0 "
                                 "overflows double precision"]


def _raised(evaluate):
    try:
        evaluate()
    except FbrelayError as exc:
        return [type(exc), str(exc)]
    return None


@pytest.mark.filterwarnings("ignore:blocklength n=")
@pytest.mark.parametrize("backend", [
    Backend.closed_form(), Backend.quadrature(), Backend.monte_carlo(10_000, 3),
], ids=["closed", "quad", "mc"])
def test_a_hop_gain_overflow_fails_each_cell_where_its_point_does(backend):
    """Each cell of a batch records the error its own point evaluation
    raises: the gain overflow where the relay hop's SNR is read, or an
    earlier link's error, for every scheme and in link_outages' order."""
    base = TopologyConfig(**_HOP_GAIN_BASE)
    refusal = DomainError("refused before evaluation")
    cells = protocols.TopologyCells(base, refused={1: refusal}, **_HOP_GAIN_BATCH)
    b = _HOP_GAIN_BATCH
    topologies = [dataclasses.replace(base, total_snr=SnrValue(p), eta=e, n_s=n, n_r=n, k=k)
                  for p, e, n, k in zip(b["total_snr"], b["eta"], b["n"], b["k"])]
    # the topology's own link SNRs: the relay hop raises the batch's error
    assert _raised(lambda: base.omega_rd) == _HOP_GAIN_ERROR
    assert _raised(lambda: base.omega_sr) is None
    for protocol in ("dt", "df", "sc", "mrc"):
        outage, _, failures = protocols.outages(protocol, cells, backend)
        assert failures[1] is refusal
        gain_failed = set()
        for i, cfg in enumerate(topologies):
            if i == 1:
                continue
            want = _raised(lambda: protocol_outage(protocol, cfg, backend))
            got = failures.get(i)
            assert (None if got is None else [type(got), str(got)]) == want
            if want is None:
                assert outage[i] == protocol_outage(protocol, cfg, backend).value
            elif want == _HOP_GAIN_ERROR:
                gain_failed.add(i)
        if protocol == "dt":
            assert not gain_failed
        else:  # the relay hop fails the plain cells; cell 3 fails before it is read
            assert {0, 4, 5} <= gain_failed and 3 not in gain_failed
    if backend.kind is BackendKind.MONTE_CARLO:
        return  # Monte Carlo evaluates a batch cell by cell
    grid = Grid(cells.size, failures=dict(cells.refused))
    grid.alive[1] = False
    with np.errstate(all="ignore"):
        protocols._links(grid, ("sd", "sr", "rd", "srd"), cells, cells.total_snr,
                         protocols._link_stage(backend, LinConvention.NATS))
    assert grid.failures[1] is refusal and not grid.alive.any()
    for i, cfg in enumerate(topologies):
        if i != 1:
            got = grid.failures[i]
            assert [type(got), str(got)] == _raised(lambda: link_outages(cfg, backend))


_SNR_INF_CLOSED = [DomainError, "SNR must be a finite nonnegative ratio, got inf"]
_SNR_INF_ORACLE = [DomainError, "exponential mean must be positive and finite, got inf"]
#: Per backend, what each scheme raises on the cell whose broadcast SNR
#: 0.9 * 1e308 / 0.5 overflows to inf and whose rate terms, at n = 1 and
#: 600 bits per use, overflow too.  A link checks its SNR before it builds
#: its surrogate or window, so the relayed schemes fail on the broadcast
#: SNR; DT's direct link has a finite SNR and fails on the rate.
_CHECK_ORDER = {
    "closed": dict(dict.fromkeys(("df", "sc", "mrc"), _SNR_INF_CLOSED), dt=[
        NumericError, "surrogate rate terms overflowed double precision (n=1, rate=600.0)"]),
    "quad": dict(dict.fromkeys(("df", "sc", "mrc"), _SNR_INF_ORACLE), dt=[
        NumericError, "true-tail quadrature: transition window overflowed double precision "
                      "(n=1, rate=600.0)"]),
    "mc": dict.fromkeys(("df", "sc", "mrc"), _SNR_INF_ORACLE),
}


@pytest.mark.filterwarnings("ignore:blocklength n=")
@pytest.mark.parametrize("backend", [
    Backend.closed_form(), Backend.quadrature(), Backend.monte_carlo(10_000, 3),
], ids=["closed", "quad", "mc"])
def test_each_link_checks_its_snr_before_its_rate(backend):
    """A point, and the same cell between two plain ones of a batch, fail
    with the error of the first check that the cell fails, in the order
    each link takes its checks."""
    cfg = TopologyConfig(SnrValue(1e308), 0.9, 0.5, 1.0, 1, 1, 600, allow_short=True)
    want = _CHECK_ORDER[backend.label]
    for protocol, error in want.items():
        assert _raised(lambda: protocol_outage(protocol, cfg, backend)) == error
    if backend.kind is BackendKind.MONTE_CARLO:
        # every draw of this mean, inf ones included, lies far past the threshold
        assert protocol_outage("dt", cfg, backend).value == 0.0
        return
    cells = protocols.TopologyCells(cfg, total_snr=[10.0, 1e308, 10.0], eta=[0.5, 0.9, 0.5],
                                    n=[500, 1, 500], k=[250, 600, 250])
    for protocol, error in want.items():
        _, _, failures = protocols.outages(protocol, cells, backend)
        assert list(failures) == [1]
        assert [type(failures[1]), str(failures[1])] == error


@pytest.mark.filterwarnings("ignore:blocklength n=")
@pytest.mark.parametrize("db, n_s, n_r, k", [
    (10.0, 500, 500, 250),
    (10.0, 500, 300, 250),  # mixed framing
    (-20.0, 200, 900, 150),
    (35.0, 2, 1, 600),  # the forward hop's window overflows (600 bits per use)
    (0.0, 1, 3, 600),  # every link's window overflows but the forward hop's
])
def test_quadrature_coarse_scan_batch_equals_each_cell(db, n_s, n_r, k):
    """A quadrature batch the size of ``optimize_eta``'s coarse scan, the
    silent relay (eta = 1) included, is ``protocol_outage`` of each cell bit
    for bit, failures included."""
    etas = _coarse_grid(0.05)
    assert len(etas) == 20 and etas[-1] == 1.0
    base = TopologyConfig(total_snr=SnrValue.from_db(db), eta=0.5, beta=0.3, path_loss_exp=2.0,
                          n_s=n_s, n_r=n_r, k=k, allow_short=True)
    cells = protocols.TopologyCells(base, eta=etas)
    failed = 0
    for protocol in ("dt", "df", "sc", "mrc"):
        outage, std_error, failures = protocols.outages(protocol, cells, Backend.quadrature())
        failed += len(failures)
        for i, eta in enumerate(etas):
            exc = failures.get(i)
            got = ([outage[i].item().hex(), std_error[i]] if exc is None
                   else [type(exc), str(exc)])
            assert got == _per_cell(protocol, base, "eta", eta, Backend.quadrature(), "nats")
    assert (failed > 0) == (k / min(n_s, n_r) > 512)


@pytest.mark.filterwarnings("ignore:blocklength n=")
def test_quadrature_batch_past_the_product_overflow_equals_each_cell(monkeypatch):
    """At 510 bits per use the quadrature's nodes pass 1e154, where w (2 + w)
    overflows, so a batch takes the per-row branch of
    ``oracles._conditional_outage_np``.  Each cell is ``protocol_outage`` of
    its topology bit for bit, failures included."""
    from fbrelay import oracles

    ns = [n for n in (1, 2, 3, 4) for _ in range(4)]
    ks = [510 * n for n in ns]
    etas = [0.3, 0.5, 0.9, 1.0] * 4
    base = TopologyConfig(total_snr=TEN_DB, eta=0.5, n_s=1, n_r=1, k=510, allow_short=True)
    per_row = []
    conditional = oracles._conditional_outage_np

    def spy(sqrt_n, rate_ln2, w):
        if np.ndim(sqrt_n) and np.maximum.reduce(w, axis=None) > 1e154:
            per_row.append(sqrt_n.shape)
        return conditional(sqrt_n, rate_ln2, w)

    monkeypatch.setattr(oracles, "_conditional_outage_np", spy)
    cells = protocols.TopologyCells(base, n=ns, k=ks, eta=etas)
    for protocol in ("dt", "df", "sc", "mrc"):
        outage, std_error, failures = protocols.outages(protocol, cells, Backend.quadrature())
        for i, (n, k, eta) in enumerate(zip(ns, ks, etas)):
            exc = failures.get(i)
            got = ([outage[i].item().hex(), std_error[i]] if exc is None
                   else [type(exc), str(exc)])
            cfg = dataclasses.replace(base, n_s=n, n_r=n, k=k, eta=eta)
            try:
                est = protocol_outage(protocol, cfg, Backend.quadrature())
            except FbrelayError as err:
                assert got == [type(err), str(err)]
            else:
                assert got == [est.value.hex(), est.std_error]
    assert per_row
