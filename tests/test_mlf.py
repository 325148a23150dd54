"""Mittag-Leffler evaluator and Wright-type density tests.

The reference values below were generated independently with mpmath at 50
significant digits via the inverse-Laplace representation
E_{a,b}(-x) = L^{-1}[s^(a-b) / (s^a + x)](1) (Talbot contour, degree 80).
The branch tests compute theirs in the test with `_mp_series`.
"""

import math
import random
import sys
import types

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gradobs.mlf as mlf_module
import mlf_gap_table
from gradobs.errors import AccuracyError, DomainError
from gradobs.mlf import (
    BETA_MAX,
    THETA_MIN,
    mlf,
    moment_check,
    phi_density,
    rgamma,
    wright_psi,
)

# (alpha, beta, z, reference value); spans the power-series, extended-
# precision and asymptotic branches of the evaluator.
MLF_ORACLE = [
    (0.6, 0.6, -2.0, 0.064794543691715564),
    (0.6, 0.6, -15.0, 0.0012559189916879758),
    (0.75, 0.75, -9.869604401089358, 0.0026180568518323588),
    (0.9, 0.9, -39.47841760435743, 6.62863562200634e-5),
    (0.5, 1.0, -1.0, 0.427583576155807),
    (0.7, 0.7, -11.96, 0.0018612182298984148),
    (0.4, 1.3, -7.5, 0.11505251430556516),
    (0.8, 1.0, -25.0, 0.0091709970964705297),
    (1.0, 1.0, -30.0, 9.3576229688401746e-14),
    (0.55, 0.9, -18.0, 0.022311496713496242),
    # cancellation-gap cases: |z|**(1/alpha) in (9, 34) nats
    (0.5, 0.5, -5.0, 0.010666394882413155),
    (0.8, 0.8, -12.0, 0.001509159922538111),
    (0.65, 1.0, -8.0, 0.052490523697224753),
]


@pytest.mark.parametrize("alpha,beta,z,expected", MLF_ORACLE)
def test_mlf_against_inverse_laplace_oracle(alpha, beta, z, expected):
    value = mlf(alpha, beta, z)
    assert value == pytest.approx(expected, rel=5e-12, abs=0.0)


def _mp_series(alpha, beta, z, dps=None):
    """E_{alpha,beta}(z) by its power series in mpmath, with the working
    precision raised past the alternating-term peak exp(|z|**(1/alpha))
    unless dps is given."""
    peak = abs(z) ** (1.0 / alpha)
    if dps is None:
        dps = 30 + int(0.4343 * peak)
    with mp.workdps(dps):
        am, bm, zm = mp.mpf(alpha), mp.mpf(beta), mp.mpf(z)
        tol = mp.mpf(10) ** (-(dps - 3))
        total = mp.mpf(0)
        power = mp.mpf(1)
        k = 0
        while True:
            term = power * mp.rgamma(am * k + bm)
            total += term
            if k > peak + 2 and abs(term) <= tol * abs(total):
                return float(total)
            power *= zm
            k += 1


def _at_peak_nats(alpha, peak_nats):
    """The negative argument whose alternating-series peak is peak_nats."""
    return -(peak_nats**alpha)


@pytest.mark.parametrize(
    "alpha", [0.05, 0.35, 0.5, 0.75, 0.9, 0.97, 0.999, 1.0 - 1e-6, 1.0 - 1e-10]
)
def test_gap_branch_against_mp_series(alpha):
    # beta > 1 runs the downward recurrence, alpha >= 0.97 the panels
    # clustered at the denominator's dip; next to alpha = 1 the dip is only
    # ~pi (1 - alpha) r* wide, and forming sin(pi alpha) or r**alpha - x
    # naively there loses ~-log10(1 - alpha) digits
    assert mlf_module.SERIES_SAFE_NATS < 9.01
    assert 33.99 < mlf_module.ASYMPTOTIC_SAFE_NATS
    for beta in (alpha, 0.3, 1.0, 1.0 + alpha, 2.5):
        for peak_nats in (9.01, 15.0, 25.0, 33.99):
            z = _at_peak_nats(alpha, peak_nats)
            assert mlf(alpha, beta, z) == pytest.approx(
                _mp_series(alpha, beta, z), rel=5e-12, abs=0.0
            ), (beta, peak_nats)


# (alpha, z, E_{alpha,alpha}(z)) across the gap band, frozen from
# ``python tests/mlf_gap_table.py`` (mpmath power series, 30 digits checked
# against a sum 15 digits finer)
GAP_BAND_TABLE = [
    (0.05, -1.1161231740339603, 0.0111571484121482684493995842586),
    (0.05, -1.1237640213404236, 0.0110759119664194849285194655065),
    (0.05, -1.1305295893952128, 0.0110047190449899897157730618043),
    (0.05, -1.136603725732501, 0.0109413845813152906848077601615),
    (0.05, -1.142117495976746, 0.0108843648184317797255694622305),
    (0.05, -1.1471676871518381, 0.0108325289305062903783418153561),
    (0.05, -1.1518278406183673, 0.0107850239628289257435932086092),
    (0.05, -1.1561551682063715, 0.0107411907930355962325476721832),
    (0.05, -1.1601950693022804, 0.0107005096129662665024316594542),
    (0.05, -1.1639841840190133, 0.0106625633070976721557388181612),
    (0.05, -1.167552517858674, 0.0106270121141137809970259975072),
    (0.05, -1.1709249577303393, 0.0105935756435970169661552065398),
    (0.05, -1.174122377489019, 0.0105620198274255867995352011107),
    (0.05, -1.177162459691459, 0.0105321472662028416713280047476),
    (0.05, -1.1800603168306159, 0.0105037899636583883058752286548),
    (0.05, -1.182828968111688, 0.0104768037739540465397905339238),
    (0.05, -1.185479710342499, 0.0104510640993855199747166551914),
    (0.05, -1.1880224099953012, 0.0104264625153461980260832613147),
    (0.05, -1.1904657357525428, 0.0104029040927857780536952577568),
    (0.05, -1.1928173455402677, 0.010380305252161142306653167803),
    (0.3, -1.9331820449323427, 0.0336655070602648710288997091508),
    (0.3, -2.0139595385882667, 0.0317417082116095438583020538713),
    (0.3, -2.0878130210507004, 0.0301212537812891636056721766158),
    (0.3, -2.1560282739327956, 0.0287305747229553950752471037322),
    (0.3, -2.2195488455667607, 0.0275191197171710590521144738075),
    (0.3, -2.279089776782885, 0.0264507993959799199884163122517),
    (0.3, -2.3352072452758623, 0.0254990367292214692071741548533),
    (0.3, -2.3883432835217775, 0.0246437499426460939898516350824),
    (0.3, -2.4388556296155652, 0.0238694327611121656075222564614),
    (0.3, -2.487038312045488, 0.0231638881977904618676451523351),
    (0.3, -2.533136241918049, 0.0225173675139811859496040616872),
    (0.3, -2.5773558056596912, 0.0219219691100263105136627486633),
    (0.3, -2.6198727147988015, 0.0213712091716163248440456076809),
    (0.3, -2.6608379294714997, 0.0208597087721064171803407199705),
    (0.3, -2.7003822006164464, 0.0203829617498969336449085886951),
    (0.3, -2.7386196031265477, 0.019937159753345333766932227521),
    (0.3, -2.7756503195961146, 0.0195190584811688454782893464211),
    (0.3, -2.811562859150062, 0.0191258740939517860258602133056),
    (0.3, -2.846435844658183, 0.0187552020490436186680198934357),
    (0.3, -2.8803394661265735, 0.0184049528243135607467108812283),
    (0.55, -3.3483695221035554, 0.0241246113390294069295618237808),
    (0.55, -3.6093280671440575, 0.0209873266623885699731042729146),
    (0.55, -3.855682550689116, 0.0185401562119548564100966714324),
    (0.55, -4.089778884898396, 0.0165809530955495491279180894407),
    (0.55, -4.313389029771981, 0.0149790272338733126351757456841),
    (0.55, -4.527890969046059, 0.0136462310588280875008318321407),
    (0.55, -4.734381898132707, 0.0125210109169547201738998200432),
    (0.55, -4.933752662969026, 0.0115591188577113674906272622296),
    (0.55, -5.126738545514216, 0.0107279545617857512015305592036),
    (0.55, -5.313954992262195, 0.0100029855841869779683661988269),
    (0.55, -5.495923414123813, 0.00936540798355129081047998028788),
    (0.55, -5.673090239568988, 0.00880057410981393378985595230145),
    (0.55, -5.8458412626680705, 0.0082969097724149530287421748077),
    (0.55, -6.0145126347045625, 0.00784515217020604249911588777706),
    (0.55, -6.17939941323594, 0.00743780316305497632064560521317),
    (0.55, -6.34076230192633, 0.00706873023212993342289051118672),
    (0.55, -6.498833028907911, 0.00673287068839993717405657878932),
    (0.55, -6.653818685948306, 0.00642600931897764330778651646523),
    (0.55, -6.805905264155471, 0.0061446090926341452418290443723),
    (0.55, -6.955260561178889, 0.00588568075190758095532111861153),
    (0.8, -5.799546134799929, 0.00823723900590476435272362534515),
    (0.8, -6.468476077431833, 0.00632517366872531767925843896562),
    (0.8, -7.120507335569258, 0.00502554357184481738377277895637),
    (0.8, -7.757918358301703, 0.0041017076760577873791119406418),
    (0.8, -8.3824805024313, 0.00342069531379967292050921300455),
    (0.8, -8.9956072974487, 0.00290345700032794270960026326203),
    (0.8, -9.598450845299086, 0.00250071375397095561442123975775),
    (0.8, -10.191966752560003, 0.00218048089681202294016297013187),
    (0.8, -10.776959404605776, 0.00192126907428878828470177842522),
    (0.8, -11.354114459364155, 0.00170820355228501977916612673831),
    (0.8, -11.924022748592266, 0.00153071793681408036884011512566),
    (0.8, -12.487198234570185, 0.00138113413610833870922327085239),
    (0.8, -13.044091751204435, 0.0012537602410769072750043895167),
    (0.8, -13.595101690468546, 0.00114430131389302267337393054731),
    (0.8, -14.14058243295477, 0.0010494649171414092809703340011),
    (0.8, -14.680851084111755, 0.000966691105572337843704005213516),
    (0.8, -15.21619291862743, 0.000893963889730139050394734757129),
    (0.8, -15.74686582638195, 0.000829677195112429974835291933858),
    (0.8, -16.27310397723774, 0.000772537994239524133047119966774),
    (0.8, -16.79512086780005, 0.000721495251984123831030895560171),
    (0.95, -8.06362613857452, 0.00157768912352736825027575604099),
    (0.95, -9.179675873035652, 0.00105339840647678576445082694683),
    (0.95, -10.288610803712658, 0.000759065361100750955798080205843),
    (0.95, -11.391277476860731, 0.000577003913171123533617344224116),
    (0.95, -12.488345502963249, 0.000455698141118416693489200603308),
    (0.95, -13.580357556182658, 0.000370241943938372422527525312027),
    (0.95, -14.667762183135977, 0.000307453962713291137401136727065),
    (0.95, -15.750936220819561, 0.000259796953788242069004057798665),
    (0.95, -16.83020063274053, 0.000222678348355849477594017475947),
    (0.95, -17.905832011560605, 0.000193152567637241070248921952703),
    (0.95, -18.978071134205027, 0.000169250451262169907001821644104),
    (0.95, -20.047129455696712, 0.000149610226883393679926017146548),
    (0.95, -21.11319412651461, 0.000133263268891139965342912962746),
    (0.95, -22.17643192999637, 0.000119504001930653431223652828393),
    (0.95, -23.23699241512154, 0.000107807856023835579918280174488),
    (0.95, -24.295010419925475, 0.0000977778391754578247177619026206),
    (0.95, -25.350608126616365, 0.0000891087756983146865371709977572),
    (0.95, -26.403896752044975, 0.0000815627911660396878798423544748),
    (0.95, -27.45497795083934, 0.0000749521515736093300178568381074),
    (0.95, -28.50394498963815, 0.0000691270256127806365814589176732),
    (0.99, -8.804406471571257, 0.000382149106194188928062367326061),
    (0.99, -10.077839690579713, 0.00020894579675249131737877665535),
    (0.99, -11.349645218169455, 0.000135177731984478318612136341718),
    (0.99, -12.620009768958955, 0.0000975210815373728913153264475476),
    (0.99, -13.889081714255832, 0.0000750740785144726973516960088152),
    (0.99, -15.156981795794962, 0.0000601460712040401320730196675404),
    (0.99, -16.423810185764076, 0.0000494919747228414023310809230455),
    (0.99, -17.689651329302578, 0.0000415306848097245325594003037479),
    (0.99, -18.954577377175216, 0.0000353890631606884501258976402309),
    (0.99, -20.21865068707806, 0.0000305371025414425561910226071014),
    (0.99, -21.48192568948513, 0.0000266308892446850217708053379661),
    (0.99, -22.74445030782794, 0.0000234365056914314355154868933794),
    (0.99, -24.006267058592837, 0.0000207892341995439362794686106948),
    (0.99, -25.267413916710765, 0.0000185699112514099407987852137911),
    (0.99, -26.52792500566681, 0.0000166904072826120077880320413563),
    (0.99, -27.78783115456845, 0.0000150843175680718365558724170957),
    (0.99, -29.04716035275748, 0.0000137007917851693490001529632724),
    (0.99, -30.305938124483276, 0.0000125003324643659928060715523671),
    (0.99, -31.56418784046634, 0.0000114518687940897456628923500368),
    (0.99, -32.82193097906864, 0.0000105306785839557651252140743509),
    (0.999, -8.98024668799135, 0.000148559671628271911795133222179),
    (0.999, -10.29174383494278, 0.0000500703586973556916934052541306),
    (0.999, -11.603073253028235, 0.0000210013827890371158462013996074),
    (0.999, -12.914254020941325, 0.0000114800123864389577748915733423),
    (0.999, -14.225301315137642, 0.00000773927524015539497159622692612),
    (0.999, -15.536227497387582, 0.00000588171477711829188094131941156),
    (0.999, -16.847042832129134, 0.00000474678767877269730069184926439),
    (0.999, -18.15775597892561, 0.00000395437855635236228874743529629),
    (0.999, -19.468374341824365, 0.00000335919247322515029390089533945),
    (0.999, -20.778904324108716, 0.00000289377000049349792955764196005),
    (0.999, -22.089351518456134, 0.00000252061517827120670930389153854),
    (0.999, -23.399720851765522, 0.00000221606121778847551106237237564),
    (0.999, -24.71001669740782, 0.00000196397251255695339097061994994),
    (0.999, -26.020242963575672, 0.00000175282979165832932971286353706),
    (0.999, -27.330403163774285, 0.00000157416028550937592321694401039),
    (0.999, -28.640500473750347, 0.00000142159540337658402082449565974),
    (0.999, -29.95053777797185, 0.00000129026458182583519297119875901),
    (0.999, -31.260517707951596, 0.00000117638787673244253187191816766),
    (0.999, -32.5704426741288, 0.00000107699380379807973359911810095),
    (0.999, -33.8803148925741, 0.000000989719467793524030519872269122),
    (0.999999, -8.99998022500953, 0.000123434873587059013990244515015),
    (0.999999, -10.315765400005285, 0.0000331231125507458248554734462159),
    (0.999999, -11.631550406722244, 0.00000889321922206377206732361358071),
    (0.999999, -12.947335264275667, 0.00000239153240508268706598295943185),
    (0.999999, -14.263119987879998, 0.000000646192747800587492664268075644),
    (0.999999, -15.578904589929223, 0.000000177133614124154446881647974379),
    (0.999999, -16.894689080715498, 0.0000000506691545124099798617461515189),
    (0.999999, -18.2104734689225, 0.0000000162579843005527826754764584645),
    (0.999999, -19.526257761975486, 0.00000000664610934716607304745642470791),
    (0.999999, -20.84204196629654, 0.00000000376344797591199978097393895522),
    (0.999999, -22.157826087495142, 0.00000000274316241867185911328838430873),
    (0.999999, -23.47361013051332, 0.00000000226611639428153345649283571729),
    (0.999999, -24.78939409973811, 0.00000000196869360386410559259826416315),
    (0.999999, -26.10517799909016, 0.00000000174619246631514121964354220576),
    (0.999999, -27.420961832094353, 0.00000000156516851978545970798476190562),
    (0.999999, -28.73674560193687, 0.00000000141257398420324049776449296977),
    (0.999999, -30.052529311511815, 0.00000000128176199967834794962245958786),
    (0.999999, -31.368312963459594, 0.00000000116848837448945777453297660553),
    (0.999999, -32.68409656019892, 0.00000000106966691325505710035175657398),
    (0.999999, -33.99988010391956, 9.82911904559445886399742885269e-10),
    (0.9999999999, -8.999999998031498, 0.000123409806592511115058626987719),
    (0.9999999999, -10.31578947127684, 0.0000331062185161055648324876196729),
    (0.9999999999, -11.631578944514352, 0.00000888115615741770675948248279798),
    (0.9999999999, -12.94736841773695, 0.00000238248132199545232523834023291),
    (0.9999999999, -14.263157890946152, 0.000000639130748222100678052326204289),
    (0.9999999999, -15.578947364143195, 0.000000171455161040286039765735789495),
    (0.9999999999, -16.894736837329116, 0.0000000459952972446337244300169179355),
    (0.9999999999, -18.21052631050478, 0.0000000123390778206455095490256273618),
    (0.9999999999, -19.526315783670928, 0.00000000331033975863546100715255218876),
    (0.9999999999, -20.8421052568282, 8.88237918918999033766278283665e-10),
    (0.9999999999, -22.15789472997716, 2.38454239398213651854094040907e-10),
    (0.9999999999, -23.473684203118303, 6.41213412425387669900104245971e-11),
    (0.9999999999, -24.789473676252065, 1.73374254298028687708900332e-11),
    (0.9999999999, -26.105263149378843, 4.77278609295045678605527674957e-12),
    (0.9999999999, -27.421052622498983, 1.39003166109067562956885371452e-12),
    (0.9999999999, -28.736842095612808, 4.72162456203171996837867907179e-13),
    (0.9999999999, -30.052631568720606, 2.16945003186648096803404164771e-13),
    (0.9999999999, -31.368421041822643, 1.40661620612175573639562786859e-13),
    (0.9999999999, -32.684210514919165, 1.13354253629107370551348006347e-13),
    (0.9999999999, -33.99999998797637, 1.00004256270071186964615794903e-13),
]


@pytest.mark.parametrize("alpha", sorted({row[0] for row in GAP_BAND_TABLE}))
def test_gap_band_table_against_frozen_mp_series(alpha):
    # beta = alpha in the gap band reads the per-alpha Chebyshev table of
    # log((1+x)**2 E(-x)); every point is within 1e-14 relative of the frozen
    # series, both band ends included (6.7e-15 at alpha = 1 - 1e-10, the
    # largest, where E spans ten decades over the band)
    rows = [(z, value) for a, z, value in GAP_BAND_TABLE if a == alpha]
    assert len(rows) >= 20
    for z, value in rows:
        assert mlf_module.SERIES_SAFE_NATS < (-z) ** (1.0 / alpha) \
            < mlf_module.ASYMPTOTIC_SAFE_NATS
        assert mlf(alpha, alpha, z) == pytest.approx(value, rel=1e-14, abs=0.0), z
    assert mlf_module._gap_table(alpha) is not None


@pytest.mark.parametrize("row", [0, 119, 179])
def test_gap_band_rows_match_their_generator(row):
    alpha, z, value = GAP_BAND_TABLE[row]
    assert z in mlf_gap_table.band_arguments(alpha)
    assert float(mlf_gap_table.gap_value(alpha, z)) == pytest.approx(value, rel=1e-15)


def test_unresolved_gap_table_falls_back_to_the_quadrature(monkeypatch):
    # a table that GAP_TABLE_MAX_DEGREE does not resolve is not used: the
    # gap band at beta = alpha then integrates per call, as other betas do
    monkeypatch.setattr(mlf_module, "GAP_TABLE_MAX_DEGREE",
                        mlf_module.GAP_TABLE_FIRST_DEGREE)
    mlf_module._gap_table.cache_clear()
    try:
        assert mlf_module._gap_table(0.95) is None
        z = _at_peak_nats(0.95, 20.0)
        assert mlf(0.95, 0.95, z) == mlf_module._mlf_laplace(0.95, 0.95, z)
    finally:
        mlf_module._gap_table.cache_clear()


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.75, 0.9, 0.97, 0.99])
def test_branch_seams_against_mp_series(alpha):
    # each side is held to what its method meets: the double-precision
    # series just below the lower seam and the asymptotic expansion just
    # above the upper one are the weakest; at peak 1 nat (z = -1) the series
    # moves from its z >= -1 early return to the peak gate
    lower = mlf_module.SERIES_SAFE_NATS
    upper = mlf_module.ASYMPTOTIC_SAFE_NATS
    for peak_nats, rel in [
        (1.0 - 1e-9, 1e-13),
        (1.0 + 1e-9, 1e-13),
        (lower * (1.0 - 1e-9), 1e-8),
        (lower * (1.0 + 1e-9), 5e-12),
        (upper * (1.0 - 1e-9), 5e-12),
        (upper * (1.0 + 1e-9), 1e-9),
    ]:
        z = _at_peak_nats(alpha, peak_nats)
        assert mlf(alpha, alpha, z) == pytest.approx(
            _mp_series(alpha, alpha, z), rel=rel, abs=0.0
        ), peak_nats


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="the double-"
                   "precision series just below the 9-nat seam loses up to 2e-8 "
                   "relative for alpha in about (0.95, 0.99)")
def test_series_below_the_lower_seam_near_alpha_one():
    # the largest error over a sweep, since it is erratic in alpha: measured
    # 1.97e-8 at (0.985, 8.91 nats) and 1.44e-8 at (0.981, 8.991 nats)
    worst = 0.0
    for alpha in (0.97, 0.975, 0.981, 0.985, 0.989, 0.99):
        for peak_nats in (8.55, 8.91, 8.991):
            z = _at_peak_nats(alpha, peak_nats)
            exact = _mp_series(alpha, alpha, z, dps=50)
            worst = max(worst, abs(mlf(alpha, alpha, z) - exact) / abs(exact))
    assert worst < 1e-8, worst


@pytest.mark.parametrize(
    "alpha,rel", [(1.0 - 1e-12, 5e-5), (1.0 - 1e-10, 5e-8), (1.0 - 1e-9, 3e-8),
                  (1.0 - 1e-7, 2e-10)]
)
def test_asymptotic_branch_next_to_integer_order(alpha, rel):
    # the coefficients 1/Gamma(alpha - alpha k) lie (k-1)(1-alpha) from a
    # pole.  rgamma used to return 0 within 1e-12 of a pole and to reflect
    # through sin(pi x) with pi rounded, which left 0.92, 6e-7, 9e-8 and
    # 7e-10 relative error at these alphas.  The coefficients are now
    # reflected about that offset (see the test below); what remains at
    # x = 49 is the exponentially small part the expansion drops, ~exp(-49)
    # absolute
    for x in (49.0, 100.0):
        assert mlf(alpha, alpha, -x) == pytest.approx(
            _mp_series(alpha, alpha, -x, dps=120), rel=rel, abs=0.0
        ), x


# (alpha, peak nats, z = -(nats**alpha), E_{alpha,alpha}(z)) above the
# asymptotic seam at small alpha, frozen from `mlf_gap_table.gap_value`
# (mpmath power series; a sum 15 digits finer agreed to 30 digits)
SMALL_ALPHA_ASYMPTOTIC = [
    (0.01, 34.5, -1.036043978515017, 0.0024121012891816323681),
    (0.01, 36.0, -1.0364850086811943, 0.0024110536891268678463),
    (0.01, 40.0, -1.0375776301257758, 0.0024084612709145127444),
    (0.01, 50.0, -1.0398955028272279, 0.0024029755731241111835),
    (0.02, 34.5, -1.0733871254172251, 0.0046510229590185956561),
    (0.02, 36.0, -1.0743011732208552, 0.0046469020187957886065),
    (0.02, 40.0, -1.076567338537421, 0.0046367087095982314509),
    (0.02, 50.0, -1.0813826568002933, 0.0046151602304619118291),
]


@pytest.mark.parametrize("alpha,peak_nats,z,expected", SMALL_ALPHA_ASYMPTOTIC)
def test_asymptotic_branch_reaches_its_smallest_term_at_small_alpha(
        alpha, peak_nats, z, expected):
    # the smallest term sits near k = 34 / alpha at the seam; a 400-term cap
    # stopped the sum before it, 1.7e-5 relative error at (0.01, 34.5 nats)
    # and 2.0e-8 at (0.02, 34.5 nats)
    assert z == _at_peak_nats(alpha, peak_nats)
    assert mlf(alpha, alpha, z) == pytest.approx(expected, rel=1e-11, abs=0.0)


def test_asymptotic_branch_refuses_to_stop_short_of_its_smallest_term():
    # below alpha ~ 34 / ASYMPTOTIC_TERMS the smallest term at the seam lies
    # past the cap: the sum is refused rather than returned short
    for alpha in (0.0085, 0.005):
        with pytest.raises(AccuracyError, match="before its smallest"):
            mlf(alpha, alpha, _at_peak_nats(alpha, 34.5))
    # deeper in the branch the smallness stop comes first: at (0.005, 100
    # nats) against `mlf_gap_table.gap_value` (a sum 15 digits finer agreed
    # to 25 digits)
    z = _at_peak_nats(0.005, 100.0)
    assert z == -1.023292992280754
    assert mlf(0.005, 0.005, z) == pytest.approx(0.001221354055707036723236373,
                                                 rel=1e-11, abs=0.0)


@pytest.mark.parametrize("alpha", [1.0 - 1e-12, 1.0 - 1e-7])
def test_asymptotic_coefficients_from_the_exact_pole_offset(alpha):
    # with beta = alpha the k-th coefficient -1/Gamma(alpha - alpha k) sits
    # (k-1)(1-alpha) from a pole; reflected about that offset, formed
    # without the rounding of alpha k, it keeps full relative accuracy
    # (4.3e-6 and 4.3e-11 relative error when taken from alpha - alpha k).
    # At x = 100 the dropped exponentially small part is below 1e-43
    assert mlf(alpha, alpha, -100.0) == pytest.approx(
        _mp_series(alpha, alpha, -100.0, dps=200), rel=1e-12, abs=0.0)


def test_term_tables_leave_every_value_unchanged(monkeypatch):
    # a value must not depend on which calls filled its (alpha, beta) tables
    # or built its alpha's gap-band table, or how often they were evicted:
    # compare, over series, gap and asymptotic arguments, against calls that
    # each get tables of their own
    caches = (mlf_module._terms, mlf_module._gap_table)
    maxsize = min(cache.cache_info().maxsize for cache in caches)
    assert maxsize >= 8  # the mlf-scan benchmark cycles through 4 alphas
    args = [
        (alpha, beta, z)
        for alpha in (0.3, 0.8, 0.95)
        for beta in (alpha, 1.0)
        for z in [0.9, -0.5] + [_at_peak_nats(alpha, nats)
                                for nats in (5.0, 8.99, 9.5, 20.0, 33.5, 34.5, 60.0,
                                             400.0)]
    ]
    with monkeypatch.context() as patch:
        patch.setattr(mlf_module, "_terms", lambda alpha, beta: ([], []))
        patch.setattr(mlf_module, "_gap_table", mlf_module._gap_table.__wrapped__)
        reference = [mlf(*arg) for arg in args]
    for cache in caches:
        cache.cache_clear()
    assert [mlf(*arg) for arg in args] == reference
    fillers = [0.1 + 0.05 * i for i in range(maxsize + 1)]
    rng = random.Random(4)
    for _ in range(2):
        for i in rng.sample(range(len(args)), len(args)):
            for alpha in rng.choices(fillers, k=rng.randint(0, maxsize)):
                beta = rng.choice((0.5, alpha))
                mlf(alpha, beta, _at_peak_nats(alpha, rng.choice((3.0, 20.0, 40.0))))
            assert mlf(*args[i]) == reference[i], args[i]
            for cache in caches:
                assert cache.cache_info().currsize <= cache.cache_info().maxsize


def test_gap_branch_uses_mpmath_only_at_integer_order(monkeypatch):
    calls = []

    def recorder(alpha, beta, z, peak_nats):
        calls.append(alpha)
        return 0.0

    monkeypatch.setattr(mlf_module, "_mlf_series_mp", recorder)
    for alpha in (0.2, 0.6, 0.999):
        mlf(alpha, alpha, _at_peak_nats(alpha, 20.0))
        mlf(alpha, 1.7, _at_peak_nats(alpha, 20.0))
    assert calls == []
    mlf(1.0, 2.0, -20.0)
    assert calls == [1.0]


def test_mlf_at_zero_is_reciprocal_gamma():
    for alpha, beta in [(0.5, 1.0), (0.7, 0.7), (1.0, 2.0), (0.3, 1.5)]:
        assert mlf(alpha, beta, 0.0) == pytest.approx(rgamma(beta), rel=1e-15)


def test_half_order_equals_scaled_erfc():
    # E_{1/2,1}(-x) = exp(x**2) * erfc(x)
    for x in (0.3, 1.0, 2.0, 3.0, 5.0):
        expected = math.exp(x * x) * math.erfc(x)
        assert mlf(0.5, 1.0, -x) == pytest.approx(expected, rel=1e-10, abs=0.0)


def test_integer_order_equals_exponential():
    for z in np.linspace(-50.0, 5.0, 23):
        assert mlf(1.0, 1.0, float(z)) == pytest.approx(math.exp(z), rel=1e-13, abs=0.0)


def test_integer_order_beta_two_closed_form():
    # E_{1,2}(z) = (exp(z) - 1) / z, including the deep asymptotic regime
    for z in (-50.0, -40.0, -10.0, -2.0, 0.5, 3.0):
        expected = (math.exp(z) - 1.0) / z
        assert mlf(1.0, 2.0, z) == pytest.approx(expected, rel=1e-10, abs=0.0)


@settings(max_examples=80, deadline=None)
@given(
    alpha=st.floats(0.35, 1.0),
    beta=st.floats(0.4, 2.5),
    z=st.floats(-30.0, 4.0),
)
def test_recurrence_property(alpha, beta, z):
    # E_{a,b}(z) = z * E_{a,a+b}(z) + 1/Gamma(b)
    lhs = mlf(alpha, beta, z)
    rhs = z * mlf(alpha, alpha + beta, z) + rgamma(beta)
    scale = max(1.0, abs(lhs), abs(rhs))
    assert abs(lhs - rhs) <= 1e-10 * scale


@settings(max_examples=40, deadline=None)
@given(alpha=st.floats(0.4, 0.99), x=st.floats(0.0, 60.0))
def test_completely_monotone_on_negative_axis(alpha, x):
    # E_{a,a}(-x) is positive and decreasing in x for a in (0, 1]
    v1 = mlf(alpha, alpha, -x)
    v2 = mlf(alpha, alpha, -(x + 0.5))
    assert v1 > 0.0
    assert v2 < v1


@settings(max_examples=60, deadline=None)
@given(alpha=st.floats(0.3, 0.99))
def test_asymptotic_seam_continuity_property(alpha):
    # the step mlf takes across the 34-nat seam must be the function's own
    # change over that step (from the Laplace quadrature on both sides) to
    # within the two per-side tolerances of test_branch_seams_against_mp_series
    seam = mlf_module.ASYMPTOTIC_SAFE_NATS
    below = _at_peak_nats(alpha, seam * (1.0 - 1e-9))
    above = _at_peak_nats(alpha, seam * (1.0 + 1e-9))
    step = mlf(alpha, alpha, above) - mlf(alpha, alpha, below)
    change = mlf_module._mlf_laplace(alpha, alpha, above) - mlf_module._mlf_laplace(
        alpha, alpha, below
    )
    assert abs(step - change) <= (5e-12 + 1e-9) * abs(mlf(alpha, alpha, below))


def test_mlf_rejects_bad_arguments():
    with pytest.raises(DomainError):
        mlf(0.0, 1.0, -1.0)
    with pytest.raises(DomainError):
        mlf(0.5, -1.0, -1.0)
    with pytest.raises(DomainError):
        mlf(0.5, 1.0, 6.0)  # above the supported maximum
    with pytest.raises(DomainError):
        mlf(0.5, 1.0, math.inf)


def test_mlf_series_overflow_is_a_domain_error():
    # a term past the double range used to raise OverflowError, and a sum
    # past it returned inf
    for alpha, beta, z in [(0.05, 0.05, 5.0), (0.1, 0.1, 4.0), (0.2, 1.0, 5.0)]:
        with pytest.raises(DomainError, match=f"alpha={alpha}, beta={beta}"):
            mlf(alpha, beta, z)
    # just inside the range: E_{1/2,1/2}(z) = 1/sqrt(pi) + z exp(z**2) erfc(-z)
    expected = 1.0 / math.sqrt(math.pi) + 5.0 * math.exp(25.0) * math.erfc(-5.0)
    assert mlf(0.5, 0.5, 5.0) == pytest.approx(expected, rel=1e-12)


def test_mlf_rejects_orders_outside_the_model():
    # for alpha > 1 the asymptotic branch dropped more than exp(-peak): it
    # returned -1.05682e-5 for (1.5, 1.5, -200), where the mpmath series gives
    # -1.05764e-5, and -4.71e-5 for (1.9, 1, -2000), whose value is -6.00e-3
    assert _mp_series(1.5, 1.5, -200.0) == pytest.approx(-1.05764e-5, rel=1e-5)
    for alpha, beta, z in [(1.5, 1.5, -200.0), (1.9, 1.0, -2000.0),
                           (math.nan, 0.5, -1.0), (0.5, math.nan, -1.0)]:
        with pytest.raises(DomainError):
            mlf(alpha, beta, z)


@pytest.mark.parametrize("alpha,beta,z", [
    (0.5, 50.0, -3.5),  # gap branch: relative error 2.7e-2
    (0.8, 50.0, -6.0),  # gap branch: 5.3e3
    (0.8, 100.0, -6.0),  # gap branch: 1e48
    (0.5, 1e308, -50.0),  # these four raised OverflowError
    (0.5, 1e308, -3.0),
    (0.5, 1e308, -0.5),
    (0.5, 1e308, 4.0),
    (0.5, math.inf, -1.0),  # returned 0
])
def test_mlf_rejects_beta_above_the_cap(alpha, beta, z):
    # the gap branch lowers beta by E_{a,b} = (E_{a,b-a} - 1/Gamma(b-a)) / z,
    # which cancels for large beta
    assert BETA_MAX == 20.0
    with pytest.raises(DomainError, match="0 < beta <= 20"):
        mlf(alpha, beta, z)


@pytest.mark.parametrize("alpha,peak_nats", [
    (0.5, 0.5),  # series, z >= -1
    (0.5, 5.0),  # series, peak gate
    (0.2, 9.5), (0.5, 15.0), (0.9, 9.5), (0.9, 33.9),  # Laplace integral
    (1.0, 15.0),  # alpha = 1 mpmath series
    (0.5, 60.0), (1.0, 60.0),  # asymptotic expansion
])
def test_mlf_at_the_beta_cap_against_mp_series(alpha, peak_nats):
    # measured worst case 3.1e-13, at (0.2, 20, peak 9.5 nats)
    z = _at_peak_nats(alpha, peak_nats)
    assert mlf(alpha, BETA_MAX, z) == pytest.approx(
        _mp_series(alpha, BETA_MAX, z), rel=5e-12, abs=0.0
    )


def test_rgamma_poles_and_values():
    assert rgamma(1.0) == pytest.approx(1.0, rel=1e-15)
    assert rgamma(0.5) == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-14)
    assert rgamma(0.0) == 0.0
    assert rgamma(-3.0) == 0.0
    assert rgamma(-0.5) == pytest.approx(1.0 / math.gamma(-0.5), rel=1e-13)


def test_wright_psi_matches_levy_closed_form():
    # psi_{1/2}(t) = t**(-3/2) exp(-1/(4t)) / (2 sqrt(pi))
    for theta in (0.05, 0.1, 0.5, 1.0, 2.0, 10.0):
        expected = theta ** (-1.5) * math.exp(-0.25 / theta) / (2.0 * math.sqrt(math.pi))
        assert wright_psi(0.5, theta) == pytest.approx(expected, rel=1e-10)


def test_phi_density_matches_gaussian_closed_form():
    # phi_{1/2}(t) = exp(-t**2/4) / sqrt(pi)
    for theta in (0.0, 0.1, 0.5, 1.0, 2.0, 4.0, 8.0):
        expected = math.exp(-0.25 * theta * theta) / math.sqrt(math.pi)
        assert phi_density(0.5, theta) == pytest.approx(expected, rel=1e-10)


def _phi_by_composition(alpha, theta):
    """The Mainardi density from the stable one, the identity
    phi_alpha(theta) = theta**(-1-1/alpha)/alpha * psi_alpha(theta**(-1/alpha))."""
    psi = wright_psi(alpha, theta ** (-1.0 / alpha))
    return theta ** (-1.0 - 1.0 / alpha) / alpha * psi


def test_phi_density_composition_route_agrees():
    for alpha in (0.4, 0.6, 0.8):
        for theta in (0.3, 0.7, 1.2):
            assert phi_density(alpha, theta) == pytest.approx(
                _phi_by_composition(alpha, theta), rel=1e-12
            )


@pytest.mark.parametrize("alpha,theta", [(0.5, 1e-200), (0.1, 1e-40)])
def test_phi_density_at_tiny_theta_is_its_value_at_zero(alpha, theta):
    # theta**(-1/alpha) leaves the double range; Kanter's form does not
    assert phi_density(alpha, theta) == pytest.approx(rgamma(1.0 - alpha))


@settings(max_examples=40, deadline=None)
@given(alpha=st.floats(0.2, 0.9), theta=st.floats(0.06, 20.0))
def test_wright_psi_nonnegative(alpha, theta):
    assert wright_psi(alpha, theta) >= 0.0


def test_wright_psi_rejects_small_argument():
    with pytest.raises(DomainError):
        wright_psi(0.5, 0.01)
    with pytest.raises(DomainError):
        wright_psi(1.0, 1.0)


def _mainardi_mp(alpha, theta, digits=40):
    """phi_alpha(theta) = sum_k (-theta)**k / (k! Gamma(1 - alpha - alpha k))
    in mpmath, at a precision that absorbs both the term peak and the decay
    of the result; two runs 20 digits apart agree to `digits` digits."""
    decay = 0.0
    while True:
        cut = decay + 2.31 * digits + 50.0
        peak, k_stop = 0.0, 0
        while True:
            env = (k_stop * math.log(theta) - math.lgamma(k_stop + 1.0)
                   + math.lgamma(alpha * (k_stop + 1)))
            peak = max(peak, env)
            if k_stop > 10 and env < -cut and env < peak:
                break
            k_stop += 1

        def run(dps):
            with mp.workdps(dps):
                a, z = mp.mpf(alpha), mp.mpf(theta)
                total, power = mp.mpf(0), mp.mpf(1)
                for k in range(k_stop + 1):
                    if k:
                        power = power * (-z) / k
                    total += power * mp.rgamma(1 - a * (k + 1))
                return total

        dps = int((peak + cut) / 2.3026) + 10
        coarse, fine = run(dps), run(dps + 20)
        if fine > 0 and abs(coarse - fine) <= mp.mpf(10) ** -digits * fine:
            return fine
        decay = max(2.0 * decay, 50.0, -float(mp.log(abs(fine))) if fine else 0.0)


DENSITY_THETAS = (
    0.001, 0.003, 0.01, 0.03, 0.1, 0.2, 0.4, 0.7, 1.0, 1.5, 2.0, 2.25, 2.5,
    2.6, 3.0, 4.0, 5.0, 6.5, 8.0, 10.0, 12.0, 15.0,
)
# phi_alpha at DENSITY_THETAS, frozen from
#   {a: tuple(float(_mainardi_mp(a, t)) for t in DENSITY_THETAS) ...},
# where None marks a value below 1e-250 by Kanter's bound
# phi <= u0 exp(-u0) / ((1-alpha) theta), u0 = theta**(1/(1-alpha))
# alpha**(alpha/(1-alpha)) (1-alpha) >= 1.  Tails near 1e-250 need hundreds
# of digits and thousands of terms, so only three cheap rows are rerun below
DENSITY_ORACLE = {
    0.1: (
        0.9349201689733461, 0.933205373559657, 0.9272277581970277,
        0.9103542799469407, 0.8536273310955519, 0.778540080389652,
        0.6472370126532249, 0.4899430273252101, 0.37029046275149086,
        0.23142825117505983, 0.14406688865856315, 0.11350660424933247,
        0.08934734607418239, 0.08117031307818816, 0.055214685040576805,
        0.020877028014907262, 0.007797266934475792, 0.001742996921611316,
        0.00038093620796911726, 4.860528275392854e-05, 6.0070012216783806e-06,
        2.4758363221339464e-07,
    ),
    0.25: (
        0.8154848874225381, 0.8143576115174145, 0.8104208339611566,
        0.7992473618116057, 0.7610082322273136, 0.708714468710336,
        0.612243644780329, 0.48701171173568386, 0.38333541657068354,
        0.2517249440385265, 0.16125108345458586, 0.12795134785429718,
        0.10097740554834661, 0.09171802559192943, 0.06192208425161672,
        0.02198996334047836, 0.007289297072506667, 0.0012410701358857015,
        0.00018711315303530202, 1.2708213116565745e-05, 7.284317170210214e-07,
        7.548026325891204e-09,
    ),
    0.4: (
        0.6712870617092421, 0.6708507259633456, 0.6693181793118714,
        0.6648941387335018, 0.6489085985290718, 0.6248639330634567,
        0.5734871259864828, 0.4919333078817834, 0.4102335940438268,
        0.2856884926272521, 0.18558227451010914, 0.14591332638229543,
        0.11291112932636946, 0.10146024574972479, 0.06455724038163378,
        0.017703699590908645, 0.00389660637991026, 0.00027432246000742475,
        1.2574911565294458e-05, 1.1077506218995964e-07, 5.010794329556983e-10,
        4.73788231103197e-14,
    ),
    0.5: (
        0.5641894425003781, 0.5641883141226214, 0.5641754789844754,
        0.5640626551714358, 0.5627808712130096, 0.5585758033944684,
        0.5420673935524316, 0.4991418560723049, 0.4393912894677224,
        0.3214655345976037, 0.20755374871029736, 0.15913697925038464,
        0.1182605612236454, 0.10410399339803483, 0.05946514461181469,
        0.010333492677046027, 0.0010891421151763548, 1.4594512691790851e-05,
        6.349117335933279e-08, 7.835433265508668e-12, 1.3086506196246325e-16,
        2.1006826890574942e-25,
    ),
    0.6: (
        0.45099589940562856, 0.45133877554417245, 0.45253329756463423,
        0.4558977123882316, 0.4670690619621377, 0.48119821179314876,
        0.501690221927903, 0.5086247947876528, 0.48323543334806185,
        0.377031490216195, 0.23387335110670507, 0.16753470082169744,
        0.11216223259832639, 0.09367082442028059, 0.04052147222454105,
        0.002054362698080632, 2.5504528476523856e-05, 1.7838420471980985e-09,
        2.2673977499675397e-15, 2.906452584801119e-26, 5.499808664343233e-41,
        4.817110367895378e-71,
    ),
    0.75: (
        0.27609788512958844, 0.27666309477098416, 0.2786493610947242,
        0.2843932291088357, 0.3052957509442536, 0.3372579884800382,
        0.40763401985295844, 0.5195454072487847, 0.606598543590276,
        0.5487378622264564, 0.2251400701489675, 0.09122407582516487,
        0.024491540550029375, 0.012638239700876111, 0.0003512636102313409,
        4.504628075192352e-12, 7.053234215183924e-29, 6.700484073142177e-82,
        1.16120793807552e-187, None, None, None,
    ),
    0.9: (
        0.10528815959853212, 0.10563827544005645, 0.1068763780105452,
        0.11052569229536297, 0.1247327855016799, 0.14970970945688594,
        0.22411249995914362, 0.4566697904831586, 1.0081467456212712,
        0.45575251057063776, 7.819366916221752e-17, 2.3865984672538622e-55,
        1.1210264892751052e-159, 1.1420921669323864e-236, None, None, None,
        None, None, None, None, None,
    ),
}


@pytest.mark.parametrize("alpha", sorted(DENSITY_ORACLE))
def test_density_against_mainardi_oracle(alpha):
    for theta, expected in zip(DENSITY_THETAS, DENSITY_ORACLE[alpha]):
        if expected is None:
            assert phi_density(alpha, theta) < 1e-250
            continue
        assert phi_density(alpha, theta) == pytest.approx(expected, rel=1e-12, abs=0.0)
        if theta ** (-1.0 / alpha) >= THETA_MIN:
            assert _phi_by_composition(alpha, theta) == pytest.approx(
                expected, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("alpha,theta", [(0.25, 1.0), (0.6, 2.0), (0.9, 0.7)])
def test_density_oracle_rows_match_their_generator(alpha, theta):
    expected = DENSITY_ORACLE[alpha][DENSITY_THETAS.index(theta)]
    assert float(_mainardi_mp(alpha, theta)) == pytest.approx(expected, rel=1e-15)


def test_moments_match_gamma_ratio():
    for alpha in (0.4, 0.7):
        for nu in (0.0, 1.0, 2.0):
            expected = math.gamma(1.0 + nu) / math.gamma(1.0 + alpha * nu)
            assert moment_check(alpha, nu) == pytest.approx(expected, abs=1e-4)


def test_moment_check_rejects_bad_orders():
    with pytest.raises(DomainError):
        moment_check(0.5, 5.0)
    with pytest.raises(DomainError):
        moment_check(1.0, 1.0)


def test_submodule_is_not_shadowed_by_the_function():
    assert isinstance(mlf_module, types.ModuleType)
    assert sys.modules["gradobs.mlf"] is mlf_module
    assert mlf_module.mlf is mlf
