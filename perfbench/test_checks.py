"""The benchmark's answer checks reject corrupted answers.

Each test builds a real answer on a small registry network, confirms the
check accepts it, then corrupts one thing and confirms the check
rejects it. Run from the root of a checkout::

    python3 -m pytest perfbench/test_checks.py -q
"""

import dataclasses
import os
import random
import re
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import checks  # noqa: E402
from checks import CheckFailed  # noqa: E402
from repro import Session  # noqa: E402
from repro.config.model import Action  # noqa: E402
from repro.hdr.headerspace import HeaderSpace  # noqa: E402
from repro.hdr.ip import Ip  # noqa: E402
from repro.reachability.graph import Disposition  # noqa: E402
from repro.synth.networks import network_by_name  # noqa: E402
from repro.traceroute.engine import TracerouteEngine  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def net1():
    configs = network_by_name("NET1").generate(1)
    session = Session.from_texts(configs)
    session.analyzer
    return configs, session, TracerouteEngine(session.dataplane, session.fibs)


def test_converged_rejects_non_convergence(net1):
    _configs, session, _tracer = net1
    checks.check_converged(session.dataplane)
    with pytest.raises(CheckFailed):
        checks.check_converged(dataclasses.replace(session.dataplane, converged=False))


def test_multipath_rejects_non_splitting_example_and_hidden_violation(net1):
    _configs, session, tracer = net1
    violations = session.multipath_consistency()
    assert violations
    checks.check_multipath(tracer, violations, [])
    # An example that is only ever accepted does not witness a split.
    target = next(i for i in session.snapshot.device(violations[0].source[1])
                  .interfaces.values() if i.address is not None)
    wrong = dataclasses.replace(
        violations[0],
        example=violations[0].example.with_fields(dst_ip=target.address),
    )
    with pytest.raises(CheckFailed):
        checks.check_multipath(tracer, [wrong], [])
    # Reporting no violations while a probe splits is caught.
    probes = [(v.source, v.example) for v in violations]
    with pytest.raises(CheckFailed):
        checks.check_multipath(tracer, [], probes)


def test_destination_reachability_rejects_undeliverable_source(net1):
    _configs, session, tracer = net1
    analyzer = session.analyzer
    target = sorted(n for n in analyzer.graph.sink_nodes() if n[0] == "sink")[0]
    answer = analyzer.destination_reachability(target[1], target[2])
    assert answer
    checks.check_destination_reachability(tracer, session.encoder, target, answer)
    from repro.hdr import fields as f

    elsewhere = session.encoder.ip_eq(f.DST_IP, Ip("203.0.113.77"))
    corrupted = {source: elsewhere for source in answer}
    with pytest.raises(CheckFailed):
        checks.check_destination_reachability(
            tracer, session.encoder, target, corrupted
        )


def test_lint_locations_reject_line_outside_the_file(net1):
    configs, session, _tracer = net1
    report = session.lint()
    located = [f for f in report.findings if f.location.file and f.location.line]
    assert located
    checks.check_lint_locations(report, configs)
    bad = dataclasses.replace(
        located[0],
        location=dataclasses.replace(located[0].location, line=10_000),
    )
    report.findings = [bad]
    with pytest.raises(CheckFailed):
        checks.check_lint_locations(report, configs)


def test_reachability_answer_rejects_wrong_disposition(net1):
    _configs, session, tracer = net1
    prefix = workloads.enabled_prefixes(session.snapshot)[0][2]
    answer = session.reachability(HeaderSpace.build(dst=prefix))
    checks.check_reachability_answer(tracer, session.encoder, answer)
    delivered = answer.by_disposition[Disposition.DELIVERED]
    answer.by_disposition = {Disposition.NO_ROUTE: delivered}
    with pytest.raises(CheckFailed):
        checks.check_reachability_answer(tracer, session.encoder, answer)


def test_service_answer_rejects_false_failure(net1):
    _configs, session, tracer = net1
    encoder = session.encoder
    from repro.hdr import fields as f

    service_ip = checks.network_addresses(session.snapshot)[0]
    answer = session.service_reachable(service_ip, 443)
    space = encoder.engine.and_all([
        encoder.ip_eq(f.DST_IP, service_ip),
        encoder.field_eq(f.DST_PORT, 443),
        encoder.protocol(f.PROTO_TCP),
    ])
    sources = session.analyzer.default_sources(space)
    checks.check_service_answer(tracer, answer, sources, encoder)
    delivered = next(s for s in sources if s not in answer.failing_sources)
    packet = encoder.example_packet(sources[delivered])
    answer.failing_sources.append(delivered)
    answer.examples[delivered] = (packet, None, [])
    with pytest.raises(CheckFailed):
        checks.check_service_answer(tracer, answer, sources, encoder)


def test_search_filters_reject_denied_example():
    from repro.dataplane.acl import acl_permit_space

    session = Session.from_texts(network_by_name("NET8").generate(1))
    space = HeaderSpace()
    rows = session.search_filters(space)
    assert rows
    checks.check_search_filters(
        session.snapshot, session.encoder, space, rows, acl_permit_space
    )
    denied = session.search_filters(space, action=Action.DENY)
    row = dataclasses.replace(rows[0], example=next(
        r.example for r in denied
        if (r.hostname, r.filter_name) == (rows[0].hostname, rows[0].filter_name)
    ))
    with pytest.raises(CheckFailed):
        checks.check_search_filters(
            session.snapshot, session.encoder, space, [row], acl_permit_space
        )
    # A permit set that disagrees with the concrete ACL is caught too.
    with pytest.raises(CheckFailed):
        checks.check_search_filters(
            session.snapshot, session.encoder, space, rows,
            lambda acl, encoder: 0,
        )


def test_traceroute_rejects_other_disposition(net1):
    _configs, session, _tracer = net1
    source = sorted(session.analyzer.graph.source_nodes())[0]
    addresses = checks.network_addresses(session.snapshot)
    packet = checks.random_packet(random.Random(3), addresses, addresses)
    traces = session.traceroute(packet, source[1], source[2])
    symbolic = session.analyzer.reachability(
        {source: session.encoder.packet_bdd(packet)}
    )
    checks.check_traceroute(session.encoder, traces, symbolic)
    seen = checks.dispositions(traces)
    other = next(d for d in Disposition if d not in seen)
    forged = [dataclasses.replace(traces[0], disposition=other)]
    with pytest.raises(CheckFailed):
        checks.check_traceroute(session.encoder, forged, symbolic)


def test_fibs_and_route_diff_reject_divergence(net1):
    configs, base, _tracer = net1
    filename = sorted(configs)[0]
    edited = workloads.static_route_edit(configs[filename], random.Random(1))
    candidate = base.delta({filename: edited})
    scratch = Session.from_texts({**configs, filename: edited})
    checks.check_same_fibs(candidate.fibs, scratch.fibs)
    with pytest.raises(CheckFailed):
        checks.check_same_fibs(candidate.fibs, base.fibs)
    diff = base.route_diff(candidate)
    before, after = checks.rib_set(base), checks.rib_set(candidate)
    checks.check_route_diff(diff, before, after, inert=False)
    with pytest.raises(CheckFailed):
        checks.check_route_diff(diff, before, after, inert=True)
    diff.rows = diff.rows[1:]
    with pytest.raises(CheckFailed):
        checks.check_route_diff(diff, before, after, inert=False)


def test_sweep_sample_rejects_flipped_verdict(net1):
    _configs, base, _tracer = net1
    result = base.sweep(k=1, kinds=("link",), max_elements=2)
    outcome = result.outcomes[0]
    checks.check_sweep_sample(result, {outcome.scenario_id: outcome.verdict.holds})
    with pytest.raises(CheckFailed):
        checks.check_sweep_sample(
            result, {outcome.scenario_id: not outcome.verdict.holds}
        )


def test_typo_check_demands_a_located_warning(net1):
    configs, base, _tracer = net1
    filename = sorted(configs)[0]
    inert = workloads.inert_edit(configs[filename], random.Random(2))
    candidate = base.delta({filename: inert})
    with pytest.raises(CheckFailed):
        checks.check_typo_tolerated(
            candidate, filename, 3, base, candidate.delta_info.dirty_devices
        )


def test_typo_edit_is_seed_independent_and_fails_today(net1):
    configs, base, _tracer = net1
    first = workloads.typo_edit(configs)
    assert first == workloads.typo_edit(dict(configs))
    filename, line, text = first
    assert re.search(r"\d+\.\d+\.\d+\.\d+\.[ /]", text.splitlines()[line - 1])
    with pytest.raises(ValueError, match="invalid IPv4 address"):
        base.delta({filename: text})
