"""Answer checks that do not trust the measured path.

Every check here re-derives what an answer claims by a second route:
symbolic answers are replayed through the concrete traceroute engine
(an independent implementation of forwarding semantics), delta results
are compared with a from-scratch analysis of the edited configs, route
diffs with a set difference the harness computes itself, and lint
locations with the raw config text. The benchmark runs them outside the
timed region; each raises :class:`CheckFailed` with a reason.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Set, Tuple

from repro.config.model import Action
from repro.hdr import fields as f
from repro.hdr.ip import Ip
from repro.hdr.packet import Packet
from repro.reachability.graph import Disposition
from repro.traceroute.engine import Trace, TracerouteEngine

#: Dispositions that count as the packet getting where it was going.
SUCCESS = frozenset(
    {Disposition.ACCEPTED, Disposition.DELIVERED, Disposition.EXITS_NETWORK}
)
#: Dispositions that count as the packet being dropped.
FAILURE = frozenset(
    {
        Disposition.DENIED_IN,
        Disposition.DENIED_OUT,
        Disposition.NO_ROUTE,
        Disposition.NULL_ROUTED,
        Disposition.LOOP,
    }
)


class CheckFailed(AssertionError):
    """An answer disagreed with its independent re-derivation."""


def require(condition: bool, reason: str) -> None:
    if not condition:
        raise CheckFailed(reason)


# ----------------------------------------------------------------------
# Concrete helpers


def packet_assignment(encoder, packet: Packet) -> Dict[int, int]:
    """The BDD variable assignment (level -> bit) of one concrete
    packet, for read-only membership tests with ``engine.eval``."""
    layout = encoder.layout
    assignment: Dict[int, int] = {}
    for name in f.HEADER_FIELDS:
        value = packet.field_value(name)
        width = layout.width(name)
        for bit in range(width):
            assignment[layout.var(name, bit)] = (value >> (width - 1 - bit)) & 1
    return assignment


def contains(encoder, packet_set: int, packet: Packet) -> bool:
    return encoder.engine.eval(packet_set, packet_assignment(encoder, packet))


def dispositions(traces: Sequence[Trace]) -> Set[Disposition]:
    return {trace.disposition for trace in traces}


def delivered_at(traces: Sequence[Trace], hostname: str) -> bool:
    """Some path ends on ``hostname``, accepted or handed to a host."""
    return any(
        trace.disposition in (Disposition.ACCEPTED, Disposition.DELIVERED)
        and trace.hops
        and trace.hops[-1].node == hostname
        for trace in traces
    )


def random_packet(rng, dst_ips: Sequence[Ip], src_ips: Sequence[Ip]) -> Packet:
    """A seeded concrete packet toward one of the network's addresses."""
    protocol = rng.choice((f.PROTO_TCP, f.PROTO_UDP, f.PROTO_ICMP))
    ports = protocol in (f.PROTO_TCP, f.PROTO_UDP)
    return Packet(
        dst_ip=rng.choice(dst_ips),
        src_ip=rng.choice(src_ips),
        ip_protocol=protocol,
        dst_port=rng.choice((22, 53, 80, 443, 8080)) if ports else 0,
        src_port=rng.randrange(1024, 65536) if ports else 0,
    )


def network_addresses(snapshot) -> List[Ip]:
    """Every interface address plus one host address per connected
    subnet — the destinations a seeded packet aims at."""
    addresses: Set[Ip] = set()
    for hostname in snapshot.hostnames():
        for iface in snapshot.device(hostname).interfaces.values():
            if iface.address is None:
                continue
            addresses.add(iface.address)
            prefix = iface.prefix
            if prefix is not None and prefix.length <= 30:
                addresses.add(Ip(prefix.last_ip.value - 1))
    return sorted(addresses, key=lambda ip: ip.value)


# ----------------------------------------------------------------------
# registry-analysis


def check_converged(dataplane) -> None:
    require(dataplane.converged, "data plane did not converge")


def check_multipath(tracer: TracerouteEngine, violations, probes) -> None:
    """Every violation's example really splits between success and
    failure when traced; with no violations reported, no probe packet
    (``(source node, packet)`` pairs) splits."""
    for violation in violations:
        require(violation.example is not None, f"{violation.source}: no example")
        _kind, node, iface = violation.source
        seen = dispositions(tracer.trace(violation.example, node, iface))
        require(
            bool(seen & SUCCESS) and bool(seen & FAILURE),
            f"multipath example from {violation.source} does not split: "
            f"{sorted(d.value for d in seen)}",
        )
    if violations:
        return
    for (_kind, node, iface), packet in probes:
        seen = dispositions(tracer.trace(packet, node, iface))
        require(
            not (seen & SUCCESS and seen & FAILURE),
            f"packet {packet.describe()} from {node}[{iface}] splits "
            f"but no multipath violation was reported",
        )


def check_destination_reachability(
    tracer: TracerouteEngine, encoder, target: Tuple, answer: Dict
) -> None:
    """An example packet from each source set is delivered at the
    target when traced."""
    hostname = target[1]
    for source, packet_set in answer.items():
        packet = encoder.example_packet(packet_set)
        require(packet is not None, f"{source}: empty source set reported")
        _kind, node, iface = source
        traces = tracer.trace(packet, node, iface)
        require(
            delivered_at(traces, hostname),
            f"{packet.describe()} from {node}[{iface}] is not delivered at "
            f"{hostname}: {[t.describe() for t in traces]}",
        )


def check_lint_locations(report, configs: Dict[str, str]) -> None:
    """Every finding's file:line names a non-blank line of the input."""
    lines = {name: text.splitlines() for name, text in configs.items()}
    for finding in report.findings:
        locations = [finding.location] + [r.location for r in finding.related]
        for location in locations:
            if not location.file:
                continue
            body = lines.get(location.file)
            require(
                body is not None,
                f"{finding.rule_id}: cites unknown file {location.file!r}",
            )
            if location.line:
                require(
                    0 < location.line <= len(body)
                    and body[location.line - 1].strip() != "",
                    f"{finding.rule_id}: {location} is not a line of the input",
                )


# ----------------------------------------------------------------------
# question-stream


def check_reachability_answer(tracer, encoder, answer) -> None:
    """Each disposition's example packet, traced from every source whose
    initial set holds it, ends with that disposition on some path."""
    sources = [node for node in answer.reach if node[0] == "src"]
    for disposition, packet_set in sorted(
        answer.by_disposition.items(), key=lambda kv: kv[0].value
    ):
        packet = encoder.example_packet(packet_set)
        if packet is None:
            continue
        origins = [s for s in sources if contains(encoder, answer.reach[s], packet)]
        if not origins:
            # A header rewritten by NAT on the way: no source sent it,
            # so there is nothing concrete to replay.
            continue
        seen: Set[Disposition] = set()
        for _kind, node, iface in origins:
            seen |= dispositions(tracer.trace(packet, node, iface))
        require(
            disposition in seen,
            f"{packet.describe()} claimed {disposition.value}, traced "
            f"{sorted(d.value for d in seen)}",
        )


def check_service_answer(tracer, answer, sources: Dict[Tuple, int], encoder) -> None:
    """Failing sources' negative examples are never delivered and their
    positive examples are; a reachable answer delivers an example from
    every source."""
    for source in answer.failing_sources:
        negative, positive, _fields = answer.examples[source]
        _kind, node, iface = source
        if negative is not None:
            seen = dispositions(tracer.trace(negative, node, iface))
            require(
                not seen & SUCCESS,
                f"negative example {negative.describe()} from {source} "
                f"is delivered: {sorted(d.value for d in seen)}",
            )
        if positive is not None:
            seen = dispositions(tracer.trace(positive, node, iface))
            require(
                bool(seen & SUCCESS),
                f"positive example {positive.describe()} from {source} "
                f"is not delivered: {sorted(d.value for d in seen)}",
            )
    failing = set(answer.failing_sources)
    for source, space in sources.items():
        if source in failing:
            continue
        packet = encoder.example_packet(space)
        _kind, node, iface = source
        seen = dispositions(tracer.trace(packet, node, iface))
        require(
            bool(seen & SUCCESS),
            f"{answer.service} claimed reachable from {source}, but "
            f"{packet.describe()} traced {sorted(d.value for d in seen)}",
        )


def check_search_filters(snapshot, encoder, headerspace, rows, permit_space) -> None:
    """Each row's example lies in the header space, ``test_filter``
    permits it concretely, and it is in the ACL's BDD permit set."""
    from repro.questions.filters import test_filter

    for row in rows:
        require(
            headerspace.contains(row.example),
            f"{row.hostname}/{row.filter_name}: example outside the space",
        )
        concrete = test_filter(snapshot, row.hostname, row.filter_name, row.example)
        acl = snapshot.device(row.hostname).acls[row.filter_name]
        symbolic = contains(encoder, permit_space(acl, encoder), row.example)
        require(
            (concrete.action is Action.PERMIT) == symbolic,
            f"{row.hostname}/{row.filter_name}: test_filter says "
            f"{concrete.action.value}, BDD permit set says {symbolic}",
        )
        require(
            concrete.action is row.action,
            f"{row.hostname}/{row.filter_name}: example does not take "
            f"{row.action.value}",
        )


def check_traceroute(encoder, traces, symbolic_answer) -> None:
    """A concrete traceroute's fates are exactly the dispositions the
    symbolic engine gives the same single packet."""
    require(bool(traces), "traceroute returned no paths")
    concrete = dispositions(traces)
    symbolic = {
        disposition
        for disposition, packet_set in symbolic_answer.by_disposition.items()
        if packet_set != 0
    }
    require(
        concrete == symbolic,
        f"traceroute {sorted(d.value for d in concrete)} vs symbolic "
        f"{sorted(d.value for d in symbolic)}",
    )


# ----------------------------------------------------------------------
# change-review


def fib_lines(fibs) -> List[str]:
    return [
        f"{hostname} {line}"
        for hostname in sorted(fibs)
        for line in sorted(
            entry.describe()
            for _prefix, entries in fibs[hostname].entries()
            for entry in entries
        )
    ]


def check_same_fibs(edited_fibs, scratch_fibs) -> None:
    """The reviewed snapshot's FIBs equal a from-scratch analysis."""
    mine, theirs = fib_lines(edited_fibs), fib_lines(scratch_fibs)
    if mine != theirs:
        first = next(
            (a, b) for a, b in zip(mine + [""] * len(theirs), theirs + [""] * len(mine))
            if a != b
        )
        raise CheckFailed(f"FIBs differ from a from-scratch run: {first}")


def rib_set(session) -> Set[Tuple[str, str]]:
    return {(row.node, row.description) for row in session.routes()}


def check_route_diff(diff, base_routes, new_routes, inert: bool) -> None:
    """``route_diff`` equals the set difference of the two main RIBs;
    a routing-inert edit changes nothing."""
    added = {(r.node, r.description) for r in diff.added()}
    removed = {(r.node, r.description) for r in diff.removed()}
    require(
        added == new_routes - base_routes,
        f"route_diff added {len(added)} routes, RIBs differ by "
        f"{len(new_routes - base_routes)}",
    )
    require(
        removed == base_routes - new_routes,
        f"route_diff removed {len(removed)} routes, RIBs differ by "
        f"{len(base_routes - new_routes)}",
    )
    if inert:
        require(not added and not removed, "routing-inert edit changed routes")


def check_sweep_sample(result, scratch_verdicts: Dict[str, bool]) -> None:
    """Sampled scenarios get the verdict a from-scratch analysis gives."""
    for scenario_id, holds in scratch_verdicts.items():
        outcome = result.outcome(scenario_id)
        require(outcome is not None, f"sweep lost scenario {scenario_id}")
        require(
            outcome.verdict.holds == holds,
            f"scenario {scenario_id}: sweep says holds={outcome.verdict.holds}, "
            f"from scratch holds={holds}",
        )


def check_typo_tolerated(session, filename: str, line: int, base, dirty: Iterable[str]) -> None:
    """Once parsing tolerates bad values: a warning at the edited line,
    and routing fingerprints unchanged outside the dirty set."""
    from repro.delta import routing_fingerprint

    require(
        any(
            w.source_file == filename and w.line_number == line
            for w in session.parse_warnings
        ),
        f"no parse warning at {filename}:{line}",
    )
    dirty = set(dirty)
    for hostname in base.snapshot.hostnames():
        if hostname in dirty or hostname not in session.snapshot.devices:
            continue
        require(
            routing_fingerprint(base.snapshot.device(hostname))
            == routing_fingerprint(session.snapshot.device(hostname)),
            f"{hostname}: routing fingerprint changed outside the dirty set",
        )
