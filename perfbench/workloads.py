"""The benchmark's three closed-loop workloads.

Each workload generates its inputs from the 11-network registry
(``repro.synth.networks``, scale 1) and a seed, does its set-up, and
then hands the runner one *round* of operations: a run is one round.
A round is always the same multiset of operation classes over the same
networks; only the seeded choices inside each operation differ. That
keeps the latency distribution, and the share of failing operations,
the same in every run whatever the seed.

An :class:`Op` carries the timed call and the check of its result; the
runner times ``run`` and calls ``check`` outside the timed region.
Class attributes tell the runner how many set-ups to time per run
(``SETUP_SAMPLES``, this process plus fresh interpreters) and whether
checks wait until the timed phase is over (``CHECK_AFTER_TIMED``).
"""

from __future__ import annotations

import random
import re
import shutil
import tempfile
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import checks
from repro import Session
from repro.core.cache import SnapshotCache
from repro.dataplane.acl import acl_permit_space
from repro.hdr import fields as f
from repro.hdr.headerspace import HeaderSpace
from repro.hdr.ip import Ip, Prefix
from repro.synth.networks import NETWORKS
from repro.traceroute.engine import TracerouteEngine

#: Registry scale every workload uses (the paper-shaped default).
SCALE = 1


@dataclass
class Op:
    kind: str
    network: str
    run: Callable[[], object]
    check: Callable[[object], None]


def generate_registry() -> Dict[str, Dict[str, str]]:
    return {spec.name: spec.generate(SCALE) for spec in NETWORKS}


def child_rng(rng: random.Random) -> random.Random:
    return random.Random(rng.getrandbits(64))


def enabled_prefixes(snapshot) -> List[Tuple[str, str, Prefix]]:
    rows = []
    for hostname in snapshot.hostnames():
        for iface in snapshot.device(hostname).interfaces.values():
            if iface.enabled and iface.prefix is not None:
                rows.append((hostname, iface.name, iface.prefix))
    return sorted(rows, key=lambda r: (r[0], r[1]))


def translating_addresses(snapshot) -> Dict[str, List[Ip]]:
    """The addresses of each device that translates addresses, in
    interface-name order."""
    owned = {}
    for hostname in snapshot.hostnames():
        interfaces = sorted(snapshot.device(hostname).interfaces.items())
        if any(i.src_nat_rules or i.dst_nat_rules for _n, i in interfaces):
            owned[hostname] = [i.address for _n, i in interfaces if i.address]
    return owned


def is_juniper(text: str) -> bool:
    return text.lstrip().startswith("set ")


# ----------------------------------------------------------------------
# registry-analysis


class RegistryAnalysis:
    """Cold, uncached Table 2 pipeline on one network per operation,
    the networks visited in a seeded order, one whole pass at a time."""

    name = "registry-analysis"
    #: Set-up is a fraction of a second: more samples are cheap.
    SETUP_SAMPLES = 9
    CHECK_AFTER_TIMED = False

    #: Two passes per round: a pass is ~17 s, most of it one NET11
    #: multipath run, and two average out more of the machine's noise.
    PASSES_PER_ROUND = 2

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def setup(self) -> None:
        self.configs = generate_registry()

    def live_engines(self) -> list:
        return []

    def round(self) -> List[Op]:
        ops = []
        for _ in range(self.PASSES_PER_ROUND):
            order = sorted(self.configs)
            self.rng.shuffle(order)
            for name in order:
                rng = child_rng(self.rng)
                ops.append(
                    Op(
                        "analysis",
                        name,
                        lambda name=name, rng=rng: self._analyze(name, rng),
                        lambda result, rng=rng: self._check(result, rng),
                    )
                )
        return ops

    def _analyze(self, name: str, rng: random.Random):
        configs = self.configs[name]
        session = Session.from_texts(configs)
        session.assert_converged()
        session.fibs
        analyzer = session.analyzer
        sinks = sorted(n for n in analyzer.graph.sink_nodes() if n[0] == "sink")
        targets = rng.sample(sinks, min(2, len(sinks)))
        dest = {
            target: analyzer.destination_reachability(target[1], target[2])
            for target in targets
        }
        violations = session.multipath_consistency()
        report = session.lint()
        return configs, session, dest, violations, report

    def _check(self, result, rng: random.Random) -> None:
        configs, session, dest, violations, report = result
        checks.check_converged(session.dataplane)
        tracer = TracerouteEngine(session.dataplane, session.fibs)
        addresses = checks.network_addresses(session.snapshot)
        probes = [
            (source, checks.random_packet(rng, addresses, addresses))
            for source in sorted(session.analyzer.graph.source_nodes())
            for _ in range(2)
        ]
        checks.check_multipath(tracer, violations, probes)
        for target, answer in dest.items():
            checks.check_destination_reachability(
                tracer, session.encoder, target, answer
            )
        checks.check_lint_locations(report, configs)


# ----------------------------------------------------------------------
# question-stream


@dataclass
class _Loaded:
    name: str
    session: Session
    prefixes: List[Tuple[str, str, Prefix]]
    addresses: List[Ip]
    service_ips: List[Ip]
    nat_services: List[Ip]
    sinks: List[Tuple]
    sources: List[Tuple]
    tracer: TracerouteEngine


class QuestionStream:
    """All 11 networks loaded with analyzers built; each operation is
    one seeded question against one of them."""

    name = "question-stream"
    SETUP_SAMPLES = 3
    #: The checks ask the loaded analyzers themselves (symbolic oracles,
    #: permit sets), which would grow their BDD caches: they run after
    #: the timed phase, so neither memory nor later questions see them.
    CHECK_AFTER_TIMED = True

    #: Per network per round (495 seeded questions). Symbolic questions
    #: dominate; concrete traceroutes are the minority (1 in 9).
    CLASSES = (
        ("reachability", 10),
        ("service_reachable", 10),
        ("destination_reachability", 10),
        ("search_filters", 10),
        ("traceroute", 5),
    )

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def setup(self) -> None:
        self.loaded: Dict[str, _Loaded] = {}
        for name, configs in generate_registry().items():
            session = Session.from_texts(configs)
            session.assert_converged()
            analyzer = session.analyzer
            addresses = checks.network_addresses(session.snapshot)
            nat = translating_addresses(session.snapshot)
            nat_owned = {ip for ips in nat.values() for ip in ips}
            self.loaded[name] = _Loaded(
                name=name,
                session=session,
                prefixes=enabled_prefixes(session.snapshot),
                addresses=addresses,
                service_ips=[ip for ip in addresses if ip not in nat_owned],
                nat_services=[ips[0] for _host, ips in sorted(nat.items())],
                sinks=sorted(
                    n for n in analyzer.graph.sink_nodes() if n[0] == "sink"
                ),
                sources=sorted(analyzer.graph.source_nodes()),
                tracer=TracerouteEngine(session.dataplane, session.fibs),
            )

    def live_engines(self) -> list:
        return [net.session.encoder.engine for net in self.loaded.values()]

    def round(self) -> List[Op]:
        ops = []
        for name in sorted(self.loaded):
            for kind, count in self.CLASSES:
                for _ in range(count):
                    ops.append(self._op(kind, self.loaded[name], child_rng(self.rng)))
            for service_ip in self.loaded[name].nat_services:
                ops.append(self._service_op(
                    "service_nat", self.loaded[name], service_ip, 80,
                    child_rng(self.rng),
                ))
        self.rng.shuffle(ops)
        return ops

    def _service_op(self, kind: str, net: _Loaded, service_ip: Ip, port: int,
                    rng: random.Random) -> Op:
        """``service_reachable`` on one address and port.

        Seeded questions (``service_reachable``) never target a device
        that translates addresses: from its NAT interface toward its own
        addresses the answer reports a delivered packet as failing, on
        every address and port, and a seeded share of such targets would
        make the failed share depend on the seed. Instead each such
        device gets one fixed question per round (``service_nat``, the
        first address, port 80), a known fault that fails its check in
        every run until the answer is mended.
        """
        session = net.session
        encoder = session.encoder

        def check_service(answer):
            # The scoped client spaces the question started from.
            space = encoder.engine.and_all(
                [
                    encoder.ip_eq(f.DST_IP, service_ip),
                    encoder.field_eq(f.DST_PORT, port),
                    encoder.protocol(f.PROTO_TCP),
                ]
            )
            sources = session.analyzer.default_sources(space)
            sample = dict(
                rng.sample(sorted(sources.items()), min(3, len(sources)))
            )
            checks.check_service_answer(net.tracer, answer, sample, encoder)

        return Op(
            kind, net.name,
            lambda: session.service_reachable(service_ip, port),
            check_service,
        )

    def _op(self, kind: str, net: _Loaded, rng: random.Random) -> Op:
        session = net.session
        encoder = session.encoder
        if kind == "reachability":
            _host, _iface, prefix = rng.choice(net.prefixes)
            space = HeaderSpace.build(dst=prefix)
            return Op(
                kind, net.name,
                lambda: session.reachability(space),
                lambda answer: checks.check_reachability_answer(
                    net.tracer, encoder, answer
                ),
            )
        if kind == "service_reachable":
            service_ip = rng.choice(net.service_ips)
            port = rng.choice((22, 53, 80, 443, 8080))
            return self._service_op(kind, net, service_ip, port, rng)
        if kind == "destination_reachability":
            target = rng.choice(net.sinks)
            return Op(
                kind, net.name,
                lambda: session.analyzer.destination_reachability(
                    target[1], target[2]
                ),
                lambda answer: checks.check_destination_reachability(
                    net.tracer, encoder, target, answer
                ),
            )
        if kind == "search_filters":
            _host, _iface, prefix = rng.choice(net.prefixes)
            space = HeaderSpace.build(dst=prefix)
            return Op(
                kind, net.name,
                lambda: session.search_filters(space),
                lambda rows: checks.check_search_filters(
                    session.snapshot, encoder, space, rows, acl_permit_space
                ),
            )
        source = rng.choice(net.sources)
        packet = checks.random_packet(rng, net.addresses, net.addresses)

        def check_trace(traces):
            # The symbolic engine is the oracle for the concrete one.
            symbolic = session.analyzer.reachability(
                {source: encoder.packet_bdd(packet)}
            )
            checks.check_traceroute(encoder, traces, symbolic)

        return Op(
            kind, net.name,
            lambda: session.traceroute(packet, source[1], source[2]),
            check_trace,
        )


# ----------------------------------------------------------------------
# change-review


_ADDRESS_LINE = re.compile(
    r"(?:\bip address|family inet address) (\d+\.\d+\.\d+\.\d+)"
)


def typo_edit(configs: Dict[str, str]) -> Tuple[str, int, str]:
    """The fixed typo of one network: the first address line of the
    first file that has one gets an extra '.' after the address.
    Independent of the seed, so it fails (or passes) identically in
    every run."""
    for filename in sorted(configs):
        text = configs[filename]
        match = _ADDRESS_LINE.search(text)
        if match:
            end = match.end(1)
            line = text.count("\n", 0, end) + 1
            return filename, line, text[:end] + "." + text[end:]
    raise ValueError("network has no address line to mistype")


def inert_edit(text: str, rng: random.Random) -> str:
    server = f"203.0.113.{rng.randrange(1, 255)}"
    if is_juniper(text):
        return text + f"set system ntp server {server}\n"
    return text + f"ntp server {server}\n"


def static_route_edit(text: str, rng: random.Random) -> str:
    length = rng.randrange(25, 31)
    prefix = Prefix(Ip(f"198.51.100.{rng.randrange(0, 256)}"), length)
    if is_juniper(text):
        return text + (
            f"set routing-options static route {prefix} next-hop discard\n"
        )
    return text + f"ip route {prefix.network} {prefix.mask} Null0\n"


def shutdown_edit(text: str, rng: random.Random) -> str:
    if is_juniper(text):
        names = sorted(set(re.findall(r"^set interfaces (\S+) ", text, re.M)))
        return text + f"set interfaces {rng.choice(names)} disable\n"
    names = sorted(set(re.findall(r"^interface (\S+)", text, re.M)))
    return text + f"interface {rng.choice(names)}\n shutdown\n!\n"


class ChangeReview:
    """Base snapshots of every registry network behind a fresh on-disk
    cache; each operation reviews one single-file change (or runs a k=1
    link sweep on a base)."""

    name = "change-review"
    SETUP_SAMPLES = 3
    CHECK_AFTER_TIMED = False

    #: Links per k=1 sweep. Four keeps most sweeps at or above pmap's
    #: pooling threshold, so sweeps exercise the pool with a few heavy
    #: items.
    SWEEP_ELEMENTS = 4
    SWEEPS_PER_ROUND = 4
    EDITS = ("inert", "static_route", "shutdown", "typo")

    def __init__(self, seed: int, work_dir: str):
        self.rng = random.Random(seed)
        self.work_dir = work_dir

    def setup(self) -> None:
        self.cache_dir = tempfile.mkdtemp(prefix="cache-", dir=self.work_dir)
        self.cache = SnapshotCache(self.cache_dir)
        self.configs = generate_registry()
        self.bases: Dict[str, Session] = {}
        for name, configs in self.configs.items():
            base = Session.from_texts(configs, cache=self.cache)
            base.assert_converged()
            base.lint()
            self.bases[name] = base
        self.typos = {
            name: typo_edit(configs) for name, configs in self.configs.items()
        }
        self._base_routes: Dict[str, set] = {}

    def close(self) -> None:
        shutil.rmtree(self.cache_dir, ignore_errors=True)

    def live_engines(self) -> list:
        return []

    def round(self) -> List[Op]:
        names = sorted(self.configs)
        # Sweeps visit the first SWEEPS_PER_ROUND networks by name: they
        # stay a minority, and every run sweeps the same networks, so
        # the cost of a round does not hinge on which ones a seed picks.
        swept = set(names[: self.SWEEPS_PER_ROUND])
        ops = []
        for name in names:
            for kind in self.EDITS:
                ops.append(self._edit_op(kind, name, child_rng(self.rng)))
            if name in swept:
                ops.append(self._sweep_op(name, child_rng(self.rng)))
        self.rng.shuffle(ops)
        return ops

    # -- edits ------------------------------------------------------------

    def _edit_op(self, kind: str, name: str, rng: random.Random) -> Op:
        configs = self.configs[name]
        if kind == "typo":
            filename, line, text = self.typos[name]
        else:
            filename = rng.choice(sorted(configs))
            edit = {
                "inert": inert_edit,
                "static_route": static_route_edit,
                "shutdown": shutdown_edit,
            }[kind]
            text = edit(configs[filename], rng)
            line = 0
        base = self.bases[name]

        def review():
            candidate = base.delta({filename: text})
            candidate.assert_converged()
            candidate.fibs
            diff = base.route_diff(candidate)
            report = candidate.lint()
            return candidate, diff, report

        def check(result):
            candidate, diff, report = result
            edited = dict(configs)
            edited[filename] = text
            if kind == "typo":
                checks.check_typo_tolerated(
                    candidate, filename, line, base,
                    candidate.delta_info.dirty_devices,
                )
            scratch = Session.from_texts(edited)
            checks.check_same_fibs(candidate.fibs, scratch.fibs)
            checks.check_route_diff(
                diff,
                self._routes(name),
                checks.rib_set(candidate),
                inert=kind == "inert",
            )
            checks.check_lint_locations(report, edited)

        return Op(kind, name, review, check)

    def _routes(self, name: str) -> set:
        if name not in self._base_routes:
            self._base_routes[name] = checks.rib_set(self.bases[name])
        return self._base_routes[name]

    # -- sweeps -------------------------------------------------------------

    def _sweep_op(self, name: str, rng: random.Random) -> Op:
        from repro.sweep.scenarios import (
            ReachabilityProperty,
            enumerate_elements,
            enumerate_scenarios,
            evaluate_property,
            render_scenario_edits,
        )

        base = self.bases[name]
        prefixes = enabled_prefixes(base.snapshot)
        src_host, src_iface, src_prefix = rng.choice(prefixes)
        others = [row for row in prefixes if row[0] != src_host] or prefixes
        dst_host, dst_iface, _dst_prefix = rng.choice(others)
        dst_ip = base.snapshot.device(dst_host).interfaces[dst_iface].address
        prop = ReachabilityProperty(
            src_node=src_host,
            src_interface=src_iface,
            dst_ip=str(dst_ip),
            src_ip=str(src_prefix.network),
        )

        def sweep():
            return base.sweep(
                k=1, kinds=("link",), prop=prop,
                max_elements=self.SWEEP_ELEMENTS,
            )

        def check(result):
            elements = enumerate_elements(
                base.snapshot, kinds=("link",), max_elements=self.SWEEP_ELEMENTS
            )
            scenarios, _ = enumerate_scenarios(elements, 1)
            if not scenarios:
                return
            scenario = rng.choice(scenarios)
            edited = dict(self.configs[name])
            edited.update(
                render_scenario_edits(base.snapshot, self.configs[name], scenario)
            )
            verdict = evaluate_property(Session.from_texts(edited), prop)
            checks.check_sweep_sample(result, {scenario.scenario_id: verdict.holds})

        return Op("sweep", name, sweep, check)


WORKLOADS = {
    RegistryAnalysis.name: RegistryAnalysis,
    QuestionStream.name: QuestionStream,
    ChangeReview.name: ChangeReview,
}


def make(name: str, seed: int, work_dir: str):
    cls = WORKLOADS[name]
    if cls is ChangeReview:
        return cls(seed, work_dir)
    return cls(seed)
