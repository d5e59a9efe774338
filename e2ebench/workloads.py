"""The three workloads: their inputs, their operations and their checks.

Every input is drawn from ``random.Random`` seeded with the workload seed;
the program under test only ever sees the generated requests.  Checks
compare against computations made apart from the code path under test
(the ``reference`` simulation backend, the software PRESENT-80 model,
witness replay) or against properties the method must have.  They run
outside the timed region with the tracer's counters off.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import tempfile
import threading
import time
import traceback
from pathlib import Path

import numpy as np

#: PRESENT-80 instance every workload uses (the paper's target)
CIPHER = "present80"
#: faulted runs per fault location, as ``repro certify`` defaults
RUNS_PER_LOCATION = 64


def _key80(rng: random.Random) -> int:
    return rng.getrandbits(80)


def _present_matches(key: int, pt_bits, ct_bits) -> bool:
    """Clean ciphertexts against the software PRESENT-80 model."""
    from repro.ciphers.present import Present80
    from repro.utils.bits import bits_to_ints

    model = Present80(key)
    return all(
        model.encrypt(pt) == ct
        for pt, ct in zip(bits_to_ints(pt_bits), bits_to_ints(ct_bits))
    )


def _digest(certificate: dict) -> str:
    """SHA-256 of a certificate document without its ``timing`` key."""
    body = {k: v for k, v in certificate.items() if k != "timing"}
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()


class Failures(list):
    """Failed correctness checks, as readable lines."""

    def expect(self, ok, what: str) -> None:
        if not ok:
            self.append(what)


# --------------------------------------------------------------------------
# certify-full: sampled certify calls on full-round protected PRESENT-80
# --------------------------------------------------------------------------


class CertifyFull:
    """A loop of ``certify_design`` calls, each with a fresh seed and key."""

    name = "certify-full"
    #: fault locations per certify call (budget = LOCATIONS x 64 runs);
    #: about 1.5 s, so a 30-s run holds some twenty calls and their median
    #: latency is steady (with 192, five to seven calls spread past the bound)
    LOCATIONS = 48
    #: locations per call recounted on the reference backend
    RECOUNT = 1

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(f"{self.name}:{seed}")
        self.space = None

    def setup(self) -> dict[str, float]:
        from repro.certify import CertifyConfig, certify_design
        from repro.service.protocol import build_design

        t0 = time.perf_counter()
        self.design = build_design("three-in-one", cipher=CIPHER)
        t1 = time.perf_counter()
        # warm-up: fills the schedule/codegen caches and the run manifest
        certify_design(
            self.design, key=1,
            config=CertifyConfig(budget=2 * RUNS_PER_LOCATION, seed=0),
        )
        t2 = time.perf_counter()
        return {"build_s": t1 - t0, "warmup_s": t2 - t1}

    def next_input(self) -> dict:
        return {"key": _key80(self.rng), "seed": self.rng.randrange(1, 2**31)}

    def operate(self, inp: dict):
        import repro.certify as certify

        config = certify.CertifyConfig(
            budget=self.LOCATIONS * RUNS_PER_LOCATION,
            runs_per_location=RUNS_PER_LOCATION,
            seed=inp["seed"],
        )
        return certify.certify_design(self.design, key=inp["key"], config=config)

    @staticmethod
    def account(certificate) -> tuple[int, int]:
        cov = certificate.coverage
        return cov["locations_covered"], cov["runs_executed"]

    @staticmethod
    def same(a, b) -> bool:
        return a.render(include_timing=False) == b.render(include_timing=False)

    def check(self, inp: dict, certificate) -> Failures:
        from repro.certify import enumerate_fault_space
        from repro.faults.campaign import run_range
        from repro.faults.classification import classify

        bad = Failures()
        cov = certificate.coverage
        bad.expect(
            cov["locations_planned"] == cov["locations_covered"] == self.LOCATIONS,
            f"coverage incomplete: {cov['locations_covered']}/"
            f"{cov['locations_planned']}",
        )
        bad.expect(
            cov["runs_executed"] == RUNS_PER_LOCATION * cov["locations_covered"],
            f"runs_executed {cov['runs_executed']} != 64 x locations",
        )
        bad.expect(not certificate.degraded, "certificate degraded")
        for claim in ("structural_lint", "dfa_detection"):
            status = certificate.verdicts[claim]["status"]
            bad.expect(status == "pass", f"{claim}: {status}")
        if self.space is None:
            self.space = enumerate_fault_space(self.design)
        bad.expect(
            certificate.space["digest"] == self.space.digest(),
            "certificate swept a different fault space",
        )
        picker = random.Random(inp["seed"])
        for index, counts in picker.sample(certificate.locations, self.RECOUNT):
            pt, rel, exp, flags = run_range(
                self.design, self.space.scenario(index).specs,
                key=inp["key"], seed=inp["seed"], lo=0, hi=RUNS_PER_LOCATION,
                backend="reference",
            )
            outcomes = classify(rel, flags, exp, flag_observable=True)
            recount = np.bincount(outcomes, minlength=len(counts)).tolist()
            bad.expect(
                recount == counts,
                f"location {index}: reference recount {recount} != {counts}",
            )
            bad.expect(
                _present_matches(inp["key"], pt, exp),
                f"location {index}: clean ciphertexts differ from Present80",
            )
        return bad


# --------------------------------------------------------------------------
# campaign-fig45: the paper's Fig. 4 + Fig. 5 campaigns at 80,000 runs
# --------------------------------------------------------------------------


class CampaignFig45:
    """A loop of ``figure4`` + ``figure5`` pairs with fresh seeds and key."""

    name = "campaign-fig45"
    #: runs per campaign, as in the paper
    N_RUNS = 80_000
    #: clean runs of the short campaign checked against Present80
    KAT_RUNS = 64

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(f"{self.name}:{seed}")

    def setup(self) -> dict[str, float]:
        from repro.ciphers.netlist_present import PresentSpec
        from repro.countermeasures import (
            build_naive_duplication,
            build_three_in_one,
        )
        from repro.evaluation.figures import figure4, figure5

        t0 = time.perf_counter()
        self.design = build_three_in_one(PresentSpec())
        build_naive_duplication(PresentSpec())
        t1 = time.perf_counter()
        figure4(n_runs=2048, seed=0)
        figure5(n_runs=2048, seed=0)
        t2 = time.perf_counter()
        return {"build_s": t1 - t0, "warmup_s": t2 - t1}

    def next_input(self) -> dict:
        return {
            "key": _key80(self.rng),
            "seed4": self.rng.randrange(1, 2**31),
            "seed5": self.rng.randrange(1, 2**31),
        }

    def operate(self, inp: dict):
        import repro.evaluation.figures as figures

        fig4 = figures.figure4(n_runs=self.N_RUNS, key=inp["key"], seed=inp["seed4"])
        fig5 = figures.figure5(n_runs=self.N_RUNS, key=inp["key"], seed=inp["seed5"])
        return fig4, fig5

    def account(self, out) -> tuple[int, int]:
        # four campaigns, one fault location each
        return 4, 4 * self.N_RUNS

    @staticmethod
    def same(a, b) -> bool:
        def flat(figs):
            return [
                (s.counts, s.distribution.tolist(), s.sei, s.faulty_released)
                for fig in figs
                for s in (fig.naive, fig.ours)
            ]

        return flat(a) == flat(b)

    def check(self, inp: dict, out) -> Failures:
        from repro.faults.campaign import run_campaign

        fig4, fig5 = out
        bad = Failures()
        n = self.N_RUNS
        # Fig. 4 (a): the stuck-at-0 bit empties exactly the 8 bins where
        # that bit of the S-box input is 1.
        empty = set(np.flatnonzero(fig4.naive.distribution == 0).tolist())
        stuck = {x for x in range(16) if (x >> fig4.target_bit) & 1}
        bad.expect(empty == stuck, f"fig4 naive empty bins {sorted(empty)}")
        # Fig. 4 (b): uniform — 16·n·SEI is chi-square with 15 dof.
        m = int(fig4.ours.distribution.sum())
        chi2 = 16 * m * fig4.ours.sei
        bad.expect(m > 0 and chi2 < 60.0, f"fig4 ours chi2 {chi2:.1f} (n={m})")
        # Fig. 5: ours releases nothing faulty; naive about N/2.
        bad.expect(
            fig5.ours.faulty_released == 0,
            f"fig5 ours released {fig5.ours.faulty_released} faulty",
        )
        band = 6 * (n / 4) ** 0.5
        bad.expect(
            abs(fig5.naive.faulty_released - n / 2) <= band,
            f"fig5 naive released {fig5.naive.faulty_released} faulty",
        )
        for fig in (fig4, fig5):
            for series in (fig.naive, fig.ours):
                bad.expect(
                    sum(series.counts.values()) == n,
                    f"{series.scheme}: {sum(series.counts.values())} runs",
                )
        short = run_campaign(
            self.design, [], n_runs=self.KAT_RUNS, key=inp["key"],
            seed=inp["seed4"],
        )
        bad.expect(
            _present_matches(inp["key"], short.plaintext_bits, short.expected_bits),
            "short campaign: clean ciphertexts differ from Present80",
        )
        return bad


# --------------------------------------------------------------------------
# service-mixed: an in-process daemon under two closed-loop HTTP clients
# --------------------------------------------------------------------------


class ServiceMixed:
    """Two closed-loop clients; each round one cold request and repeats.

    A round has three phases, each ended by a barrier: both clients send
    their cold request (two campaigns run at once); client 0 sends its
    repeats; client 1 sends its repeats.  Store hits overlapping a
    campaign or each other wait on the interpreter lock, and that made
    their latency swing with the machine's speed far more than any other
    figure; run alone, they are timed the same way in every run.
    """

    name = "service-mixed"
    CLIENTS = 2
    #: store hits per cold request in each client round
    HITS = 15
    #: reduced-round instance for cold requests
    ROUNDS = 2
    #: fault locations per cold request (the set-up ones are smaller)
    LOCATIONS = 64
    WARMUP_LOCATIONS = 4

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        rng = random.Random(f"{self.name}:{seed}")
        self.key = hex(_key80(rng))
        #: cold request seeds are seed_base + 2·round + client: distinct
        #: by construction (and from the set-up seed 1), so a cold request
        #: never hits the store
        self.seed_base = 1000 + rng.randrange(2**30)
        self.workdir = workdir
        self.tracer = None
        #: (request id, start, elapsed) of each traced certify call
        self.certify_spans: list[tuple[str, float, float]] = []
        self._spans_lock = threading.Lock()
        self.service = None
        self.thread = None
        self.store_dir = None
        #: request key -> certificate digest (sans timing) of its cold run
        self.cold_digests: dict[str, str] = {}

    def request(self, kind: int, seed: int, locations: int) -> dict:
        """Three-in-one (must pass) for even ``kind``, else naive
        duplication under identical masks (must fail)."""
        doc = {
            "cipher": CIPHER,
            "rounds": self.ROUNDS,
            "budget": locations * RUNS_PER_LOCATION,
            "runs_per_location": RUNS_PER_LOCATION,
            "seed": seed,
            "key": self.key,
        }
        if kind % 2 == 0:
            doc["scheme"] = "three-in-one"
        else:
            doc["scheme"] = "naive"
            doc["models"] = ["identical_mask"]
        return doc

    def _certify(self, design, *, key, config):
        """The daemon's injectable certify callable, timed per request."""
        import repro.certify as certify
        from repro.telemetry import trace

        tracer = self.tracer
        start = time.perf_counter()
        try:
            return certify.certify_design(design, key=key, config=config)
        finally:
            if tracer is not None and tracer.counting and tracer.timing:
                rid = trace.context().get("request_id")
                elapsed = time.perf_counter() - start
                with self._spans_lock:
                    self.certify_spans.append((rid, start, elapsed))

    def setup(self) -> dict[str, float]:
        from repro.service import CertificationService, ServiceClient, ServiceConfig

        t0 = time.perf_counter()
        self.store_dir = Path(tempfile.mkdtemp(prefix="store-", dir=self.workdir))
        self.service = CertificationService(
            ServiceConfig(store_dir=str(self.store_dir), concurrency=2, jobs=1),
            certify=self._certify,
        )
        self.thread = threading.Thread(target=self.service.serve, daemon=True)
        self.thread.start()
        if not self.service.ready.wait(60):
            raise RuntimeError("certification service did not start")
        self.url = f"http://127.0.0.1:{self.service.port}"
        t1 = time.perf_counter()
        client = ServiceClient(self.url, timeout=120)
        for kind in range(2):
            # one small cold request per scheme, then a store hit
            req = self.request(kind, 1, self.WARMUP_LOCATIONS)
            for attempt in ("cold", "hit"):
                status, body = client.submit(req)
                if status != 200:
                    raise RuntimeError(f"warm-up request failed: {status} {body}")
                if attempt == "cold":
                    self.cold_digests[body["key"]] = _digest(body["certificate"])
        t2 = time.perf_counter()
        return {"build_s": t1 - t0, "warmup_s": t2 - t1}

    def close(self) -> None:
        if self.service is not None and self.thread is not None:
            self.service.request_shutdown()
            self.thread.join(120)
        if self.store_dir is not None:
            shutil.rmtree(self.store_dir, ignore_errors=True)

    def run(self, tracer, seconds: float, trace: bool) -> dict:
        """Drive the closed loop in whole rounds; returns per-request records.

        In a traced run timing is switched on for every other round (at
        the barrier, when nothing is in flight), so traced and untraced
        rounds of identical make-up can be compared.
        """
        from repro.service import ServiceClient

        self.tracer = tracer
        records: list[dict] = []
        lock = threading.Lock()
        state: dict = {"stop": False}
        round_walls: list[tuple[bool, float, dict]] = []

        def at_barrier() -> None:
            now = time.perf_counter()
            was_traced = tracer.timing
            counts = tracer.snapshot()
            delta = {k: counts[k] - state["counts"][k] for k in counts}
            round_walls.append((was_traced, now - state["mark"], delta))
            state["mark"], state["counts"] = now, counts
            # a traced run ends on a traced round: pairs stay complete
            state["stop"] = now - started >= seconds and (was_traced or not trace)
            tracer.timing = trace and not was_traced and not state["stop"]

        phase = threading.Barrier(self.CLIENTS)
        round_done = threading.Barrier(self.CLIENTS, action=at_barrier)

        def client_loop(c: int) -> None:
            client = ServiceClient(self.url, timeout=120)
            picker = random.Random(f"{self.name}:{self.seed}:client{c}")
            done: list[dict] = []
            rnd = 0

            def send(req: dict, is_cold: bool) -> None:
                traced = tracer.timing
                t0 = time.perf_counter()
                try:
                    status, body = client.submit(req)
                    error = None
                except Exception as exc:  # counted as a failed request
                    status, body, error = None, {}, f"{type(exc).__name__}: {exc}"
                latency = time.perf_counter() - t0
                record = {
                    "client": c, "round": rnd, "cold": is_cold,
                    "request": req, "status": status, "latency": latency,
                    "traced": traced, "error": error,
                    "cached": body.get("cached"), "key": body.get("key"),
                }
                if status == 200:
                    cert = body["certificate"]
                    record["digest"] = _digest(cert)
                    record["coverage"] = cert["coverage"]
                    if is_cold:
                        record["certificate"] = cert
                        done.append(req)
                with lock:
                    records.append(record)

            while not state["stop"]:
                cold = self.request(
                    rnd + c, self.seed_base + 2 * rnd + c, self.LOCATIONS
                )
                send(cold, True)
                phase.wait()
                for turn in range(self.CLIENTS):
                    if turn == c:
                        for _ in range(self.HITS):
                            send(picker.choice(done or [cold]), False)
                    phase.wait()
                rnd += 1
                round_done.wait()

        tracer.counting = True
        tracer.timing = False
        started = time.perf_counter()
        state["mark"], state["counts"] = started, tracer.snapshot()
        threads = [
            threading.Thread(target=client_loop, args=(c,), daemon=True)
            for c in range(self.CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - started
        tracer.counting = False
        tracer.timing = False
        return {"records": records, "wall": wall, "round_walls": round_walls}

    def check(self, records: list[dict]) -> Failures:
        from repro.certify import Certificate, replay_witness
        from repro.service.protocol import build_design

        bad = Failures()
        naive = build_design("naive", cipher=CIPHER, rounds=self.ROUNDS)
        colds = dict(self.cold_digests)
        for rec in records:
            if rec["status"] != 200 or not rec["cold"]:
                continue
            bad.expect(rec["cached"] is None, f"cold request served {rec['cached']}")
            cert = Certificate.from_dict(rec["certificate"])
            cov = cert.coverage
            bad.expect(
                cov["locations_covered"] == cov["locations_planned"] == self.LOCATIONS
                and not cert.degraded,
                f"cold certificate incomplete: {cov['locations_covered']}",
            )
            if rec["request"]["scheme"] == "three-in-one":
                bad.expect(cert.passed, "three-in-one certificate failed")
            else:
                bad.expect(
                    cert.verdicts["dfa_detection"]["status"] == "fail"
                    and cert.witnesses,
                    "naive identical_mask certificate did not fail",
                )
                for witness in cert.witnesses:
                    outcome, _ = replay_witness(naive, witness, key=int(self.key, 0))
                    bad.expect(
                        outcome.name == "EFFECTIVE",
                        f"witness {witness['space_index']} replays as {outcome.name}",
                    )
            colds[rec["key"]] = rec["digest"]
        for rec in records:
            if rec["status"] != 200 or rec["cold"]:
                continue
            bad.expect(rec["cached"] == "store", f"repeat served {rec['cached']}")
            bad.expect(
                rec["digest"] == colds.get(rec["key"]),
                f"repeat of {rec['key'][:12]} differs from its cold certificate",
            )
        for key, digest in colds.items():
            try:
                stored = Certificate.load(self.service.store.cert_path(key))
            except Exception as exc:
                bad.append(f"stored certificate {key[:12]}: {exc}")
                continue
            bad.expect(
                _digest(stored.to_dict()) == digest,
                f"stored certificate {key[:12]} differs from the response",
            )
        return bad


def run_sequential(workload, tracer, seconds: float, trace: bool, log) -> dict:
    """Closed loop of one caller: whole rounds until ``seconds`` of ops.

    Untraced, a round is one operation.  Traced, a round runs the same
    input twice — once untraced, once traced, alternating which goes
    first — and the two must agree exactly, counters included.
    """
    ops: list[dict] = []
    bad = Failures()
    measured = 0.0
    rnd = 0
    while measured < seconds:
        inp = workload.next_input()
        order = [False] if not trace else ([False, True] if rnd % 2 == 0 else [True, False])
        outs = {}
        for timed in order:
            before = tracer.snapshot()
            tracer.timing = timed
            tracer.counting = True
            t0 = time.perf_counter()
            try:
                with tracer.span("unattributed"):
                    out = workload.operate(inp)
                error = None
            except Exception as exc:
                out, error = None, f"{type(exc).__name__}: {exc}"
                log(traceback.format_exc())
            latency = time.perf_counter() - t0
            tracer.counting = False
            tracer.timing = False
            after = tracer.snapshot()
            counters = {k: after[k] - before[k] for k in after}
            measured += latency
            locations, runs = workload.account(out) if out is not None else (0, 0)
            ops.append({
                "round": rnd, "latency": latency, "traced": timed,
                "error": error, "locations": locations, "runs": runs,
                "counters": counters,
            })
            outs[timed] = out
        pair = [op for op in ops if op["round"] == rnd]
        if trace and all(op["error"] is None for op in pair):
            bad.expect(
                pair[0]["counters"] == pair[1]["counters"],
                f"round {rnd}: counters differ traced vs untraced",
            )
            bad.expect(
                workload.same(outs[False], outs[True]),
                f"round {rnd}: traced and untraced outputs differ",
            )
        out = outs.get(False)
        if out is not None:
            bad.extend(workload.check(inp, out))
        rnd += 1
    return {"ops": ops, "failures": bad}
