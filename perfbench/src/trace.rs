//! The traced run: the same request order as the timed phases, one request
//! at a time, each followed by an in-process replay through the public
//! functions the server calls, in the order it calls them. Spans are timed
//! from the benchmark's own code around each call, kept in memory, and
//! written out once at the end.

use crate::drive::{setup, Tally};
use crate::inputs::{tenant_id, Encoded, Key, Workload};
use crate::stats::Samples;
use hsa_assign::{
    evaluate_cut_in, lambda_frontier_with, solve_with_frontiers, EvalScratch, FrontierSet, Prepared,
};
use hsa_engine::net::wire::{self, FrameEncoder, NetRequest};
use hsa_engine::{
    Engine, EngineConfig, InstanceId, Portfolio, PortfolioConfig, Reply, Request, Service,
    ServiceConfig, Session, SessionConfig,
};
use hsa_tree::{CostModel, CruTree, Fnv1a};
use hsa_workloads::{
    catalog, drift_trace, random_instance, DriftConfig, Placement, RandomTreeParams,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::sync::Arc;
use std::time::{Duration, Instant};

const NONE: u32 = u32::MAX;

/// The portfolio probe: races on fresh instances of t14's large sizes,
/// under its 25 ms budget.
const PORTFOLIO_RACES: u64 = 3;
const PORTFOLIO_CRUS: (usize, usize) = (1000, 3000);
const ANYTIME_BUDGET_MS: u64 = 25;

/// One timed call.
struct Span {
    name: &'static str,
    req: u32,
    parent: u32,
    start_ns: u64,
    end_ns: u64,
}

#[derive(Default)]
struct Tracer {
    epoch: Option<Instant>,
    spans: Vec<Span>,
}

impl Tracer {
    fn now(&mut self) -> u64 {
        self.at(Instant::now())
    }

    /// `t` as nanoseconds since the first span.
    fn at(&mut self, t: Instant) -> u64 {
        t.saturating_duration_since(*self.epoch.get_or_insert(t))
            .as_nanos() as u64
    }

    fn begin(&mut self, name: &'static str, req: u32, parent: u32) -> u32 {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            req,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        (self.spans.len() - 1) as u32
    }

    fn end(&mut self, id: u32) {
        let t = self.now();
        self.spans[id as usize].end_ns = t;
    }

    fn time<R>(&mut self, name: &'static str, req: u32, parent: u32, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, req, parent);
        let r = f();
        self.end(id);
        r
    }

    fn dur(&self, id: u32) -> u64 {
        let s = &self.spans[id as usize];
        s.end_ns - s.start_ns
    }
}

/// What one replayed request left behind for the breakdown.
struct Replayed {
    kind: u8,
    /// True for requests of the traced wire pass (false for set-up
    /// replays, which have no round trip to pair with).
    timed: bool,
    submit_wait: u32,
    handler: u32,
    req_decode: u32,
    reply_encode: u32,
    reply_decode: u32,
}

/// The in-process side of the replay: its own engine for the direct
/// handler calls, its own service for `submit → wait`, per-tenant sessions,
/// and the outcomes of the portfolio probe.
struct Replay {
    engine: Arc<Engine>,
    service: Service,
    sessions: Vec<Session>,
    enc: FrameEncoder,
    buf: Vec<u8>,
    scratch: EvalScratch,
    outcomes: Vec<hsa_engine::AnytimeOutcome>,
    /// Portfolio arms still running after the probe's races drained.
    pending_arms: usize,
}

impl Replay {
    fn new(w: &Workload, tr: &mut Tracer) -> Replay {
        let engine = Arc::new(Engine::new(EngineConfig::default()));
        let service = Service::new(
            Arc::new(Engine::new(EngineConfig::default())),
            ServiceConfig::default(),
        );
        let mut sessions = Vec::new();
        for (t, sc) in w.tenants.iter().enumerate() {
            let s = tr.time("session.open", NONE, NONE, || {
                Session::new(&sc.tree, &sc.costs, SessionConfig::default())
            });
            sessions.push(s.expect("generated tenants open"));
            service
                .open_tenant(tenant_id(0, t), &sc.tree, &sc.costs)
                .expect("generated tenants open");
        }
        Replay {
            engine,
            service,
            sessions,
            enc: FrameEncoder::new(),
            buf: Vec::new(),
            scratch: EvalScratch::new(),
            outcomes: Vec::new(),
            pending_arms: 0,
        }
    }

    /// The handler's calls, as spans under `parent`.
    fn handle(
        &mut self,
        tr: &mut Tracer,
        req: u32,
        parent: u32,
        request: &Request,
    ) -> Option<Reply> {
        let engine = Arc::clone(&self.engine);
        let prepare = |tr: &mut Tracer, tree: &CruTree, costs: &CostModel| {
            let misses = engine.stats().cache_misses;
            let span = tr.begin("engine.prepare_miss", req, parent);
            let id = engine.prepare(tree, costs).ok();
            tr.end(span);
            if engine.stats().cache_misses == misses {
                tr.spans[span as usize].name = "engine.prepare_hit";
            }
            id
        };
        let hash = |tr: &mut Tracer, tree: &CruTree, costs: &CostModel| {
            tr.time("tree.hash", req, parent, || {
                let mut h = Fnv1a::new();
                h.write_u64(tree.content_hash());
                h.write_u64(costs.content_hash());
                std::hint::black_box(h.finish())
            })
        };
        match request {
            Request::SolveById { id, lambda } => self.solve(tr, req, parent, *id, *lambda),
            Request::Solve {
                tree,
                costs,
                lambda,
            } => {
                hash(tr, tree, costs);
                let id = prepare(tr, tree, costs)?;
                self.solve(tr, req, parent, id, *lambda)
            }
            Request::FrontierById { id } => self.frontier(tr, req, parent, *id),
            Request::Frontier { tree, costs } => {
                hash(tr, tree, costs);
                let id = prepare(tr, tree, costs)?;
                self.frontier(tr, req, parent, id)
            }
            Request::Delta {
                tenant,
                delta,
                lambda,
            } => {
                let session = &mut self.sessions[(tenant.0 - tenant_id(0, 0).0) as usize];
                let outcome = tr
                    .time("session.apply", req, parent, || session.apply(delta))
                    .ok()?;
                let solution = tr
                    .time("session.solve", req, parent, || session.solve(*lambda))
                    .ok()?;
                Some(Reply::Applied { outcome, solution })
            }
            _ => None,
        }
    }

    fn solve(
        &mut self,
        tr: &mut Tracer,
        req: u32,
        parent: u32,
        id: InstanceId,
        lambda: hsa_graph::Lambda,
    ) -> Option<Reply> {
        let engine = &self.engine;
        let cached = tr.time("engine.lookup", req, parent, || engine.instance(id))?;
        let solution = tr
            .time("assign.sweep", req, parent, || {
                solve_with_frontiers(&cached.prepared, &cached.frontiers, lambda)
            })
            .ok()?;
        Some(Reply::Solution { id, solution })
    }

    /// Times, after the handler, what its path does not split out: the
    /// evaluation of a solved cut, and for a prepare miss the miss's two
    /// halves and a hit on the now-known instance. Probe spans carry the
    /// request id but no parent, so no round-trip layer contains them.
    fn probe(&mut self, tr: &mut Tracer, req: u32, request: &Request, reply: &Reply, missed: bool) {
        let engine = &self.engine;
        if let Reply::Solution { id, solution } = reply {
            if let Some(cached) = engine.instance(*id) {
                let scratch = &mut self.scratch;
                tr.time("assign.evaluate", req, NONE, || {
                    std::hint::black_box(
                        evaluate_cut_in(&cached.prepared, &solution.cut, scratch).is_ok(),
                    )
                });
            }
        }
        let (Request::Solve { tree, costs, .. } | Request::Frontier { tree, costs }) = request
        else {
            return;
        };
        if !missed {
            return;
        }
        let (t, c) = ((**tree).clone(), (**costs).clone());
        if let Ok(prep) = tr.time("assign.prepare", req, NONE, || Prepared::new_owned(t, c)) {
            let _ = tr.time("assign.frontier_dp", req, NONE, || {
                FrontierSet::prepare(&prep, &engine.config().expanded)
            });
        }
        let _ = tr.time("engine.prepare_hit", req, NONE, || {
            engine.prepare(tree, costs)
        });
    }

    fn frontier(
        &mut self,
        tr: &mut Tracer,
        req: u32,
        parent: u32,
        id: InstanceId,
    ) -> Option<Reply> {
        let engine = &self.engine;
        let cached = tr.time("engine.lookup", req, parent, || engine.instance(id))?;
        let frontier = tr
            .time("assign.lambda_frontier", req, parent, || {
                lambda_frontier_with(&cached.prepared, &cached.frontiers)
            })
            .ok()?;
        Some(Reply::Frontier { id, frontier })
    }

    /// Replays one request: request encode, request decode, the service
    /// hop (`submit → wait` on the replay service), the handler's calls,
    /// then the probes, reply encode and reply decode. Returns the
    /// canonical reply JSON.
    fn replay(
        &mut self,
        tr: &mut Tracer,
        req: u32,
        enc: &Encoded,
        tenant: u64,
        timed: bool,
    ) -> Result<(Replayed, Vec<u8>), String> {
        let root = tr.begin("replay", req, NONE);
        let (encoder, buf) = (&mut self.enc, &mut self.buf);
        buf.clear();
        tr.time("wire.req_encode", req, root, || {
            encoder.put_request(buf, 0, &enc.request)
        });
        if buf[4 + wire::HEADER_LEN..] != enc.payload[..] {
            return Err("request re-encode differs from the sent payload".to_string());
        }
        let req_decode = tr.begin("wire.req_decode", req, root);
        let decoded = wire::decode_request_parts(enc.kind, tenant, &enc.payload);
        tr.end(req_decode);
        let Ok(NetRequest::Submit(request)) = decoded else {
            return Err(format!("replay decode: {decoded:?}"));
        };
        // The service gets its own decoded copy, so the structural hash it
        // computes is not pre-cached by the handler replay (or vice versa).
        let Ok(NetRequest::Submit(for_service)) =
            wire::decode_request_parts(enc.kind, tenant, &enc.payload)
        else {
            unreachable!("decoded once already");
        };
        let service = &self.service;
        let submit_wait = tr.begin("service.submit_wait", req, root);
        let via_service = service.submit(for_service).wait();
        tr.end(submit_wait);
        let misses = self.engine.stats().cache_misses;
        let handler = tr.begin("handler", req, root);
        let reply = self.handle(tr, req, handler, &request);
        tr.end(handler);
        let reply = reply.ok_or("the in-process handler replay failed")?;
        let missed = self.engine.stats().cache_misses != misses;
        self.probe(tr, req, &request, &reply, missed);
        if via_service.is_err() {
            return Err("the replay service failed the request".to_string());
        }
        let (encoder, buf) = (&mut self.enc, &mut self.buf);
        buf.clear();
        let reply_encode = tr.begin("wire.reply_encode", req, root);
        let (kind, range) = encoder.put_reply(buf, 0, tenant, &reply);
        tr.end(reply_encode);
        let payload = buf[range].to_vec();
        let frame = wire::Frame {
            version: wire::PROTOCOL_VERSION,
            kind,
            tenant,
            corr: 0,
            payload,
        };
        let reply_decode = tr.begin("wire.reply_decode", req, root);
        let back = wire::decode_server_frame(&frame);
        tr.end(reply_decode);
        back.map_err(|e| format!("replay reply decode: {e}"))?;
        tr.end(root);
        Ok((
            Replayed {
                kind: enc.kind,
                timed,
                submit_wait,
                handler,
                req_decode,
                reply_encode,
                reply_decode,
            },
            frame.payload,
        ))
    }
}

/// Human-readable name of a request kind byte.
pub fn kind_name(kind: u8) -> &'static str {
    match kind {
        wire::kind::SOLVE => "SOLVE",
        wire::kind::SOLVE_BY_ID => "SOLVE_BY_ID",
        wire::kind::FRONTIER => "FRONTIER",
        wire::kind::FRONTIER_BY_ID => "FRONTIER_BY_ID",
        wire::kind::DELTA => "DELTA",
        wire::kind::SOLVE_ANYTIME => "SOLVE_ANYTIME",
        _ => "OTHER",
    }
}

/// Per-layer results of the traced run.
pub struct TraceOut {
    /// Per-layer metric values, keyed by `per_layer` metric name.
    pub metrics: BTreeMap<String, f64>,
    /// Traced closed-loop round trips, µs.
    pub traced_rtt_us: Samples,
    /// The printed breakdown.
    pub report: Vec<String>,
    /// Where the spans were written.
    pub span_file: Option<String>,
}

/// Runs the traced pass on a fresh server: the first `requests` of the
/// workload's order (the requests every untraced closed segment sends), or
/// as many as fit in `secs`.
///
/// `untraced_us` holds the untraced closed segments' rtt p50 per request
/// kind and `untraced_all_us` over all kinds, in µs: the round trips the
/// in-process layer times are subtracted from.
pub fn traced(
    w: &Workload,
    seed: u64,
    requests: usize,
    secs: f64,
    untraced_us: &BTreeMap<u8, f64>,
    untraced_all_us: f64,
    tally: &mut Tally,
) -> Result<TraceOut, String> {
    let mut tr = Tracer::default();
    let (live, mut client, _) = setup(w, tally)?;
    let mut replay = Replay::new(w, &mut tr);
    let mut done: Vec<Replayed> = Vec::new();
    // The set-up's first contacts, replayed in process (no wire round trip
    // to pair them with): they are where most workloads prepare.
    for key in &w.contacts {
        let req = done.len() as u32;
        let (r, _) = replay.replay(&mut tr, req, key.form(false), 0, false)?;
        done.push(r);
    }
    let until = Instant::now() + Duration::from_secs_f64(secs);
    let mut pos = 0;
    let mut learned = vec![false; w.n_instances];
    for key in &w.contacts {
        learned[key.inst.expect("contacts are learnable")] = true;
    }
    let mut req_bytes = Samples::new();
    let mut reply_bytes = Samples::new();
    let mut traced_rtt_us = Samples::new();
    while Instant::now() < until && pos < requests {
        let Some((_, key)) = w.key_at(pos) else { break };
        let knows = key.inst.is_some_and(|i| learned[i]);
        let enc = key.form(knows);
        let tenant = key.tenant.map_or(0, |t| tenant_id(0, t).0);
        tally.attempted += 1;
        let t0 = Instant::now();
        let corr = client.send_encoded(enc.kind, tenant, &enc.payload);
        let frame = client.recv_raw().map_err(|e| format!("traced pass: {e}"))?;
        let decoded = wire::decode_server_frame(&frame);
        let rtt_ns = t0.elapsed().as_nanos() as u64;
        if frame.corr != corr || !matches!(decoded, Ok(wire::NetReply::Reply(_))) {
            tally.fail(format!("traced pass: position {pos} failed over the wire"));
            pos += 1;
            continue;
        }
        let req = done.len() as u32;
        let start_ns = tr.at(t0);
        tr.spans.push(Span {
            name: "rtt",
            req,
            parent: NONE,
            start_ns,
            end_ns: start_ns + rtt_ns,
        });
        let (r, payload) = replay.replay(&mut tr, req, enc, tenant, true)?;
        if deterministic(key) && payload != frame.payload {
            tally.fail(format!(
                "traced pass: position {pos}: in-process replay answer differs from the wire"
            ));
        }
        req_bytes.push((4 + wire::HEADER_LEN + enc.payload.len()) as f64);
        reply_bytes.push((4 + wire::HEADER_LEN + frame.payload.len()) as f64);
        traced_rtt_us.push(rtt_ns as f64 / 1e3);
        if let Some(i) = key.inst {
            learned[i] = true;
        }
        done.push(r);
        pos += 1;
    }
    drop(client);
    live.net.shutdown();
    probes(&mut tr, &mut replay, seed);
    let mut out = summarise(&tr, &replay, &done, untraced_us, untraced_all_us);
    out.metrics
        .insert("wire.req_bytes".to_string(), req_bytes.mean());
    out.metrics
        .insert("wire.reply_bytes".to_string(), reply_bytes.mean());
    out.traced_rtt_us = traced_rtt_us;
    out.span_file = write_spans(&tr, &done, &w.spec.name, seed);
    Ok(out)
}

/// Delta answers are checked by the delta oracle; everything else must
/// replay byte for byte.
fn deterministic(key: &Key) -> bool {
    matches!(key.expect, crate::inputs::Expect::Bytes(_))
}

/// Times the layers this workload's traffic never reached, so that every
/// per-layer metric exists on every workload: sessions and frontiers on the
/// catalog instances every set-up contacts, the portfolio on fresh large
/// instances. Probe spans belong to no request.
fn probes(tr: &mut Tracer, replay: &mut Replay, seed: u64) {
    let has = |tr: &Tracer, name: &str| tr.spans.iter().any(|s| s.name == name);
    let cat = catalog();
    if !has(tr, "session.apply") {
        for (i, sc) in cat.iter().enumerate() {
            let s = tr.time("session.open", NONE, NONE, || {
                Session::new(&sc.tree, &sc.costs, SessionConfig::default())
            });
            let Ok(mut session) = s else { continue };
            let trace = drift_trace(
                sc,
                &DriftConfig {
                    steps: 16,
                    seed: i as u64,
                    ..DriftConfig::default()
                },
            );
            for delta in &trace.deltas {
                let _ = tr.time("session.apply", NONE, NONE, || session.apply(delta));
                let _ = tr.time("session.solve", NONE, NONE, || {
                    session.solve(hsa_graph::Lambda::HALF)
                });
            }
            replay.sessions.push(session);
        }
    }
    // No workload's wire traffic reaches the portfolio (anytime-large was
    // dropped, see interaction.json), so its races run in process on fresh
    // instances at t14's scale, where the heuristic arms win.
    let portfolio = Portfolio::new(
        Arc::new(Engine::new(EngineConfig::default())),
        PortfolioConfig::default(),
    );
    let mut rng = StdRng::seed_from_u64(seed ^ 0xA11_71AE);
    for i in 0..PORTFOLIO_RACES {
        let (tree, costs) = random_instance(
            &RandomTreeParams {
                n_crus: rng.random_range(PORTFOLIO_CRUS.0..=PORTFOLIO_CRUS.1),
                placement: Placement::Random,
                ..RandomTreeParams::default()
            },
            seed.wrapping_mul(104_729).wrapping_add(i),
        );
        if let Ok(o) = tr.time("portfolio.race", NONE, NONE, || {
            portfolio.solve_anytime(
                &tree,
                &costs,
                hsa_graph::Lambda::HALF,
                Duration::from_millis(ANYTIME_BUDGET_MS),
            )
        }) {
            replay.outcomes.push(o);
        }
    }
    let deadline = Instant::now() + Duration::from_secs(2);
    while portfolio.pending_arms() > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    replay.pending_arms = portfolio.pending_arms();
    if !has(tr, "assign.lambda_frontier") {
        for sc in &cat {
            let Ok(id) = replay.engine.prepare(&sc.tree, &sc.costs) else {
                continue;
            };
            let Some(cached) = replay.engine.instance(id) else {
                continue;
            };
            let _ = tr.time("assign.lambda_frontier", NONE, NONE, || {
                lambda_frontier_with(&cached.prepared, &cached.frontiers)
            });
        }
    }
}

/// Self time of every span: its duration minus its direct children's.
fn self_times(tr: &Tracer) -> Vec<u64> {
    let mut child = vec![0u64; tr.spans.len()];
    for s in &tr.spans {
        if s.parent != NONE {
            child[s.parent as usize] += s.end_ns - s.start_ns;
        }
    }
    tr.spans
        .iter()
        .zip(child)
        .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c))
        .collect()
}

/// The handler's layers on a round trip, in the order a request meets
/// them; `handler` is the replay's own glue between the calls. Probes
/// (`assign.evaluate`, the split of a prepare miss) and the client's
/// request encode, which happens before the clock starts, are layer
/// metrics but not part of the round trip.
const RTT_LAYERS: [&str; 9] = [
    "tree.hash",
    "engine.prepare_miss",
    "engine.prepare_hit",
    "engine.lookup",
    "assign.sweep",
    "assign.lambda_frontier",
    "session.apply",
    "session.solve",
    "handler",
];

fn summarise(
    tr: &Tracer,
    replay: &Replay,
    done: &[Replayed],
    untraced_us: &BTreeMap<u8, f64>,
    untraced_all_us: f64,
) -> TraceOut {
    let selft = self_times(tr);
    let mut by_name: BTreeMap<&str, Samples> = BTreeMap::new();
    for (s, &t) in tr.spans.iter().zip(&selft) {
        by_name.entry(s.name).or_default().push(t as f64);
    }
    let mut metrics = BTreeMap::new();
    let mut med = |name: &str, metric: &str| {
        let v = by_name
            .get_mut(name)
            .and_then(Samples::median)
            .unwrap_or(0.0);
        metrics.insert(metric.to_string(), v);
    };
    for (span, metric) in [
        ("wire.req_encode", "wire.req_encode_ns"),
        ("wire.req_decode", "wire.req_decode_ns"),
        ("wire.reply_encode", "wire.reply_encode_ns"),
        ("wire.reply_decode", "wire.reply_decode_ns"),
        ("service.submit_wait", "service.submit_wait_ns"),
        ("engine.lookup", "engine.lookup_ns"),
        ("engine.prepare_miss", "engine.prepare_miss_ns"),
        ("engine.prepare_hit", "engine.prepare_hit_ns"),
        ("tree.hash", "tree.hash_ns"),
        ("assign.prepare", "assign.prepare_ns"),
        ("assign.frontier_dp", "assign.frontier_dp_ns"),
        ("assign.sweep", "assign.sweep_ns"),
        ("assign.evaluate", "assign.evaluate_ns"),
        ("assign.lambda_frontier", "assign.lambda_frontier_ns"),
        ("session.open", "session.open_ns"),
        ("session.apply", "session.apply_ns"),
        ("session.solve", "session.solve_ns"),
        ("portfolio.race", "portfolio.race_ns"),
    ] {
        med(span, metric);
    }

    // Per-request decomposition of the wire round trip. The in-process
    // part of a request is everything the replay timed on its path
    // (request decode, submit → wait, reply encode and decode); the
    // residual is the untraced closed-phase rtt p50 minus the p50 of that
    // sum over the same request kind: socket syscalls, reactor wake-ups
    // and framing copies.
    let mut hop = Samples::new();
    let mut in_process_all = Samples::new();
    let mut table: BTreeMap<u8, BTreeMap<&str, Samples>> = BTreeMap::new();
    // Self time per request per handler layer (a request may call a layer
    // more than once; its calls are summed). Probe spans have no parent and
    // are not part of the round trip.
    let mut per_req: HashMap<(u32, &str), u64> = HashMap::new();
    for (s, &t) in tr.spans.iter().zip(&selft) {
        if s.req != NONE && s.parent != NONE && RTT_LAYERS.contains(&s.name) {
            *per_req.entry((s.req, s.name)).or_default() += t;
        }
    }
    for (req, r) in done.iter().enumerate() {
        if !r.timed {
            continue;
        }
        let h = tr.dur(r.submit_wait) as f64 - tr.dur(r.handler) as f64;
        hop.push(h);
        let in_process = (tr.dur(r.req_decode)
            + tr.dur(r.submit_wait)
            + tr.dur(r.reply_encode)
            + tr.dur(r.reply_decode)) as f64;
        in_process_all.push(in_process);
        let row = table.entry(r.kind).or_default();
        row.entry("in_process").or_default().push(in_process);
        row.entry("wire.req_decode")
            .or_default()
            .push(tr.dur(r.req_decode) as f64);
        for layer in RTT_LAYERS {
            if let Some(&t) = per_req.get(&(req as u32, layer)) {
                row.entry(layer).or_default().push(t as f64);
            }
        }
        row.entry("service.hop").or_default().push(h);
        row.entry("wire.reply_encode")
            .or_default()
            .push(tr.dur(r.reply_encode) as f64);
        row.entry("wire.reply_decode")
            .or_default()
            .push(tr.dur(r.reply_decode) as f64);
    }
    metrics.insert("service.hop_ns".to_string(), hop.median().unwrap_or(0.0));
    metrics.insert(
        "net.residual_us".to_string(),
        untraced_all_us - in_process_all.median().unwrap_or(0.0) / 1e3,
    );

    // Portfolio outcomes of the probe's races.
    let o = &replay.outcomes;
    let share = |f: &dyn Fn(&hsa_engine::AnytimeOutcome) -> bool| {
        if o.is_empty() {
            0.0
        } else {
            o.iter().filter(|x| f(x)).count() as f64 / o.len() as f64
        }
    };
    let mut first = Samples::new();
    for x in o {
        first.push(x.time_to_first_ns as f64 / 1e3);
    }
    metrics.insert(
        "portfolio.first_answer_us".to_string(),
        first.median().unwrap_or(0.0),
    );
    metrics.insert(
        "portfolio.exact_finished_share".to_string(),
        share(&|x| x.answer.exact_finished),
    );
    for arm in ["exact", "cut-ga", "cut-sa", "cut-bnb"] {
        metrics.insert(
            format!("portfolio.wins.{arm}"),
            share(&|x| x.answer.winner.as_str() == arm),
        );
    }
    metrics.insert(
        "portfolio.upgrades_mean".to_string(),
        if o.is_empty() {
            0.0
        } else {
            o.iter().map(|x| x.upgrades as f64).sum::<f64>() / o.len() as f64
        },
    );
    let mut gaps = Samples::new();
    for x in o {
        gaps.push(x.answer.certificate.relative_gap() * 1e6);
    }
    metrics.insert("gap_ppm_p50".to_string(), gaps.median().unwrap_or(0.0));
    metrics.insert(
        "portfolio.pending_arms_end".to_string(),
        replay.pending_arms as f64,
    );
    let (mut reuse_num, mut reuse_den, mut rebuilds) = (0u64, 0u64, 0u64);
    for s in &replay.sessions {
        let st = s.stats();
        reuse_num += st.colours_reused;
        reuse_den += st.colours_reused + st.colours_rebuilt;
        rebuilds += st.full_rebuilds;
    }
    metrics.insert(
        "session.reuse_rate".to_string(),
        if reuse_den == 0 {
            0.0
        } else {
            reuse_num as f64 / reuse_den as f64
        },
    );
    metrics.insert("session.full_rebuilds".to_string(), rebuilds as f64);

    let mut report = Vec::new();
    for (kind, row) in &mut table {
        let Some(&rtt_us) = untraced_us.get(kind) else {
            continue;
        };
        let rtt = rtt_us * 1e3;
        let n = row.get("in_process").map_or(0, Samples::len);
        let in_process = row
            .remove("in_process")
            .and_then(|mut s| s.median())
            .unwrap_or(0.0);
        report.push(format!(
            "{} round trip: untraced rtt p50 {rtt:.0} ns; p50 self time per layer over {n} traced requests:",
            kind_name(*kind),
        ));
        let mut layers: Vec<(&str, f64, usize)> = row
            .iter_mut()
            .map(|(layer, s)| (*layer, s.median().unwrap_or(0.0), s.len()))
            .collect();
        layers.push(("net.residual", rtt - in_process, n));
        for (layer, v, count) in &layers {
            report.push(format!("  {layer:<24} {v:>12.0} ns  (n={count})"));
        }
        if let Some((layer, v, _)) = layers.iter().max_by(|a, b| a.1.total_cmp(&b.1)) {
            report.push(format!(
                "  largest self time in a {} round trip: {layer} ({v:.0} ns, {:.0}% of the rtt p50)",
                kind_name(*kind),
                100.0 * v / rtt.max(1.0)
            ));
        }
    }
    TraceOut {
        metrics,
        traced_rtt_us: Samples::new(),
        report,
        span_file: None,
    }
}

/// Writes every span as one JSON line under the build directory.
fn write_spans(tr: &Tracer, done: &[Replayed], workload: &str, seed: u64) -> Option<String> {
    let dir = std::path::Path::new(
        &std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".to_string()),
    )
    .join("perfbench-spans");
    std::fs::create_dir_all(&dir).ok()?;
    let path = dir.join(format!("{workload}-seed{seed}.jsonl"));
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path).ok()?);
    for s in &tr.spans {
        let kind = done
            .get(s.req as usize)
            .map_or("probe", |r| kind_name(r.kind));
        writeln!(
            out,
            "{{\"req\":{},\"kind\":\"{kind}\",\"name\":\"{}\",\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
            if s.req == NONE { -1 } else { s.req as i64 },
            s.name,
            if s.parent == NONE { -1 } else { s.parent as i64 },
            s.start_ns,
            s.end_ns
        )
        .ok()?;
    }
    out.flush().ok()?;
    Some(path.display().to_string())
}
