//! Set-up and the three timed phases (closed, pipelined, open), plus the
//! answer checks every phase shares.

use crate::inputs::{drifted_costs, tenant_id, Expect, Key, Workload};
use crate::spec::Spec;
use crate::stats::Samples;
use hsa_engine::net::wire::{self, FrameDecoder, FrameEncoder, NetReply};
use hsa_engine::net::{Client, NetConfig, NetServer};
use hsa_engine::{Engine, EngineConfig, Request, Service, ServiceConfig};
use hsa_tree::Fnv1a;
use std::collections::BTreeMap;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Tenant namespaces opened at every set-up: one per pipelined connection,
/// so all set-ups of a workload do the same work.
pub const NAMESPACES: usize = 2;

/// Requests in flight per connection in the pipelined phase.
pub const WINDOW: usize = 16;

/// Requests the reference rate sends per climb at least, so its p90 has
/// ten samples beyond it even in the shorter timed part of a traced run.
const MIN_REFERENCE_SAMPLES: f64 = 200.0;

/// How long a client waits on a silent server before the run fails.
const STALL_LIMIT: Duration = Duration::from_secs(20);

/// Requests attempted and failed, with the first few failure reasons.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<String>,
}

impl Tally {
    pub fn fail(&mut self, reason: String) {
        self.failed += 1;
        if self.reasons.len() < 8 {
            self.reasons.push(reason);
        }
    }

    fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for r in other.reasons {
            if self.reasons.len() < 8 {
                self.reasons.push(r);
            }
        }
    }
}

/// What a phase kept for the checks that run after it.
#[derive(Default)]
pub struct Record {
    /// `(sequence position, payload hash)` of every delta answer.
    pub deltas: Vec<(usize, u64)>,
    /// Sequence positions answered (for stateful orders: a prefix).
    pub consumed: usize,
}

/// A served workload: the server plus which instance ids clients know.
pub struct Live {
    pub net: NetServer,
    pub learned: Vec<AtomicBool>,
}

impl Drop for Live {
    /// Shuts the server down, then gives the service workers a moment to
    /// drop their completion callbacks before the server is freed: a
    /// callback can hold the last reference to the server (and through it
    /// the service), and freeing the service's worker pool from one of its
    /// own workers panics on the self-join.
    fn drop(&mut self) {
        self.net.shutdown();
        std::thread::sleep(Duration::from_millis(20));
    }
}

impl Live {
    pub fn addr(&self) -> SocketAddr {
        self.net.local_addr()
    }

    fn knows(&self, key: &Key) -> bool {
        key.inst
            .is_some_and(|i| self.learned[i].load(Ordering::Relaxed))
    }
}

fn payload_hash(payload: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write_bytes(payload);
    h.finish()
}

/// Checks one answer frame against its key, recording what the after-phase
/// checks need. Returns false on a failed check.
fn settle(
    live: &Live,
    key: &Key,
    pos: usize,
    frame: &wire::Frame,
    decoded: Result<NetReply, wire::WireError>,
    rec: &mut Record,
    tally: &mut Tally,
) -> bool {
    match decoded {
        Ok(NetReply::Reply(_)) => {}
        Ok(NetReply::Error(e)) => {
            tally.fail(format!("position {pos}: error frame: {e}"));
            return false;
        }
        Ok(other) => {
            tally.fail(format!("position {pos}: unexpected frame {other:?}"));
            return false;
        }
        Err(e) => {
            tally.fail(format!("position {pos}: undecodable answer: {e}"));
            return false;
        }
    }
    match &key.expect {
        Expect::Bytes(want) => {
            if frame.payload != *want {
                tally.fail(format!(
                    "position {pos}: answer differs from the in-process reference"
                ));
                return false;
            }
        }
        Expect::Delta => rec.deltas.push((pos, payload_hash(&frame.payload))),
    }
    if let Some(i) = key.inst {
        live.learned[i].store(true, Ordering::Relaxed);
    }
    true
}

/// Starts a server with the shipped default configurations, opens every
/// tenant and makes every first contact. Returns the server, the set-up
/// client and the set-up time (from building the server stack to the last
/// first-contact answer).
pub fn setup(w: &Workload, tally: &mut Tally) -> Result<(Live, Client, f64), String> {
    let t0 = Instant::now();
    let service = Arc::new(Service::new(
        Arc::new(Engine::new(EngineConfig::default())),
        ServiceConfig::default(),
    ));
    let net = NetServer::bind("127.0.0.1:0", service, NetConfig::default())
        .map_err(|e| format!("bind: {e}"))?;
    let live = Live {
        net,
        learned: (0..w.n_instances).map(|_| AtomicBool::new(false)).collect(),
    };
    let mut client = Client::connect(live.addr()).map_err(|e| format!("connect: {e}"))?;
    for ns in 0..NAMESPACES {
        for (t, sc) in w.tenants.iter().enumerate() {
            tally.attempted += 1;
            if let Err(e) = client.open_tenant(tenant_id(ns, t), &sc.tree, &sc.costs) {
                tally.fail(format!("open tenant {t}: {e}"));
            }
        }
    }
    let mut rec = Record::default();
    for (i, key) in w.contacts.iter().enumerate() {
        let enc = key.form(false);
        tally.attempted += 1;
        let corr = client.send_encoded(enc.kind, 0, &enc.payload);
        let frame = client
            .recv_raw()
            .map_err(|e| format!("first contact {i}: {e}"))?;
        if frame.corr != corr {
            return Err(format!("first contact {i}: answer for another request"));
        }
        let decoded = wire::decode_server_frame(&frame);
        settle(&live, key, i, &frame, decoded, &mut rec, tally);
    }
    Ok((live, client, t0.elapsed().as_secs_f64()))
}

/// Closed-phase results.
pub struct ClosedOut {
    /// Client round trips, µs, send to decoded reply.
    pub rtt_us: Samples,
    /// The same, per request kind byte.
    pub by_kind: BTreeMap<u8, Samples>,
    pub rec: Record,
}

/// How much work a segment does: a fixed number of requests, so that what
/// a segment leaves behind (cache entries, tenant state, resident memory)
/// does not depend on the machine's speed, with a deadline in case the
/// machine is far slower than the one the request count was sized on.
#[derive(Clone, Copy)]
pub struct Budget {
    pub requests: usize,
    pub until: Instant,
}

/// One connection, one request in flight, for `budget`.
pub fn closed(
    w: &Workload,
    live: &Live,
    client: &mut Client,
    budget: Budget,
    tally: &mut Tally,
) -> ClosedOut {
    let mut out = ClosedOut {
        rtt_us: Samples::new(),
        by_kind: BTreeMap::new(),
        rec: Record::default(),
    };
    let mut pos = 0;
    while pos < budget.requests && Instant::now() < budget.until {
        let Some((_, key)) = w.key_at(pos) else {
            break;
        };
        let enc = key.form(live.knows(key));
        let tenant = key.tenant.map_or(0, |t| tenant_id(0, t).0);
        tally.attempted += 1;
        let t0 = Instant::now();
        let corr = client.send_encoded(enc.kind, tenant, &enc.payload);
        let frame = match client.recv_raw() {
            Ok(f) => f,
            Err(e) => {
                tally.fail(format!("closed phase: {e}"));
                break;
            }
        };
        let decoded = wire::decode_server_frame(&frame);
        let us = t0.elapsed().as_nanos() as f64 / 1e3;
        if frame.corr != corr {
            tally.fail("closed phase: answer for another request".to_string());
            break;
        }
        if settle(live, key, pos, &frame, decoded, &mut out.rec, tally) {
            out.rtt_us.push(us);
            out.by_kind.entry(enc.kind).or_default().push(us);
        }
        pos += 1;
    }
    out.rec.consumed = pos;
    out
}

/// Pipelined-phase results.
pub struct PipelinedOut {
    pub completed: u64,
    pub elapsed_s: f64,
    /// One record per connection (namespace = connection index).
    pub recs: Vec<Record>,
}

/// `conns` connections, each keeping `window` requests in flight as a
/// closed loop, for `budget` (shared by the connections; a stateful order
/// gives each connection an equal part, as each replays it in its own
/// namespace); the connection threads are the calling thread plus
/// `conns - 1` spawned ones.
pub fn pipelined(
    w: &Workload,
    live: &Live,
    conns: usize,
    budget: Budget,
    tally: &mut Tally,
) -> PipelinedOut {
    let cursor = AtomicUsize::new(0);
    let start = Instant::now();
    let run = |ns: usize| -> (u64, Instant, Record, Tally) {
        let mut tally = Tally::default();
        let mut rec = Record::default();
        let mut done = 0u64;
        let mut client = match Client::connect(live.addr()) {
            Ok(c) => c,
            Err(e) => {
                tally.fail(format!("pipelined connect: {e}"));
                return (0, Instant::now(), rec, tally);
            }
        };
        let mut local = 0usize;
        let mut inflight: std::collections::VecDeque<(u64, usize, usize)> = Default::default();
        let mut last = Instant::now();
        loop {
            while inflight.len() < WINDOW && Instant::now() < budget.until {
                let (pos, cap) = if w.stateful {
                    (local, budget.requests / conns)
                } else {
                    (cursor.fetch_add(1, Ordering::Relaxed), budget.requests)
                };
                if pos >= cap {
                    break;
                }
                let Some((kidx, key)) = w.key_at(pos) else {
                    break;
                };
                local += 1;
                let enc = key.form(live.knows(key));
                let tenant = key.tenant.map_or(0, |t| tenant_id(ns, t).0);
                tally.attempted += 1;
                let corr = client.send_encoded(enc.kind, tenant, &enc.payload);
                inflight.push_back((corr, kidx, pos));
            }
            let Some((corr, kidx, pos)) = inflight.pop_front() else {
                break;
            };
            let frame = match client.recv_raw() {
                Ok(f) => f,
                Err(e) => {
                    tally.fail(format!("pipelined phase: {e}"));
                    break;
                }
            };
            if frame.corr != corr {
                tally.fail("pipelined phase: answers out of order".to_string());
                break;
            }
            let decoded = wire::decode_server_frame(&frame);
            if settle(
                live,
                &w.keys[kidx],
                pos,
                &frame,
                decoded,
                &mut rec,
                &mut tally,
            ) {
                done += 1;
            }
            last = Instant::now();
        }
        rec.consumed = local;
        (done, last, rec, tally)
    };
    let results: Vec<_> = std::thread::scope(|s| {
        let run = &run;
        let others: Vec<_> = (1..conns).map(|ns| s.spawn(move || run(ns))).collect();
        let mut all = vec![run(0)];
        for h in others {
            all.push(h.join().expect("pipelined connection thread panicked"));
        }
        all
    });
    let mut out = PipelinedOut {
        completed: 0,
        elapsed_s: 0.0,
        recs: Vec::new(),
    };
    for (done, last, rec, t) in results {
        out.completed += done;
        out.elapsed_s = out
            .elapsed_s
            .max(last.saturating_duration_since(start).as_secs_f64());
        out.recs.push(rec);
        tally.absorb(t);
    }
    out
}

/// One open-loop ladder step.
pub struct Step {
    pub rate: f64,
    /// Latency from due time to decoded reply, µs.
    pub lat_us: Samples,
    /// Generator send lag behind the due time, µs.
    pub lag_us: Samples,
    /// Requests outstanding when the last one was sent.
    pub backlog_end: usize,
    /// Completions per second over the step (first due to last reply).
    pub achieved_rps: f64,
}

impl Step {
    /// True when more than 10 ms worth of requests were still unanswered
    /// as the last one was sent: the backlog grew.
    pub fn backlogged(&self) -> bool {
        self.backlog_end as f64 > (self.rate * 0.01).max(8.0)
    }
}

/// Connects and handshakes with the public framing functions only.
fn raw_connect(addr: SocketAddr) -> Result<(TcpStream, TcpStream, FrameDecoder), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    let mut out = Vec::new();
    FrameEncoder::new().put_hello(&mut out, 0);
    stream.write_all(&out).map_err(|e| e.to_string())?;
    let mut reader = stream.try_clone().map_err(|e| e.to_string())?;
    reader
        .set_read_timeout(Some(STALL_LIMIT))
        .map_err(|e| e.to_string())?;
    let mut dec = FrameDecoder::new();
    let frame = next_frame(&mut reader, &mut dec)?;
    match wire::decode_server_frame(&frame) {
        Ok(NetReply::HelloAck(_)) => Ok((stream, reader, dec)),
        other => Err(format!("handshake answered {other:?}")),
    }
}

fn next_frame(reader: &mut TcpStream, dec: &mut FrameDecoder) -> Result<wire::Frame, String> {
    loop {
        match dec.next(wire::DEFAULT_MAX_FRAME_LEN) {
            Some(wire::Decoded::Frame(f)) => return Ok(f.to_frame()),
            Some(other) => return Err(format!("bad frame {other:?}")),
            None => match dec.fill_from(reader, 64 * 1024) {
                Ok(0) => return Err("server closed the connection".to_string()),
                Ok(_) => {}
                Err(e) => return Err(format!("read: {e}")),
            },
        }
    }
}

/// The sender waits for a due time by sleeping when it is far off and
/// yielding when it is close: a spinning sender would take a core from
/// the server on a small machine.
fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > Duration::from_micros(120) {
            std::thread::sleep(left - Duration::from_micros(80));
        } else {
            std::thread::yield_now();
        }
    }
}

/// Runs one open-loop step at `rate` for `secs` on the sender thread (the
/// caller) and one receiver thread. `cursor` continues the workload order
/// across steps.
#[allow(clippy::too_many_arguments)]
fn step(
    w: &Workload,
    live: &Live,
    conn: &mut (TcpStream, TcpStream, FrameDecoder),
    rate: f64,
    secs: f64,
    cursor: &mut usize,
    next_corr: &mut u64,
    rec: &mut Record,
    tally: &mut Tally,
) -> Step {
    // `Ladder::new` sizes its rungs with the same count.
    let n = ((rate * secs).round() as usize).max(1);
    let gap = Duration::from_secs_f64(1.0 / rate);
    let plan: Vec<(usize, usize)> = (0..n)
        .filter_map(|k| w.key_at(*cursor + k).map(|(kidx, _)| (kidx, *cursor + k)))
        .collect();
    let n = plan.len();
    *cursor += n;
    let first_corr = *next_corr;
    *next_corr += n as u64;
    let received = AtomicUsize::new(0);
    let t0 = Instant::now() + Duration::from_millis(2);
    let (writer, reader, dec) = conn;
    let mut lag_us = Samples::new();
    let mut backlog_end = 0;
    let (lat_us, last, step_rec, step_tally) = std::thread::scope(|s| {
        let plan = &plan;
        let received = &received;
        let receiver = s.spawn(move || {
            let mut lat = Samples::new();
            let mut rec = Record::default();
            let mut tally = Tally::default();
            let mut last = t0;
            for (k, &(kidx, pos)) in plan.iter().enumerate() {
                let frame = match next_frame(reader, dec) {
                    Ok(f) => f,
                    Err(e) => {
                        tally.fail(format!("open phase: {e}"));
                        break;
                    }
                };
                let decoded = wire::decode_server_frame(&frame);
                let now = Instant::now();
                if frame.corr != first_corr + k as u64 {
                    tally.fail("open phase: answers out of order".to_string());
                    break;
                }
                let due = t0 + gap * k as u32;
                if settle(
                    live,
                    &w.keys[kidx],
                    pos,
                    &frame,
                    decoded,
                    &mut rec,
                    &mut tally,
                ) {
                    lat.push(now.saturating_duration_since(due).as_nanos() as f64 / 1e3);
                }
                last = now;
                received.store(k + 1, Ordering::Release);
            }
            (lat, last, rec, tally)
        });
        let mut buf = Vec::new();
        let mut k = 0;
        while k < n {
            wait_until(t0 + gap * k as u32);
            let now = Instant::now();
            buf.clear();
            while k < n && t0 + gap * k as u32 <= now {
                let (kidx, _) = plan[k];
                let key = &w.keys[kidx];
                let enc = key.form(live.knows(key));
                let tenant = key.tenant.map_or(0, |t| tenant_id(0, t).0);
                wire::put_raw_frame(
                    &mut buf,
                    enc.kind,
                    tenant,
                    first_corr + k as u64,
                    &enc.payload,
                );
                lag_us.push(
                    now.saturating_duration_since(t0 + gap * k as u32)
                        .as_nanos() as f64
                        / 1e3,
                );
                k += 1;
            }
            if writer.write_all(&buf).is_err() {
                break;
            }
        }
        backlog_end = n - received.load(Ordering::Acquire);
        receiver.join().expect("open-phase receiver panicked")
    });
    tally.attempted += n as u64;
    tally.absorb(step_tally);
    rec.deltas.extend(step_rec.deltas);
    let span = last.saturating_duration_since(t0).as_secs_f64();
    Step {
        rate,
        lat_us,
        lag_us,
        backlog_end,
        achieved_rps: if span > 0.0 { n as f64 / span } else { rate },
    }
}

/// Resident set size of this process, KiB (0 where `/proc` is missing).
/// Sampled at the end of every segment, while its server is at its
/// largest and before the answer checks run, so the maximum of the samples
/// is the run's peak.
pub fn rss_kib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmRSS:"))?
                .split_whitespace()
                .nth(1)?
                .parse()
                .ok()
        })
        .unwrap_or(0.0)
}

/// Returns the allocator's free heap pages to the OS (glibc's
/// `malloc_trim`). Done before the resident-set base is read, so memory the
/// input generation freed neither counts in the base nor hides the
/// servers' growth when they reuse it.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub fn trim_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> std::os::raw::c_int;
    }
    // SAFETY: `malloc_trim` takes no pointers; it only releases free pages.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn trim_heap() {}

/// How long one climb of `climb_secs` runs `rate`: the reference rate gets
/// three shares of the climb (its latencies are reported, the others only
/// decide the capacity), and at least [`MIN_REFERENCE_SAMPLES`] requests.
fn step_secs(spec: &Spec, climb_secs: f64, rate: f64) -> f64 {
    let share = climb_secs / (spec.ladder_rps.len() + 2) as f64;
    if rate == spec.reference_rps {
        (3.0 * share).max(MIN_REFERENCE_SAMPLES / rate)
    } else {
        share
    }
}

/// One round of the open phase: the ladder's steps that ran.
pub struct OpenOut {
    pub steps: Vec<Step>,
    /// Largest resident set size seen at the end of a step, KiB.
    pub rss_peak_kib: f64,
    /// Wire counters summed over every step's server.
    pub saturation_parks: u64,
    pub backpressure_waits: u64,
    /// Slowest request kind's accepted→answered p99 on the reference
    /// step's server, ns.
    pub queue_p99_ns: u64,
}

/// Runs one round of the ladder, each rate on a fresh server (so every
/// step sees the same request mix from the start of the order) over one
/// raw connection, ascending until a step saturates the server (its
/// backlog grew); the reference rate always runs. Each step's set-up time
/// joins `setups`.
pub fn open(
    w: &Workload,
    secs: f64,
    oracle: &mut DeltaOracle,
    setups: &mut Samples,
    tally: &mut Tally,
) -> Result<OpenOut, String> {
    let spec = &w.spec;
    let mut out = OpenOut {
        steps: Vec::new(),
        rss_peak_kib: 0.0,
        saturation_parks: 0,
        backpressure_waits: 0,
        queue_p99_ns: 0,
    };
    let mut saturated = false;
    for &rate in &spec.ladder_rps {
        let reference = rate == spec.reference_rps;
        if saturated && !reference {
            continue;
        }
        let (live, client, setup_s) = setup(w, tally)?;
        drop(client);
        setups.push(setup_s);
        let mut conn = raw_connect(live.addr())?;
        let (mut cursor, mut corr) = (0usize, 1u64);
        let mut rec = Record::default();
        let s = step(
            w,
            &live,
            &mut conn,
            rate,
            step_secs(spec, secs, rate),
            &mut cursor,
            &mut corr,
            &mut rec,
            tally,
        );
        rec.consumed = cursor;
        drop(conn);
        out.rss_peak_kib = out.rss_peak_kib.max(rss_kib());
        oracle.verify(w, &live, &[(0, &rec)], tally);
        saturated |= s.backlogged();
        let net = live.net.net_stats();
        let svc = live.net.service().stats();
        out.saturation_parks += net.saturation_parks;
        out.backpressure_waits += svc.backpressure_waits;
        if reference {
            let lat = svc.latency;
            out.queue_p99_ns = [lat.solve, lat.frontier, lat.delta, lat.anytime]
                .iter()
                .filter(|l| l.count > 0)
                .map(|l| l.p99_ns)
                .max()
                .unwrap_or(0);
        }
        out.steps.push(s);
    }
    out.steps.sort_by(|a, b| a.rate.total_cmp(&b.rate));
    Ok(out)
}

/// One ladder rate, pooled over every round it ran in.
#[derive(Default)]
struct Rung {
    lat_us: Samples,
    achieved: Samples,
    runs: usize,
    backlogged: usize,
}

/// The open-phase ladder pooled over rounds: a rate's verdict reads all of
/// its rounds' samples together, so a stall in one short step cannot
/// decide it.
#[derive(Default)]
pub struct Ladder {
    rungs: BTreeMap<u64, Rung>,
    rounds: usize,
}

impl Ladder {
    /// A ladder with room for the latencies of `climbs` climbs of
    /// `climb_secs` each already resident (see
    /// [`Samples::with_resident_capacity`]).
    pub fn new(spec: &Spec, climb_secs: f64, climbs: usize) -> Ladder {
        let rungs = spec
            .ladder_rps
            .iter()
            .map(|&rate| {
                let per_climb =
                    ((rate * step_secs(spec, climb_secs, rate)).round() as usize).max(1);
                let rung = Rung {
                    lat_us: Samples::with_resident_capacity(climbs * per_climb),
                    ..Rung::default()
                };
                (rate as u64, rung)
            })
            .collect();
        Ladder { rungs, rounds: 0 }
    }

    /// Adds one round's steps.
    pub fn add(&mut self, steps: Vec<Step>) {
        self.rounds += 1;
        for s in steps {
            let r = self.rungs.entry(s.rate as u64).or_default();
            r.runs += 1;
            r.backlogged += s.backlogged() as usize;
            r.achieved.push(s.achieved_rps);
            r.lat_us.append(s.lat_us);
        }
    }

    /// The highest ladder rate whose pooled p90 latency stays under the
    /// latency limit without a growing backlog (a rate that saturated the
    /// server in at least half of the rounds, or never ran because a lower
    /// one did, fails), refined towards the first failing rate so that it
    /// moves continuously: to that rate's median achieved completion rate
    /// when it saturated the server, otherwise by linear interpolation of
    /// the p90 against the limit. When every rate passes, the top rate's
    /// median achieved completion rate.
    pub fn capacity(&mut self, limit_us: f64, report: &mut Vec<String>) -> f64 {
        let rounds = self.rounds;
        let mut prev = (0.0, 0.0);
        let mut found = None;
        for (&rate, r) in self.rungs.iter_mut() {
            let rate = rate as f64;
            let p90 = r.lat_us.pct(0.9).map_or(f64::INFINITY, |p| p.value);
            let saturated = 2 * (r.backlogged + rounds - r.runs) >= rounds;
            let pass = !saturated && p90 <= limit_us;
            report.push(format!(
                "{rate:.0}:{}(p90 {p90:.0} us, {}/{} saturated)",
                if pass { "ok" } else { "FAIL" },
                r.backlogged + rounds - r.runs,
                rounds
            ));
            if found.is_some() {
                continue;
            }
            if pass {
                prev = (rate, p90);
                continue;
            }
            let (lo, t_lo) = prev;
            found = Some(if saturated {
                r.achieved.median().unwrap_or(lo).clamp(lo, rate)
            } else {
                lo + (rate - lo) * ((limit_us - t_lo) / (p90 - t_lo)).clamp(0.0, 1.0)
            });
        }
        found.unwrap_or_else(|| {
            self.rungs
                .values_mut()
                .last()
                .and_then(|r| r.achieved.median())
                .unwrap_or(0.0)
        })
    }
}

/// The expected answer of every delta in the workload order, computed on
/// demand by replaying the order through a sequential in-process service.
/// Every phase replays the order from its start, so the expectations are
/// computed once per run and shared.
pub struct DeltaOracle {
    reference: Option<Service>,
    /// Order positions replayed so far.
    upto: usize,
    /// Payload hash of the expected answer, by order position (meaningful
    /// for delta positions below `upto`). Allocated and written in full up
    /// front, so the oracle does not grow the resident set during the run.
    want: Vec<u64>,
}

impl DeltaOracle {
    /// Build it before the resident-set base is read.
    pub fn new(w: &Workload) -> DeltaOracle {
        let reference = (!w.tenants.is_empty()).then(|| {
            let svc = Service::new(
                Arc::new(Engine::new(EngineConfig {
                    threads: 1,
                    ..EngineConfig::default()
                })),
                ServiceConfig {
                    workers: 1,
                    ..ServiceConfig::default()
                },
            );
            for (t, sc) in w.tenants.iter().enumerate() {
                svc.open_tenant(tenant_id(0, t), &sc.tree, &sc.costs)
                    .expect("reference tenants open");
            }
            svc
        });
        let positions = if reference.is_some() { w.seq.len() } else { 0 };
        DeltaOracle {
            reference,
            upto: 0,
            want: vec![u64::MAX; positions],
        }
    }

    fn extend_to(&mut self, w: &Workload, upto: usize, tally: &mut Tally) {
        let Some(reference) = &self.reference else {
            return;
        };
        while self.upto < upto {
            let pos = self.upto;
            self.upto += 1;
            let Some((_, key)) = w.key_at(pos) else { break };
            let (Some(t), Some(enc)) = (key.tenant, &key.by_id) else {
                continue;
            };
            let Request::Delta { delta, lambda, .. } = &enc.request else {
                unreachable!("tenant keys are deltas")
            };
            let req = Request::delta_arc(tenant_id(0, t), Arc::clone(delta), *lambda);
            match reference.submit(req).wait() {
                Ok(reply) => self.want[pos] = payload_hash(wire::reply_json(&reply).as_bytes()),
                Err(e) => tally.fail(format!("reference delta at {pos}: {e}")),
            }
        }
    }

    /// After a phase: compares every delta answer's hash with the
    /// sequential in-process replay, and checks each tenant of each
    /// namespace drifted into the generator's final costs for the steps it
    /// received.
    pub fn verify(
        &mut self,
        w: &Workload,
        live: &Live,
        recs: &[(usize, &Record)],
        tally: &mut Tally,
    ) {
        if w.tenants.is_empty() {
            return;
        }
        let upto = recs.iter().map(|(_, r)| r.consumed).max().unwrap_or(0);
        self.extend_to(w, upto, tally);
        let want = &self.want[..self.upto.min(self.want.len())];
        for &(ns, rec) in recs {
            for &(pos, hash) in &rec.deltas {
                if want.get(pos) != Some(&hash) {
                    tally.fail(format!(
                        "namespace {ns}: delta answer at position {pos} differs from the in-process replay"
                    ));
                }
            }
            let mut steps = vec![0usize; w.tenants.len()];
            for pos in 0..rec.consumed {
                if let Some(t) = w.key_at(pos).and_then(|(_, k)| k.tenant) {
                    steps[t] += 1;
                }
            }
            for (t, &n) in steps.iter().enumerate() {
                let got = live.net.service().tenant_costs(tenant_id(ns, t));
                if got.as_ref() != Some(&drifted_costs(w, t, n)) {
                    tally.fail(format!(
                        "namespace {ns}: tenant {t} did not drift into the generated final costs"
                    ));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step(rate: f64, lat_us: f64, backlog_end: usize, achieved_rps: f64) -> Step {
        let mut lat = Samples::new();
        for _ in 0..200 {
            lat.push(lat_us);
        }
        Step {
            rate,
            lat_us: lat,
            lag_us: Samples::new(),
            backlog_end,
            achieved_rps,
        }
    }

    #[test]
    fn capacity_interpolates_the_p90_towards_a_slow_rate() {
        let mut ladder = Ladder::default();
        ladder.add(vec![
            step(100.0, 100.0, 0, 100.0),
            step(200.0, 1900.0, 0, 200.0),
        ]);
        let cap = ladder.capacity(1000.0, &mut Vec::new());
        assert!((cap - 150.0).abs() < 1e-9, "halfway to the limit: {cap}");
    }

    #[test]
    fn capacity_stops_at_the_achieved_rate_of_a_saturated_rate() {
        let mut ladder = Ladder::default();
        ladder.add(vec![
            step(100.0, 100.0, 0, 100.0),
            step(200.0, 50_000.0, 50, 160.0),
        ]);
        assert_eq!(ladder.capacity(1000.0, &mut Vec::new()), 160.0);
        // A rate a climb never reached counts as saturated in that climb.
        ladder.add(vec![step(100.0, 100.0, 0, 100.0)]);
        assert_eq!(ladder.capacity(1000.0, &mut Vec::new()), 160.0);
    }
}
