//! The service part of every workload: an in-process `vpir serve`
//! (disk tier on, in a fresh directory) driven closed-loop by `nproc`
//! keep-alive connections.
//!
//! On `hit` every connection cycles round the 28 quick-scale keys
//! (7 benches × 4 family labels), all memory-tier hits after set-up.
//! On `miss` every request is a unique five-instruction program,
//! rotating the family labels, sent to a memory tier that set-up
//! filled, so every request simulates, evicts and writes the disk tier.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use vpir_bench::matrix::config_for_label;
use vpir_bench::state::{stats_from_json, stats_to_json};
use vpir_core::{RunLimits, SimStats, Simulator};
use vpir_isa::{asm::assemble, image};
use vpir_jsonlite::{parse_json, JsonValue};
use vpir_serve::http::write_response;
use vpir_serve::{fnv1a64, ConnReader, DiskStore, ResultCache, ServeConfig, Server};
use vpir_workloads::{Bench, Scale};

use crate::matrix::{parse_golden, FIXTURE, SETUPS};
use crate::report::{check_digest, median, quantile, supports, Measured, Outcome, Part};
use crate::rng::Rng;
use crate::trace::Tracer;
use crate::Args;

/// Which service traffic a workload sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Repeated keys, answered from the memory tier.
    Hit,
    /// Unique programs: every request simulates, evicts and persists.
    Miss,
}

/// The four configuration families: metric suffix and label.
pub const LABELS: [(&str, &str); 4] = [
    ("base", "base"),
    ("vp", "magic:ME-SB:vl1"),
    ("ir", "ir_early"),
    ("rtb", "rtb:t8"),
];

/// Workload scale of every request: the quick matrix scale, which is
/// also the server's default for inline programs.
const SCALE: u64 = 2;

/// The server's default cycle cap, which every request relies on.
const MAX_CYCLES: u64 = 2_000_000;

/// Memory-tier capacity on `miss`: small enough that set-up fills it
/// and every timed insert evicts.
const MISS_CACHE_ENTRIES: usize = 16;

/// Largest request body the probes accept (the server's default).
const MAX_BODY: usize = 1 << 20;

/// Renders one `POST /v1/run` request.
fn post_run(body: &str) -> Vec<u8> {
    format!(
        "POST /v1/run HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// One generated request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Input {
    /// Bench name (`hit`) or `inline` (`miss`).
    pub program: String,
    /// Inline assembly source (`miss` only).
    pub asm: Option<String>,
    /// Index into [`LABELS`].
    pub family: usize,
    /// The exact request bytes.
    pub bytes: Vec<u8>,
}

/// The `hit` key order of connection `conn`: all 28 keys,
/// shuffled by the seed.
pub fn hit_inputs(seed: u64, conn: usize) -> Vec<Input> {
    let mut keys: Vec<(Bench, usize)> = Bench::ALL
        .iter()
        .flat_map(|&b| (0..LABELS.len()).map(move |f| (b, f)))
        .collect();
    Rng::new(seed, 100 + conn as u64).shuffle(&mut keys);
    keys.into_iter()
        .map(|(bench, family)| {
            let body = format!(
                "{{\"bench\": \"{}\", \"config\": \"{}\", \"scale\": {SCALE}}}",
                bench.name(),
                LABELS[family].1
            );
            Input {
                program: bench.name().to_string(),
                asm: None,
                family,
                bytes: post_run(&body),
            }
        })
        .collect()
}

/// The generator of unique `miss` programs for one seed.
#[derive(Debug, Clone)]
pub struct MissGen {
    constant: u64,
    op: &'static str,
    rotation: usize,
}

impl MissGen {
    /// The generator for `seed`: a seeded constant, ALU operation and
    /// label rotation.
    pub fn new(seed: u64) -> MissGen {
        let mut rng = Rng::new(seed, 200);
        let constant = rng.next_u64() & 0x7fff;
        let op = ["add", "sub", "xor", "or", "and"][rng.below(5)];
        MissGen {
            constant,
            op,
            rotation: rng.below(LABELS.len()),
        }
    }

    /// Request `seq`: a five-instruction program unique per `seq`
    /// (below 2^30), under the next label of the rotation.
    pub fn input(&self, seq: u64) -> Input {
        let asm = format!(
            "li r1, {}\nli r2, {}\nli r3, {}\n{} r4, r1, r2\nhalt",
            self.constant,
            seq & 0x7fff,
            (seq >> 15) & 0x7fff,
            self.op
        );
        let family = (seq as usize + self.rotation) % LABELS.len();
        let body = format!(
            "{{\"asm\": \"{}\", \"config\": \"{}\"}}",
            asm.replace('\n', "\\n"),
            LABELS[family].1
        );
        Input {
            program: "inline".to_string(),
            asm: Some(asm),
            family,
            bytes: post_run(&body),
        }
    }
}

/// Sequence numbers of the timed requests start here, above those the
/// set-up uses, so no timed program was seen before. (Each phase runs
/// against a freshly set-up server.)
const TIMED_SEQ0: u64 = 1 << 20;

/// Request id of set-up spans (timed requests use small ids).
const SETUP_REQ: u64 = u64::MAX;

// ----------------------------------------------------------------
// A minimal keep-alive HTTP client.
// ----------------------------------------------------------------

/// One parsed response.
#[derive(Debug, Clone)]
struct Response {
    /// HTTP status.
    pub status: u16,
    /// The `X-Cache` header, if any.
    pub x_cache: Option<String>,
    /// Response body.
    pub body: Vec<u8>,
    /// Whether the server closes the connection after this response.
    pub close: bool,
}

/// A keep-alive connection that reconnects after the server closes.
#[derive(Debug)]
struct Client {
    addr: SocketAddr,
    stream: Option<TcpStream>,
}

impl Client {
    /// A client for `addr`; connects on first use.
    pub fn new(addr: SocketAddr) -> Client {
        Client { addr, stream: None }
    }

    /// Sends `bytes` and reads one full response. Returns the response
    /// and the client latency: first request byte written to last
    /// response byte read.
    pub fn send(
        &mut self,
        bytes: &[u8],
        tracer: &Tracer,
        req: u64,
    ) -> Result<(Response, f64), String> {
        if self.stream.is_none() {
            let s = TcpStream::connect(self.addr).map_err(|e| format!("connect: {e}"))?;
            // The client must not add its own Nagle delay; the
            // server's behaviour is what is measured.
            s.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
            s.set_read_timeout(Some(Duration::from_secs(30)))
                .map_err(|e| e.to_string())?;
            self.stream = Some(s);
        }
        let stream = self.stream.as_mut().expect("connected above");
        let result = tracer.span("client.request", None, req, |span| {
            let t = Instant::now();
            tracer
                .span("client.write", span, req, |_| stream.write_all(bytes))
                .map_err(|e| format!("write: {e}"))?;
            let resp = tracer.span("client.read", span, req, |_| read_response(stream))?;
            Ok::<_, String>((resp, t.elapsed().as_secs_f64()))
        });
        match &result {
            Ok((resp, _)) if !resp.close => {}
            _ => self.stream = None,
        }
        result
    }
}

fn read_response(stream: &mut TcpStream) -> Result<Response, String> {
    let mut buf = Vec::with_capacity(4096);
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(p) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break p;
        }
        let n = stream.read(&mut chunk).map_err(|e| format!("read: {e}"))?;
        if n == 0 {
            return Err("connection closed before a response".to_string());
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| "response head is not UTF-8")?;
    let mut lines = head.split("\r\n");
    let status: u16 = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or("bad status line")?;
    let (mut len, mut x_cache, mut close) = (0usize, None, false);
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        match name.to_ascii_lowercase().as_str() {
            "content-length" => len = value.parse().map_err(|_| "bad Content-Length")?,
            "x-cache" => x_cache = Some(value.to_string()),
            "connection" => close = value.eq_ignore_ascii_case("close"),
            _ => {}
        }
    }
    let mut body = buf.split_off(head_end + 4);
    while body.len() < len {
        let n = stream
            .read(&mut chunk)
            .map_err(|e| format!("read body: {e}"))?;
        if n == 0 {
            return Err("connection closed mid-body".to_string());
        }
        body.extend_from_slice(&chunk[..n]);
    }
    if body.len() != len {
        return Err(format!("{} body bytes, Content-Length {len}", body.len()));
    }
    Ok(Response {
        status,
        x_cache,
        body,
        close,
    })
}

/// Fetches `GET /metrics` on a fresh connection and parses every
/// `name value` sample.
fn scrape(addr: SocketAddr) -> Result<BTreeMap<String, f64>, String> {
    let mut client = Client::new(addr);
    let req = b"GET /metrics HTTP/1.1\r\nHost: perfbench\r\nConnection: close\r\n\r\n";
    let (resp, _) = client.send(req, &Tracer::new(false), 0)?;
    let text = String::from_utf8(resp.body).map_err(|_| "metrics are not UTF-8")?;
    Ok(parse_metrics(&text))
}

/// Parses Prometheus text exposition samples.
fn parse_metrics(text: &str) -> BTreeMap<String, f64> {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (name, value) = l.split_once(' ')?;
            Some((name.to_string(), value.trim().parse().ok()?))
        })
        .collect()
}

fn metric(m: &BTreeMap<String, f64>, name: &str) -> f64 {
    m.get(name).copied().unwrap_or(0.0)
}

// ----------------------------------------------------------------
// Set-up.
// ----------------------------------------------------------------

/// `hit` reference bodies: the first body seen per (bench, family).
type Refs = BTreeMap<(String, usize), Vec<u8>>;

/// A running server with its warm state.
struct Live {
    server: Server,
    dir: PathBuf,
    refs: Refs,
}

impl Live {
    fn stop(self) {
        self.server.shutdown();
        self.server.join();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn fresh_dir(args: &Args, name: &str) -> Result<PathBuf, String> {
    let dir = args.work_dir.join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

/// The server's defaults (one worker) with the disk tier on; on
/// `miss`, a memory tier small enough to fill in set-up. One
/// worker also keeps the peak heap from depending on whether two
/// simulations happen to overlap.
fn server_config(mode: Mode, dir: &Path) -> ServeConfig {
    let mut cfg = ServeConfig {
        cache_dir: Some(dir.to_path_buf()),
        ..ServeConfig::default()
    };
    if mode == Mode::Miss {
        cfg.cache_capacity = MISS_CACHE_ENTRIES;
    }
    cfg
}

/// Starts a server in a fresh directory and warms it: on `hit` one
/// miss and one hit per key, on `miss` misses until the memory tier is
/// full. Failures are pushed to `failures`.
fn setup(
    args: &Args,
    mode: Mode,
    idx: usize,
    tracer: &Tracer,
    failures: &mut Vec<String>,
) -> Result<(Live, f64), String> {
    let t = Instant::now();
    let dir = fresh_dir(args, &format!("serve-{}-{idx}", args.workload))?;
    let server =
        Server::start(server_config(mode, &dir)).map_err(|e| format!("server start: {e}"))?;
    let addr = server.addr();
    let conns = crate::nproc();
    let gen = MissGen::new(args.seed);
    let per_conn: Vec<Result<(Refs, Vec<String>), String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let gen = &gen;
                s.spawn(move || {
                    let mut client = Client::new(addr);
                    let (mut refs, mut bad) = (Refs::new(), Vec::new());
                    match mode {
                        Mode::Hit => {
                            let mine = hit_inputs(args.seed, 0).into_iter().skip(c).step_by(conns);
                            for input in mine {
                                let (miss, _) = client.send(&input.bytes, tracer, SETUP_REQ)?;
                                let (hit, _) = client.send(&input.bytes, tracer, SETUP_REQ)?;
                                if miss.status != 200 || miss.x_cache.as_deref() != Some("miss") {
                                    bad.push(format!(
                                        "warm-up miss {}: {} {:?}",
                                        input.program, miss.status, miss.x_cache
                                    ));
                                }
                                if hit.x_cache.as_deref() != Some("hit") || hit.body != miss.body {
                                    bad.push(format!(
                                        "warm-up hit {} differs from its miss",
                                        input.program
                                    ));
                                }
                                refs.insert((input.program, input.family), miss.body);
                            }
                        }
                        Mode::Miss => {
                            for seq in (c..MISS_CACHE_ENTRIES).step_by(conns) {
                                let (resp, _) =
                                    client.send(&gen.input(seq as u64).bytes, tracer, SETUP_REQ)?;
                                if resp.status != 200 || resp.x_cache.as_deref() != Some("miss") {
                                    bad.push(format!(
                                        "warm-up miss {seq}: {} {:?}",
                                        resp.status, resp.x_cache
                                    ));
                                }
                            }
                        }
                    }
                    Ok((refs, bad))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("set-up client panicked"))
            .collect()
    });
    let mut refs = BTreeMap::new();
    for r in per_conn {
        let (pairs, bad) = r?;
        refs.extend(pairs);
        failures.extend(bad);
    }
    if mode == Mode::Hit {
        if let Err(e) = check_refs(&refs) {
            failures.push(e);
        }
    }
    if mode == Mode::Miss {
        let m = scrape(addr)?;
        let entries = metric(&m, "vpir_cache_entries") as usize;
        if entries != MISS_CACHE_ENTRIES {
            failures.push(format!(
                "memory tier holds {entries} entries after set-up, want {MISS_CACHE_ENTRIES}"
            ));
        }
    }
    Ok((Live { server, dir, refs }, t.elapsed().as_secs_f64()))
}

/// Checks the `hit` reference bodies: each is a halted run whose
/// stats match the golden digest of its (bench, label) cell.
fn check_refs(refs: &Refs) -> Result<(), String> {
    let text = std::fs::read_to_string(FIXTURE).map_err(|e| format!("{FIXTURE}: {e}"))?;
    let golden = parse_golden(&text)?;
    if refs.len() != Bench::ALL.len() * LABELS.len() {
        return Err(format!("{} reference bodies, want 28", refs.len()));
    }
    for ((bench, family), body) in refs {
        let label = LABELS[*family].1;
        let stats = body_stats(body)?;
        let want = golden
            .get(&(bench.clone(), label.to_string()))
            .ok_or("cell not in fixture")?;
        check_digest(
            &format!("{bench}/{label} (served)"),
            &stats_to_json(&stats),
            *want,
        )?;
    }
    Ok(())
}

/// The `stats` of a run response whose `halted` is true.
fn body_stats(body: &[u8]) -> Result<SimStats, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8")?;
    let doc: JsonValue = parse_json(text)?;
    if doc.get("halted").and_then(JsonValue::as_bool) != Some(true) {
        return Err("run did not halt".to_string());
    }
    stats_from_json(doc.get("stats").ok_or("body has no stats")?)
}

// ----------------------------------------------------------------
// The timed phase.
// ----------------------------------------------------------------

/// What the client keeps of one timed request. Bodies are checked as
/// they arrive and kept only for the traced probes, so the benchmark's
/// own bookkeeping stays out of `peak_heap_mb`.
#[derive(Debug)]
struct Sample {
    req: u64,
    conn: usize,
    /// Index of the request on its connection.
    i: u64,
    /// Client latency in seconds, or the I/O error.
    latency: Result<f64, String>,
    /// 2xx with `X-Cache: hit`.
    hit: bool,
    /// What the checks found wrong, if anything.
    problem: Option<String>,
    /// `miss`: FNV-1a-64 of the served stats, checked after the phase.
    stats_digest: Option<u64>,
    /// The body, kept for the traced probes only.
    body: Option<Vec<u8>>,
}

/// Timed requests each connection can record without reallocating.
const SAMPLES_RESERVED: usize = 1 << 12;

/// Request `i` of connection `conn` in a timed phase.
fn timed_input(mode: Mode, gen: &MissGen, keys: &[Input], conn: usize, i: u64) -> Input {
    match mode {
        Mode::Hit => keys[i as usize % keys.len()].clone(),
        Mode::Miss => gen.input(TIMED_SEQ0 + i * crate::nproc() as u64 + conn as u64),
    }
}

/// Results of one timed phase.
struct Phase {
    samples: Vec<Sample>,
    secs: f64,
    peak_mb: f64,
    before: BTreeMap<String, f64>,
    after: BTreeMap<String, f64>,
}

/// Checks one response as it arrives: a 2xx that, on `hit`, is
/// byte-identical to its key's reference body and, on `miss`, is a
/// halted miss, whose stats digest is returned for the comparison
/// after the phase.
fn check_response(
    mode: Mode,
    refs: &Refs,
    input: &Input,
    resp: &Response,
) -> Result<Option<u64>, String> {
    if !(200..300).contains(&resp.status) {
        return Err(format!("status {}", resp.status));
    }
    match mode {
        Mode::Hit => match refs.get(&(input.program.clone(), input.family)) {
            Some(r) if *r == resp.body => Ok(None),
            _ => Err("body differs from the first body seen for its key".to_string()),
        },
        Mode::Miss => {
            if resp.x_cache.as_deref() != Some("miss") {
                return Err(format!("X-Cache {:?}, want miss", resp.x_cache));
            }
            body_stats(&resp.body).map(|stats| Some(stats_digest(&stats)))
        }
    }
}

/// Runs one timed phase: `nproc` closed-loop connections for `secs`.
/// With `keep_bodies`, response bodies are kept for the probes.
fn timed(
    args: &Args,
    mode: Mode,
    secs: f64,
    live: &Live,
    tracer: &Tracer,
    keep_bodies: bool,
) -> Result<Phase, String> {
    let addr = live.server.addr();
    let conns = crate::nproc();
    let gen = MissGen::new(args.seed);
    let keys: Vec<Vec<Input>> = (0..conns).map(|c| hit_inputs(args.seed, c)).collect();
    let mut per_conn: Vec<Vec<Sample>> = (0..conns)
        .map(|_| Vec::with_capacity(SAMPLES_RESERVED))
        .collect();
    let before = scrape(addr)?;
    crate::alloc::reset_peak();
    let start = Instant::now();
    let deadline = Duration::from_secs_f64(secs);
    std::thread::scope(|s| {
        for (c, out) in per_conn.iter_mut().enumerate() {
            let (gen, keys, refs) = (&gen, &keys[c], &live.refs);
            s.spawn(move || {
                let mut client = Client::new(addr);
                let mut i = 0u64;
                while start.elapsed() < deadline {
                    let input = timed_input(mode, gen, keys, c, i);
                    let req = (i << 8) | c as u64;
                    let mut sample = Sample {
                        req,
                        conn: c,
                        i,
                        latency: Err(String::new()),
                        hit: false,
                        problem: None,
                        stats_digest: None,
                        body: None,
                    };
                    match client.send(&input.bytes, tracer, req) {
                        Ok((resp, latency)) => {
                            sample.latency = Ok(latency);
                            sample.hit = (200..300).contains(&resp.status)
                                && resp.x_cache.as_deref() == Some("hit");
                            match check_response(mode, refs, &input, &resp) {
                                Ok(digest) => sample.stats_digest = digest,
                                Err(e) => sample.problem = Some(e),
                            }
                            if keep_bodies {
                                sample.body = Some(resp.body);
                            }
                        }
                        Err(e) => {
                            sample.problem = Some(e.clone());
                            sample.latency = Err(e);
                        }
                    }
                    out.push(sample);
                    i += 1;
                }
            });
        }
    });
    let secs = start.elapsed().as_secs_f64();
    let peak_mb = crate::alloc::peak_mb();
    let after = scrape(addr)?;
    Ok(Phase {
        samples: per_conn.into_iter().flatten().collect(),
        secs,
        peak_mb,
        before,
        after,
    })
}

/// Finishes the checks after the phase: every `miss` response's
/// stats must equal an in-process run of the same program and label.
/// Returns one failure message per failed request.
fn check_phase(args: &Args, mode: Mode, phase: &Phase) -> Vec<String> {
    let gen = MissGen::new(args.seed);
    let keys: Vec<Vec<Input>> = (0..crate::nproc())
        .map(|c| hit_inputs(args.seed, c))
        .collect();
    let mut bad = Vec::new();
    for s in &phase.samples {
        let input = timed_input(mode, &gen, &keys[s.conn], s.conn, s.i);
        let problem = match (&s.problem, s.stats_digest) {
            (Some(p), _) => Some(p.clone()),
            (None, Some(served)) => in_process_stats(&input)
                .and_then(|want| {
                    if stats_digest(&want) == served {
                        Ok(())
                    } else {
                        Err("stats differ from an in-process run".to_string())
                    }
                })
                .err(),
            (None, None) => None,
        };
        if let Some(p) = problem {
            bad.push(format!(
                "request {} ({} {}): {p}",
                s.req, input.program, LABELS[input.family].1
            ));
        }
    }
    bad
}

/// FNV-1a-64 of a run's exact-u64 JSON form, as the golden digests use.
fn stats_digest(stats: &SimStats) -> u64 {
    crate::report::fnv1a64(stats_to_json(stats).as_bytes())
}

/// Stats of an in-process run of a `miss` input.
fn in_process_stats(input: &Input) -> Result<SimStats, String> {
    let prog = assemble(input.asm.as_deref().ok_or("no program")?).map_err(|e| e.to_string())?;
    let config = config_for_label(LABELS[input.family].1).ok_or("unknown label")?;
    let mut sim = Simulator::new(&prog, config);
    Ok(sim.run(RunLimits::cycles(MAX_CYCLES)).clone())
}

fn ok_count(phase: &Phase) -> usize {
    phase
        .samples
        .iter()
        .filter(|s| s.latency.is_ok() && s.problem.is_none())
        .count()
}

/// The part's gated end-to-end metrics: throughput and client latency.
fn measured(phase: &Phase, setup_secs: Vec<f64>) -> Measured {
    let mut out = Outcome::default();
    let ok = ok_count(phase);
    out.metric("rps", ok as f64 / phase.secs, "1/s", ok as u64);
    let lat: Vec<f64> = phase
        .samples
        .iter()
        .filter_map(|s| s.latency.as_ref().ok().map(|l| l * 1e3))
        .collect();
    out.metric(
        "p50_ms",
        quantile(&lat, 0.5).unwrap_or(0.0),
        "ms",
        lat.len() as u64,
    );
    out.metric(
        "p90_ms",
        quantile(&lat, 0.9).unwrap_or(0.0),
        "ms",
        lat.len() as u64,
    );
    Measured {
        setup_secs,
        metrics: out.metrics,
        peak_mb: phase.peak_mb,
    }
}

/// Runs the service part for `secs` (halved between an untraced and a
/// traced phase on traced runs, which record spans in `tracer`).
pub(crate) fn run(args: &Args, mode: Mode, secs: f64, tracer: &Tracer) -> Result<Part, String> {
    let mut part = Part::default();
    let out = &mut part.out;
    let phase_secs = crate::phase_secs(args, secs);
    let off = Tracer::new(false);
    let mut setup_failures = Vec::new();
    let mut setup_secs = Vec::new();
    let mut live = None;
    for idx in 0..SETUPS {
        if let Some(prev) = live.take() {
            Live::stop(prev);
        }
        let (l, secs) = setup(args, mode, idx, &off, &mut setup_failures)?;
        setup_secs.push(secs);
        live = Some(l);
    }
    let live = live.expect("at least one set-up");
    out.check(
        "set-up responses",
        setup_failures.is_empty(),
        setup_failures.first().cloned().unwrap_or_default(),
    );
    let untraced = timed(args, mode, phase_secs, &live, &off, false);
    live.stop();
    let untraced = untraced?;
    let bad = check_phase(args, mode, &untraced);
    out.attempted = untraced.samples.len() as u64;
    out.failed = bad.len() as u64;
    out.check(
        "timed responses",
        bad.is_empty(),
        bad.first()
            .cloned()
            .unwrap_or_else(|| format!("{} requests checked", untraced.samples.len())),
    );
    let lat_n = untraced.samples.len();
    out.check(
        "p90 has at least 10 samples beyond it",
        supports(lat_n, 0.9),
        format!("{lat_n} samples"),
    );
    part.untraced = measured(&untraced, setup_secs);
    if !args.trace {
        return Ok(part);
    }

    // The traced run: one more set-up and the same timed phase with
    // spans on, then the handler-layer probes.
    let mut traced_setup_failures = Vec::new();
    let (live, traced_setup) = setup(args, mode, SETUPS, tracer, &mut traced_setup_failures)?;
    part.out.check(
        "traced set-up responses",
        traced_setup_failures.is_empty(),
        traced_setup_failures.first().cloned().unwrap_or_default(),
    );
    let result = traced_run(
        args,
        mode,
        phase_secs,
        &live,
        tracer,
        traced_setup,
        &mut part,
    );
    live.stop();
    result.map(|()| part)
}

fn traced_run(
    args: &Args,
    mode: Mode,
    secs: f64,
    live: &Live,
    tracer: &Tracer,
    setup_secs: f64,
    part: &mut Part,
) -> Result<(), String> {
    let traced = timed(args, mode, secs, live, tracer, true)?;
    let bad = check_phase(args, mode, &traced);
    let traced_e2e = measured(&traced, vec![setup_secs]);
    let client_p50 = traced_e2e
        .metrics
        .iter()
        .find(|m| m.name == "p50_ms")
        .map_or(f64::NAN, |m| m.value);
    part.traced = Some(traced_e2e);
    let out = &mut part.out;
    out.attempted += traced.samples.len() as u64;
    out.failed += bad.len() as u64;

    let handler = probes(args, mode, live, &traced, tracer, out)?;
    out.metric(
        "serve.transport_ms",
        client_p50 - median(&handler).unwrap_or(0.0) * 1e3,
        "ms",
        handler.len() as u64,
    );
    out.metric(
        "serve.server_p50_us",
        metric(&traced.after, "vpir_latency_run_p50_micros"),
        "us",
        1,
    );
    let n = traced.samples.len() as f64;
    let hits = traced.samples.iter().filter(|s| s.hit).count();
    let delta = |name: &str| metric(&traced.after, name) - metric(&traced.before, name);
    out.metric("serve.hit_ratio", hits as f64 / n, "ratio", n as u64);
    out.metric(
        "serve.evictions_per_req",
        delta("vpir_cache_entries_evicted_total") / n,
        "ratio",
        n as u64,
    );
    // The closing scrape's own connection is not a workload connection.
    out.metric(
        "serve.conns_per_1k_req",
        (delta("vpir_connections_total") - 1.0) * 1e3 / n,
        "count",
        n as u64,
    );
    out.metric("serve.failed", bad.len() as f64, "count", n as u64);
    out.check(
        "traced timed responses",
        bad.is_empty(),
        bad.first().cloned().unwrap_or_default(),
    );
    Ok(())
}

/// `Simulator::new` span names, per [`LABELS`] family.
const NEW_SPANS: [&str; 4] = [
    "core.new.base",
    "core.new.vp",
    "core.new.ir",
    "core.new.rtb",
];

/// Runs the handler-layer probes on the exact requests of the traced
/// phase: per request, a `serve.handler` span with one child span per
/// layer call, all carrying the request's id. On `hit`, whose timed
/// requests never build, simulate or insert, those calls are timed on
/// the set-up misses instead. Returns the handler spans' durations.
fn probes(
    args: &Args,
    mode: Mode,
    live: &Live,
    phase: &Phase,
    tracer: &Tracer,
    out: &mut Outcome,
) -> Result<Vec<f64>, String> {
    // Mirror of the server's memoized benchmark programs and images.
    let mut programs = BTreeMap::new();
    let mut images = BTreeMap::new();
    for b in Bench::ALL {
        let (prog, img) = tracer.span("isa.image", None, SETUP_REQ, |_| {
            let prog = b.program(Scale::of(SCALE as u32));
            let img = image::write(&prog).map_err(|e| e.to_string())?;
            Ok::<_, String>((prog, img))
        })?;
        programs.insert(b.name().to_string(), prog);
        images.insert(b.name().to_string(), img);
    }
    // A cache shaped like the server's, warmed the same way.
    let dir = fresh_dir(args, &format!("probe-{}", args.workload))?;
    let store = DiskStore::open(
        &dir.join("cache"),
        ServeConfig::default().cache_disk_bytes,
        None,
    )
    .map_err(|e| format!("probe store: {e}"))?;
    let cfg = server_config(mode, &dir);
    let cache = ResultCache::new(cfg.cache_capacity, cfg.cache_mem_bytes, Some(store));
    let bare = DiskStore::open(
        &dir.join("store"),
        ServeConfig::default().cache_disk_bytes,
        None,
    )
    .map_err(|e| format!("probe store: {e}"))?;
    match mode {
        // The set-up misses, replayed: the server built a simulator per
        // key, rendered its stats and inserted the body in both tiers.
        Mode::Hit => {
            for ((bench, family), body) in &live.refs {
                let label = LABELS[*family].1;
                let config = config_for_label(label).ok_or("unknown label")?;
                tracer.span(NEW_SPANS[*family], None, SETUP_REQ, |_| {
                    Simulator::new(&programs[bench], config)
                });
                let stats = body_stats(body)?;
                tracer.span("jsonlite.stats_to_json", None, SETUP_REQ, |_| {
                    stats_to_json(&stats)
                });
                let key = run_key(&images[bench], label);
                let body = Arc::new(String::from_utf8_lossy(body).into_owned());
                tracer.span("serve.insert", None, SETUP_REQ, |_| {
                    cache.insert(key, Arc::clone(&body))
                });
                tracer.span("serve.store_insert", None, SETUP_REQ, |_| {
                    bare.insert(key, body.as_bytes())
                });
            }
        }
        Mode::Miss => {
            let gen = MissGen::new(args.seed);
            for seq in 0..MISS_CACHE_ENTRIES as u64 {
                cache.insert(
                    u64::MAX - seq,
                    Arc::new(format!("{{\"warm\": {}}}", gen.input(seq).bytes.len())),
                );
            }
        }
    }

    let gen = MissGen::new(args.seed);
    let keys: Vec<Vec<Input>> = (0..crate::nproc())
        .map(|c| hit_inputs(args.seed, c))
        .collect();
    for s in &phase.samples {
        let Some(resp_body) = &s.body else { continue };
        let input = timed_input(mode, &gen, &keys[s.conn], s.conn, s.i);
        let (req, label) = (s.req, LABELS[input.family].1);
        let body = Arc::new(String::from_utf8_lossy(resp_body).into_owned());
        let key = tracer.span("serve.handler", None, req, |h| -> Result<u64, String> {
            tracer
                .span("serve.parse", h, req, |_| {
                    ConnReader::new(std::io::Cursor::new(&input.bytes)).next_request(MAX_BODY)
                })
                .map_err(|e| e.message)?;
            let (key, tag) = match mode {
                Mode::Hit => {
                    let key = tracer.span("serve.key", h, req, |_| {
                        run_key(&images[&input.program], label)
                    });
                    let got = tracer.span("serve.get", h, req, |_| cache.get(key));
                    if got.map(|(b, _)| b) != Some(Arc::clone(&body)) {
                        return Err(format!("request {req}: probe cache body differs"));
                    }
                    (key, "hit")
                }
                Mode::Miss => {
                    let asm = input.asm.as_deref().ok_or("no program")?;
                    let (prog, img) = tracer.span("isa.image", h, req, |_| {
                        let prog = assemble(asm).map_err(|e| e.to_string())?;
                        let img = image::write(&prog).map_err(|e| e.to_string())?;
                        Ok::<_, String>((prog, img))
                    })?;
                    let key = tracer.span("serve.key", h, req, |_| run_key(&img, label));
                    if tracer
                        .span("serve.get", h, req, |_| cache.get(key))
                        .is_some()
                    {
                        return Err(format!("request {req}: probe cache already holds it"));
                    }
                    let config = config_for_label(label).ok_or("unknown label")?;
                    let mut sim = tracer.span(NEW_SPANS[input.family], h, req, |_| {
                        Simulator::new(&prog, config)
                    });
                    let stats = tracer.span("core.run", h, req, |_| {
                        sim.run(RunLimits::cycles(MAX_CYCLES)).clone()
                    });
                    tracer.span("jsonlite.stats_to_json", h, req, |_| stats_to_json(&stats));
                    tracer.span("serve.insert", h, req, |_| {
                        cache.insert(key, Arc::clone(&body))
                    });
                    (key, "miss")
                }
            };
            let mut sink = Vec::with_capacity(body.len() + 256);
            tracer
                .span("serve.write", h, req, |_| {
                    write_response(
                        &mut sink,
                        200,
                        "application/json",
                        &[("X-Cache", tag.to_string())],
                        body.as_bytes(),
                        false,
                    )
                })
                .map_err(|e| e.to_string())?;
            Ok(key)
        })?;
        // Outside the handler span: `serve.insert` already wrote the
        // disk tier; this isolates that one write.
        if mode == Mode::Miss {
            tracer.span("serve.store_insert", None, req, |_| {
                bare.insert(key, body.as_bytes())
            });
        }
    }
    let _ = std::fs::remove_dir_all(&dir);

    let names = [
        ("serve.parse_us", "serve.parse"),
        ("serve.key_us", "serve.key"),
        ("serve.get_us", "serve.get"),
        ("serve.write_us", "serve.write"),
        ("isa.image_us", "isa.image"),
        ("core.new_us.base", NEW_SPANS[0]),
        ("core.new_us.vp", NEW_SPANS[1]),
        ("core.new_us.ir", NEW_SPANS[2]),
        ("core.new_us.rtb", NEW_SPANS[3]),
        ("jsonlite.stats_to_json_us", "jsonlite.stats_to_json"),
        ("serve.insert_us", "serve.insert"),
        ("serve.store_insert_us", "serve.store_insert"),
    ];
    let spans = tracer.spans();
    for (metric_name, span) in names {
        let v: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == span)
            .map(|s| s.secs() * 1e6)
            .collect();
        out.metric(metric_name, median(&v).unwrap_or(0.0), "us", v.len() as u64);
    }
    Ok(tracer.secs("serve.handler"))
}

/// The server's `/v1/run` cache key for a program image under `label`
/// at [`SCALE`], with the default cycle cap and no trace.
fn run_key(image: &[u8], label: &str) -> u64 {
    fnv1a64(&[
        b"run-v1",
        image,
        label.as_bytes(),
        SCALE.to_string().as_bytes(),
        MAX_CYCLES.to_string().as_bytes(),
        b"0",
    ])
}
