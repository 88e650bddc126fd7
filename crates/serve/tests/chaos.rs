//! Chaos tests: crash-and-restart durability, corruption quarantine,
//! and a short in-process loadgen run against a live server.
//!
//! The disk store fsyncs every entry at insert time, so "crash" here is
//! dropping one [`Server`] (gracefully or not) and opening a second one
//! over the same cache directory — the same recovery path `kill -9`
//! exercises in the CI chaos smoke step.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::Duration;

use vpir_serve::loadgen::{self, LoadgenConfig, Mix};
use vpir_serve::{ServeConfig, Server, StoreFault};

fn scratch_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join("serve-chaos")
        .join(name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clear scratch dir");
    }
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn durable_config(dir: &std::path::Path) -> ServeConfig {
    ServeConfig {
        workers: 1,
        cache_dir: Some(dir.to_path_buf()),
        default_max_cycles: 100_000,
        ..ServeConfig::default()
    }
}

fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("timeout");
    let raw = format!(
        "POST {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(raw.as_bytes()).expect("write");
    let mut response = Vec::new();
    stream.read_to_end(&mut response).expect("read");
    let text = String::from_utf8(response).expect("utf8 response");
    let (head, body) = text.split_once("\r\n\r\n").expect("response head");
    let status: u16 = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    (status, head.to_string(), body.to_string())
}

fn get(addr: SocketAddr, path: &str) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("timeout");
    stream
        .write_all(
            format!("GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n").as_bytes(),
        )
        .expect("write");
    let mut response = Vec::new();
    stream.read_to_end(&mut response).expect("read");
    let text = String::from_utf8(response).expect("utf8 response");
    let (head, body) = text.split_once("\r\n\r\n").expect("response head");
    let status: u16 = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    (status, head.to_string(), body.to_string())
}

fn shutdown(server: Server) {
    let addr = server.addr();
    let (status, _, _) = post(addr, "/v1/shutdown", "{}");
    assert_eq!(status, 200, "shutdown must be acknowledged");
    server.join();
}

const RUN_REQUEST: &str = "{\"bench\": \"compress\", \"max_cycles\": 60000}";

#[test]
fn a_restarted_server_serves_prior_results_from_disk_byte_identically() {
    let dir = scratch_dir("restart");

    // First life: populate the cache with a miss, then confirm the
    // in-memory hit, then go down.
    let first = Server::start(durable_config(&dir)).expect("start first");
    let (status, head, miss_body) = post(first.addr(), "/v1/run", RUN_REQUEST);
    assert_eq!(status, 200, "{miss_body}");
    assert!(head.contains("X-Cache: miss"), "{head}");
    let (status, head, hit_body) = post(first.addr(), "/v1/run", RUN_REQUEST);
    assert_eq!(status, 200);
    assert!(head.ends_with("X-Cache: hit"), "{head}");
    assert_eq!(miss_body, hit_body);
    shutdown(first);

    // Second life: a fresh process image over the same directory. The
    // memory tier starts empty, so the answer must come from disk —
    // byte-identical to the original miss.
    let second = Server::start(durable_config(&dir)).expect("start second");
    let (status, head, disk_body) = post(second.addr(), "/v1/run", RUN_REQUEST);
    assert_eq!(status, 200, "{disk_body}");
    assert!(head.contains("X-Cache: hit-disk"), "{head}");
    assert_eq!(
        miss_body, disk_body,
        "disk tier must replay the exact bytes"
    );

    // The disk hit promoted the entry into memory: the next request is
    // a plain memory hit.
    let (status, head, mem_body) = post(second.addr(), "/v1/run", RUN_REQUEST);
    assert_eq!(status, 200);
    assert!(head.ends_with("X-Cache: hit"), "{head}");
    assert_eq!(miss_body, mem_body);

    let (_, _, metrics) = get(second.addr(), "/metrics");
    assert!(
        metrics.contains("vpir_cache_hits_disk_total 1"),
        "{metrics}"
    );
    shutdown(second);
}

#[test]
fn a_corrupted_disk_entry_is_quarantined_not_served() {
    let dir = scratch_dir("quarantine");

    // Populate through a server whose next disk write is corrupted
    // after the fsync — the frame exists but its checksum is wrong.
    let cfg = ServeConfig {
        inject_fault: Some(StoreFault::CorruptNext),
        ..durable_config(&dir)
    };
    let faulty = Server::start(cfg).expect("start faulty");
    let (status, _, original_body) = post(faulty.addr(), "/v1/run", RUN_REQUEST);
    assert_eq!(status, 200, "{original_body}");
    shutdown(faulty);

    // On restart the corrupted frame is detected during the index
    // rebuild, moved aside, and counted — never served as a hit.
    let clean = Server::start(durable_config(&dir)).expect("start clean");
    let (status, head, body) = post(clean.addr(), "/v1/run", RUN_REQUEST);
    assert_eq!(status, 200, "{body}");
    assert!(
        head.contains("X-Cache: miss"),
        "corruption must degrade to a miss: {head}"
    );
    assert_eq!(
        body, original_body,
        "the recomputed answer is still deterministic"
    );

    let (_, _, metrics) = get(clean.addr(), "/metrics");
    assert!(
        metrics.contains("vpir_store_quarantined_total 1"),
        "{metrics}"
    );
    shutdown(clean);

    // The quarantined frame is preserved on disk for postmortems.
    let quarantined = std::fs::read_dir(&dir)
        .expect("read cache dir")
        .filter_map(|e| e.ok())
        .filter(|e| e.path().extension().is_some_and(|x| x == "quarantine"))
        .count();
    assert_eq!(quarantined, 1, "exactly one frame moved aside");
}

#[test]
fn a_truncated_disk_entry_is_also_a_miss() {
    let dir = scratch_dir("truncate");

    let cfg = ServeConfig {
        inject_fault: Some(StoreFault::TruncateNext),
        ..durable_config(&dir)
    };
    let faulty = Server::start(cfg).expect("start faulty");
    let (status, _, _) = post(faulty.addr(), "/v1/run", RUN_REQUEST);
    assert_eq!(status, 200);
    shutdown(faulty);

    let clean = Server::start(durable_config(&dir)).expect("start clean");
    let (status, head, _) = post(clean.addr(), "/v1/run", RUN_REQUEST);
    assert_eq!(status, 200);
    assert!(head.contains("X-Cache: miss"), "{head}");
    shutdown(clean);
}

#[test]
fn loadgen_drives_a_live_server_and_reports_zero_identity_violations() {
    let dir = scratch_dir("loadgen");
    let server = Server::start(durable_config(&dir)).expect("start");

    let cfg = LoadgenConfig {
        addr: server.addr().to_string(),
        conns: 4,
        duration: Duration::from_millis(800),
        mix: Mix::HitHeavy,
    };
    let report = loadgen::run(&cfg).expect("loadgen run");
    assert!(
        report.contains("\"schema\": \"vpir-bench-serve-v1\""),
        "{report}"
    );
    assert!(report.contains("\"identity_violations\": 0"), "{report}");
    assert!(report.contains("\"io_errors\": 0"), "{report}");
    assert!(report.contains("\"mix\": \"hit-heavy\""), "{report}");
    // Hit-heavy repeats one request. The very first request per
    // connection can race the others before the cache is populated
    // (there is no coalescing), but after that every answer is a hit.
    let misses: u64 = report
        .split("\"cache_misses\": ")
        .nth(1)
        .and_then(|rest| rest.split(|c: char| !c.is_ascii_digit()).next())
        .and_then(|digits| digits.parse().ok())
        .expect("cache_misses in report");
    assert!(
        (1..=4).contains(&misses),
        "at most one racing miss per connection: {report}"
    );
    assert!(!report.contains("\"cache_hits_memory\": 0"), "{report}");

    // The malformed mix must not wedge the server either.
    let cfg = LoadgenConfig {
        addr: server.addr().to_string(),
        conns: 2,
        duration: Duration::from_millis(400),
        mix: Mix::Malformed,
    };
    let report = loadgen::run(&cfg).expect("malformed run");
    assert!(report.contains("\"responses_2xx\": 0"), "{report}");

    // After both storms the server still answers cleanly.
    let (status, _, body) = get(server.addr(), "/healthz");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"ok\": true"), "{body}");
    shutdown(server);
}
