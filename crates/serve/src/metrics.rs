//! The service's metrics registry: plain `AtomicU64` counters and
//! gauges plus per-endpoint latency histograms, rendered in the
//! Prometheus text exposition format.
//!
//! No labels — every series is a named scalar, emitted in a fixed
//! order so two scrapes of the same state are byte-identical (the same
//! determinism discipline the simulator itself follows). Latency
//! percentiles come from the log-bucketed [`Histogram`]s in
//! [`crate::histo`], whose atomics (like every counter here) follow
//! the telemetry-`Relaxed` half of the ordering contract documented in
//! [`crate::pool`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::histo::Histogram;

/// Load-shedding state derived from queue-depth watermarks; exported
/// on `/metrics` as `vpir_shed_state` and consulted by the router for
/// expensive endpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ShedState {
    /// Below the shed watermark: everything is served.
    Healthy = 0,
    /// At or past the watermark: expensive endpoints are refused with
    /// `503 + Retry-After`; cached hits and cheap endpoints still work.
    Shedding = 1,
    /// The queue is full: every miss is refused.
    Saturated = 2,
}

impl ShedState {
    /// The watermark table: healthy below half the queue capacity,
    /// shedding from half up, saturated when completely full.
    pub fn for_depth(depth: usize, capacity: usize) -> ShedState {
        if depth >= capacity {
            ShedState::Saturated
        } else if depth * 2 >= capacity {
            ShedState::Shedding
        } else {
            ShedState::Healthy
        }
    }

    /// The state's name, as rendered in `/healthz`.
    pub fn name(self) -> &'static str {
        match self {
            ShedState::Healthy => "healthy",
            ShedState::Shedding => "shedding",
            ShedState::Saturated => "saturated",
        }
    }
}

/// All counters, gauges, and histograms the service exposes on
/// `GET /metrics`.
#[derive(Debug)]
pub struct Metrics {
    start: Instant,
    /// Connections accepted by the listener.
    pub connections_total: AtomicU64,
    /// Requests accepted by the HTTP layer (malformed ones included).
    pub requests_total: AtomicU64,
    /// Responses with a 2xx status.
    pub responses_ok: AtomicU64,
    /// Responses with a 4xx status.
    pub responses_client_error: AtomicU64,
    /// Responses with a 5xx status other than 503.
    pub responses_server_error: AtomicU64,
    /// 503 responses (queue full, shedding, draining, connection cap).
    pub responses_rejected: AtomicU64,
    /// Requests answered from the in-memory cache tier.
    pub cache_hits: AtomicU64,
    /// Requests answered from the disk cache tier after a restart or
    /// memory eviction.
    pub cache_hits_disk: AtomicU64,
    /// Run/matrix requests that had to simulate.
    pub cache_misses: AtomicU64,
    /// Entries currently held by the in-memory cache tier (gauge).
    pub cache_entries: AtomicU64,
    /// Body bytes currently held by the in-memory cache tier (gauge).
    pub cache_mem_bytes: AtomicU64,
    /// Entries evicted from the in-memory LRU since startup.
    pub cache_entries_evicted: AtomicU64,
    /// Entries currently indexed by the disk store (gauge).
    pub store_entries: AtomicU64,
    /// File bytes currently indexed by the disk store (gauge).
    pub store_bytes: AtomicU64,
    /// Disk entries evicted to stay under the byte budget.
    pub store_evictions: AtomicU64,
    /// Disk entries quarantined after failing a frame check.
    pub store_quarantined: AtomicU64,
    /// Jobs waiting in the bounded queue (gauge).
    pub queue_depth: AtomicU64,
    /// Jobs currently executing on a worker (gauge).
    pub in_flight_jobs: AtomicU64,
    /// Current load-shedding state: 0 healthy, 1 shedding, 2 saturated.
    pub shed_state: AtomicU64,
    /// Expensive requests refused because the service was shedding.
    pub requests_shed: AtomicU64,
    /// Requests answered 504 because the simulation outran the
    /// per-request deadline.
    pub deadline_exceeded: AtomicU64,
    /// Connections answered 408 because the client stalled mid-request.
    pub slow_client_timeouts: AtomicU64,
    /// Simulations that ran to completion (halt or cycle cap).
    pub runs_completed: AtomicU64,
    /// Simulations that ended in a structured `SimError`.
    pub runs_sim_error: AtomicU64,
    /// Jobs whose execution panicked (contained by the worker).
    pub runs_panicked: AtomicU64,
    /// Matrix cells that degraded to failure rows.
    pub matrix_cells_failed: AtomicU64,
    /// Cumulative simulated cycles across all jobs.
    pub sim_cycles_total: AtomicU64,
    /// Latency of `/v1/run` requests, microseconds.
    pub latency_run: Histogram,
    /// Latency of `/v1/matrix` requests, microseconds.
    pub latency_matrix: Histogram,
    /// Latency of `/v1/analyze` requests, microseconds.
    pub latency_analyze: Histogram,
    /// Latency of every other request (health, metrics, errors).
    pub latency_other: Histogram,
}

impl Metrics {
    /// A zeroed registry whose uptime clock starts now.
    pub fn new() -> Metrics {
        Metrics {
            start: Instant::now(),
            connections_total: AtomicU64::new(0),
            requests_total: AtomicU64::new(0),
            responses_ok: AtomicU64::new(0),
            responses_client_error: AtomicU64::new(0),
            responses_server_error: AtomicU64::new(0),
            responses_rejected: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_hits_disk: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            cache_entries: AtomicU64::new(0),
            cache_mem_bytes: AtomicU64::new(0),
            cache_entries_evicted: AtomicU64::new(0),
            store_entries: AtomicU64::new(0),
            store_bytes: AtomicU64::new(0),
            store_evictions: AtomicU64::new(0),
            store_quarantined: AtomicU64::new(0),
            queue_depth: AtomicU64::new(0),
            in_flight_jobs: AtomicU64::new(0),
            shed_state: AtomicU64::new(0),
            requests_shed: AtomicU64::new(0),
            deadline_exceeded: AtomicU64::new(0),
            slow_client_timeouts: AtomicU64::new(0),
            runs_completed: AtomicU64::new(0),
            runs_sim_error: AtomicU64::new(0),
            runs_panicked: AtomicU64::new(0),
            matrix_cells_failed: AtomicU64::new(0),
            sim_cycles_total: AtomicU64::new(0),
            latency_run: Histogram::new(),
            latency_matrix: Histogram::new(),
            latency_analyze: Histogram::new(),
            latency_other: Histogram::new(),
        }
    }

    /// Buckets a response status into the right outcome counter.
    pub fn observe_status(&self, status: u16) {
        let counter = match status {
            200..=299 => &self.responses_ok,
            503 => &self.responses_rejected,
            400..=499 => &self.responses_client_error,
            _ => &self.responses_server_error,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// The latency histogram for a request path.
    pub fn latency_for(&self, path: &str) -> &Histogram {
        match path {
            "/v1/run" => &self.latency_run,
            "/v1/matrix" => &self.latency_matrix,
            "/v1/analyze" => &self.latency_analyze,
            _ => &self.latency_other,
        }
    }

    /// Renders the registry in Prometheus text exposition format.
    pub fn render(&self) -> String {
        let uptime = self.start.elapsed().as_secs_f64();
        let cycles = self.sim_cycles_total.load(Ordering::Relaxed);
        let cycles_per_sec = if uptime > 0.0 {
            cycles as f64 / uptime
        } else {
            0.0
        };
        let mut out = String::with_capacity(8192);
        let series: &[(&str, &str, &str, u64)] = &[
            (
                "vpir_connections_total",
                "counter",
                "Connections accepted by the listener.",
                self.connections_total.load(Ordering::Relaxed),
            ),
            (
                "vpir_requests_total",
                "counter",
                "Requests accepted by the HTTP layer.",
                self.requests_total.load(Ordering::Relaxed),
            ),
            (
                "vpir_responses_ok_total",
                "counter",
                "Responses with a 2xx status.",
                self.responses_ok.load(Ordering::Relaxed),
            ),
            (
                "vpir_responses_client_error_total",
                "counter",
                "Responses with a 4xx status.",
                self.responses_client_error.load(Ordering::Relaxed),
            ),
            (
                "vpir_responses_server_error_total",
                "counter",
                "Responses with a 5xx status other than 503.",
                self.responses_server_error.load(Ordering::Relaxed),
            ),
            (
                "vpir_responses_rejected_total",
                "counter",
                "503 responses (backpressure, shedding, or draining).",
                self.responses_rejected.load(Ordering::Relaxed),
            ),
            (
                "vpir_cache_hits_total",
                "counter",
                "Requests answered from the in-memory cache tier.",
                self.cache_hits.load(Ordering::Relaxed),
            ),
            (
                "vpir_cache_hits_disk_total",
                "counter",
                "Requests answered from the disk cache tier.",
                self.cache_hits_disk.load(Ordering::Relaxed),
            ),
            (
                "vpir_cache_misses_total",
                "counter",
                "Requests that had to simulate.",
                self.cache_misses.load(Ordering::Relaxed),
            ),
            (
                "vpir_cache_entries",
                "gauge",
                "Entries held by the in-memory cache tier.",
                self.cache_entries.load(Ordering::Relaxed),
            ),
            (
                "vpir_cache_mem_bytes",
                "gauge",
                "Body bytes held by the in-memory cache tier.",
                self.cache_mem_bytes.load(Ordering::Relaxed),
            ),
            (
                "vpir_cache_entries_evicted_total",
                "counter",
                "Entries evicted from the in-memory LRU.",
                self.cache_entries_evicted.load(Ordering::Relaxed),
            ),
            (
                "vpir_store_entries",
                "gauge",
                "Entries indexed by the disk store.",
                self.store_entries.load(Ordering::Relaxed),
            ),
            (
                "vpir_store_bytes",
                "gauge",
                "File bytes indexed by the disk store.",
                self.store_bytes.load(Ordering::Relaxed),
            ),
            (
                "vpir_store_evictions_total",
                "counter",
                "Disk entries evicted for the byte budget.",
                self.store_evictions.load(Ordering::Relaxed),
            ),
            (
                "vpir_store_quarantined_total",
                "counter",
                "Disk entries quarantined by a failed frame check.",
                self.store_quarantined.load(Ordering::Relaxed),
            ),
            (
                "vpir_queue_depth",
                "gauge",
                "Jobs waiting in the bounded queue.",
                self.queue_depth.load(Ordering::Relaxed),
            ),
            (
                "vpir_in_flight_jobs",
                "gauge",
                "Jobs currently executing on a worker.",
                self.in_flight_jobs.load(Ordering::Relaxed),
            ),
            (
                "vpir_shed_state",
                "gauge",
                "Load shedding state: 0 healthy, 1 shedding, 2 saturated.",
                self.shed_state.load(Ordering::Relaxed),
            ),
            (
                "vpir_requests_shed_total",
                "counter",
                "Expensive requests refused while shedding.",
                self.requests_shed.load(Ordering::Relaxed),
            ),
            (
                "vpir_deadline_exceeded_total",
                "counter",
                "Requests answered 504 past the simulation deadline.",
                self.deadline_exceeded.load(Ordering::Relaxed),
            ),
            (
                "vpir_slow_client_timeouts_total",
                "counter",
                "Connections answered 408 for stalling mid-request.",
                self.slow_client_timeouts.load(Ordering::Relaxed),
            ),
            (
                "vpir_runs_completed_total",
                "counter",
                "Simulations that ran to completion.",
                self.runs_completed.load(Ordering::Relaxed),
            ),
            (
                "vpir_runs_sim_error_total",
                "counter",
                "Simulations that ended in a structured SimError.",
                self.runs_sim_error.load(Ordering::Relaxed),
            ),
            (
                "vpir_runs_panicked_total",
                "counter",
                "Jobs whose execution panicked (contained).",
                self.runs_panicked.load(Ordering::Relaxed),
            ),
            (
                "vpir_matrix_cells_failed_total",
                "counter",
                "Matrix cells that degraded to failure rows.",
                self.matrix_cells_failed.load(Ordering::Relaxed),
            ),
            (
                "vpir_sim_cycles_total",
                "counter",
                "Cumulative simulated cycles across all jobs.",
                cycles,
            ),
        ];
        for (name, kind, help, value) in series {
            push_series(&mut out, name, kind, help, &value.to_string());
        }
        let endpoints: &[(&str, &Histogram)] = &[
            ("run", &self.latency_run),
            ("matrix", &self.latency_matrix),
            ("analyze", &self.latency_analyze),
            ("other", &self.latency_other),
        ];
        for (name, histo) in endpoints {
            let quantiles: &[(&str, u64)] = &[
                ("count", histo.count()),
                ("p50_micros", histo.p50()),
                ("p99_micros", histo.p99()),
                ("p999_micros", histo.p999()),
            ];
            for (suffix, value) in quantiles {
                let kind = if *suffix == "count" {
                    "counter"
                } else {
                    "gauge"
                };
                push_series(
                    &mut out,
                    &format!("vpir_latency_{name}_{suffix}"),
                    kind,
                    &format!("Latency of {name} requests ({suffix})."),
                    &value.to_string(),
                );
            }
        }
        push_series(
            &mut out,
            "vpir_sim_cycles_per_second",
            "gauge",
            "Simulated cycles per wall-clock second since start.",
            &format!("{cycles_per_sec:.3}"),
        );
        push_series(
            &mut out,
            "vpir_uptime_seconds",
            "gauge",
            "Seconds since the service started.",
            &format!("{uptime:.3}"),
        );
        out
    }
}

impl Default for Metrics {
    fn default() -> Metrics {
        Metrics::new()
    }
}

fn push_series(out: &mut String, name: &str, kind: &str, help: &str, value: &str) {
    out.push_str("# HELP ");
    out.push_str(name);
    out.push(' ');
    out.push_str(help);
    out.push_str("\n# TYPE ");
    out.push_str(name);
    out.push(' ');
    out.push_str(kind);
    out.push('\n');
    out.push_str(name);
    out.push(' ');
    out.push_str(value);
    out.push('\n');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_lists_every_series_with_help_and_type() {
        let m = Metrics::new();
        m.requests_total.fetch_add(3, Ordering::Relaxed);
        m.cache_hits.fetch_add(1, Ordering::Relaxed);
        m.observe_status(200);
        m.observe_status(404);
        m.observe_status(503);
        m.observe_status(500);
        m.latency_for("/v1/run").record(300);
        m.latency_for("/nope").record(5);
        let text = m.render();
        assert!(text.contains("vpir_requests_total 3"), "{text}");
        assert!(text.contains("vpir_cache_hits_total 1"), "{text}");
        assert!(text.contains("vpir_responses_ok_total 1"), "{text}");
        assert!(
            text.contains("vpir_responses_client_error_total 1"),
            "{text}"
        );
        assert!(text.contains("vpir_responses_rejected_total 1"), "{text}");
        assert!(
            text.contains("vpir_responses_server_error_total 1"),
            "{text}"
        );
        assert!(text.contains("# TYPE vpir_queue_depth gauge"), "{text}");
        assert!(text.contains("# TYPE vpir_shed_state gauge"), "{text}");
        assert!(text.contains("vpir_store_quarantined_total 0"), "{text}");
        assert!(text.contains("vpir_latency_run_count 1"), "{text}");
        assert!(text.contains("vpir_latency_run_p50_micros 300"), "{text}");
        assert!(text.contains("vpir_latency_other_p99_micros 5"), "{text}");
        assert!(
            text.contains("# HELP vpir_sim_cycles_per_second "),
            "{text}"
        );
        // One HELP and one TYPE line per series, every series present:
        // 27 scalars + 4 endpoints x 4 histogram series + 2 derived.
        assert_eq!(text.matches("# HELP ").count(), 45);
        assert_eq!(text.matches("# TYPE ").count(), 45);
    }

    #[test]
    fn shed_watermark_table() {
        // (depth, capacity, expected)
        let table: &[(usize, usize, ShedState)] = &[
            (0, 8, ShedState::Healthy),
            (3, 8, ShedState::Healthy),
            (4, 8, ShedState::Shedding),
            (7, 8, ShedState::Shedding),
            (8, 8, ShedState::Saturated),
            (9, 8, ShedState::Saturated),
            (0, 1, ShedState::Healthy),
            (1, 1, ShedState::Saturated),
            (0, 2, ShedState::Healthy),
            (1, 2, ShedState::Shedding),
            (2, 2, ShedState::Saturated),
            (16, 32, ShedState::Shedding),
            (15, 32, ShedState::Healthy),
        ];
        for (depth, capacity, want) in table {
            assert_eq!(
                ShedState::for_depth(*depth, *capacity),
                *want,
                "depth {depth} capacity {capacity}"
            );
        }
        assert_eq!(ShedState::Healthy.name(), "healthy");
        assert_eq!(ShedState::Shedding.name(), "shedding");
        assert_eq!(ShedState::Saturated.name(), "saturated");
        assert!(ShedState::Healthy < ShedState::Shedding);
        assert!(ShedState::Shedding < ShedState::Saturated);
    }
}
