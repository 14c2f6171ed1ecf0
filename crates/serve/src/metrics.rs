//! Shared metrics state and the Prometheus scrape endpoint.
//!
//! The daemon's request loop and the exporter thread share one
//! [`MetricsRegistry`] behind a mutex. The exporter is a deliberately
//! minimal HTTP/1.1 responder: every connection gets one
//! `text/plain; version=0.0.4` body rendered by
//! [`elasticflow_telemetry::prometheus::render`], whatever the request
//! line says — exactly enough for `curl` and a Prometheus scraper, with
//! no routing, keep-alive, or TLS to maintain.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

use elasticflow_telemetry::{describe_decision_latency, prometheus, MetricsRegistry};

/// Counter: decisions taken, labelled by `kind`
/// (`admit`/`decline`/`resize`/…).
pub const DECISIONS_TOTAL: &str = "ef_gateway_decisions_total";

/// Counter: declines, labelled by structured `reason`.
pub const DECLINES_TOTAL: &str = "ef_gateway_declines_total";

/// Gauge: jobs currently holding a deadline guarantee.
pub const ACTIVE_GUARANTEED: &str = "ef_gateway_active_guaranteed";

/// Gauge: mean booked fraction of the cluster over the next
/// [`BOOKED_HORIZON_SLOTS`] slots.
pub const BOOKED_FRACTION: &str = "ef_gateway_booked_fraction";

/// Horizon (slots) of the [`BOOKED_FRACTION`] gauge.
pub const BOOKED_HORIZON_SLOTS: usize = 60;

/// Histogram: requests drained per serve-loop batch.
pub const BATCH_SIZE: &str = "ef_gateway_batch_size";

/// Buckets of the [`BATCH_SIZE`] histogram (powers of two up to the
/// largest batch a sane `--batch` setting produces).
pub const BATCH_SIZE_BUCKETS: &[f64] = &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0];

/// Gauge: complete lines already buffered (queued behind the batch
/// being served) when the serve loop last cut a batch.
pub const QUEUE_DEPTH: &str = "ef_gateway_queue_depth";

/// Counter: guaranteed jobs dropped because a boundary or withdrawal
/// refill could no longer satisfy them (`GatewayStats::lapsed`).
pub const LAPSED_TOTAL: &str = "ef_gateway_lapsed_total";

/// Counter: guaranteed jobs whose windows elapsed unfinished
/// (`GatewayStats::expired`).
pub const EXPIRED_TOTAL: &str = "ef_gateway_expired_total";

/// Counter: ladder probes of the gateway's fill kernel.
pub const FILL_PROBES_TOTAL: &str = "ef_fill_probes_total";

/// Counter: slots the fill kernel walked, labelled by `kind`: `booked`
/// (nothing free), `headroom` (room for the whole target), `partial`
/// (some room), and `tail` (slots past the committed horizon summed for
/// the final-slot trim).
pub const FILL_SLOTS_TOTAL: &str = "ef_fill_slots_total";

/// Gauge: seconds the last resume spent in `Daemon::open`, from opening
/// the state directory to the replayed WAL suffix, read on the daemon's
/// clock.
pub const RECOVERY_SECONDS: &str = "ef_gateway_recovery_seconds";

/// Gauge: WAL records the last resume replayed on top of its snapshot.
pub const RECOVERY_REPLAYED_RECORDS: &str = "ef_gateway_recovery_replayed_records";

/// The series the daemon mirrors from running totals it does not own
/// (gateway counters and fill-kernel work), in the order
/// `Daemon::publish_state` reads them.
pub const RUNNING_TOTALS: [(&str, &[(&str, &str)]); 7] = [
    (LAPSED_TOTAL, &[]),
    (EXPIRED_TOTAL, &[]),
    (FILL_PROBES_TOTAL, &[]),
    (FILL_SLOTS_TOTAL, &[("kind", "booked")]),
    (FILL_SLOTS_TOTAL, &[("kind", "headroom")]),
    (FILL_SLOTS_TOTAL, &[("kind", "partial")]),
    (FILL_SLOTS_TOTAL, &[("kind", "tail")]),
];

/// The registry handle shared between the daemon and the exporter.
pub type SharedRegistry = Arc<Mutex<MetricsRegistry>>;

/// A fresh shared registry with every gateway metric described (so the
/// scrape surface is complete from the first render, before any
/// samples).
pub fn gateway_registry() -> SharedRegistry {
    let mut registry = MetricsRegistry::new();
    describe_decision_latency(&mut registry);
    registry.describe_counter(DECISIONS_TOTAL, "Gateway decisions taken, by kind");
    registry.describe_counter(DECLINES_TOTAL, "Gateway declines, by structured reason");
    registry.describe_gauge(
        ACTIVE_GUARANTEED,
        "Jobs currently holding a deadline guarantee",
    );
    registry.describe_gauge(
        BOOKED_FRACTION,
        "Mean booked fraction of the cluster over the gauge horizon",
    );
    registry.describe_histogram(
        BATCH_SIZE,
        "Requests drained per serve-loop batch",
        BATCH_SIZE_BUCKETS,
    );
    registry.describe_gauge(
        QUEUE_DEPTH,
        "Complete lines buffered behind the batch being served",
    );
    registry.describe_counter(
        LAPSED_TOTAL,
        "Guaranteed jobs dropped by a refill that could no longer satisfy them",
    );
    registry.describe_counter(
        EXPIRED_TOTAL,
        "Guaranteed jobs whose windows elapsed unfinished",
    );
    registry.describe_counter(FILL_PROBES_TOTAL, "Ladder probes of the fill kernel");
    registry.describe_counter(FILL_SLOTS_TOTAL, "Slots the fill kernel walked, by kind");
    registry.describe_gauge(
        RECOVERY_SECONDS,
        "Seconds the last resume took to recover and replay the WAL",
    );
    registry.describe_gauge(
        RECOVERY_REPLAYED_RECORDS,
        "WAL records the last resume replayed on top of its snapshot",
    );
    // The running totals and the recovery gauges exist from the first
    // scrape, at zero, so a resume only overwrites existing series.
    for (name, labels) in RUNNING_TOTALS {
        registry.inc(name, labels, 0.0);
    }
    registry.set_gauge(RECOVERY_SECONDS, &[], 0.0);
    registry.set_gauge(RECOVERY_REPLAYED_RECORDS, &[], 0.0);
    Arc::new(Mutex::new(registry))
}

/// Locks the registry, recovering from a poisoned mutex (a panicked
/// exporter connection must not take the daemon down with it).
pub fn lock(registry: &SharedRegistry) -> MutexGuard<'_, MetricsRegistry> {
    registry.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Renders the current scrape body.
pub fn render(registry: &SharedRegistry) -> String {
    prometheus::render(&lock(registry))
}

/// Binds `addr` and serves scrapes on a background thread until the
/// process exits. Returns the bound address (useful with port 0) and the
/// thread handle.
pub fn spawn_exporter(
    registry: SharedRegistry,
    addr: &str,
) -> std::io::Result<(SocketAddr, JoinHandle<()>)> {
    let listener = TcpListener::bind(addr)?;
    let bound = listener.local_addr()?;
    let handle = std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { continue };
            // Drain whatever request arrived; the response is the same
            // for every path.
            let mut buf = [0u8; 1024];
            let _ = stream.read(&mut buf);
            let body = prometheus::render(&registry.lock().unwrap_or_else(PoisonError::into_inner));
            let head = format!(
                "HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
                body.len()
            );
            let _ = stream.write_all(head.as_bytes());
            let _ = stream.write_all(body.as_bytes());
        }
    });
    Ok((bound, handle))
}

#[cfg(test)]
mod tests {
    use super::*;
    use elasticflow_telemetry::DECISION_LATENCY;

    #[test]
    fn gateway_registry_describes_the_full_surface_up_front() {
        let registry = gateway_registry();
        let body = render(&registry);
        for name in [
            DECISION_LATENCY,
            DECISIONS_TOTAL,
            DECLINES_TOTAL,
            ACTIVE_GUARANTEED,
            BOOKED_FRACTION,
            BATCH_SIZE,
            QUEUE_DEPTH,
            LAPSED_TOTAL,
            EXPIRED_TOTAL,
            FILL_PROBES_TOTAL,
            FILL_SLOTS_TOTAL,
            RECOVERY_SECONDS,
            RECOVERY_REPLAYED_RECORDS,
        ] {
            assert!(body.contains(&format!("# HELP {name} ")), "missing {name}");
        }
        assert!(body.contains("ef_gateway_lapsed_total 0\n"));
        assert!(body.contains("ef_gateway_recovery_replayed_records 0\n"));
        assert!(body.contains("ef_fill_slots_total{kind=\"partial\"} 0\n"));
        assert!(prometheus::parse(&body).is_ok());
    }

    #[test]
    fn exporter_answers_a_raw_tcp_scrape() {
        let registry = gateway_registry();
        lock(&registry).inc(DECISIONS_TOTAL, &[("kind", "admit")], 3.0);
        let (addr, _handle) = spawn_exporter(Arc::clone(&registry), "127.0.0.1:0").unwrap();
        let mut conn = std::net::TcpStream::connect(addr).unwrap();
        conn.write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        let mut response = String::new();
        conn.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 200 OK"));
        let body = response
            .split("\r\n\r\n")
            .nth(1)
            .expect("response has a body");
        assert!(body.contains("ef_gateway_decisions_total{kind=\"admit\"} 3"));
        assert!(prometheus::parse(body).is_ok());
    }
}
