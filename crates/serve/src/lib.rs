//! elasticflow-serve — the scheduler as a long-running service.
//!
//! Everything below `crates/serve` turns the incremental admission core
//! into a daemon: a process that accepts a *stream* of job submissions
//! over newline-delimited JSON (stdin pipe, TCP socket, or Unix
//! socket), answers each with an online admit/decline decision from
//! an [`elasticflow_core::AdmissionSet`] whose slot 0 moves with the
//! arrivals, and makes every byte of that history durable enough to
//! survive `kill -9`.
//!
//! The layering, bottom to top:
//!
//! - [`proto`] — the JSONL wire protocol ([`Request`]/[`Response`]);
//!   the request line doubles as the WAL record.
//! - [`gateway`] — the pure decision core: deterministic, clock-free,
//!   I/O-free. Same requests in, same [`DecisionRecord`]s out.
//! - [`store`] — the state directory: `EFGW`-framed submission WAL,
//!   explain-compatible `decisions.jsonl`, `EFGS` snapshots (newest two).
//! - [`daemon`] — ties them together with write-ahead discipline and
//!   exact crash recovery (snapshot + journal rewind + WAL replay).
//! - [`metrics`] — the shared Prometheus registry and scrape endpoint.
//! - [`loadgen`] — deterministic open-loop arrival streams for the
//!   companion `elasticflow-loadgen` binary and perfbench's serve workloads.
//!
//! The determinism argument, in one paragraph: the gateway consults no
//! wall clock (submission time arrives *in* the request), no RNG, and
//! no ambient state, so its decisions are a pure function of the
//! request prefix. The WAL captures that prefix before each decision
//! runs. A crash therefore loses at most work that can be recomputed:
//! recovery rebuilds the gateway from the newest snapshot, truncates
//! the decision journal to the snapshot's entry count, and replays the
//! WAL suffix — regenerating the journal's lost tail byte-for-byte.
//!
//! [`DecisionRecord`]: elasticflow_sched::DecisionRecord
//! [`Request`]: proto::Request
//! [`Response`]: proto::Response

pub mod daemon;
pub mod gateway;
pub mod loadgen;
pub mod metrics;
pub mod proto;
pub mod store;

pub use daemon::{Daemon, DaemonConfig, Resumption, ServeError};
pub use gateway::{Gateway, GatewayConfig, GatewayStats, SnapshotJob};
pub use loadgen::{loadgen_stream, LoadgenConfig};
pub use metrics::{gateway_registry, spawn_exporter, SharedRegistry};
pub use proto::{
    parse_request, render_request_into, render_response, render_response_into, JobSubmission,
    LineReader, Request, Response,
};
pub use store::{GatewayDir, GatewaySnapshot};

pub use elasticflow_persist::FsyncPolicy;

use std::io::{ErrorKind, Read, Write};

/// Checks a `--servers` x `--gpus-per-server` pair before anything is
/// built from it: buddy allocation needs both to be nonzero powers of
/// two, and the GPU count must fit a `u32`.
///
/// # Errors
///
/// A message naming the flag at fault.
pub fn check_cluster_shape(servers: u32, gpus_per_server: u32) -> Result<(), String> {
    if !servers.is_power_of_two() {
        return Err(format!(
            "--servers needs a nonzero power of two, got {servers}"
        ));
    }
    if !gpus_per_server.is_power_of_two() {
        return Err(format!(
            "--gpus-per-server needs a nonzero power of two, got {gpus_per_server}"
        ));
    }
    if servers.checked_mul(gpus_per_server).is_none() {
        return Err(format!(
            "--servers {servers} x --gpus-per-server {gpus_per_server} overflows a u32 GPU count"
        ));
    }
    Ok(())
}

/// One input line's place in a batch: a parsed request (answered by the
/// daemon) or a parse failure (answered in place, in order).
enum LineSlot {
    Parsed,
    Failed(String),
}

/// Drives a daemon over one line-oriented connection: reads requests
/// from `input`, writes one response line per request to `output`.
///
/// Up to `batch` requests are drained per iteration — the first line
/// may block, the rest are taken only if their bytes are already
/// buffered, so an interactive client is answered after its first line
/// while a pipe saturates the batch from one read. At `batch == 1`
/// this is exactly the old line-at-a-time loop.
///
/// A line that does not parse — malformed JSON, bytes that are not
/// UTF-8, or a line over 1 MiB — is answered in place with
/// [`Response::Error`]; only an I/O failure of `input` or `output` ends
/// the connection with `Err`.
///
/// Returns `Ok(true)` when the client asked for shutdown, `Ok(false)`
/// at end-of-input. `die_after` aborts the process with exit code 17
/// once that many submissions are on disk — checked after each batch,
/// the deterministic crash switch the recovery tests and the CI smoke
/// flip.
pub fn serve_connection<R: Read, W: Write>(
    daemon: &mut Daemon,
    input: R,
    mut output: W,
    batch: usize,
    die_after: Option<u64>,
) -> std::io::Result<bool> {
    let batch = batch.max(1);
    let mut reader = LineReader::new(input);
    let mut slots: Vec<LineSlot> = Vec::with_capacity(batch);
    let mut requests: Vec<Request> = Vec::with_capacity(batch);
    let mut responses: Vec<Response> = Vec::with_capacity(batch);
    let mut out_buf = String::new();
    loop {
        requests.clear();
        let mut saw_shutdown = false;
        let mut eof = false;
        while slots.len() < batch {
            // Only the batch's first line may block; the rest must
            // already be buffered.
            if !slots.is_empty() && !reader.has_buffered_line() {
                break;
            }
            match reader.next_line() {
                Ok(None) => {
                    eof = true;
                    break;
                }
                Ok(Some(line)) => match parse_request(line) {
                    Ok(None) => continue, // blank line: no response
                    Ok(Some(request)) => {
                        saw_shutdown = matches!(request, Request::Shutdown {});
                        requests.push(request);
                        slots.push(LineSlot::Parsed);
                        if saw_shutdown {
                            break;
                        }
                    }
                    Err(message) => slots.push(LineSlot::Failed(message)),
                },
                // A non-UTF-8 line: the reader has already consumed it,
                // so answer it in place like any malformed line.
                Err(e) if e.kind() == ErrorKind::InvalidData => {
                    slots.push(LineSlot::Failed(e.to_string()));
                }
                Err(e) => return Err(e),
            }
        }
        if slots.is_empty() {
            return Ok(false);
        }

        daemon.note_queue_depth(reader.buffered_lines() as u64);
        responses.clear();
        daemon.handle_batch(&requests, &mut responses);

        out_buf.clear();
        let mut next = 0;
        for slot in slots.drain(..) {
            match slot {
                LineSlot::Parsed => {
                    render_response_into(&responses[next], &mut out_buf);
                    next += 1;
                }
                LineSlot::Failed(message) => {
                    render_response_into(&Response::Error { message }, &mut out_buf);
                }
            }
            out_buf.push('\n');
        }
        output.write_all(out_buf.as_bytes())?;
        output.flush()?;

        if let Some(limit) = die_after {
            if daemon.wal_records() >= limit {
                // A real crash: no snapshot, no log finalization, no
                // unwinding — recovery has to cope with exactly this.
                std::process::exit(17);
            }
        }
        if saw_shutdown {
            return Ok(true);
        }
        if eof {
            return Ok(false);
        }
    }
}

/// The `--listen` and `--unix` accept loop: serves each accepted
/// connection in turn until a client asks for shutdown or the
/// connections run out. An accept error or a connection's
/// I/O error is logged to stderr and the next connection is served, so
/// no client can take the daemon down; daemon-side failures never
/// surface here ([`Daemon::handle_batch`] answers them as
/// [`Response::Error`]).
pub fn serve_connections<S>(
    daemon: &mut Daemon,
    connections: impl IntoIterator<Item = std::io::Result<S>>,
    batch: usize,
    die_after: Option<u64>,
) where
    for<'a> &'a S: Read + Write,
{
    for connection in connections {
        let served = connection
            .and_then(|stream| serve_connection(daemon, &stream, &stream, batch, die_after));
        match served {
            Ok(true) => return,
            Ok(false) => {}
            Err(e) => eprintln!("elasticflow-serve: connection failed: {e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elasticflow_perfmodel::DnnModel;
    use elasticflow_telemetry::TickClock;

    #[test]
    fn serve_connection_answers_each_line_in_order() {
        let root = std::env::temp_dir().join(format!("ef-serve-lib-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let (mut daemon, _) = Daemon::open(
            &root,
            DaemonConfig::default(),
            Box::new(TickClock::new(100)),
            gateway_registry(),
        )
        .expect("daemon opens");
        let mut input = String::new();
        for i in 0..3 {
            let req = Request::Submit {
                job: JobSubmission {
                    id: i,
                    model: DnnModel::ResNet50,
                    global_batch: 128,
                    iterations: 1_000.0,
                    arrival_seconds: i as f64,
                    deadline_seconds: Some(3_600.0),
                },
            };
            input.push_str(&serde_json::to_string(&req).unwrap());
            input.push('\n');
        }
        input.push_str("{\"Stats\":{}}\n\n{\"Shutdown\":{}}\n");
        let mut out = Vec::new();
        let shutdown =
            serve_connection(&mut daemon, input.as_bytes(), &mut out, 1, None).expect("serves");
        assert!(shutdown);
        let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
        assert_eq!(lines.len(), 5, "3 decisions + stats + bye");
        for line in &lines[..3] {
            assert!(line.starts_with("{\"Decision\":"), "got {line}");
        }
        assert!(lines[3].starts_with("{\"Stats\":"));
        assert_eq!(lines[4], "{\"Bye\":{}}");
    }

    #[test]
    fn batched_serving_answers_every_line_in_order() {
        let root = std::env::temp_dir().join(format!("ef-serve-lib-batch-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let (mut daemon, _) = Daemon::open(
            &root,
            DaemonConfig::default(),
            Box::new(TickClock::new(100)),
            gateway_registry(),
        )
        .expect("daemon opens");
        let mut input = String::new();
        for i in 0..10 {
            let req = Request::Submit {
                job: JobSubmission {
                    id: i,
                    model: DnnModel::ResNet50,
                    global_batch: 128,
                    iterations: 1_000.0,
                    arrival_seconds: i as f64,
                    deadline_seconds: Some(3_600.0),
                },
            };
            input.push_str(&serde_json::to_string(&req).unwrap());
            input.push('\n');
        }
        // A malformed line must be answered in place, in order.
        input.push_str("this is not json\n");
        input.push_str("{\"Shutdown\":{}}\n");
        let mut out = Vec::new();
        let shutdown =
            serve_connection(&mut daemon, input.as_bytes(), &mut out, 4, None).expect("serves");
        assert!(shutdown);
        let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
        assert_eq!(lines.len(), 12, "10 decisions + 1 error + bye");
        for (i, line) in lines[..10].iter().enumerate() {
            assert!(line.starts_with("{\"Decision\":"), "line {i}: {line}");
            assert!(line.contains(&format!("\"job\":{i},")), "line {i}: {line}");
        }
        assert!(lines[10].starts_with("{\"Error\":"), "got {}", lines[10]);
        assert_eq!(lines[11], "{\"Bye\":{}}");
        assert_eq!(daemon.wal_records(), 10);
    }

    #[test]
    fn a_non_utf8_line_is_answered_with_an_error_and_serving_continues() {
        let submit = Request::Submit {
            job: JobSubmission {
                id: 0,
                model: DnnModel::ResNet50,
                global_batch: 128,
                iterations: 1_000.0,
                arrival_seconds: 0.0,
                deadline_seconds: Some(3_600.0),
            },
        };
        let valid = format!("{}\n", serde_json::to_string(&submit).unwrap());
        let mut input = b"\xff\xfe\n".to_vec();
        input.extend_from_slice(valid.as_bytes());
        let serve = |name: &str, input: &[u8], batch: usize| {
            let root = std::env::temp_dir().join(format!(
                "ef-serve-lib-utf8-{name}-{batch}-{}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&root);
            let (mut daemon, _) = Daemon::open(
                &root,
                DaemonConfig::default(),
                Box::new(TickClock::new(100)),
                gateway_registry(),
            )
            .expect("daemon opens");
            let mut out = Vec::new();
            let shutdown =
                serve_connection(&mut daemon, input, &mut out, batch, None).expect("serves");
            assert!(!shutdown);
            assert_eq!(daemon.wal_records(), 1, "only the valid line is logged");
            drop(daemon);
            let journal = std::fs::read(root.join("decisions.jsonl")).expect("journal");
            let wal = std::fs::read(root.join("gateway.wal")).expect("wal");
            let _ = std::fs::remove_dir_all(&root);
            (String::from_utf8(out).unwrap(), journal, wal)
        };
        for batch in [1, 4] {
            let (out, journal, wal) = serve("mixed", &input, batch);
            let lines: Vec<&str> = out.lines().collect();
            assert_eq!(lines.len(), 2, "batch {batch}: one error + one decision");
            assert!(lines[0].starts_with("{\"Error\":"), "got {}", lines[0]);
            assert!(lines[1].starts_with("{\"Decision\":"), "got {}", lines[1]);
            let (_, clean_journal, clean_wal) = serve("clean", valid.as_bytes(), batch);
            assert_eq!(journal, clean_journal, "batch {batch}: journal bytes moved");
            assert_eq!(wal, clean_wal, "batch {batch}: WAL bytes moved");
        }
    }

    fn submit_line(id: u64) -> String {
        let submit = Request::Submit {
            job: JobSubmission {
                id,
                model: DnnModel::ResNet50,
                global_batch: 128,
                iterations: 1_000.0,
                arrival_seconds: id as f64,
                deadline_seconds: Some(3_600.0),
            },
        };
        format!("{}\n", serde_json::to_string(&submit).unwrap())
    }

    fn open_daemon(name: &str) -> (std::path::PathBuf, Daemon) {
        let root = std::env::temp_dir().join(format!("ef-serve-lib-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let (daemon, _) = Daemon::open(
            &root,
            DaemonConfig::default(),
            Box::new(TickClock::new(100)),
            gateway_registry(),
        )
        .expect("daemon opens");
        (root, daemon)
    }

    #[test]
    fn an_overlong_line_is_answered_with_an_error_and_serving_continues() {
        let mut input = vec![b'x'; 2 << 20];
        input.push(b'\n');
        input.extend_from_slice(submit_line(0).as_bytes());
        for batch in [1, 4] {
            let (root, mut daemon) = open_daemon(&format!("overlong-{batch}"));
            let mut out = Vec::new();
            let shutdown =
                serve_connection(&mut daemon, &input[..], &mut out, batch, None).expect("serves");
            assert!(!shutdown);
            let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
            assert_eq!(lines.len(), 2, "batch {batch}: one error + one decision");
            assert!(lines[0].starts_with("{\"Error\":"), "got {}", lines[0]);
            assert!(
                lines[0].contains("exceeds"),
                "not the line cap: {}",
                lines[0]
            );
            assert!(lines[1].starts_with("{\"Decision\":"), "got {}", lines[1]);
            assert_eq!(daemon.wal_records(), 1, "only the valid line is logged");
            drop(daemon);
            let wal = std::fs::read(root.join("gateway.wal")).expect("wal");
            let _ = std::fs::remove_dir_all(&root);
            let (clean_root, mut clean) = open_daemon(&format!("overlong-clean-{batch}"));
            serve_connection(
                &mut clean,
                submit_line(0).as_bytes(),
                Vec::new(),
                batch,
                None,
            )
            .expect("serves");
            drop(clean);
            let clean_wal = std::fs::read(clean_root.join("gateway.wal")).expect("wal");
            let _ = std::fs::remove_dir_all(&clean_root);
            assert_eq!(wal, clean_wal, "batch {batch}: WAL bytes moved");
        }
    }

    /// A line nested 50,000 deep overflows the stack of a parser without
    /// a depth limit and aborts the daemon. It is answered with an
    /// error, and the next line is served.
    #[test]
    fn a_deeply_nested_line_is_answered_with_an_error_and_serving_continues() {
        let input = format!("{}\n{}", "[".repeat(50_000), submit_line(0));
        for batch in [1, 4] {
            let (root, mut daemon) = open_daemon(&format!("deep-{batch}"));
            let mut out = Vec::new();
            let shutdown = serve_connection(&mut daemon, input.as_bytes(), &mut out, batch, None)
                .expect("serves");
            assert!(!shutdown);
            let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
            assert_eq!(lines.len(), 2, "batch {batch}: one error + one decision");
            assert!(lines[0].starts_with("{\"Error\":"), "got {}", lines[0]);
            assert!(lines[0].contains("recursion limit"), "got {}", lines[0]);
            assert!(lines[1].starts_with("{\"Decision\":"), "got {}", lines[1]);
            assert_eq!(daemon.wal_records(), 1, "only the valid line is logged");
            drop(daemon);
            let _ = std::fs::remove_dir_all(&root);
        }
    }

    /// A line no decision can be made on is refused before the WAL: a
    /// zero batch that reached the gateway would panic the daemon after
    /// the append and again on every resume.
    #[test]
    fn a_submission_that_fails_validation_is_refused_before_the_wal() {
        let refused = r#"{"Submit":{"job":{"id":1,"model":"Bert","global_batch":0,"iterations":100.0,"arrival_seconds":0.0,"deadline_seconds":3600.0}}}"#;
        let input = format!("{refused}\n{}", submit_line(0));
        let (root, mut daemon) = open_daemon("refused");
        let mut out = Vec::new();
        serve_connection(&mut daemon, input.as_bytes(), &mut out, 4, None).expect("serves");
        let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
        assert_eq!(lines.len(), 2, "one error + one decision");
        assert!(lines[0].starts_with("{\"Error\":"), "got {}", lines[0]);
        assert!(lines[0].contains("global_batch"), "got {}", lines[0]);
        assert!(lines[1].starts_with("{\"Decision\":"), "got {}", lines[1]);
        drop(daemon);
        let mut records = Vec::new();
        GatewayDir::open(&root)
            .unwrap()
            .recover_wal(|_, payload| {
                records.push(payload.to_owned());
                Ok(())
            })
            .unwrap();
        assert_eq!(records, [submit_line(0).trim_end()]);
        let _ = std::fs::remove_dir_all(&root);
    }

    /// A client connection: it sends `input`, then either collects the
    /// answers or fails every write, like a peer that hung up.
    struct Client {
        input: std::cell::RefCell<std::io::Cursor<String>>,
        answers: Option<std::rc::Rc<std::cell::RefCell<Vec<u8>>>>,
    }

    impl Read for &Client {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.input.borrow_mut().read(buf)
        }
    }

    impl Write for &Client {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            match &self.answers {
                Some(out) => out.borrow_mut().write(buf),
                None => Err(std::io::Error::new(ErrorKind::BrokenPipe, "client hung up")),
            }
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_failing_client_does_not_end_the_accept_loop() {
        let (root, mut daemon) = open_daemon("failing-client");
        let out = std::rc::Rc::default();
        let client = |id: u64, answers| Client {
            input: std::io::Cursor::new(submit_line(id)).into(),
            answers,
        };
        let connections = vec![
            Ok(client(0, None)),
            Err(std::io::Error::other("accept failed")),
            Ok(client(1, Some(std::rc::Rc::clone(&out)))),
        ];
        serve_connections(&mut daemon, connections, 1, None);
        let out = String::from_utf8(out.take()).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 1, "got {out}");
        assert!(lines[0].starts_with("{\"Decision\":"), "got {}", lines[0]);
        assert!(lines[0].contains("\"job\":1,"), "got {}", lines[0]);
        // The failing client's submission was decided and logged before
        // its answer could not be written; recovery reproduces it.
        assert_eq!(daemon.wal_records(), 2);
        drop(daemon);
        let _ = std::fs::remove_dir_all(&root);
    }
}
