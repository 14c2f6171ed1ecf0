//! The JSONL wire protocol of the gateway.
//!
//! Clients speak newline-delimited JSON: one [`Request`] per line in,
//! one [`Response`] per line out, in order. The same format flows over
//! every front-end (stdin pipe, TCP socket, Unix socket) and is also
//! what the gateway WAL stores — a request line *is* the durable record
//! of the submission, so replaying the log replays the session.
//!
//! Requests use serde's externally-tagged enum encoding:
//!
//! ```json
//! {"Submit":{"job":{"id":7,"model":"Bert","global_batch":128,
//!   "iterations":50000.0,"arrival_seconds":12.5,"deadline_seconds":7200.0}}}
//! {"Withdraw":{"job":7,"at_seconds":90.0}}
//! {"Stats":{}}
//! ```

use elasticflow_perfmodel::{DnnModel, Interconnect, ScalingCurve};
use elasticflow_sched::{CapacityShortfall, DecisionRecord, DeclineReason};
use elasticflow_trace::{JobId, JobSpec};
use serde::{Deserialize, Serialize};

use crate::gateway::GatewayStats;

/// One job submission: the serverless interface of the paper's §3.1 —
/// model, hyper-parameters, termination condition, and deadline. No GPU
/// count: the platform decides shares.
///
/// The gateway answers a submission at once with a [`DecisionRecord`];
/// [`JobSubmission::job_spec`] hands an admitted one to the simulator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobSubmission {
    /// Client-chosen unique job id. Resubmitting an id is rejected
    /// (which is what makes log replay idempotent).
    pub id: u64,
    /// The DNN model to train.
    pub model: DnnModel,
    /// Global batch size.
    pub global_batch: u32,
    /// Termination condition: iterations to run.
    pub iterations: f64,
    /// Arrival time in seconds on the submission clock (monotone
    /// non-decreasing across a session).
    pub arrival_seconds: f64,
    /// Absolute deadline in seconds on the same clock; `None` submits
    /// the job best-effort.
    #[serde(default)]
    pub deadline_seconds: Option<f64>,
}

impl JobSubmission {
    /// Refuses the values no decision can be made on: a zero global
    /// batch, iterations that are not positive and finite, and an
    /// arrival that is negative or not finite. [`parse_request`] applies
    /// it to every submission line, so a refused line is answered with
    /// [`Response::Error`] and never reaches the WAL.
    pub fn validate(&self) -> Result<(), String> {
        let refuse = |why: &str| Err(format!("job {}: {why}", self.id));
        if self.global_batch == 0 {
            return refuse("global_batch must be positive");
        }
        if !(self.iterations.is_finite() && self.iterations > 0.0) {
            return refuse("iterations must be positive and finite");
        }
        if !(self.arrival_seconds.is_finite() && self.arrival_seconds >= 0.0) {
            return refuse("arrival_seconds must be non-negative and finite");
        }
        Ok(())
    }

    /// The simulator's [`JobSpec`] for this submission on a cluster with
    /// interconnect `net`: a hard deadline, or best-effort when the
    /// deadline is absent or not finite (as [`crate::Gateway::submit`]
    /// reads it). The recorded trace shape is one GPU for as long as the
    /// iterations take on one GPU.
    ///
    /// # Panics
    ///
    /// Panics if the submission fails [`JobSubmission::validate`], or if
    /// its finite deadline does not fall after its arrival. The gateway
    /// admits neither.
    pub fn job_spec(&self, net: &Interconnect) -> JobSpec {
        let curve = ScalingCurve::build_with_max(self.model, self.global_batch, net, 1);
        let builder = JobSpec::builder(JobId::new(self.id), self.model, self.global_batch)
            .iterations(self.iterations)
            .submit_time(self.arrival_seconds)
            .trace_shape(1, self.iterations / curve.iters_per_sec(1).unwrap_or(1.0));
        match self.deadline_seconds.filter(|d| d.is_finite()) {
            Some(deadline) => builder.deadline(deadline).build(),
            None => builder.build(),
        }
    }
}

/// One client request line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Submit a job for an online admit/decline decision.
    Submit {
        /// The job being submitted.
        job: JobSubmission,
    },
    /// Withdraw a previously admitted job, releasing its reservation.
    Withdraw {
        /// Raw id of the job to withdraw.
        job: u64,
        /// Time of the withdrawal on the submission clock.
        at_seconds: f64,
    },
    /// Report gateway statistics.
    Stats {},
    /// Stop serving after responding (daemon front-ends exit their
    /// read loop; state is already durable, no snapshot required).
    Shutdown {},
}

/// One gateway response line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// The admit/decline answer to a [`Request::Submit`].
    Decision {
        /// Raw id of the submitted job.
        job: u64,
        /// 1-based sequence number of the submission in this gateway's
        /// history (equals the WAL record count after the append).
        seq: u64,
        /// Convenience flag: `true` for an admit.
        admitted: bool,
        /// The full decision record, as journaled.
        decision: DecisionRecord,
    },
    /// Acknowledgement of a [`Request::Withdraw`].
    Withdrawn {
        /// Raw id of the withdrawn job.
        job: u64,
        /// Raw ids of jobs the post-withdrawal refill could no longer
        /// satisfy (empty in the idealized model).
        lapsed: Vec<u64>,
    },
    /// Statistics snapshot.
    Stats {
        /// Cumulative gateway counters.
        stats: GatewayStats,
        /// Jobs currently holding a deadline guarantee.
        active_guaranteed: u64,
    },
    /// The request could not be served; the connection stays usable.
    Error {
        /// Human-readable reason.
        message: String,
    },
    /// Acknowledgement of a [`Request::Shutdown`].
    Bye {},
}

/// Parses one request line. Blank lines yield `Ok(None)`; a submission
/// that fails [`JobSubmission::validate`] is an error like a malformed
/// line.
///
/// Canonical submission lines — the exact bytes [`render_request_into`]
/// (and therefore `elasticflow-loadgen` and the WAL) produce — take a
/// zero-allocation fast path: the fields are parsed from borrowed
/// slices of the line, no [`serde_json::Value`] tree is built. Anything
/// else (reordered fields, whitespace, unknown keys) falls back to the
/// general serde parser, so the accepted language is unchanged.
pub fn parse_request(line: &str) -> Result<Option<Request>, String> {
    let trimmed = line.trim();
    if trimmed.is_empty() {
        return Ok(None);
    }
    let request = match parse_submit_fast(trimmed) {
        Some(request) => request,
        None => serde_json::from_str::<Request>(trimmed)
            .map_err(|e| format!("bad request line: {e}"))?,
    };
    if let Request::Submit { job } = &request {
        job.validate()?;
    }
    Ok(Some(request))
}

/// Fast path for the canonical `{"Submit":{"job":{...}}}` shape with
/// fields in declaration order and no interior whitespace. Returns
/// `None` (→ serde fallback) on any deviation, so it can only ever
/// accept lines the general parser accepts, with identical results:
/// numbers are parsed with the same `str::parse` the serde shim uses.
fn parse_submit_fast(line: &str) -> Option<Request> {
    let mut cur = Cursor(line.as_bytes());
    cur.expect(b"{\"Submit\":{\"job\":{\"id\":")?;
    let id = cur.take_u64()?;
    cur.expect(b",\"model\":\"")?;
    let model = cur.take_model()?;
    cur.expect(b"\",\"global_batch\":")?;
    let global_batch = cur.take_u32()?;
    cur.expect(b",\"iterations\":")?;
    let iterations = cur.take_f64()?;
    cur.expect(b",\"arrival_seconds\":")?;
    let arrival_seconds = cur.take_f64()?;
    cur.expect(b",\"deadline_seconds\":")?;
    let deadline_seconds = if cur.expect(b"null").is_some() {
        None
    } else {
        Some(cur.take_f64()?)
    };
    cur.expect(b"}}}")?;
    cur.at_end().then_some(Request::Submit {
        job: JobSubmission {
            id,
            model,
            global_batch,
            iterations,
            arrival_seconds,
            deadline_seconds,
        },
    })
}

/// A borrowing byte cursor for [`parse_submit_fast`]: every `take_*`
/// either consumes a well-formed token or returns `None` without any
/// allocation.
struct Cursor<'a>(&'a [u8]);

impl<'a> Cursor<'a> {
    fn expect(&mut self, literal: &[u8]) -> Option<()> {
        let rest = self.0.strip_prefix(literal)?;
        self.0 = rest;
        Some(())
    }

    fn at_end(&self) -> bool {
        self.0.is_empty()
    }

    fn take_digits(&mut self) -> Option<&'a str> {
        let end = self
            .0
            .iter()
            .position(|b| !b.is_ascii_digit())
            .unwrap_or(self.0.len());
        if end == 0 {
            return None;
        }
        let (digits, rest) = self.0.split_at(end);
        self.0 = rest;
        // Digits are ASCII by construction.
        std::str::from_utf8(digits).ok()
    }

    fn take_u64(&mut self) -> Option<u64> {
        self.take_digits()?.parse().ok()
    }

    fn take_u32(&mut self) -> Option<u32> {
        self.take_digits()?.parse().ok()
    }

    /// Consumes one JSON number token (`-?digits[.digits][e[±]digits]`)
    /// and parses it with `str::parse::<f64>` — the exact routine the
    /// serde shim's parser uses, so the fast path rounds identically.
    fn take_f64(&mut self) -> Option<f64> {
        let bytes = self.0;
        let mut i = 0;
        if bytes.first() == Some(&b'-') {
            i += 1;
        }
        let int_start = i;
        while bytes.get(i).is_some_and(u8::is_ascii_digit) {
            i += 1;
        }
        if i == int_start {
            return None;
        }
        if bytes.get(i) == Some(&b'.') {
            i += 1;
            let frac_start = i;
            while bytes.get(i).is_some_and(u8::is_ascii_digit) {
                i += 1;
            }
            if i == frac_start {
                return None;
            }
        }
        if matches!(bytes.get(i), Some(b'e' | b'E')) {
            i += 1;
            if matches!(bytes.get(i), Some(b'+' | b'-')) {
                i += 1;
            }
            let exp_start = i;
            while bytes.get(i).is_some_and(u8::is_ascii_digit) {
                i += 1;
            }
            if i == exp_start {
                return None;
            }
        }
        let (token, rest) = bytes.split_at(i);
        self.0 = rest;
        std::str::from_utf8(token).ok()?.parse().ok()
    }

    fn take_model(&mut self) -> Option<DnnModel> {
        DnnModel::ALL
            .into_iter()
            .find(|&model| self.expect(model_name(model).as_bytes()).is_some())
    }
}

/// The serde variant name of a model — the string form used on the wire.
fn model_name(model: DnnModel) -> &'static str {
    match model {
        DnnModel::ResNet50 => "ResNet50",
        DnnModel::Vgg16 => "Vgg16",
        DnnModel::InceptionV3 => "InceptionV3",
        DnnModel::Bert => "Bert",
        DnnModel::Gpt2 => "Gpt2",
        DnnModel::DeepSpeech2 => "DeepSpeech2",
    }
}

/// Appends a finite float exactly as the serde shim renders it (`{:?}`,
/// the shortest round-trip form) — `null` for non-finite values, like
/// real `serde_json`.
pub(crate) fn push_f64(out: &mut String, x: f64) {
    use std::fmt::Write;
    if x.is_finite() {
        let _ = write!(out, "{x:?}");
    } else {
        out.push_str("null");
    }
}

/// Renders one request into `out` (appending; no trailing newline),
/// producing byte-for-byte the line `serde_json::to_string` would —
/// without building a `Value` tree or allocating. This is what the WAL
/// append and the load generator use on their hot paths; the equality
/// is pinned by tests over every request shape.
pub fn render_request_into(request: &Request, out: &mut String) {
    use std::fmt::Write;
    match request {
        Request::Submit { job } => render_submit_into(job, out),
        Request::Withdraw { job, at_seconds } => {
            let _ = write!(out, "{{\"Withdraw\":{{\"job\":{job},\"at_seconds\":");
            push_f64(out, *at_seconds);
            out.push_str("}}");
        }
        Request::Stats {} => out.push_str("{\"Stats\":{}}"),
        Request::Shutdown {} => out.push_str("{\"Shutdown\":{}}"),
    }
}

/// Renders the canonical `Submit` line for `job` into `out` — the WAL
/// record format, byte-identical to serde's.
pub fn render_submit_into(job: &JobSubmission, out: &mut String) {
    use std::fmt::Write;
    let _ = write!(
        out,
        "{{\"Submit\":{{\"job\":{{\"id\":{},\"model\":\"{}\",\"global_batch\":{},\"iterations\":",
        job.id,
        model_name(job.model),
        job.global_batch,
    );
    push_f64(out, job.iterations);
    out.push_str(",\"arrival_seconds\":");
    push_f64(out, job.arrival_seconds);
    out.push_str(",\"deadline_seconds\":");
    match job.deadline_seconds {
        Some(d) => push_f64(out, d),
        None => out.push_str("null"),
    }
    out.push_str("}}}");
}

/// Renders a decision record into `out`, byte-for-byte what
/// `serde_json::to_string(decision)` produces. The admit and decline
/// shapes the gateway emits are rendered by hand; the simulator-only
/// variants (resize, preempt, migrate, pause) fall back to serde. Both
/// the response line and the journal entry render decisions through
/// here.
pub(crate) fn render_decision_into(decision: &DecisionRecord, out: &mut String) {
    use std::fmt::Write;

    fn push_shortfall(out: &mut String, s: &CapacityShortfall) {
        use std::fmt::Write;
        let _ = write!(
            out,
            "{{\"window_slots\":{},\"demand_gpu_slots\":",
            s.window_slots
        );
        push_f64(out, s.demand_gpu_slots);
        out.push_str(",\"free_gpu_slots\":");
        push_f64(out, s.free_gpu_slots);
        out.push('}');
    }

    match decision {
        DecisionRecord::Admit { job } => {
            let _ = write!(out, "{{\"Admit\":{{\"job\":{}}}}}", job.raw());
        }
        DecisionRecord::Decline { job, reason } => {
            let _ = write!(out, "{{\"Decline\":{{\"job\":{},\"reason\":", job.raw());
            match reason {
                DeclineReason::CandidateInfeasible { shortfall } => {
                    out.push_str("{\"CandidateInfeasible\":{\"shortfall\":");
                    push_shortfall(out, shortfall);
                    out.push_str("}}");
                }
                DeclineReason::WouldDisplace {
                    blocking_job,
                    shortfall,
                } => {
                    let _ = write!(
                        out,
                        "{{\"WouldDisplace\":{{\"blocking_job\":{},\"shortfall\":",
                        blocking_job.raw()
                    );
                    push_shortfall(out, shortfall);
                    out.push_str("}}");
                }
                DeclineReason::Unexplained => out.push_str("\"Unexplained\""),
            }
            out.push_str("}}");
        }
        // Simulator-only variants: not on the gateway's hot path, so a
        // serde round through the `Value` tree is fine.
        DecisionRecord::Resize { .. }
        | DecisionRecord::Preempt { .. }
        | DecisionRecord::Migrate { .. }
        | DecisionRecord::Pause { .. } => {
            if let Ok(line) = serde_json::to_string(decision) {
                out.push_str(&line);
            }
        }
    }
}

/// Renders one response into `out` (appending; no trailing newline),
/// producing byte-for-byte the line `serde_json::to_string` would.
/// Decisions, withdrawal acknowledgements and `Bye` — every answer on
/// the serving hot path — are rendered by hand without allocating;
/// `Stats` and `Error` fall back to serde. The equality is pinned by
/// tests over every response shape.
pub fn render_response_into(response: &Response, out: &mut String) {
    use std::fmt::Write;
    match response {
        Response::Decision {
            job,
            seq,
            admitted,
            decision,
        } => {
            let _ = write!(
                out,
                "{{\"Decision\":{{\"job\":{job},\"seq\":{seq},\"admitted\":{admitted},\"decision\":"
            );
            render_decision_into(decision, out);
            out.push_str("}}");
        }
        Response::Withdrawn { job, lapsed } => {
            let _ = write!(out, "{{\"Withdrawn\":{{\"job\":{job},\"lapsed\":[");
            for (i, id) in lapsed.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{id}");
            }
            out.push_str("]}}");
        }
        Response::Bye {} => out.push_str("{\"Bye\":{}}"),
        Response::Stats { .. } | Response::Error { .. } => match serde_json::to_string(response) {
            Ok(line) => out.push_str(&line),
            Err(e) => {
                let _ = write!(
                    out,
                    "{{\"Error\":{{\"message\":\"response serialization failed: {e}\"}}}}"
                );
            }
        },
    }
}

/// Bytes reserved for one owned response line: a decision line, the
/// answer to nearly every request, fits unless its ids and shortfall
/// all run to full width, so rendering one allocates once.
const RESPONSE_LINE_CAPACITY: usize = 256;

/// Serializes a response as one JSONL line (no trailing newline); see
/// [`render_response_into`].
pub fn render_response(response: &Response) -> String {
    let mut out = String::with_capacity(RESPONSE_LINE_CAPACITY);
    render_response_into(response, &mut out);
    out
}

/// A line reader over one reused buffer: the ingestion half of the
/// zero-allocation hot path. Lines are yielded as borrowed slices of
/// the internal buffer — steady-state reading allocates nothing once
/// the buffer has grown to the connection's line length.
///
/// Unlike `BufRead::lines`, the reader exposes what is *already
/// buffered*: [`LineReader::has_buffered_line`] is how the serve loop
/// drains a batch of queued submissions without ever blocking on a
/// partial batch (an interactive client is answered after its first
/// line; a pipe saturates the batch from one `read`).
///
/// The buffer never grows past 1 MiB. A line longer than that (a
/// canonical `Submit` line is about 200 bytes) is drained through its
/// newline without being buffered and reported as an error in its
/// place, so a client that never sends a newline cannot exhaust memory.
#[derive(Debug)]
pub struct LineReader<R> {
    inner: R,
    buf: Vec<u8>,
    /// Consumed prefix of `buf[..len]`.
    pos: usize,
    /// Valid bytes in `buf`.
    len: usize,
    /// The line being read outgrew [`MAX_LINE_BYTES`]; its bytes are
    /// dropped until its newline (or end-of-input) arrives.
    overlong: bool,
}

/// The most bytes one line, terminator included, may occupy.
const MAX_LINE_BYTES: usize = 1 << 20;

impl<R: std::io::Read> LineReader<R> {
    /// Wraps `inner` with a fresh (empty) line buffer.
    pub fn new(inner: R) -> Self {
        LineReader {
            inner,
            buf: Vec::new(),
            pos: 0,
            len: 0,
            overlong: false,
        }
    }

    /// `true` when a complete line is already buffered — the next
    /// [`LineReader::next_line`] will not touch the underlying reader.
    pub fn has_buffered_line(&self) -> bool {
        self.buf[self.pos..self.len].contains(&b'\n')
    }

    /// Number of complete lines currently buffered (the visible queue
    /// depth beyond the line being processed).
    pub fn buffered_lines(&self) -> usize {
        self.buf[self.pos..self.len]
            .iter()
            .filter(|b| **b == b'\n')
            .count()
    }

    /// Reads the next line (without its terminator; a trailing `\r` is
    /// stripped, matching `BufRead::lines`). Blocks until a full line
    /// or end-of-input arrives; `None` at end-of-input. The returned
    /// slice borrows the internal buffer — no allocation. A line that is
    /// not valid UTF-8, or longer than 1 MiB, is consumed and reported as
    /// [`std::io::ErrorKind::InvalidData`], so the next call reads the
    /// line after it.
    pub fn next_line(&mut self) -> std::io::Result<Option<&str>> {
        loop {
            if let Some(nl) = self.buf[self.pos..self.len]
                .iter()
                .position(|b| *b == b'\n')
            {
                if self.overlong {
                    self.overlong = false;
                    self.pos += nl + 1;
                    return Err(overlong_line());
                }
                let start = self.pos;
                let mut end = self.pos + nl;
                self.pos = end + 1;
                if end > start && self.buf[end - 1] == b'\r' {
                    end -= 1;
                }
                return as_line(&self.buf[start..end]).map(Some);
            }
            // No complete line buffered: compact and read more. The
            // tail of an over-long line is dropped instead of kept.
            if self.overlong {
                self.pos = self.len;
            }
            if self.pos > 0 {
                self.buf.copy_within(self.pos..self.len, 0);
                self.len -= self.pos;
                self.pos = 0;
            }
            if self.len >= MAX_LINE_BYTES {
                self.overlong = true;
                self.len = 0;
            } else if self.len == self.buf.len() {
                let grown = (self.buf.len() * 2).clamp(8 * 1024, MAX_LINE_BYTES);
                self.buf.resize(grown, 0);
            }
            let n = self.inner.read(&mut self.buf[self.len..])?;
            if n == 0 {
                if self.overlong {
                    self.overlong = false;
                    return Err(overlong_line());
                }
                if self.len == 0 {
                    return Ok(None);
                }
                // Final unterminated line.
                let mut end = self.len;
                self.pos = 0;
                self.len = 0;
                if end > 0 && self.buf[end - 1] == b'\r' {
                    end -= 1;
                }
                return as_line(&self.buf[..end]).map(Some);
            }
            self.len += n;
        }
    }
}

fn overlong_line() -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        format!("line exceeds {MAX_LINE_BYTES} bytes"),
    )
}

fn as_line(bytes: &[u8]) -> std::io::Result<&str> {
    std::str::from_utf8(bytes).map_err(|_| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "stream did not contain valid UTF-8",
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn submit_round_trips() {
        let req = Request::Submit {
            job: JobSubmission {
                id: 7,
                model: DnnModel::Bert,
                global_batch: 128,
                iterations: 50_000.0,
                arrival_seconds: 12.5,
                deadline_seconds: Some(7_200.0),
            },
        };
        let line = serde_json::to_string(&req).unwrap();
        let back = parse_request(&line).unwrap().unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn best_effort_submission_omits_the_deadline() {
        let line = r#"{"Submit":{"job":{"id":1,"model":"ResNet50","global_batch":64,
            "iterations":100.0,"arrival_seconds":0.0}}}"#
            .replace('\n', "");
        let Request::Submit { job } = parse_request(&line).unwrap().unwrap() else {
            panic!("expected a submit");
        };
        assert_eq!(job.deadline_seconds, None);
    }

    #[test]
    fn control_requests_round_trip() {
        for req in [
            Request::Stats {},
            Request::Shutdown {},
            Request::Withdraw {
                job: 3,
                at_seconds: 9.0,
            },
        ] {
            let line = serde_json::to_string(&req).unwrap();
            assert_eq!(parse_request(&line).unwrap().unwrap(), req);
        }
    }

    #[test]
    fn submissions_no_decision_can_be_made_on_are_refused_on_both_paths() {
        let base = r#"{"Submit":{"job":{"id":1,"model":"Bert","global_batch":96,"iterations":100.0,"arrival_seconds":0.0,"deadline_seconds":3600.0}}}"#;
        // The canonical line takes the fast path; a space sends the same
        // submission through serde.
        let both_paths = |line: &str| [line.to_owned(), line.replacen('{', "{ ", 1)];
        for line in both_paths(base) {
            let Ok(Some(Request::Submit { job })) = parse_request(&line) else {
                panic!("a 96-sample batch is accepted: {line}");
            };
            assert_eq!(job.global_batch, 96);
        }
        for (field, from, to) in [
            ("global_batch", "\"global_batch\":96", "\"global_batch\":0"),
            ("iterations", "\"iterations\":100.0", "\"iterations\":-5.0"),
            ("iterations", "\"iterations\":100.0", "\"iterations\":0.0"),
            ("iterations", "\"iterations\":100.0", "\"iterations\":1e999"),
            (
                "arrival_seconds",
                "\"arrival_seconds\":0.0",
                "\"arrival_seconds\":-50.0",
            ),
            (
                "arrival_seconds",
                "\"arrival_seconds\":0.0",
                "\"arrival_seconds\":1e999",
            ),
        ] {
            for line in both_paths(&base.replace(from, to)) {
                let message = parse_request(&line).expect_err(&line);
                assert!(message.contains(field), "{line}: {message}");
            }
        }
    }

    #[test]
    fn job_spec_builds_the_simulator_spec_of_a_submission() {
        let net = Interconnect::from_spec(&elasticflow_cluster::ClusterSpec::small_testbed());
        let slo = JobSubmission {
            id: 0,
            model: DnnModel::ResNet50,
            global_batch: 128,
            iterations: 10_000.0,
            arrival_seconds: 0.0,
            deadline_seconds: Some(28_800.0),
        };
        let expected = JobSpec::builder(JobId::new(0), DnnModel::ResNet50, 128)
            .iterations(10_000.0)
            .submit_time(0.0)
            .deadline(28_800.0)
            .trace_shape(1, 1428.0000000000002)
            .build();
        assert_eq!(slo.job_spec(&net), expected);
        let best_effort = JobSubmission {
            id: 1,
            model: DnnModel::Gpt2,
            global_batch: 128,
            iterations: 5_000.0,
            arrival_seconds: 250.0,
            deadline_seconds: None,
        };
        let expected = JobSpec::builder(JobId::new(1), DnnModel::Gpt2, 128)
            .iterations(5_000.0)
            .submit_time(250.0)
            .trace_shape(1, 4490.0)
            .build();
        assert_eq!(best_effort.job_spec(&net), expected);
    }

    #[test]
    fn blank_lines_and_garbage_are_distinguished() {
        assert_eq!(parse_request("   ").unwrap(), None);
        assert!(parse_request("{nope}").is_err());
    }

    fn submissions() -> Vec<JobSubmission> {
        let mut subs = Vec::new();
        for (i, model) in DnnModel::ALL.into_iter().enumerate() {
            subs.push(JobSubmission {
                id: i as u64 * 1_000_003,
                model,
                global_batch: 32 << i,
                iterations: 1.5e4 + i as f64 * 0.3,
                arrival_seconds: i as f64 * 17.25,
                deadline_seconds: if i % 2 == 0 {
                    Some(i as f64 * 100.0 + 0.125)
                } else {
                    None
                },
            });
        }
        subs.push(JobSubmission {
            id: u64::MAX,
            model: DnnModel::Bert,
            global_batch: u32::MAX,
            iterations: 1e-300,
            arrival_seconds: 123456789.12345679,
            deadline_seconds: Some(9.87e12),
        });
        subs
    }

    #[test]
    fn render_request_into_matches_serde_byte_for_byte() {
        let mut requests: Vec<Request> = submissions()
            .into_iter()
            .map(|job| Request::Submit { job })
            .collect();
        requests.push(Request::Withdraw {
            job: 42,
            at_seconds: 90.5,
        });
        requests.push(Request::Stats {});
        requests.push(Request::Shutdown {});
        let mut out = String::new();
        for req in &requests {
            out.clear();
            render_request_into(req, &mut out);
            assert_eq!(out, serde_json::to_string(req).unwrap(), "{req:?}");
        }
    }

    /// One response of every shape, picked by `shape`; the other inputs
    /// fill its fields. `special` swaps in a non-finite or signed-zero
    /// shortfall field, which must render as serde renders it.
    fn response_of_shape(
        shape: u32,
        (job, seq, other): (u64, u64, u64),
        x: f64,
        special: usize,
        lapsed: Vec<u64>,
        message: String,
    ) -> Response {
        use elasticflow_sched::PauseCause;
        use elasticflow_trace::JobId;

        let odd = [x, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0][special];
        let shortfall = CapacityShortfall {
            window_slots: other,
            demand_gpu_slots: odd,
            free_gpu_slots: x * 0.5,
        };
        let (id, gpus) = (JobId::new(job), other as u32);
        let decision = match shape {
            0 => DecisionRecord::Admit { job: id },
            1 => DecisionRecord::Decline {
                job: id,
                reason: DeclineReason::CandidateInfeasible { shortfall },
            },
            2 => DecisionRecord::Decline {
                job: id,
                reason: DeclineReason::WouldDisplace {
                    blocking_job: JobId::new(other),
                    shortfall,
                },
            },
            3 => DecisionRecord::Decline {
                job: id,
                reason: DeclineReason::Unexplained,
            },
            // Simulator-only decisions take the serde fallback.
            4 => DecisionRecord::Resize {
                job: id,
                from: gpus,
                to: gpus / 2,
            },
            5 => DecisionRecord::Preempt { job: id, gpus },
            6 => DecisionRecord::Migrate { job: id, gpus },
            7 => DecisionRecord::Pause {
                job: id,
                seconds: odd,
                cause: [PauseCause::Scale, PauseCause::Migrate, PauseCause::Recovery][special % 3],
            },
            8 => return Response::Withdrawn { job, lapsed },
            9 => {
                return Response::Stats {
                    stats: GatewayStats {
                        submissions: job,
                        admitted: seq,
                        declined: other,
                        best_effort: job / 3,
                        completed: seq / 5,
                        expired: other / 7,
                        lapsed: lapsed.len() as u64,
                        withdrawn: special as u64,
                    },
                    active_guaranteed: job ^ seq,
                }
            }
            10 => return Response::Error { message },
            _ => return Response::Bye {},
        };
        Response::Decision {
            job,
            seq,
            admitted: matches!(decision, DecisionRecord::Admit { .. }),
            decision,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        /// Every response shape renders byte-for-byte as serde renders
        /// it: the hand-rendered decisions (admit and each decline
        /// reason, non-finite shortfalls included), withdrawals with any
        /// number of lapsed ids, and `Bye`; and the serde fallback for
        /// the simulator-only decisions, `Stats`, and `Error` messages
        /// carrying quotes, backslashes, control characters and
        /// non-ASCII text (client bytes reach them).
        #[test]
        fn render_response_into_matches_serde_byte_for_byte(
            shape in 0u32..12,
            ids in (any::<u64>(), any::<u64>(), any::<u64>()),
            x in -1e12f64..1e12,
            special in 0usize..5,
            lapsed in prop::collection::vec(any::<u64>(), 0..6),
            chars in prop::collection::vec(
                prop::sample::select(vec![
                    'a', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{8}', '\u{c}',
                    '\u{1f}', '\u{7f}', 'é', '✓', '😀',
                ]),
                0..24,
            ),
        ) {
            let message: String = chars.into_iter().collect();
            let response = response_of_shape(shape, ids, x, special, lapsed, message);
            // Appends after whatever the buffer already holds.
            let mut out = String::from("prefix\n");
            render_response_into(&response, &mut out);
            let reference = serde_json::to_string(&response).unwrap();
            prop_assert_eq!(&out["prefix\n".len()..], reference.as_str(), "{:?}", response);
            prop_assert_eq!(render_response(&response), reference);
        }
    }

    #[test]
    fn fast_path_parses_canonical_lines_identically_to_serde() {
        let mut buf = String::new();
        for job in submissions() {
            let req = Request::Submit { job };
            buf.clear();
            render_request_into(&req, &mut buf);
            let fast = parse_submit_fast(&buf).expect("canonical line takes the fast path");
            let slow: Request = serde_json::from_str(&buf).unwrap();
            assert_eq!(fast, slow);
            assert_eq!(fast, req);
        }
    }

    #[test]
    fn fast_path_rejects_non_canonical_shapes() {
        // Reordered fields, whitespace, unknown keys, and non-submit
        // requests all fall back to serde (and still parse correctly
        // when valid).
        for line in [
            r#"{"Submit":{"job":{"model":"Bert","id":1,"global_batch":8,"iterations":1.0,"arrival_seconds":0.0,"deadline_seconds":null}}}"#,
            r#"{ "Submit":{"job":{"id":1,"model":"Bert","global_batch":8,"iterations":1.0,"arrival_seconds":0.0,"deadline_seconds":null}}}"#,
            r#"{"Withdraw":{"job":3,"at_seconds":9.0}}"#,
            r#"{"Stats":{}}"#,
        ] {
            assert!(parse_submit_fast(line).is_none(), "{line}");
            assert!(parse_request(line).unwrap().is_some(), "{line}");
        }
        // Trailing garbage is rejected by both paths.
        assert!(parse_submit_fast(
            r#"{"Submit":{"job":{"id":1,"model":"Bert","global_batch":8,"iterations":1.0,"arrival_seconds":0.0,"deadline_seconds":null}}}x"#
        )
        .is_none());
    }

    #[test]
    fn line_reader_yields_borrowed_lines_and_tracks_the_queue() {
        let text = b"alpha\nbeta\r\n\ngamma";
        let mut reader = LineReader::new(&text[..]);
        assert_eq!(reader.next_line().unwrap(), Some("alpha"));
        assert!(reader.has_buffered_line());
        assert_eq!(reader.buffered_lines(), 2);
        assert_eq!(reader.next_line().unwrap(), Some("beta"));
        assert_eq!(reader.next_line().unwrap(), Some(""));
        assert!(!reader.has_buffered_line());
        assert_eq!(reader.next_line().unwrap(), Some("gamma"));
        assert_eq!(reader.next_line().unwrap(), None);
        assert_eq!(reader.next_line().unwrap(), None);
    }

    #[test]
    fn line_reader_drains_an_overlong_line_and_reads_on() {
        let long = "x".repeat(2 * MAX_LINE_BYTES);
        let text = format!("{long}\nshort\n{long}");
        let mut reader = LineReader::new(text.as_bytes());
        let err = reader.next_line().unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert_eq!(reader.next_line().unwrap(), Some("short"));
        // An over-long final line without a newline is reported too.
        let err = reader.next_line().unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert_eq!(reader.next_line().unwrap(), None);
        assert!(
            reader.buf.len() <= MAX_LINE_BYTES,
            "buffer grew past the cap"
        );
        // The longest line that fits is still read whole.
        let fits = "y".repeat(MAX_LINE_BYTES - 1);
        let text = format!("{fits}\nshort\n");
        let mut reader = LineReader::new(text.as_bytes());
        assert_eq!(reader.next_line().unwrap(), Some(fits.as_str()));
        assert_eq!(reader.next_line().unwrap(), Some("short"));
    }

    #[test]
    fn line_reader_handles_lines_longer_than_one_refill() {
        let long = "x".repeat(100_000);
        let text = format!("{long}\nshort\n");
        let mut reader = LineReader::new(text.as_bytes());
        assert_eq!(reader.next_line().unwrap(), Some(long.as_str()));
        assert_eq!(reader.next_line().unwrap(), Some("short"));
        assert_eq!(reader.next_line().unwrap(), None);
    }
}
