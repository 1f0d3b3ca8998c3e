//! The socket front end: accept connections, speak the line protocol, drive
//! the [`JobManager`].
//!
//! The server listens on a Unix-domain socket (`unix:/path/to.sock`, or any
//! address containing `/`) or a TCP address (`host:port`); each connection is
//! handled on its own thread so a client blocked in `result --wait` or
//! streaming `watch` events never stalls the others. The `shutdown` command
//! stops the accept loop (a self-connection unblocks it) and then stops the
//! worker pool; running spans finish and checkpoint first, so every
//! unfinished job is resumable. With `"drain": true` it first stops
//! accepting submissions and waits for every job to reach a terminal state.
//!
//! ## Hardening
//!
//! A connection can only hurt itself, never the daemon or its neighbours:
//! request lines are read through a bounded reader (an oversized line or
//! invalid UTF-8 earns a protocol error response, not a dead thread),
//! malformed JSON and unknown commands get `usage` error responses, and
//! per-connection read/write deadlines ([`ServerConfig`]) bound how long a
//! stalled peer can pin a handler thread. The [`crate::faults`] registry
//! injects torn frames and slow-peer stalls in [`respond_line`] to prove
//! the client-side retry story out.
//!
//! ## Kept result lines
//!
//! A finished job's answer never changes, and clients fetch it again: every
//! resubmission of a finished request dedups onto the same job while the
//! manager keeps its payload, and its `result` line on the paper's matrix is
//! about 200 KB that take milliseconds to encode. From a job's second
//! successful fetch on, the server keeps the encoded line as an exact-size
//! `Arc<str>` and writes it without fetching or encoding the result again.
//! A job fetched only once — most computed jobs — is marked by a flag on
//! its record, which goes when the manager evicts the record. Kept lines
//! are bounded by [`RESULT_LINE_BYTES`] with least-recently-used eviction;
//! a line evicted is encoded again on its next fetch, byte-identical, or
//! answered `expired` once the manager has evicted the job's payload too
//! (see [`crate::manager`]). Every line goes out through the same framing
//! as any other response, so the injected framing faults still fire on it.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use sprint_core::options::{PmaxtOptions, OPTIONS};

use crate::datasets::SharedDataset;
use crate::exec::Payload;
use crate::faults::{FaultKind, Faults};
use crate::json::Json;
use crate::lru::Lru;
use crate::manager::{JobError, JobManager, JobStatus};
use crate::protocol;

/// Upper bound on one request line. A well-formed request is well under 1 KiB
/// (datasets travel by path, not inline), so 1 MiB is generous headroom while
/// keeping a garbage-spewing peer from ballooning the handler's buffer.
pub const MAX_REQUEST_LINE: usize = 1 << 20;

/// Most bytes of finished jobs' `result` lines the server keeps (see the
/// module docs): about twenty answers on the paper's 6102-gene matrix.
pub const RESULT_LINE_BYTES: usize = 4 << 20;

/// Tunables of a [`Server`] beyond its address.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Per-connection read deadline: how long a handler thread waits for the
    /// *next request byte* before giving the connection up. Does not limit
    /// `result --wait`/`watch` (those block in the manager, not on reads).
    /// `None` waits forever.
    pub read_timeout: Option<Duration>,
    /// Per-connection write deadline: how long one response write may block
    /// on a peer that stopped draining its socket. `None` waits forever.
    pub write_timeout: Option<Duration>,
    /// Fault-injection registry for the framing path (torn frames, slow-peer
    /// stalls). Defaults to the `SPRINT_FAULTS` environment configuration.
    pub faults: Faults,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            read_timeout: None,
            write_timeout: None,
            faults: Faults::from_env(),
        }
    }
}

/// A parsed listen/connect address.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BindAddr {
    /// Unix-domain socket path.
    Unix(PathBuf),
    /// TCP `host:port`.
    Tcp(String),
}

impl BindAddr {
    /// Parse an address: `unix:` prefix or any string containing `/` is a
    /// socket path; everything else is TCP `host:port`.
    pub fn parse(addr: &str) -> BindAddr {
        if let Some(path) = addr.strip_prefix("unix:") {
            BindAddr::Unix(PathBuf::from(path))
        } else if addr.contains('/') {
            BindAddr::Unix(PathBuf::from(addr))
        } else {
            BindAddr::Tcp(addr.to_string())
        }
    }

    /// Display form (round-trips through [`BindAddr::parse`]).
    pub fn to_addr_string(&self) -> String {
        match self {
            BindAddr::Unix(p) => format!("unix:{}", p.display()),
            BindAddr::Tcp(a) => a.clone(),
        }
    }
}

enum Listener {
    Unix(UnixListener),
    Tcp(TcpListener),
}

/// A bound, not-yet-running server.
pub struct Server {
    listener: Listener,
    addr: BindAddr,
    manager: Arc<JobManager>,
    lines: Arc<Lru<u64, Arc<str>>>,
    stop: Arc<AtomicBool>,
    cfg: ServerConfig,
}

impl Server {
    /// Bind to `addr` (removing a stale Unix socket file first) with default
    /// [`ServerConfig`]. For TCP, port 0 binds an ephemeral port — read the
    /// real one back with [`Server::local_addr`].
    pub fn bind(addr: &str, manager: JobManager) -> io::Result<Server> {
        Self::bind_with(addr, manager, ServerConfig::default())
    }

    /// Bind with explicit connection deadlines and fault injection.
    pub fn bind_with(addr: &str, manager: JobManager, cfg: ServerConfig) -> io::Result<Server> {
        let parsed = BindAddr::parse(addr);
        let (listener, addr) = match &parsed {
            BindAddr::Unix(path) => {
                if path.exists() {
                    std::fs::remove_file(path)?;
                }
                (Listener::Unix(UnixListener::bind(path)?), parsed.clone())
            }
            BindAddr::Tcp(spec) => {
                let listener = TcpListener::bind(spec)?;
                let actual = listener.local_addr()?.to_string();
                (Listener::Tcp(listener), BindAddr::Tcp(actual))
            }
        };
        Ok(Server {
            listener,
            addr,
            manager: Arc::new(manager),
            lines: Arc::new(Lru::new(RESULT_LINE_BYTES)),
            stop: Arc::new(AtomicBool::new(false)),
            cfg,
        })
    }

    /// The bound address (with the real port for TCP port-0 binds).
    pub fn local_addr(&self) -> BindAddr {
        self.addr.clone()
    }

    /// Serve until a `shutdown` command arrives. Consumes the server; on
    /// return the worker pool has stopped and all unfinished jobs are
    /// checkpointed.
    pub fn run(self) -> io::Result<()> {
        loop {
            let conn: Box<dyn Conn> = match &self.listener {
                Listener::Unix(l) => match l.accept() {
                    Ok((stream, _)) => Box::new(stream),
                    Err(e) => return Err(e),
                },
                Listener::Tcp(l) => match l.accept() {
                    Ok((stream, _)) => Box::new(stream),
                    Err(e) => return Err(e),
                },
            };
            if self.stop.load(Ordering::SeqCst) {
                break;
            }
            if let Err(e) = conn.set_deadlines(self.cfg.read_timeout, self.cfg.write_timeout) {
                eprintln!("jobd: cannot set connection deadlines: {e}");
                continue;
            }
            let manager = Arc::clone(&self.manager);
            let lines = Arc::clone(&self.lines);
            let stop = Arc::clone(&self.stop);
            let addr = self.addr.clone();
            let faults = self.cfg.faults.clone();
            std::thread::spawn(move || {
                let served = handle_connection(conn, &manager, &lines, &stop, &addr, &faults);
                if let Err(e) = served {
                    // Peers vanishing mid-write and injected frame drops are
                    // expected connection-level noise, not daemon trouble.
                    let injected = faults.armed() && e.kind() == io::ErrorKind::ConnectionAborted;
                    if e.kind() != io::ErrorKind::BrokenPipe && !injected {
                        eprintln!("jobd: connection error: {e}");
                    }
                }
            });
            if self.stop.load(Ordering::SeqCst) {
                break;
            }
        }
        if let BindAddr::Unix(path) = &self.addr {
            std::fs::remove_file(path).ok();
        }
        self.manager.shutdown();
        Ok(())
    }
}

/// Wake a server blocked in `accept` after its stop flag was set.
fn wake_acceptor(addr: &BindAddr) {
    match addr {
        BindAddr::Unix(path) => {
            let _ = UnixStream::connect(path);
        }
        BindAddr::Tcp(spec) => {
            let _ = TcpStream::connect(spec);
        }
    }
}

/// Both stream types, unified for the handler.
trait Conn: Read2 + Send {}
impl Conn for UnixStream {}
impl Conn for TcpStream {}

/// Object-safe clone-the-stream trait: the handler needs one reader and one
/// writer over the same socket, plus the OS-level deadline knobs.
trait Read2: io::Read + io::Write {
    fn split(&self) -> io::Result<Box<dyn io::Read + Send>>;
    fn set_deadlines(&self, read: Option<Duration>, write: Option<Duration>) -> io::Result<()>;
}

impl Read2 for UnixStream {
    fn split(&self) -> io::Result<Box<dyn io::Read + Send>> {
        Ok(Box::new(self.try_clone()?))
    }

    fn set_deadlines(&self, read: Option<Duration>, write: Option<Duration>) -> io::Result<()> {
        self.set_read_timeout(read)?;
        self.set_write_timeout(write)
    }
}

impl Read2 for TcpStream {
    fn split(&self) -> io::Result<Box<dyn io::Read + Send>> {
        Ok(Box::new(self.try_clone()?))
    }

    fn set_deadlines(&self, read: Option<Duration>, write: Option<Duration>) -> io::Result<()> {
        self.set_read_timeout(read)?;
        self.set_write_timeout(write)
    }
}

/// Outcome of one bounded line read.
enum ReadLine {
    /// A complete UTF-8 line (newline stripped).
    Line(String),
    /// The line exceeded [`MAX_REQUEST_LINE`]; its bytes were discarded but
    /// the stream was consumed through the newline, so the next read resyncs.
    TooLong,
    /// The line contained invalid UTF-8 (also consumed through the newline).
    BadUtf8,
    /// Clean end of stream.
    Eof,
}

/// Read one `\n`-terminated line without trusting its length or encoding.
/// Unlike `BufRead::lines`, a hostile line costs at most [`MAX_REQUEST_LINE`]
/// bytes of memory and never errors the stream: the caller can respond with
/// a protocol error and keep serving the connection. A final unterminated
/// line (peer died mid-frame) is returned as a normal line so the caller can
/// still answer a half-open peer; the next call reports [`ReadLine::Eof`].
fn read_bounded_line(reader: &mut impl BufRead) -> io::Result<ReadLine> {
    let mut buf: Vec<u8> = Vec::new();
    let mut overflow = false;
    let finish = |buf: Vec<u8>, overflow: bool| {
        if overflow {
            ReadLine::TooLong
        } else {
            match String::from_utf8(buf) {
                Ok(s) => ReadLine::Line(s),
                Err(_) => ReadLine::BadUtf8,
            }
        }
    };
    loop {
        let (done, used) = {
            let chunk = reader.fill_buf()?;
            if chunk.is_empty() {
                if buf.is_empty() && !overflow {
                    return Ok(ReadLine::Eof);
                }
                return Ok(finish(buf, overflow));
            }
            let newline = chunk.iter().position(|&b| b == b'\n');
            let take = newline.unwrap_or(chunk.len());
            if !overflow {
                if buf.len() + take <= MAX_REQUEST_LINE {
                    buf.extend_from_slice(&chunk[..take]);
                } else {
                    overflow = true;
                }
            }
            (newline.is_some(), take + usize::from(newline.is_some()))
        };
        reader.consume(used);
        if done {
            return Ok(finish(buf, overflow));
        }
    }
}

fn handle_connection(
    mut conn: Box<dyn Conn>,
    manager: &JobManager,
    lines: &Lru<u64, Arc<str>>,
    stop: &AtomicBool,
    addr: &BindAddr,
    faults: &Faults,
) -> io::Result<()> {
    let mut reader = BufReader::new(conn.split()?);
    loop {
        let line = match read_bounded_line(&mut reader)? {
            ReadLine::Eof => return Ok(()),
            ReadLine::TooLong => {
                let msg = format!("request line exceeds {MAX_REQUEST_LINE} bytes");
                respond(&mut conn, &protocol::err_response(&msg, "usage"), faults)?;
                continue;
            }
            ReadLine::BadUtf8 => {
                let msg = "request line is not valid UTF-8";
                respond(&mut conn, &protocol::err_response(msg, "usage"), faults)?;
                continue;
            }
            ReadLine::Line(line) => line,
        };
        if line.trim().is_empty() {
            continue;
        }
        let request = match Json::parse(&line) {
            Ok(v) => v,
            Err(e) => {
                respond(&mut conn, &protocol::err_response(&e, "usage"), faults)?;
                continue;
            }
        };
        let cmd = request.get("cmd").and_then(Json::as_str).unwrap_or("");
        match cmd {
            "ping" => respond(&mut conn, &protocol::ok_response(vec![]), faults)?,
            "submit" => {
                let resp = handle_submit(&request, manager);
                respond(&mut conn, &resp, faults)?;
            }
            "span_exec" => {
                let resp = handle_span_exec(&request, manager);
                respond(&mut conn, &resp, faults)?;
            }
            "status" | "cancel" => {
                let resp = match job_id(&request) {
                    Ok(id) if cmd == "status" => status_response(manager.status(id)),
                    Ok(id) => status_response(manager.cancel(id)),
                    Err(resp) => resp,
                };
                respond(&mut conn, &resp, faults)?;
            }
            "result" => match job_id(&request) {
                Ok(id) => {
                    let wait = request.get("wait").and_then(Json::as_bool).unwrap_or(true);
                    send_result(&mut conn, manager, lines, id, wait, faults)?;
                }
                Err(resp) => respond(&mut conn, &resp, faults)?,
            },
            "watch" => match job_id(&request) {
                Ok(id) => match manager.subscribe(id) {
                    Ok(rx) => {
                        for event in rx {
                            let terminal = event.state.is_terminal();
                            respond(&mut conn, &protocol::event_to_json(&event), faults)?;
                            if terminal {
                                break;
                            }
                        }
                    }
                    Err(e) => respond(&mut conn, &protocol::err_from(&e), faults)?,
                },
                Err(resp) => respond(&mut conn, &resp, faults)?,
            },
            "shutdown" => {
                let drain = request
                    .get("drain")
                    .and_then(Json::as_bool)
                    .unwrap_or(false);
                if drain {
                    // Graceful drain: refuse new submissions, let every
                    // queued/running job reach a terminal state (checkpointing
                    // as usual), and only then acknowledge and stop — so the
                    // requester's ack means "all work is durably settled".
                    // With everything terminal the journal's live set is
                    // empty: compact it away so the next start replays
                    // nothing.
                    manager.drain();
                    manager.wait_idle(None);
                    manager.compact_journal();
                }
                respond(&mut conn, &protocol::ok_response(vec![]), faults)?;
                stop.store(true, Ordering::SeqCst);
                wake_acceptor(addr);
                return Ok(());
            }
            other => {
                let msg = format!("unknown command {other:?}");
                respond(&mut conn, &protocol::err_response(&msg, "usage"), faults)?;
            }
        }
    }
}

/// The request's options and the dataset a `submit` or `span_exec` request
/// names, loaded from this daemon's filesystem through its dataset table. A
/// field that is neither `cmd`, `path`, an option row's key nor one of
/// `span_exec`'s unit fields is refused, so a misspelled or R-named option
/// (`"B"`) is never run as its default.
fn dataset_request(
    request: &Json,
    cmd: &str,
    manager: &JobManager,
) -> Result<(PmaxtOptions, SharedDataset), Json> {
    let usage = |msg: &str| protocol::err_response(msg, "usage");
    let unit: &[&str] = match cmd {
        "span_exec" => &["b_resolved", "start", "take"],
        _ => &[],
    };
    let known = |key: &str| {
        ["cmd", "path"].contains(&key)
            || unit.contains(&key)
            || OPTIONS.iter().any(|row| row.json == Some(key))
    };
    if let Json::Obj(fields) = request {
        if let Some((key, _)) = fields.iter().find(|(key, _)| !known(key)) {
            return Err(usage(&format!("{cmd} takes no {key:?} field")));
        }
    }
    let path = request.get("path").and_then(Json::as_str);
    let path = PathBuf::from(path.ok_or_else(|| usage(&format!("{cmd} requires a path field")))?);
    let opts = protocol::opts_from_request(request).map_err(|e| usage(&e))?;
    let dataset = manager.datasets().load_shared(&path).map_err(|e| {
        protocol::err_response(&format!("cannot read dataset {path:?}: {e}"), "runtime")
    })?;
    Ok((opts, dataset))
}

fn handle_submit(request: &Json, manager: &JobManager) -> Json {
    let (opts, dataset) = match dataset_request(request, "submit", manager) {
        Ok(parts) => parts,
        Err(resp) => return resp,
    };
    // The job records the canonical dataset path the table loaded: if this
    // daemon has peers, the coordinator sends it in `span_exec` requests so
    // each peer loads its own copy instead of receiving the matrix inline.
    match manager.submit_loaded(dataset, opts) {
        Ok(info) => protocol::submit_to_json(&info),
        Err(e) => protocol::err_from(&e),
    }
}

/// Run one unit of a sharded job for a peer coordinator — a permutation
/// span, or a gene band when the request's `workload` is `bootstrap`:
/// load the dataset from this daemon's own filesystem, recompute the unit
/// over the same skip-ahead stream the coordinator uses, and return its
/// part (exceedance counts, or interval estimates as bit patterns).
/// Stateless by design — no job is registered, so a coordinator retry (or a
/// second coordinator) is harmless.
fn handle_span_exec(request: &Json, manager: &JobManager) -> Json {
    let (b, start, take) = match (
        request.get("b_resolved").and_then(Json::as_u64),
        request.get("start").and_then(Json::as_u64),
        request.get("take").and_then(Json::as_u64),
    ) {
        (Some(b), Some(start), Some(take)) => (b, start, take),
        _ => {
            return protocol::err_response(
                "span_exec requires b_resolved, start and take fields",
                "usage",
            )
        }
    };
    let (opts, dataset) = match dataset_request(request, "span_exec", manager) {
        Ok(parts) => parts,
        Err(resp) => return resp,
    };
    manager
        .exec_span(dataset.data, &dataset.classlabel, opts, b, start, take)
        .unwrap_or_else(|e| protocol::err_from(&e))
}

fn status_response(status: Result<JobStatus, JobError>) -> Json {
    status.map_or_else(
        |e| protocol::err_from(&e),
        |st| protocol::status_to_json(&st),
    )
}

fn job_id(request: &Json) -> Result<u64, Json> {
    request
        .get("job")
        .and_then(Json::as_u64)
        .ok_or_else(|| protocol::err_response("request requires a job id", "usage"))
}

/// Answer a `result` request for job `id`: with its kept line when there is
/// one, otherwise by fetching (under `wait`, blocking until the job is
/// terminal) and encoding the result, keeping the line from the job's second
/// successful fetch on.
fn send_result(
    conn: &mut impl Write,
    manager: &JobManager,
    lines: &Lru<u64, Arc<str>>,
    id: u64,
    wait: bool,
    faults: &Faults,
) -> io::Result<()> {
    if let Some(line) = lines.get(&id) {
        return respond_line(conn, &line, faults);
    }
    let resp = match result_response(manager, id, wait) {
        Ok(resp) => resp,
        Err(e) => return respond(conn, &protocol::err_from(&e), faults),
    };
    let line = encode(&resp);
    if !manager.fetched_before(id) {
        return respond_line(conn, &line, faults);
    }
    let line: Arc<str> = line.into();
    lines.insert(id, Arc::clone(&line), line.len());
    respond_line(conn, &line, faults)
}

/// A finished job's `result` response. Bootstrap jobs answer with interval
/// estimates, adaptive jobs with their per-gene report (bounds, stop
/// cursors, tail diagnostics) beside the finalized result: the job's
/// payload (not a request field) decides the response shape, so a generic
/// client just gets the right thing.
fn result_response(manager: &JobManager, id: u64, wait: bool) -> Result<Json, JobError> {
    let payload = if wait {
        manager.wait_payload(id, None)
    } else {
        manager.payload(id)
    }?;
    Ok(match &*payload {
        Payload::MaxT(result, report) => protocol::result_to_json(id, result, report.as_ref()),
        Payload::Boot(result) => protocol::boot_result_to_json(id, result),
    })
}

/// `resp` as one newline-terminated response line.
fn encode(resp: &Json) -> String {
    let mut line = resp.to_json();
    line.push('\n');
    line
}

/// Write one response frame: [`respond_line`] of `resp` encoded.
fn respond(conn: &mut impl Write, resp: &Json, faults: &Faults) -> io::Result<()> {
    respond_line(conn, &encode(resp), faults)
}

/// Write one encoded response line, with the two framing fault classes
/// injected here: a `slow_peer` stall before the write, and a
/// `frame_truncate` that sends only half the frame and then drops the
/// connection (the injected error unwinds out of [`handle_connection`],
/// closing the socket exactly as a mid-frame network drop would). Clients
/// recover by retrying on a fresh connection; resubmits are idempotent
/// through the content-digest dedup.
fn respond_line(conn: &mut impl Write, line: &str, faults: &Faults) -> io::Result<()> {
    if faults.fire(FaultKind::SlowPeer) {
        std::thread::sleep(faults.stall());
    }
    if faults.fire(FaultKind::FrameTruncate) {
        conn.write_all(&line.as_bytes()[..line.len() / 2])?;
        conn.flush()?;
        return Err(io::Error::new(
            io::ErrorKind::ConnectionAborted,
            "injected frame truncation",
        ));
    }
    conn.write_all(line.as_bytes())?;
    conn.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::tests::{manager, small_dataset};
    use crate::manager::JobSpec;

    #[test]
    fn lines_are_kept_from_the_second_fetch_and_an_evicted_one_is_encoded_again() {
        let (data, labels) = small_dataset();
        let mgr = manager(16);
        let ids: Vec<u64> = (1..=3)
            .map(|seed| {
                let spec = JobSpec {
                    data: data.clone(),
                    classlabel: labels.clone(),
                    opts: PmaxtOptions::default().permutations(200).seed(seed),
                    source_path: None,
                };
                mgr.submit(spec).unwrap().id
            })
            .collect();
        let fresh: Vec<String> = ids
            .iter()
            .map(|&id| encode(&result_response(&mgr, id, true).unwrap()))
            .collect();
        // Room for any two of the three lines, not all three.
        let lines = Lru::new(fresh.iter().map(String::len).sum::<usize>() - 1);
        let fetch = |at: usize| {
            let mut out = Vec::new();
            send_result(&mut out, &mgr, &lines, ids[at], true, &Faults::disabled()).unwrap();
            assert_eq!(
                String::from_utf8(out).unwrap(),
                fresh[at],
                "job {}",
                ids[at]
            );
        };
        fetch(0);
        assert!(lines.keys().is_empty(), "a first fetch keeps nothing");
        fetch(0);
        fetch(0);
        fetch(1);
        fetch(1);
        assert_eq!(lines.keys(), vec![ids[0], ids[1]]);
        // Job 0 was used last before job 1: job 2's line evicts it.
        fetch(2);
        fetch(2);
        assert_eq!(lines.keys(), vec![ids[1], ids[2]]);
        assert_eq!(lines.retained(), fresh[1].len() + fresh[2].len());
        // Fetched before, so encoded again and kept again, evicting job 1.
        fetch(0);
        assert_eq!(lines.keys(), vec![ids[0], ids[2]]);
        fetch(0);
        // A failed fetch answers with an error and keeps nothing.
        let mut out = Vec::new();
        send_result(&mut out, &mgr, &lines, 999, false, &Faults::disabled()).unwrap();
        let resp = Json::parse(std::str::from_utf8(&out).unwrap().trim_end()).unwrap();
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(lines.keys(), vec![ids[0], ids[2]]);
    }

    #[test]
    fn submit_and_span_exec_refuse_fields_they_do_not_take() {
        let (data, labels) = small_dataset();
        let path = std::env::temp_dir().join(format!("jobd-fields-{}.tsv", std::process::id()));
        microarray::io::write_dataset(&path, &data, &labels).unwrap();
        let mgr = manager(16);
        let opts = PmaxtOptions::default().permutations(50).seed(7);
        let text = path.display().to_string();
        let with = |request: Json, key: &str| match request {
            Json::Obj(mut fields) => {
                fields.push((key.to_string(), Json::Num(500.0)));
                Json::Obj(fields)
            }
            other => other,
        };
        let refused = |resp: Json, key: &str| {
            assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false));
            assert_eq!(resp.get("code").and_then(Json::as_str), Some("usage"));
            let msg = resp
                .get("error")
                .and_then(Json::as_str)
                .unwrap()
                .to_string();
            assert!(msg.contains(&format!("{key:?}")), "{msg}");
        };
        // R's name for B, and a misspelling: refused, never run as defaults.
        let submit = protocol::submit_request(&text, &opts);
        for key in ["B", "sed"] {
            refused(handle_submit(&with(submit.clone(), key), &mgr), key);
        }
        let span = protocol::span_exec_request(&text, &opts, 50, 0, 10);
        refused(handle_span_exec(&with(span.clone(), "B"), &mgr), "B");
        // The unit fields belong to span_exec alone.
        refused(handle_submit(&with(submit.clone(), "take"), &mgr), "take");
        // Every field the clients send is taken.
        let ok = |resp: Json| assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
        ok(handle_submit(&submit, &mgr));
        ok(handle_span_exec(&span, &mgr));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bind_addr_parsing() {
        assert_eq!(
            BindAddr::parse("unix:/tmp/x.sock"),
            BindAddr::Unix(PathBuf::from("/tmp/x.sock"))
        );
        assert_eq!(
            BindAddr::parse("/tmp/x.sock"),
            BindAddr::Unix(PathBuf::from("/tmp/x.sock"))
        );
        assert_eq!(
            BindAddr::parse("127.0.0.1:8080"),
            BindAddr::Tcp("127.0.0.1:8080".into())
        );
        let a = BindAddr::parse("unix:/a/b");
        assert_eq!(BindAddr::parse(&a.to_addr_string()), a);
    }
}
