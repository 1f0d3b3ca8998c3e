//! Malformed wire input never takes down a connection handler, let alone the
//! daemon: garbage lines, invalid UTF-8, oversized requests, unknown
//! commands and half-written frames each get a typed protocol error (or a
//! clean close), after which the same server keeps answering.

use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::UnixStream;
use std::time::Duration;

use sprint_jobd::json::Json;
use sprint_jobd::server::MAX_REQUEST_LINE;
use sprint_jobd::{protocol, Client, Faults, JobManager, ManagerConfig, Server, ServerConfig};

struct Fixture {
    dir: std::path::PathBuf,
    sock: std::path::PathBuf,
    handle: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

impl Fixture {
    fn start(name: &str) -> Fixture {
        let dir = std::env::temp_dir().join(format!("jobd-wire-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let sock = dir.join("jobd.sock");
        // Injection off: these tests feed hostile input from the outside, so
        // an ambient SPRINT_FAULTS must not also tear the responses.
        let manager = JobManager::new(ManagerConfig {
            workers: 1,
            cache_dir: None,
            faults: Faults::disabled(),
            ..ManagerConfig::default()
        })
        .unwrap();
        let server = Server::bind_with(
            &format!("unix:{}", sock.display()),
            manager,
            ServerConfig {
                faults: Faults::disabled(),
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let handle = std::thread::spawn(move || server.run());
        Fixture {
            dir,
            sock,
            handle: Some(handle),
        }
    }

    fn raw(&self) -> UnixStream {
        let s = UnixStream::connect(&self.sock).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        s
    }

    /// Send raw bytes on `conn` and read one response line back.
    fn roundtrip(&self, conn: &mut UnixStream, bytes: &[u8]) -> Json {
        conn.write_all(bytes).unwrap();
        conn.flush().unwrap();
        let mut line = String::new();
        BufReader::new(conn.try_clone().unwrap())
            .read_line(&mut line)
            .unwrap();
        assert!(!line.is_empty(), "server hung up instead of responding");
        Json::parse(line.trim_end()).unwrap()
    }

    /// The daemon must still answer a well-formed ping on a fresh connection.
    fn assert_alive(&self) {
        let addr = format!("unix:{}", self.sock.display());
        let mut client = Client::connect(&addr).unwrap();
        let resp = client.request(&protocol::job_request("ping", 0)).unwrap();
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let addr = format!("unix:{}", self.sock.display());
        if let Ok(mut client) = Client::connect(&addr) {
            let _ = client.request(&protocol::job_request("shutdown", 0));
        }
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

fn err_code(resp: &Json) -> String {
    assert_eq!(
        resp.get("ok").and_then(Json::as_bool),
        Some(false),
        "expected an error response, got {}",
        resp.to_json()
    );
    resp.get("code")
        .and_then(Json::as_str)
        .expect("error responses carry a code")
        .to_string()
}

#[test]
fn garbage_line_gets_usage_error_and_connection_survives() {
    let fx = Fixture::start("garbage");
    let mut conn = fx.raw();
    let resp = fx.roundtrip(&mut conn, b"this is not json\n");
    assert_eq!(err_code(&resp), "usage");
    // Same connection, next line: still parsed and served.
    let resp = fx.roundtrip(&mut conn, b"{\"cmd\":\"ping\"}\n");
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
    fx.assert_alive();
}

#[test]
fn invalid_utf8_gets_typed_error_not_a_dead_thread() {
    let fx = Fixture::start("utf8");
    let mut conn = fx.raw();
    let resp = fx.roundtrip(&mut conn, b"{\"cmd\": \"\xff\xfe\x80\"}\n");
    assert_eq!(err_code(&resp), "usage");
    let resp = fx.roundtrip(&mut conn, b"{\"cmd\":\"ping\"}\n");
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
    fx.assert_alive();
}

#[test]
fn oversized_line_is_bounded_rejected_and_resynced() {
    let fx = Fixture::start("oversized");
    let mut conn = fx.raw();
    // Twice the limit: the server must refuse to buffer it, answer with a
    // bounded-line error, discard through the newline, and keep serving.
    let mut big = vec![b'a'; 2 * MAX_REQUEST_LINE];
    big.push(b'\n');
    let resp = fx.roundtrip(&mut conn, &big);
    assert_eq!(err_code(&resp), "usage");
    assert!(
        resp.get("error")
            .and_then(Json::as_str)
            .unwrap_or("")
            .contains("exceeds"),
        "error should say the line was too long: {}",
        resp.to_json()
    );
    let resp = fx.roundtrip(&mut conn, b"{\"cmd\":\"ping\"}\n");
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
    fx.assert_alive();
}

#[test]
fn unknown_command_and_wrong_types_get_usage_errors() {
    let fx = Fixture::start("unknown");
    let mut conn = fx.raw();
    let resp = fx.roundtrip(&mut conn, b"{\"cmd\":\"frobnicate\"}\n");
    assert_eq!(err_code(&resp), "usage");
    // `cmd` present but not a string.
    let resp = fx.roundtrip(&mut conn, b"{\"cmd\":42}\n");
    assert_eq!(err_code(&resp), "usage");
    // A JSON array is not a request object.
    let resp = fx.roundtrip(&mut conn, b"[1,2,3]\n");
    assert_eq!(err_code(&resp), "usage");
    fx.assert_alive();
}

#[test]
fn half_written_frame_then_hangup_is_a_clean_close() {
    let fx = Fixture::start("torn");
    {
        let mut conn = fx.raw();
        // A request cut off mid-frame with no newline, then the peer vanishes.
        conn.write_all(b"{\"cmd\":\"sub").unwrap();
        conn.flush().unwrap();
        drop(conn); // hangup
    }
    {
        // Same, but the peer half-closes and waits: the server treats the
        // unterminated tail as a (malformed) line, answers, then sees EOF.
        let mut conn = fx.raw();
        conn.write_all(b"{\"cmd\":\"sub").unwrap();
        conn.shutdown(std::net::Shutdown::Write).unwrap();
        let mut all = String::new();
        BufReader::new(conn.try_clone().unwrap())
            .read_to_string(&mut all)
            .unwrap();
        let first = all.lines().next().expect("one response line");
        let resp = Json::parse(first).unwrap();
        assert_eq!(err_code(&resp), "usage");
    }
    fx.assert_alive();
}

#[test]
fn deeply_nested_line_gets_usage_error_not_a_stack_overflow() {
    let fx = Fixture::start("nested");
    let mut conn = fx.raw();
    // Well under the line bound, and far deeper than any request: a parser
    // that recursed into it would overflow the handler's stack and abort
    // the daemon.
    let mut deep = vec![b'['; 200_000];
    deep.push(b'\n');
    assert!(deep.len() < MAX_REQUEST_LINE);
    let resp = fx.roundtrip(&mut conn, &deep);
    assert_eq!(err_code(&resp), "usage");
    let resp = fx.roundtrip(&mut conn, b"{\"cmd\":\"ping\"}\n");
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
    fx.assert_alive();
}
