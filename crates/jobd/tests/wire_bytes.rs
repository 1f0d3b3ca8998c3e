//! The exact bytes options travel and persist as: a `submit` request, a
//! `span_exec` request and a journal accept record, each for the default
//! options and for options with every field off its default.
//!
//! Clients, peer daemons and journals written by earlier builds all speak
//! these bytes, so a change to how options are encoded must leave them
//! alone. If this test fails, fix the encoder; do not update the strings.

use sprint_core::options::{
    KernelChoice, Mode, PmaxtOptions, Precision, SamplingMode, TestMethod, Workload,
};
use sprint_core::side::Side;
use sprint_jobd::{journal, protocol, JournalRecord, RecordKind};

/// Every field off its default, `max_complete` included (it never travels).
fn every_field_moved() -> PmaxtOptions {
    PmaxtOptions {
        test: TestMethod::TEqualVar,
        side: Side::Lower,
        sampling: SamplingMode::Stored,
        b: 1234,
        na: Some(-99.5),
        nonpara: true,
        seed: u64::MAX - 3,
        max_complete: 5_000,
        kernel: KernelChoice::Scalar,
        threads: 3,
        batch: 17,
        precision: Precision::F32,
        mode: Mode::Adaptive,
        workload: Workload::Bootstrap,
    }
}

const DEFAULT_FIELDS: &str = r#""test":"t","side":"abs","sampling":"y","b":10000,"nonpara":false,"seed":"44561","kernel":"auto","precision":"f64","mode":"exact","threads":0,"batch":0,"workload":"pmaxt""#;

const MOVED_FIELDS: &str = r#""test":"t.equalvar","side":"lower","sampling":"n","b":1234,"nonpara":true,"seed":"18446744073709551612","kernel":"scalar","precision":"f32","mode":"adaptive","threads":3,"batch":17,"workload":"bootstrap","na":-99.5"#;

#[test]
fn submit_request_bytes_are_pinned() {
    let got = protocol::submit_request("/data/set.tsv", &PmaxtOptions::default()).to_json();
    assert_eq!(
        got,
        format!(r#"{{"cmd":"submit","path":"/data/set.tsv",{DEFAULT_FIELDS}}}"#)
    );
    let got = protocol::submit_request("/data/set.tsv", &every_field_moved()).to_json();
    assert_eq!(
        got,
        format!(r#"{{"cmd":"submit","path":"/data/set.tsv",{MOVED_FIELDS}}}"#)
    );
}

#[test]
fn span_exec_request_bytes_are_pinned() {
    let head =
        r#""cmd":"span_exec","path":"/peer/set.tsv","b_resolved":"1234","start":"64","take":"32""#;
    let got = protocol::span_exec_request("/peer/set.tsv", &PmaxtOptions::default(), 1234, 64, 32)
        .to_json();
    assert_eq!(got, format!("{{{head},{DEFAULT_FIELDS}}}"));
    let got =
        protocol::span_exec_request("/peer/set.tsv", &every_field_moved(), 1234, 64, 32).to_json();
    assert_eq!(got, format!("{{{head},{MOVED_FIELDS}}}"));
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn journal_accept_record_bytes_are_pinned() {
    // (options, frame header as hex, JSON payload)
    let cases = [
        (
            PmaxtOptions::default(),
            "504d584a52454331220100005ff60104ddec73b7",
            DEFAULT_FIELDS,
        ),
        (
            every_field_moved(),
            "504d584a52454331510100001bf37d5f3d39f389",
            MOVED_FIELDS,
        ),
    ];
    for (opts, header, fields) in cases {
        let mut rec = JournalRecord::transition(
            RecordKind::Accepted,
            "0123456789abcdef0123456789abcdef",
            opts.b,
            opts.mode.as_str(),
        );
        rec.source = Some("/data/set.tsv".to_string());
        rec.opts = Some(opts);
        let frame = journal::encode_record(&rec);
        let payload = std::str::from_utf8(&frame[header.len() / 2..]).unwrap();
        let b = rec.b;
        let mode = rec.mode.as_str();
        assert_eq!(
            payload,
            format!(
                r#"{{"rec":"accepted","key":"0123456789abcdef0123456789abcdef","b":"{b}","mode":"{mode}","source":"/data/set.tsv","opts":{{{fields}}}}}"#
            )
        );
        assert_eq!(hex(&frame[..header.len() / 2]), header);
    }
}
