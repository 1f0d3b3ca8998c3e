//! Wire protocol: line-delimited JSON requests and responses.
//!
//! One request per line, one response per line (the `watch` command streams
//! multiple event lines and ends with a terminal-state event). Conventions:
//!
//! - every request is an object with a `cmd` field;
//! - every response carries `ok: true` or `ok: false` plus `error`/`code`
//!   (`usage` | `busy` | `expired` | `runtime`; `expired` answers a job whose
//!   result the daemon no longer keeps, and resubmitting its request fetches
//!   the result again);
//! - `u64` fields that may exceed f64 precision (`seed`) ride as strings;
//! - non-finite floats (NaN p-values of non-computable genes) ride as
//!   `null` and decode back to NaN.

use sprint_core::adaptive::{AdaptiveReport, TailFit};
use sprint_core::boot::BootstrapResult;
use sprint_core::maxt::MaxTResult;
use sprint_core::options::{Form, PmaxtOptions, OPTIONS, YES_NO};

use crate::json::Json;
use crate::manager::{JobError, JobEvent, JobStatus, SubmitInfo};
use crate::shard::ShardSnapshot;

/// Build a `submit` request for a dataset file on the server's filesystem.
pub fn submit_request(path: &str, opts: &PmaxtOptions) -> Json {
    let mut pairs = vec![
        ("cmd".to_string(), Json::str("submit")),
        ("path".to_string(), Json::str(path)),
    ];
    pairs.extend(opts_to_pairs(opts));
    Json::Obj(pairs)
}

/// Options → wire fields: one per option-table row with a JSON key, in
/// table order, an unset NA code left out. Also the journal's codec for
/// accept records ([`crate::journal`]), which must carry enough of the
/// request to resubmit it after a crash.
pub(crate) fn opts_to_pairs(opts: &PmaxtOptions) -> Vec<(String, Json)> {
    let pairs = OPTIONS.iter().filter_map(|row| {
        let (key, text) = (row.json?, opts.text(row)?);
        let value = match row.form {
            Form::Word(_) | Form::Seed => Json::Str(text),
            Form::Count => {
                Json::Num(text.parse::<u64>().expect("a count reads as a decimal u64") as f64)
            }
            Form::YesNo => Json::Bool(text == YES_NO[0]),
            Form::NaCode => Json::Num(text.parse().expect("an NA code reads as a float")),
        };
        Some((key.to_string(), value))
    });
    pairs.collect()
}

/// The largest count a JSON number carries exactly (2^53).
const JSON_EXACT: u64 = 1 << 53;

/// Wire fields → options. Absent fields keep their defaults; malformed ones
/// are usage errors. Whatever decodes encodes back to the same fields.
pub fn opts_from_request(req: &Json) -> Result<PmaxtOptions, String> {
    let mut opts = PmaxtOptions::default();
    for row in &OPTIONS {
        let Some(key) = row.json else { continue };
        let Some(v) = req.get(key) else { continue };
        let (text, want) = match row.form {
            Form::Word(_) => (v.as_str().map(str::to_string), "a string"),
            Form::Count => (
                v.as_u64()
                    .filter(|&n| n <= JSON_EXACT)
                    .map(|n| n.to_string()),
                "an integer in 0..=2^53",
            ),
            Form::Seed => (v.as_u64().map(|n| n.to_string()), "an unsigned integer"),
            Form::YesNo => (
                v.as_bool().map(|y| YES_NO[usize::from(!y)].to_string()),
                "a boolean",
            ),
            Form::NaCode => (
                v.as_f64().filter(|x| x.is_finite()).map(|x| x.to_string()),
                "a finite number",
            ),
        };
        let text = text.ok_or_else(|| format!("{key} must be {want}"))?;
        opts.set_text(row, &text).map_err(|e| e.to_string())?;
    }
    Ok(opts)
}

/// Build a `span_exec` request: run unit `[start, start + take)` of a
/// sharded job over the dataset at `path` (a path on the *peer's*
/// filesystem) and return its part. The options' `workload` field names the
/// unit: permutation indices and raw exceedance counts for `pmaxt`, gene
/// rows and interval estimates for `bootstrap`. `b` is the coordinator's
/// resolved permutation (or draw) total; the executor re-resolves it from
/// the options and refuses on mismatch, so two daemons can never silently
/// shard different streams.
pub fn span_exec_request(path: &str, opts: &PmaxtOptions, b: u64, start: u64, take: u64) -> Json {
    let mut pairs = vec![
        ("cmd".to_string(), Json::str("span_exec")),
        ("path".to_string(), Json::str(path)),
        ("b_resolved".to_string(), Json::u64_str(b)),
        ("start".to_string(), Json::u64_str(start)),
        ("take".to_string(), Json::u64_str(take)),
    ];
    pairs.extend(opts_to_pairs(opts));
    Json::Obj(pairs)
}

/// Span-exec outcome → response fields. Counts ride as decimal strings:
/// exceedance counts are exact `u64`s and must survive the wire bit for bit
/// (JSON numbers are f64 and lose integers past 2^53).
pub fn span_counts_to_json(start: u64, take: u64, counts: &[u64], kernel_secs: f64) -> Json {
    ok_response(vec![
        ("start", Json::u64_str(start)),
        ("take", Json::u64_str(take)),
        // Seconds this daemon spent inside the permutation kernel for the
        // span — the coordinator aggregates these to separate compute time
        // from comm overhead in its status counters.
        ("kernel_secs", Json::Num(kernel_secs)),
        (
            "counts",
            Json::Arr(counts.iter().map(|&c| Json::u64_str(c)).collect()),
        ),
    ])
}

/// Response fields → `(start, take, counts)`. The reply's `kernel_secs` is
/// telemetry, read by the coordinator for every kind of unit alike.
pub fn span_counts_from_json(resp: &Json) -> Result<(u64, u64, Vec<u64>), String> {
    let start = resp
        .get("start")
        .and_then(Json::as_u64)
        .ok_or("missing start")?;
    let take = resp
        .get("take")
        .and_then(Json::as_u64)
        .ok_or("missing take")?;
    let counts = resp
        .get("counts")
        .and_then(Json::as_arr)
        .ok_or("missing counts array")?
        .iter()
        .map(|v| v.as_u64().ok_or("non-integer count"))
        .collect::<Result<Vec<u64>, _>>()?;
    Ok((start, take, counts))
}

/// f64 slice → array of IEEE-754 bit patterns as decimal strings. Interval
/// endpoints must survive the wire bit for bit (the sharded-equals-serial
/// contract is bitwise), and JSON's decimal float round-trip cannot promise
/// that — the bit pattern can.
fn f64_bits_arr(v: &[f64]) -> Json {
    Json::Arr(v.iter().map(|&x| Json::u64_str(x.to_bits())).collect())
}

/// Bit-pattern array → f64 slice (inverse of [`f64_bits_arr`]).
fn f64_bits_from(resp: &Json, field: &str) -> Result<Vec<f64>, String> {
    resp.get(field)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("missing array {field}"))?
        .iter()
        .map(|v| {
            v.as_u64()
                .map(f64::from_bits)
                .ok_or_else(|| format!("non-integer bit pattern in {field}"))
        })
        .collect()
}

/// Bootstrap estimates → response fields, shared by `span_exec` replies
/// and `result` responses of bootstrap jobs. All float arrays ride as bit
/// patterns (see [`f64_bits_arr`]).
pub fn boot_to_json(r: &BootstrapResult) -> Vec<(&'static str, Json)> {
    vec![
        ("workload", Json::str("bootstrap")),
        ("row_offset", Json::u64_str(r.offset as u64)),
        ("replicates", Json::u64_str(r.replicates)),
        ("level", Json::u64_str(r.level.to_bits())),
        ("theta", f64_bits_arr(&r.theta)),
        ("se", f64_bits_arr(&r.se)),
        ("pct_lo", f64_bits_arr(&r.pct_lo)),
        ("pct_hi", f64_bits_arr(&r.pct_hi)),
        ("bca_lo", f64_bits_arr(&r.bca_lo)),
        ("bca_hi", f64_bits_arr(&r.bca_hi)),
    ]
}

/// Response fields → bootstrap estimates (inverse of [`boot_to_json`]).
pub fn boot_from_json(resp: &Json) -> Result<BootstrapResult, String> {
    let u64_field = |field: &str| -> Result<u64, String> {
        resp.get(field)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("missing field {field}"))
    };
    let out = BootstrapResult {
        offset: u64_field("row_offset")? as usize,
        theta: f64_bits_from(resp, "theta")?,
        se: f64_bits_from(resp, "se")?,
        pct_lo: f64_bits_from(resp, "pct_lo")?,
        pct_hi: f64_bits_from(resp, "pct_hi")?,
        bca_lo: f64_bits_from(resp, "bca_lo")?,
        bca_hi: f64_bits_from(resp, "bca_hi")?,
        replicates: u64_field("replicates")?,
        level: f64::from_bits(u64_field("level")?),
    };
    let n = out.theta.len();
    for (name, len) in [
        ("se", out.se.len()),
        ("pct_lo", out.pct_lo.len()),
        ("pct_hi", out.pct_hi.len()),
        ("bca_lo", out.bca_lo.len()),
        ("bca_hi", out.bca_hi.len()),
    ] {
        if len != n {
            return Err(format!("array {name} has {len} entries, expected {n}"));
        }
    }
    Ok(out)
}

/// Bootstrap job result → response fields (`result` of a bootstrap job).
pub fn boot_result_to_json(job: u64, r: &BootstrapResult) -> Json {
    let mut fields = vec![("job", Json::Num(job as f64))];
    fields.extend(boot_to_json(r));
    ok_response(fields)
}

/// A bootstrap `span_exec` reply: one gene band plus kernel time.
pub fn boot_slice_to_json(r: &BootstrapResult, kernel_secs: f64) -> Json {
    let mut fields = vec![("kernel_secs", Json::Num(kernel_secs))];
    fields.extend(boot_to_json(r));
    ok_response(fields)
}

/// Shard wire counters → the `comm` object embedded in status/progress
/// responses of sharded jobs.
pub fn shard_to_json(s: &ShardSnapshot) -> Json {
    Json::obj(vec![
        ("peers", Json::Num(s.peers as f64)),
        ("peers_failed", Json::Num(s.peers_failed as f64)),
        ("spans_total", Json::Num(s.spans_total as f64)),
        ("spans_local", Json::Num(s.spans_local as f64)),
        ("spans_remote", Json::Num(s.spans_remote as f64)),
        ("spans_reassigned", Json::Num(s.spans_reassigned as f64)),
        ("requests_sent", Json::Num(s.requests_sent as f64)),
        ("responses_received", Json::Num(s.responses_received as f64)),
        ("retries", Json::Num(s.retries as f64)),
        ("bytes_sent", Json::u64_str(s.bytes_sent)),
        ("bytes_received", Json::u64_str(s.bytes_received)),
        ("kernel_local_micros", Json::u64_str(s.kernel_local_micros)),
        (
            "kernel_remote_micros",
            Json::u64_str(s.kernel_remote_micros),
        ),
    ])
}

/// Build a request that addresses a job by id.
pub fn job_request(cmd: &str, job: u64) -> Json {
    Json::obj(vec![
        ("cmd", Json::str(cmd)),
        ("job", Json::Num(job as f64)),
    ])
}

/// Build a `result` request; `wait` blocks server-side until terminal.
pub fn result_request(job: u64, wait: bool) -> Json {
    Json::obj(vec![
        ("cmd", Json::str("result")),
        ("job", Json::Num(job as f64)),
        ("wait", Json::Bool(wait)),
    ])
}

/// Build a `shutdown` request. With `drain`, the server first refuses new
/// submissions and lets every job reach a terminal state; the response
/// arrives only once all work is durably settled.
pub fn shutdown_request(drain: bool) -> Json {
    let mut pairs = vec![("cmd", Json::str("shutdown"))];
    if drain {
        pairs.push(("drain", Json::Bool(true)));
    }
    Json::obj(pairs)
}

/// A successful response with extra fields.
pub fn ok_response(mut fields: Vec<(&str, Json)>) -> Json {
    let mut pairs = vec![("ok", Json::Bool(true))];
    pairs.append(&mut fields);
    Json::obj(pairs)
}

/// A failure response: message plus machine-readable code.
pub fn err_response(message: &str, code: &str) -> Json {
    Json::obj(vec![
        ("ok", Json::Bool(false)),
        ("error", Json::str(message)),
        ("code", Json::str(code)),
    ])
}

/// A failure response from a manager error.
pub fn err_from(e: &JobError) -> Json {
    err_response(&e.to_string(), e.code())
}

/// Submission outcome → response fields.
pub fn submit_to_json(info: &SubmitInfo) -> Json {
    ok_response(vec![
        ("job", Json::Num(info.id as f64)),
        ("state", Json::str(info.state.as_str())),
        ("cache", Json::str(info.cache.as_str())),
        ("resumed_from", Json::Num(info.cache.resumed_from() as f64)),
        ("total", Json::Num(info.total as f64)),
        ("deduped", Json::Bool(info.deduped)),
        ("key", Json::str(info.key.clone())),
        ("recovered", Json::Bool(info.recovered)),
    ])
}

/// Status snapshot → response fields.
pub fn status_to_json(st: &JobStatus) -> Json {
    let mut fields = vec![
        ("job", Json::Num(st.id as f64)),
        ("state", Json::str(st.state.as_str())),
        ("done", Json::Num(st.done as f64)),
        ("total", Json::Num(st.total as f64)),
        ("computed", Json::Num(st.computed as f64)),
        ("cache", Json::str(st.cache.as_str())),
        ("resumed_from", Json::Num(st.cache.resumed_from() as f64)),
        ("recovered", Json::Bool(st.recovered)),
    ];
    if let Some(eta) = st.eta_secs {
        fields.push(("eta_secs", Json::Num(eta)));
    }
    if let Some(err) = &st.error {
        fields.push(("error", Json::str(err.clone())));
    }
    if let Some(comm) = &st.comm {
        fields.push(("comm", shard_to_json(comm)));
    }
    if let Some(a) = &st.adaptive {
        fields.push((
            "adaptive",
            Json::obj(vec![
                ("genes_stopped", Json::Num(a.genes_stopped as f64)),
                ("budget_fraction", Json::Num(a.budget_fraction)),
                ("watermark", Json::u64_str(a.watermark)),
                ("mass_deactivation", Json::Bool(a.mass_deactivation)),
            ]),
        ));
    }
    ok_response(fields)
}

/// Progress event → one stream line.
pub fn event_to_json(e: &JobEvent) -> Json {
    let mut fields = vec![
        ("event", Json::str("progress")),
        ("job", Json::Num(e.job as f64)),
        ("state", Json::str(e.state.as_str())),
        ("done", Json::Num(e.done as f64)),
        ("total", Json::Num(e.total as f64)),
    ];
    if let Some(eta) = e.eta_secs {
        fields.push(("eta_secs", Json::Num(eta)));
    }
    if let Some(comm) = &e.comm {
        fields.push(("comm", shard_to_json(comm)));
    }
    ok_response(fields)
}

/// Adaptive run report → the `adaptive` object embedded in result responses.
/// Per-gene counters ride as decimal strings (exact `u64`s); the per-gene
/// p-value envelope uses plain numbers (`null` for non-computable genes).
pub fn adaptive_to_json(r: &AdaptiveReport) -> Json {
    let nums = |v: &[f64]| Json::Arr(v.iter().map(|&x| Json::Num(x)).collect());
    let u64s = |v: &[u64]| Json::Arr(v.iter().map(|&c| Json::u64_str(c)).collect());
    let tail_rows: Vec<Json> = r
        .tail
        .iter()
        .enumerate()
        .filter_map(|(g, fit)| fit.as_ref().map(|f| (g, f)))
        .map(|(g, f)| {
            Json::obj(vec![
                ("gene", Json::Num(g as f64)),
                ("threshold", Json::Num(f.threshold)),
                ("shape", Json::Num(f.shape)),
                ("scale", Json::Num(f.scale)),
                ("exceedances", Json::Num(f.exceedances as f64)),
                ("p_tail", Json::Num(f.p_tail)),
                ("ad_stat", Json::Num(f.ad_stat)),
                ("good", Json::Bool(f.good)),
            ])
        })
        .collect();
    Json::obj(vec![
        ("b", Json::u64_str(r.b)),
        ("watermark", Json::u64_str(r.watermark)),
        ("gene_perms_scored", Json::u64_str(r.gene_perms_scored)),
        ("gene_perms_exact", Json::u64_str(r.gene_perms_exact)),
        ("budget_fraction", Json::Num(r.budget_fraction())),
        ("genes_stopped", Json::Num(r.genes_stopped() as f64)),
        ("mass_deactivation", Json::Bool(r.mass_deactivation)),
        ("scored", u64s(&r.scored)),
        ("counts", u64s(&r.counts)),
        (
            "stopped_at",
            Json::Arr(
                r.stopped_at
                    .iter()
                    .map(|s| s.map(Json::u64_str).unwrap_or(Json::Null))
                    .collect(),
            ),
        ),
        ("p_lower", nums(&r.p_lower)),
        ("p_upper", nums(&r.p_upper)),
        ("p_point", nums(&r.p_point)),
        (
            "tail_fitted",
            Json::Arr(r.tail.iter().map(|f| Json::Bool(f.is_some())).collect()),
        ),
        ("tail", Json::Arr(tail_rows)),
    ])
}

/// A float array field; `null` entries (non-finite values) decode to NaN.
fn floats(obj: &Json, field: &str) -> Result<Vec<f64>, String> {
    obj.get(field)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("missing array {field}"))?
        .iter()
        .map(|v| float(v).ok_or_else(|| format!("non-numeric entry in {field}")))
        .collect()
}

fn float(v: &Json) -> Option<f64> {
    match v {
        Json::Null => Some(f64::NAN),
        Json::Num(n) => Some(*n),
        _ => None,
    }
}

/// The `adaptive` object of a result response → report (inverse of
/// [`adaptive_to_json`]). `null` bounds decode to NaN.
pub fn adaptive_from_json(a: &Json) -> Result<AdaptiveReport, String> {
    let arr = |field: &str| {
        a.get(field)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("missing array {field}"))
    };
    let int = |v: &Json, field: &str| {
        v.get(field)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("missing integer {field}"))
    };
    let u64s = |field: &str| -> Result<Vec<u64>, String> {
        let ints = arr(field)?.iter().map(Json::as_u64);
        ints.collect::<Option<_>>()
            .ok_or_else(|| format!("non-integer entry in {field}"))
    };
    let scored = u64s("scored")?;
    let genes = scored.len();
    let stopped_at = arr("stopped_at")?
        .iter()
        .map(|v| match v {
            Json::Null => Ok(None),
            v => v.as_u64().map(Some).ok_or("bad stopped_at entry"),
        })
        .collect::<Result<Vec<_>, _>>()?;
    let mut tail = vec![None; genes];
    for row in arr("tail")? {
        let f = |field: &str| {
            row.get(field)
                .and_then(float)
                .ok_or_else(|| format!("tail row missing number {field}"))
        };
        let slot = tail
            .get_mut(int(row, "gene")? as usize)
            .ok_or("tail row gene out of range")?;
        *slot = Some(TailFit {
            threshold: f("threshold")?,
            shape: f("shape")?,
            scale: f("scale")?,
            exceedances: int(row, "exceedances")? as usize,
            p_tail: f("p_tail")?,
            ad_stat: f("ad_stat")?,
            good: row
                .get("good")
                .and_then(Json::as_bool)
                .ok_or("tail row missing boolean good")?,
        });
    }
    let report = AdaptiveReport {
        b: int(a, "b")?,
        scored,
        counts: u64s("counts")?,
        stopped_at,
        p_lower: floats(a, "p_lower")?,
        p_upper: floats(a, "p_upper")?,
        p_point: floats(a, "p_point")?,
        tail,
        gene_perms_scored: int(a, "gene_perms_scored")?,
        gene_perms_exact: int(a, "gene_perms_exact")?,
        watermark: int(a, "watermark")?,
        mass_deactivation: a
            .get("mass_deactivation")
            .and_then(Json::as_bool)
            .ok_or("missing boolean mass_deactivation")?,
    };
    for (name, len) in [
        ("counts", report.counts.len()),
        ("stopped_at", report.stopped_at.len()),
        ("p_lower", report.p_lower.len()),
        ("p_upper", report.p_upper.len()),
        ("p_point", report.p_point.len()),
    ] {
        if len != genes {
            return Err(format!("array {name} has {len} entries, expected {genes}"));
        }
    }
    Ok(report)
}

/// Result → response fields. NaNs serialize as `null` (see module docs).
/// Adaptive jobs additionally carry their per-gene report (`adaptive`).
pub fn result_to_json(job: u64, r: &MaxTResult, adaptive: Option<&AdaptiveReport>) -> Json {
    let nums = |v: &[f64]| Json::Arr(v.iter().map(|&x| Json::Num(x)).collect());
    let mut fields = vec![
        ("job", Json::Num(job as f64)),
        ("b_used", Json::Num(r.b_used as f64)),
        ("teststat", nums(&r.teststat)),
        ("rawp", nums(&r.rawp)),
        ("adjp", nums(&r.adjp)),
        (
            "order",
            Json::Arr(r.order.iter().map(|&i| Json::Num(i as f64)).collect()),
        ),
    ];
    if let Some(rep) = adaptive {
        fields.push(("adaptive", adaptive_to_json(rep)));
    }
    ok_response(fields)
}

/// Response fields → result. `null` entries decode to NaN.
pub fn result_from_json(resp: &Json) -> Result<MaxTResult, String> {
    let order = resp
        .get("order")
        .and_then(Json::as_arr)
        .ok_or("missing array order")?
        .iter()
        .map(|v| v.as_u64().map(|n| n as usize).ok_or("bad order entry"))
        .collect::<Result<Vec<usize>, _>>()?;
    Ok(MaxTResult {
        teststat: floats(resp, "teststat")?,
        rawp: floats(resp, "rawp")?,
        adjp: floats(resp, "adjp")?,
        order,
        b_used: resp
            .get("b_used")
            .and_then(Json::as_u64)
            .ok_or("missing b_used")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sprint_core::options::{KernelChoice, Mode, Precision, Workload};

    #[test]
    fn options_round_trip_through_a_submit_request() {
        let opts = PmaxtOptions::default()
            .test_str("wilcoxon")
            .unwrap()
            .side_str("upper")
            .unwrap()
            .fixed_seed_sampling("n")
            .unwrap()
            .permutations(1234)
            .na_code(-99.5)
            .nonpara(true)
            .seed(u64::MAX - 3)
            .kernel(KernelChoice::Scalar)
            .precision(Precision::F32)
            .mode(Mode::Adaptive)
            .threads(3)
            .batch(17)
            .workload(Workload::Bootstrap);
        let req = submit_request("/data/set.tsv", &opts);
        let wire = Json::parse(&req.to_json()).unwrap();
        assert_eq!(wire.get("cmd").unwrap().as_str(), Some("submit"));
        assert_eq!(wire.get("path").unwrap().as_str(), Some("/data/set.tsv"));
        let decoded = opts_from_request(&wire).unwrap();
        assert_eq!(decoded, opts, "options must survive the wire");
    }

    #[test]
    fn absent_option_fields_default() {
        let req = Json::obj(vec![("cmd", Json::str("submit"))]);
        assert_eq!(opts_from_request(&req).unwrap(), PmaxtOptions::default());
        let bad = Json::obj(vec![("test", Json::str("ttest"))]);
        assert!(opts_from_request(&bad).is_err());
        let bad = Json::obj(vec![("b", Json::Num(-3.0))]);
        assert!(opts_from_request(&bad).is_err());
    }

    #[test]
    fn results_round_trip_including_nan() {
        let r = MaxTResult {
            teststat: vec![2.5, f64::NAN, -1.0],
            rawp: vec![0.01, f64::NAN, 0.5],
            adjp: vec![0.02, f64::NAN, 0.5],
            order: vec![0, 2, 1],
            b_used: 1000,
        };
        let wire = Json::parse(&result_to_json(7, &r, None).to_json()).unwrap();
        assert_eq!(wire.get("ok").unwrap().as_bool(), Some(true));
        let back = result_from_json(&wire).unwrap();
        assert_eq!(back.order, r.order);
        assert_eq!(back.b_used, r.b_used);
        for (a, b) in back.teststat.iter().zip(&r.teststat) {
            assert!(a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()));
        }
        assert!(back.rawp[1].is_nan());
    }

    #[test]
    fn adaptive_report_rides_the_result_response() {
        use sprint_core::adaptive::TailFit;
        let r = MaxTResult {
            teststat: vec![2.5, -1.0],
            rawp: vec![0.01, 0.5],
            adjp: vec![0.02, 0.5],
            order: vec![0, 1],
            b_used: 1000,
        };
        let rep = AdaptiveReport {
            b: 1000,
            scored: vec![1000, 200],
            counts: vec![10, 100],
            stopped_at: vec![None, Some(200)],
            p_lower: vec![0.01, 0.1],
            p_upper: vec![0.01, 0.9],
            p_point: vec![0.01, 0.5],
            tail: vec![
                Some(TailFit {
                    threshold: 3.0,
                    shape: 0.1,
                    scale: 0.5,
                    exceedances: 50,
                    p_tail: 1e-6,
                    ad_stat: 0.4,
                    good: true,
                }),
                None,
            ],
            gene_perms_scored: 1200,
            gene_perms_exact: 2000,
            watermark: 200,
            mass_deactivation: false,
        };
        let wire = Json::parse(&result_to_json(9, &r, Some(&rep)).to_json()).unwrap();
        let a = wire.get("adaptive").expect("adaptive object present");
        assert_eq!(a.get("watermark").unwrap().as_u64(), Some(200));
        assert_eq!(a.get("genes_stopped").unwrap().as_u64(), Some(1));
        assert_eq!(
            a.get("stopped_at").unwrap().as_arr().unwrap()[1].as_u64(),
            Some(200)
        );
        assert!(matches!(
            a.get("stopped_at").unwrap().as_arr().unwrap()[0],
            Json::Null
        ));
        let fitted = a.get("tail_fitted").unwrap().as_arr().unwrap();
        assert_eq!(fitted[0].as_bool(), Some(true));
        assert_eq!(fitted[1].as_bool(), Some(false));
        let tail = a.get("tail").unwrap().as_arr().unwrap();
        assert_eq!(tail.len(), 1);
        assert_eq!(tail[0].get("gene").unwrap().as_u64(), Some(0));
        assert_eq!(tail[0].get("good").unwrap().as_bool(), Some(true));
        // The client decodes the object back to the report the daemon held.
        assert_eq!(adaptive_from_json(a).unwrap(), rep);
        // An exact result carries no adaptive object.
        let plain = Json::parse(&result_to_json(9, &r, None).to_json()).unwrap();
        assert!(plain.get("adaptive").is_none());
    }

    #[test]
    fn bootstrap_results_round_trip_bit_for_bit() {
        let r = BootstrapResult {
            offset: 3,
            theta: vec![8.0, -0.125, f64::NAN],
            se: vec![0.5, 0.25, f64::NAN],
            pct_lo: vec![7.0, -1.0, f64::NAN],
            pct_hi: vec![9.0, 1.0, f64::NAN],
            bca_lo: vec![7.1, f64::NAN, f64::NAN],
            bca_hi: vec![9.1, f64::NAN, f64::NAN],
            replicates: 399,
            level: 0.95,
        };
        let wire = Json::parse(&boot_result_to_json(4, &r).to_json()).unwrap();
        assert_eq!(wire.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(wire.get("workload").unwrap().as_str(), Some("bootstrap"));
        let back = boot_from_json(&wire).unwrap();
        assert_eq!(back.offset, 3);
        assert_eq!(back.replicates, 399);
        assert_eq!(back.level.to_bits(), r.level.to_bits());
        for (a, b) in back.theta.iter().zip(&r.theta) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        for (a, b) in back.bca_lo.iter().zip(&r.bca_lo) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // Ragged arrays are rejected, not silently truncated.
        let mut ragged = r.clone();
        ragged.se.pop();
        let wire = Json::parse(&boot_slice_to_json(&ragged, 0.1).to_json()).unwrap();
        assert!(boot_from_json(&wire).is_err());
        assert!((wire.get("kernel_secs").unwrap().as_f64().unwrap() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn span_exec_request_carries_bootstrap_bands_and_options() {
        let opts = PmaxtOptions::default()
            .workload(Workload::Bootstrap)
            .permutations(500)
            .seed(11);
        let req = span_exec_request("/data/set.tsv", &opts, 500, 100, 50);
        let wire = Json::parse(&req.to_json()).unwrap();
        assert_eq!(wire.get("cmd").unwrap().as_str(), Some("span_exec"));
        assert_eq!(wire.get("b_resolved").unwrap().as_u64(), Some(500));
        assert_eq!(wire.get("start").unwrap().as_u64(), Some(100));
        assert_eq!(wire.get("take").unwrap().as_u64(), Some(50));
        let decoded = opts_from_request(&wire).unwrap();
        assert_eq!(decoded, opts);
    }

    #[test]
    fn error_responses_carry_code() {
        let e = JobError::UnknownJob(42);
        let wire = Json::parse(&err_from(&e).to_json()).unwrap();
        assert_eq!(wire.get("ok").unwrap().as_bool(), Some(false));
        assert_eq!(wire.get("code").unwrap().as_str(), Some("usage"));
        assert!(wire.get("error").unwrap().as_str().unwrap().contains("42"));
    }
}
