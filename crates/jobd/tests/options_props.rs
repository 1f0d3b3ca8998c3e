//! Hostile input for jobd's options decoder, `protocol::opts_from_request`,
//! which reads every `submit` and `span_exec` request and every journal
//! accept record. Objects are built from the option table's JSON keys plus
//! junk keys, with values of every JSON type: negative, fractional,
//! non-finite and above-2^53 numbers, strings (every spelling among them),
//! booleans, null, arrays and nested objects. The decoder must answer `Ok`
//! or an error message and never panic, and whatever it accepts must encode
//! and decode back to the same options.

use proptest::prelude::*;

use sprint_core::options::{Form, PmaxtOptions, OPTIONS, YES_NO};
use sprint_jobd::json::Json;
use sprint_jobd::protocol;

/// SplitMix64 over a drawn seed: one case's choices.
struct Draw(u64);

impl Draw {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<T: Clone>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())].clone()
    }
}

/// Keys that are no option's: request fields, near misses, the R names.
const JUNK_KEYS: &[&str] = &[
    "cmd",
    "path",
    "b_resolved",
    "",
    "B",
    "fixed.seed.sampling",
    "Test",
    "na ",
    "opts",
    "max_complete",
];

/// Numbers of every awkward shape: zero of both signs, negative,
/// fractional, either side of 2^53, beyond `u64`, and non-finite.
const NUMBERS: &[f64] = &[
    0.0,
    -0.0,
    1.0,
    7.0,
    500.0,
    -3.0,
    0.5,
    -99.5,
    1e-300,
    9_007_199_254_740_992.0,
    9_007_199_254_740_994.0,
    1.8446744073709552e19,
    1e300,
    -1e300,
    f64::MAX,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::NAN,
];

/// Strings: every spelling of every word option, the yes/no spellings, and
/// near misses, decimal integers inside and outside `u64`.
fn strings() -> Vec<String> {
    let mut out: Vec<String> = [
        "",
        "yes",
        "Y",
        "T",
        "auto ",
        "0",
        "44561",
        "-1",
        "1e3",
        "+7",
        "9007199254740993",
        "18446744073709551615",
        "18446744073709551616",
        "NaN",
        "inf",
    ]
    .map(String::from)
    .to_vec();
    out.extend(YES_NO.map(String::from));
    for row in &OPTIONS {
        if let Form::Word(words) = row.form {
            out.extend(words.iter().map(|w| w.to_string()));
        }
    }
    out
}

/// A value the decoder should accept for `form`.
fn well_formed(d: &mut Draw, form: Form) -> Json {
    match form {
        Form::Word(words) => Json::str(d.pick(words)),
        Form::Count => Json::Num((d.next() % 5_000) as f64),
        Form::Seed => Json::u64_str(d.next()),
        Form::YesNo => Json::Bool(d.next() & 1 == 1),
        Form::NaCode => Json::Num(f64::from_bits(d.next() >> 2) - 1.0),
    }
}

/// Any JSON value, nested at most `depth` levels.
fn hostile(d: &mut Draw, strings: &[String], depth: u32) -> Json {
    match d.below(if depth > 0 { 8 } else { 6 }) {
        0 => Json::Null,
        1 => Json::Bool(d.next() & 1 == 1),
        2 => Json::Num(d.pick(NUMBERS)),
        3 => Json::Num(f64::from_bits(d.next())),
        4 => Json::Str(d.pick(strings)),
        5 => Json::u64_str(d.next()),
        6 => Json::Arr(
            (0..d.below(3))
                .map(|_| hostile(d, strings, depth - 1))
                .collect(),
        ),
        _ => object(d, strings, depth - 1),
    }
}

/// An object of up to 15 fields: option keys (half the time with a value
/// of their own form) and junk keys, repeats allowed.
fn object(d: &mut Draw, strings: &[String], depth: u32) -> Json {
    let fields = (0..d.below(16))
        .map(|_| {
            if d.below(4) == 0 {
                (d.pick(JUNK_KEYS).to_string(), hostile(d, strings, depth))
            } else {
                let row = d.pick(&OPTIONS);
                let key = row.json.unwrap_or(row.name).to_string();
                let value = if d.below(2) == 0 {
                    well_formed(d, row.form)
                } else {
                    hostile(d, strings, depth)
                };
                (key, value)
            }
        })
        .collect();
    Json::Obj(fields)
}

/// Decode `req`; an accepted one must survive a submit request's encode
/// and decode unchanged.
fn decode_checked(req: &Json) -> Result<Option<PmaxtOptions>, String> {
    match protocol::opts_from_request(req) {
        Ok(opts) => {
            let wire = protocol::submit_request("/data/set.tsv", &opts).to_json();
            let back = protocol::opts_from_request(&Json::parse(&wire).unwrap());
            prop_assert_eq!(back.as_ref(), Ok(&opts), "wire {}", wire);
            Ok(Some(opts))
        }
        Err(msg) => {
            prop_assert!(!msg.is_empty());
            Ok(None)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3000))]

    /// Arbitrary objects, as built and as sent: the text form turns
    /// non-finite numbers into `null` and re-reads every other number.
    #[test]
    fn decoder_accepts_or_refuses_and_accepted_options_round_trip(seed in any::<u64>()) {
        let mut d = Draw(seed);
        let req = object(&mut d, &strings(), 2);
        decode_checked(&req)?;
        decode_checked(&Json::parse(&req.to_json()).unwrap())?;
    }
}

#[test]
fn hostile_objects_reach_both_outcomes_for_every_key() {
    // The property above is only as good as its inputs: each option key
    // must be seen both accepted and refused.
    let strings = strings();
    let mut accepted = vec![0usize; OPTIONS.len()];
    let mut refused = vec![0usize; OPTIONS.len()];
    let mut d = Draw(0x0b7e_c7ed);
    for _ in 0..3000 {
        let req = object(&mut d, &strings, 2);
        let ok = protocol::opts_from_request(&req).is_ok();
        for (i, row) in OPTIONS.iter().enumerate() {
            if row.json.is_some_and(|key| req.get(key).is_some()) {
                if ok {
                    accepted[i] += 1;
                } else {
                    refused[i] += 1;
                }
            }
        }
    }
    for (i, row) in OPTIONS.iter().enumerate() {
        if row.json.is_some() {
            assert!(accepted[i] > 0 && refused[i] > 0, "{}", row.name);
        }
    }
}

#[test]
fn counts_past_2_pow_53_and_non_finite_codes_are_refused() {
    // Values a request can carry but an encoded request cannot: decoding
    // them once gave options whose journal accept record read back as
    // nothing on replay.
    for (key, value) in [
        ("b", Json::u64_str((1 << 53) + 1)),
        ("threads", Json::Num(1.8446744073709552e19)),
        ("na", Json::Num(f64::INFINITY)),
        ("na", Json::Num(f64::NAN)),
    ] {
        let req = Json::Obj(vec![(key.to_string(), value)]);
        assert!(
            protocol::opts_from_request(&req).is_err(),
            "{}",
            req.to_json()
        );
    }
    let at_limit = Json::Obj(vec![("b".to_string(), Json::u64_str(1 << 53))]);
    assert_eq!(protocol::opts_from_request(&at_limit).unwrap().b, 1 << 53);
}
