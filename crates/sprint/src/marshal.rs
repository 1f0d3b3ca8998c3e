//! Parameter marshalling: the wire form of [`Args`] broadcast to workers.
//!
//! Two codecs are provided:
//!
//! - [`Codec::StringCoded`] — option values travel as strings, exactly as the
//!   R interface supplies them (`test = "t.equalvar"`, `side = "abs"`, …).
//!   This is what the paper's implementation does (it broadcasts "the lengths
//!   of the string parameters first").
//! - [`Codec::IntCoded`] — the paper's **future-work item 3**: "the string
//!   input parameters can be replaced with scalar integer values before they
//!   are broadcast to all processes. Scalar parameters are easier and faster
//!   to broadcast and handle." Known option strings are replaced by one-byte
//!   codes.
//!
//! The `marshal_ablation` bench quantifies the difference.

use sprint_core::error::{Error, Result};
use sprint_core::options::{Form, PmaxtOptions, OPTIONS, YES_NO};

use crate::args::{Args, Value};

/// Wire codec choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Codec {
    /// Strings travel verbatim (the published implementation).
    StringCoded,
    /// Strings of known option domains travel as one-byte codes
    /// (future-work item 3).
    IntCoded,
}

// Tags of the value variants on the wire.
const TAG_INT: u8 = 0;
const TAG_FLOAT: u8 = 1;
const TAG_STR: u8 = 2;
const TAG_BYTES: u8 = 3;
const TAG_FLOATS: u8 = 4;
const TAG_CODE: u8 = 5; // IntCoded replacement of a known string

/// The option strings that IntCoded replaces, in code order: every
/// spelling of every word-form and yes/no option, in option-table order. The
/// domain is closed (the R interface's documented vocabulary and its
/// extensions), so a one-byte index is a faithful replacement; the codes
/// never leave the process, so a new spelling may move later ones.
fn coded_strings() -> impl Iterator<Item = &'static str> {
    OPTIONS
        .iter()
        .flat_map(|row| match row.form {
            Form::Word(words) => words,
            Form::YesNo => &YES_NO[..],
            Form::Count | Form::Seed | Form::NaCode => &[],
        })
        .copied()
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn read_u64(buf: &[u8], pos: &mut usize) -> u64 {
    let v = u64::from_le_bytes(buf[*pos..*pos + 8].try_into().expect("8 bytes"));
    *pos += 8;
    v
}

/// Encode `args` with the chosen codec.
pub fn encode(args: &Args, codec: Codec) -> Vec<u8> {
    let mut out = Vec::new();
    push_u64(&mut out, args.len() as u64);
    for (name, value) in args.iter() {
        push_u64(&mut out, name.len() as u64);
        out.extend_from_slice(name.as_bytes());
        match value {
            Value::Int(v) => {
                out.push(TAG_INT);
                push_u64(&mut out, *v as u64);
            }
            Value::Float(v) => {
                out.push(TAG_FLOAT);
                push_u64(&mut out, v.to_bits());
            }
            Value::Str(s) => {
                let code = if codec == Codec::IntCoded {
                    coded_strings().position(|c| c == s)
                } else {
                    None
                };
                match code {
                    Some(c) => {
                        out.push(TAG_CODE);
                        out.push(c as u8);
                    }
                    None => {
                        out.push(TAG_STR);
                        push_u64(&mut out, s.len() as u64);
                        out.extend_from_slice(s.as_bytes());
                    }
                }
            }
            Value::Bytes(b) => {
                out.push(TAG_BYTES);
                push_u64(&mut out, b.len() as u64);
                out.extend_from_slice(b);
            }
            Value::Floats(fs) => {
                out.push(TAG_FLOATS);
                push_u64(&mut out, fs.len() as u64);
                for f in fs {
                    push_u64(&mut out, f.to_bits());
                }
            }
        }
    }
    out
}

/// Decode a buffer produced by [`encode`] (either codec — the tags are
/// self-describing).
pub fn decode(buf: &[u8]) -> Args {
    let mut pos = 0usize;
    let n = read_u64(buf, &mut pos) as usize;
    let mut args = Args::new();
    for _ in 0..n {
        let name_len = read_u64(buf, &mut pos) as usize;
        let name = std::str::from_utf8(&buf[pos..pos + name_len])
            .expect("utf8 name")
            .to_string();
        pos += name_len;
        let tag = buf[pos];
        pos += 1;
        let value = match tag {
            TAG_INT => Value::Int(read_u64(buf, &mut pos) as i64),
            TAG_FLOAT => Value::Float(f64::from_bits(read_u64(buf, &mut pos))),
            TAG_STR => {
                let len = read_u64(buf, &mut pos) as usize;
                let s = std::str::from_utf8(&buf[pos..pos + len])
                    .expect("utf8 value")
                    .to_string();
                pos += len;
                Value::Str(s)
            }
            TAG_CODE => {
                let c = buf[pos] as usize;
                pos += 1;
                Value::Str(
                    coded_strings()
                        .nth(c)
                        .expect("IntCoded writes only vocabulary codes")
                        .to_string(),
                )
            }
            TAG_BYTES => {
                let len = read_u64(buf, &mut pos) as usize;
                let b = buf[pos..pos + len].to_vec();
                pos += len;
                Value::Bytes(b)
            }
            TAG_FLOATS => {
                let len = read_u64(buf, &mut pos) as usize;
                let mut fs = Vec::with_capacity(len);
                for _ in 0..len {
                    fs.push(f64::from_bits(read_u64(buf, &mut pos)));
                }
                Value::Floats(fs)
            }
            other => panic!("unknown wire tag {other}"),
        };
        args.set(&name, value);
    }
    args
}

/// Express [`PmaxtOptions`] as R-style arguments, one per option-table row
/// (an unset NA code left out).
pub fn options_to_args(opts: &PmaxtOptions) -> Args {
    let mut args = Args::new();
    for row in &OPTIONS {
        let Some(text) = opts.text(row) else { continue };
        let value = match row.form {
            Form::Word(_) | Form::YesNo => Value::Str(text),
            // Integers travel as their 64-bit pattern, so a seed above
            // `i64::MAX` survives.
            Form::Count | Form::Seed => Value::Int(
                text.parse::<u64>()
                    .expect("a count or seed reads as a decimal u64") as i64,
            ),
            Form::NaCode => Value::Float(text.parse().expect("an NA code reads as a float")),
        };
        args.set(row.name, value);
    }
    args
}

/// Rebuild [`PmaxtOptions`] from R-style arguments. A value of the wrong
/// type or outside its option's form is a [`Error::BadOption`] naming the
/// option, never a quiet default.
pub fn args_to_options(args: &Args) -> Result<PmaxtOptions> {
    let mut opts = PmaxtOptions::default();
    for row in &OPTIONS {
        let Some(value) = args.get(row.name) else {
            continue;
        };
        let text = match (row.form, value) {
            (Form::Word(_) | Form::YesNo, Value::Str(s)) => s.clone(),
            (Form::Count | Form::Seed, Value::Int(n)) => (*n as u64).to_string(),
            (Form::NaCode, Value::Float(x)) => x.to_string(),
            _ => {
                return Err(Error::BadOption {
                    param: row.name,
                    value: format!("{value:?}"),
                })
            }
        };
        opts.set_text(row, &text)?;
    }
    Ok(opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sprint_core::options::{KernelChoice, Mode, Precision, SamplingMode, TestMethod, Workload};
    use sprint_core::side::Side;

    fn rich_args() -> Args {
        Args::new()
            .with("test", Value::Str("t.equalvar".into()))
            .with("side", Value::Str("lower".into()))
            .with("B", Value::Int(150_000))
            .with("na", Value::Float(-9999.25))
            .with("labels", Value::Bytes(vec![0, 0, 1, 1]))
            .with("row0", Value::Floats(vec![1.5, f64::NAN, -2.0]))
            .with("custom", Value::Str("not-a-known-option".into()))
    }

    #[test]
    fn string_codec_round_trips() {
        let args = rich_args();
        let decoded = decode(&encode(&args, Codec::StringCoded));
        // NaN != NaN, so compare piecewise.
        assert_eq!(decoded.len(), args.len());
        assert_eq!(decoded.get("test"), args.get("test"));
        assert_eq!(decoded.get("labels"), args.get("labels"));
        let f = decoded.get("row0").unwrap().as_floats().unwrap();
        assert_eq!(f[0], 1.5);
        assert!(f[1].is_nan());
        assert_eq!(f[2], -2.0);
    }

    #[test]
    fn int_codec_round_trips_including_unknown_strings() {
        let args = rich_args();
        let decoded = decode(&encode(&args, Codec::IntCoded));
        assert_eq!(decoded.get("test").unwrap().as_str(), Some("t.equalvar"));
        assert_eq!(decoded.get("side").unwrap().as_str(), Some("lower"));
        assert_eq!(
            decoded.get("custom").unwrap().as_str(),
            Some("not-a-known-option"),
            "unknown strings fall back to verbatim"
        );
    }

    #[test]
    fn int_codec_is_smaller_for_option_strings() {
        let args = Args::new()
            .with("test", Value::Str("t.equalvar".into()))
            .with("side", Value::Str("upper".into()))
            .with("fixed.seed.sampling", Value::Str("y".into()))
            .with("nonpara", Value::Str("n".into()));
        let s = encode(&args, Codec::StringCoded).len();
        let i = encode(&args, Codec::IntCoded).len();
        assert!(i < s, "int-coded {i} >= string-coded {s}");
    }

    #[test]
    fn options_round_trip_through_args() {
        // Every field away from its default, so a field either codec drops
        // comes back as the default and fails the comparison.
        let opts = PmaxtOptions {
            test: TestMethod::BlockF,
            side: Side::Upper,
            sampling: SamplingMode::Stored,
            b: 77,
            na: Some(-1.0),
            nonpara: true,
            seed: 99,
            max_complete: 5_000,
            kernel: KernelChoice::Scalar,
            threads: 6,
            batch: 48,
            precision: Precision::F32,
            mode: Mode::Adaptive,
            workload: Workload::Bootstrap,
        };
        let defaults = PmaxtOptions::default();
        assert_ne!(opts.test, defaults.test);
        assert_ne!(opts.side, defaults.side);
        assert_ne!(opts.sampling, defaults.sampling);
        assert_ne!(opts.b, defaults.b);
        assert_ne!(opts.na, defaults.na);
        assert_ne!(opts.nonpara, defaults.nonpara);
        assert_ne!(opts.seed, defaults.seed);
        assert_ne!(opts.max_complete, defaults.max_complete);
        assert_ne!(opts.kernel, defaults.kernel);
        assert_ne!(opts.threads, defaults.threads);
        assert_ne!(opts.batch, defaults.batch);
        assert_ne!(opts.precision, defaults.precision);
        assert_ne!(opts.mode, defaults.mode);
        assert_ne!(opts.workload, defaults.workload);
        for codec in [Codec::StringCoded, Codec::IntCoded] {
            let wire = encode(&options_to_args(&opts), codec);
            let back = args_to_options(&decode(&wire)).unwrap();
            assert_eq!(back, opts, "{codec:?}");
        }
    }

    #[test]
    fn defaults_survive_missing_args() {
        let opts = args_to_options(&Args::new()).unwrap();
        assert_eq!(opts, PmaxtOptions::default());
    }

    #[test]
    fn every_known_option_string_is_coded() {
        // The enums' own spelling lists, not the vocabulary: a spelling the
        // vocabulary misses travels verbatim and fails the length check.
        let spellings = [
            TestMethod::SPELLINGS,
            Side::SPELLINGS,
            SamplingMode::SPELLINGS,
            KernelChoice::SPELLINGS,
            Precision::SPELLINGS,
            Mode::SPELLINGS,
            Workload::SPELLINGS,
            &YES_NO,
        ];
        for s in spellings.concat() {
            let args = Args::new().with("x", Value::Str(s.to_string()));
            let enc = encode(&args, Codec::IntCoded);
            // name "x" (1) + its length (8) + count (8) + tag + code byte
            assert_eq!(enc.len(), 8 + 8 + 1 + 1 + 1, "string {s:?} not coded");
            assert_eq!(decode(&enc).get("x").unwrap().as_str(), Some(s));
        }
    }

    #[test]
    fn wrongly_typed_values_are_refused_not_defaulted() {
        let cases = [
            ("B", Value::Str("500".into())),
            ("seed", Value::Float(7.0)),
            ("max.complete", Value::Str("all".into())),
            ("threads", Value::Float(2.0)),
            ("batch", Value::Bytes(vec![8])),
            ("nonpara", Value::Str("yes".into())),
            ("nonpara", Value::Int(1)),
            ("na", Value::Str("-99".into())),
            ("test", Value::Int(0)),
        ];
        for (name, value) in cases {
            let args = Args::new().with(name, value.clone());
            match args_to_options(&args) {
                Err(Error::BadOption { param, .. }) => assert_eq!(param, name, "{value:?}"),
                other => panic!("{name} = {value:?} gave {other:?}"),
            }
        }
    }
}
