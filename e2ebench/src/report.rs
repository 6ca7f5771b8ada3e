//! Order statistics and the JSON the benchmark prints.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Median of `v` (mean of the middle pair for even lengths); NaN when
/// empty, which the result line reports as a failure.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// Samples of one quantity, each tagged with the round that took it.
#[derive(Default)]
pub struct PerRound(Vec<(usize, f64)>);

impl PerRound {
    pub fn push(&mut self, round: usize, value: f64) {
        self.0.push((round, value));
    }

    /// The run's figure: each round's median, averaged over the rounds.
    /// The median drops a round's stray stalls. The mean lets a run that
    /// straddles a fast and a slow spell of the machine report its
    /// average speed; a median over all samples would snap to whichever
    /// spell held more of them. NaN when empty.
    pub fn round_mean(&self) -> f64 {
        let mut rounds: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
        for &(round, value) in &self.0 {
            rounds.entry(round).or_default().push(value);
        }
        let sum: f64 = rounds.values().map(|v| median(v)).sum();
        sum / rounds.len() as f64
    }

    /// The median of all samples, whatever their round.
    pub fn median(&self) -> f64 {
        median(&self.0.iter().map(|&(_, value)| value).collect::<Vec<_>>())
    }
}

/// A latency tail: the value at the highest percentile that still has at
/// least ten samples beyond it, with that percentile and the sample
/// count. With fewer than eleven samples it is the maximum (percentile
/// 100), and the count says so.
#[derive(Clone, Copy, Debug)]
pub struct Tail {
    pub value: f64,
    pub percentile: f64,
    pub samples: usize,
}

pub fn tail(v: &[f64]) -> Tail {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n < 11 {
        return Tail {
            value: s.last().copied().unwrap_or(f64::NAN),
            percentile: 100.0,
            samples: n,
        };
    }
    Tail {
        value: s[n - 11],
        percentile: 100.0 * (n - 10) as f64 / n as f64,
        samples: n,
    }
}

/// A JSON value, rendered with every digit a float has.
pub enum Json {
    Num(f64),
    Int(u64),
    Bool(bool),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            // Non-finite numbers are not JSON; a NaN metric is a failed
            // measurement and the caller marks the run incorrect.
            Json::Num(x) if !x.is_finite() => out.push_str("null"),
            Json::Num(x) => write!(out, "{x:?}").expect("writing to a String"),
            Json::Int(x) => write!(out, "{x}").expect("writing to a String"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_str(out, k);
                    out.push_str(": ");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("String"),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(median(&v), 50.5);
    }

    #[test]
    fn round_mean_averages_round_medians() {
        let mut p = PerRound::default();
        for (round, value) in [(0, 1.0), (0, 2.0), (0, 100.0), (1, 4.0)] {
            p.push(round, value);
        }
        assert_eq!(p.round_mean(), 3.0);
        assert_eq!(p.median(), 3.0);
        assert!(PerRound::default().round_mean().is_nan());
    }

    #[test]
    fn floats_keep_their_digits() {
        assert_eq!(Json::Num(0.1 + 0.2).render(), "0.30000000000000004");
        assert_eq!(Json::Num(2.0).render(), "2.0");
    }
}
