//! Self-contained replay cases: serialise a failing probe to JSON,
//! re-execute it deterministically, and shrink it.
//!
//! A [`ReplayCase`] captures everything the probe runner needs — switch
//! size, root seed, slot budget, traffic load, scheduler configuration
//! (including the hidden accept-skew bug hook), buffer capacity, and a
//! scripted fault plan — so a `replay.json` emitted on one machine
//! re-executes to the exact same failing slot on any other. The JSON is
//! hand-rolled like the rest of the repo (no serde in the build image).

use crate::runner::run_case;
use an2_sched::check::Violation;
use an2_sched::pim::AcceptPolicy;

/// A deterministic, self-contained scheduler/switch probe.
///
/// `slots`, `seed`, and the scheduler fields fully determine the run;
/// `failing_slot`/`rule` are annotations stamped when a case is captured
/// from a violation (ignored on replay — the run re-derives them).
#[derive(Clone, Debug, PartialEq)]
pub struct ReplayCase {
    /// Schema version (1).
    pub version: u32,
    /// Switch radix.
    pub n: usize,
    /// Traffic is restricted to the first `active_ports` inputs/outputs;
    /// the shrinker lowers this. Clamped to `1..=n`.
    pub active_ports: usize,
    /// Root seed: scheduler streams and traffic streams derive from it.
    pub seed: u64,
    /// Per-input Bernoulli arrival probability per slot.
    pub load: f64,
    /// Slot budget.
    pub slots: u64,
    /// PIM iteration budget; 0 means run to completion.
    pub iterations: usize,
    /// Accept policy: "random", "round-robin", or "lowest".
    pub accept: String,
    /// The seeded-bug hook (`Pim::debug_set_accept_skew`); 0 = correct.
    pub accept_skew: usize,
    /// Per-(input, output) VOQ capacity; `None` = unbounded.
    pub pair_capacity: Option<usize>,
    /// Whether the checker should also demand maximal matchings.
    pub expect_maximal: bool,
    /// Fault plan: `(slot, input)` arrivals corrupted on the wire.
    pub corrupt: Vec<(u64, usize)>,
    /// Annotation: slot of the captured violation.
    pub failing_slot: Option<u64>,
    /// Annotation: rule of the captured violation.
    pub rule: Option<String>,
}

impl ReplayCase {
    /// A correct-by-default probe: PIM(4), random accept, no faults.
    pub fn new(n: usize, seed: u64, load: f64, slots: u64) -> Self {
        Self {
            version: 1,
            n,
            active_ports: n,
            seed,
            load,
            slots,
            iterations: 4,
            accept: "random".to_owned(),
            accept_skew: 0,
            pair_capacity: None,
            expect_maximal: false,
            corrupt: Vec::new(),
            failing_slot: None,
            rule: None,
        }
    }

    /// The accept policy this case names.
    ///
    /// # Panics
    ///
    /// Panics on an unknown policy name (callers parse via
    /// [`ReplayCase::from_json`], which validates).
    pub fn accept_policy(&self) -> AcceptPolicy {
        match self.accept.as_str() {
            "random" => AcceptPolicy::Random,
            "round-robin" => AcceptPolicy::RoundRobin,
            "lowest" => AcceptPolicy::LowestIndex,
            other => panic!("unknown accept policy {other:?}"),
        }
    }

    /// Whether this case corrupts the arrival at `input` on `slot`.
    pub fn is_corrupted(&self, slot: u64, input: usize) -> bool {
        self.corrupt.iter().any(|&(s, i)| s == slot && i == input)
    }

    /// Stamps the violation annotations onto this case.
    pub fn annotate(&mut self, v: &Violation) {
        self.failing_slot = Some(v.slot);
        self.rule = Some(v.rule.to_owned());
    }

    /// Serialises to the `replay.json` format.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(512);
        s.push_str("{\n");
        s.push_str(&format!("  \"version\": {},\n", self.version));
        s.push_str(&format!("  \"n\": {},\n", self.n));
        s.push_str(&format!("  \"active_ports\": {},\n", self.active_ports));
        s.push_str(&format!("  \"seed\": {},\n", self.seed));
        s.push_str(&format!("  \"load\": {},\n", self.load));
        s.push_str(&format!("  \"slots\": {},\n", self.slots));
        s.push_str(&format!("  \"iterations\": {},\n", self.iterations));
        s.push_str(&format!("  \"accept\": \"{}\",\n", self.accept));
        s.push_str(&format!("  \"accept_skew\": {},\n", self.accept_skew));
        match self.pair_capacity {
            Some(c) => s.push_str(&format!("  \"pair_capacity\": {c},\n")),
            None => s.push_str("  \"pair_capacity\": null,\n"),
        }
        s.push_str(&format!(
            "  \"expect_maximal\": {},\n",
            self.expect_maximal
        ));
        s.push_str("  \"corrupt\": [");
        for (k, (slot, input)) in self.corrupt.iter().enumerate() {
            if k > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!("[{slot}, {input}]"));
        }
        s.push_str("],\n");
        match self.failing_slot {
            Some(f) => s.push_str(&format!("  \"failing_slot\": {f},\n")),
            None => s.push_str("  \"failing_slot\": null,\n"),
        }
        match &self.rule {
            Some(r) => s.push_str(&format!("  \"rule\": \"{r}\"\n")),
            None => s.push_str("  \"rule\": null\n"),
        }
        s.push_str("}\n");
        s
    }

    /// Parses the `replay.json` format (tolerant of whitespace and key
    /// order; the annotation keys may be absent).
    pub fn from_json(json: &str) -> Result<Self, ReplayParseError> {
        let version = u64_field(json, "version")?;
        let case = Self {
            version: u32::try_from(version)
                .map_err(|_| ReplayParseError::UnsupportedVersion(version))?,
            n: u64_field(json, "n")? as usize,
            active_ports: u64_field(json, "active_ports")? as usize,
            seed: u64_field(json, "seed")?,
            load: f64_field(json, "load")?,
            slots: u64_field(json, "slots")?,
            iterations: u64_field(json, "iterations")? as usize,
            accept: str_field(json, "accept")?,
            accept_skew: u64_field(json, "accept_skew")? as usize,
            pair_capacity: opt_u64_field(json, "pair_capacity")?.map(|c| c as usize),
            expect_maximal: bool_field(json, "expect_maximal")?,
            corrupt: pairs_field(json, "corrupt")?,
            failing_slot: match value_after(json, "failing_slot") {
                Ok(_) => opt_u64_field(json, "failing_slot")?,
                Err(_) => None,
            },
            rule: match value_after(json, "rule") {
                Ok(v) if v.starts_with('"') => Some(str_field(json, "rule")?),
                _ => None,
            },
        };
        if case.version != 1 {
            return Err(ReplayParseError::UnsupportedVersion(version));
        }
        if case.n == 0 || case.n > an2_sched::MAX_PORTS {
            return Err(ReplayParseError::SwitchSize(case.n));
        }
        if !matches!(case.accept.as_str(), "random" | "round-robin" | "lowest") {
            return Err(ReplayParseError::AcceptPolicy(case.accept));
        }
        Ok(case)
    }
}

/// Why [`ReplayCase::from_json`] refused a document.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReplayParseError {
    /// A key is missing or its value is malformed.
    Field(String),
    /// The schema version is not 1 (as written, before any narrowing).
    UnsupportedVersion(u64),
    /// The switch size is 0 or above `an2_sched::MAX_PORTS`.
    SwitchSize(usize),
    /// The accept policy names none of "random", "round-robin", "lowest".
    AcceptPolicy(String),
}

impl From<String> for ReplayParseError {
    fn from(message: String) -> Self {
        Self::Field(message)
    }
}

impl std::fmt::Display for ReplayParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Field(message) => f.write_str(message),
            Self::UnsupportedVersion(v) => write!(f, "unsupported replay version {v}"),
            Self::SwitchSize(n) => write!(f, "switch size {n} out of range"),
            Self::AcceptPolicy(name) => write!(f, "unknown accept policy {name:?}"),
        }
    }
}

impl std::error::Error for ReplayParseError {}

/// Greedily shrinks a failing case: first trims the slot budget to the
/// failing slot, then removes active ports one at a time as long as the
/// probe still fails (re-trimming slots after each successful removal).
///
/// Returns `None` if `case` does not fail at all. The result is
/// guaranteed to still fail, with its annotations updated.
pub fn shrink(case: &ReplayCase) -> Option<ReplayCase> {
    let outcome = run_case(case);
    let v = outcome.violation?;
    let mut best = case.clone();
    best.slots = v.slot + 1;
    best.annotate(&v);
    while best.active_ports > 1 {
        let mut cand = best.clone();
        cand.active_ports -= 1;
        // Restore the original budget: with fewer ports the failure may
        // surface later than the trimmed horizon.
        cand.slots = case.slots;
        match run_case(&cand).violation {
            Some(v2) => {
                cand.slots = v2.slot + 1;
                cand.annotate(&v2);
                best = cand;
            }
            None => break,
        }
    }
    Some(best)
}

// --- minimal flat-schema JSON field scanners ---------------------------
// The schema is one object with unique quoted keys, so locating
// `"key":` and parsing the single value after it is unambiguous. This is
// the same style as an2-bench's BENCH_sched.json reader.

fn value_after<'a>(json: &'a str, key: &str) -> Result<&'a str, String> {
    let pat = format!("\"{key}\"");
    let at = json
        .find(&pat)
        .ok_or_else(|| format!("replay.json: missing key \"{key}\""))?;
    let rest = &json[at + pat.len()..];
    let colon = rest
        .find(':')
        .ok_or_else(|| format!("replay.json: no value for \"{key}\""))?;
    Ok(rest[colon + 1..].trim_start())
}

fn lexeme(v: &str) -> &str {
    let end = v
        .find([',', '}', ']', '\n'])
        .unwrap_or(v.len());
    v[..end].trim()
}

fn u64_field(json: &str, key: &str) -> Result<u64, String> {
    lexeme(value_after(json, key)?)
        .parse()
        .map_err(|e| format!("replay.json: bad \"{key}\": {e}"))
}

fn f64_field(json: &str, key: &str) -> Result<f64, String> {
    lexeme(value_after(json, key)?)
        .parse()
        .map_err(|e| format!("replay.json: bad \"{key}\": {e}"))
}

fn bool_field(json: &str, key: &str) -> Result<bool, String> {
    match lexeme(value_after(json, key)?) {
        "true" => Ok(true),
        "false" => Ok(false),
        other => Err(format!("replay.json: bad \"{key}\": {other:?}")),
    }
}

fn opt_u64_field(json: &str, key: &str) -> Result<Option<u64>, String> {
    match lexeme(value_after(json, key)?) {
        "null" => Ok(None),
        num => num
            .parse()
            .map(Some)
            .map_err(|e| format!("replay.json: bad \"{key}\": {e}")),
    }
}

fn str_field(json: &str, key: &str) -> Result<String, String> {
    let v = value_after(json, key)?;
    let inner = v
        .strip_prefix('"')
        .ok_or_else(|| format!("replay.json: \"{key}\" is not a string"))?;
    let end = inner
        .find('"')
        .ok_or_else(|| format!("replay.json: unterminated string for \"{key}\""))?;
    Ok(inner[..end].to_owned())
}

fn pairs_field(json: &str, key: &str) -> Result<Vec<(u64, usize)>, String> {
    let v = value_after(json, key)?;
    let body = v
        .strip_prefix('[')
        .ok_or_else(|| format!("replay.json: \"{key}\" is not an array"))?;
    let end = body
        .find("]]")
        .map(|e| e + 1)
        .or_else(|| body.trim_start().starts_with(']').then_some(0));
    let Some(end) = end else {
        return Err(format!("replay.json: unterminated array for \"{key}\""));
    };
    let mut pairs = Vec::new();
    let mut nums: Vec<u64> = Vec::new();
    let mut cur = String::new();
    for ch in body[..end].chars() {
        match ch {
            '0'..='9' => cur.push(ch),
            _ => {
                if !cur.is_empty() {
                    nums.push(cur.parse().map_err(|e| format!("replay.json: {e}"))?);
                    cur.clear();
                }
            }
        }
    }
    if !cur.is_empty() {
        nums.push(cur.parse().map_err(|e| format!("replay.json: {e}"))?);
    }
    if !nums.len().is_multiple_of(2) {
        return Err(format!("replay.json: \"{key}\" pairs are uneven"));
    }
    for pair in nums.chunks_exact(2) {
        pairs.push((pair[0], pair[1] as usize));
    }
    Ok(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trips() {
        let mut case = ReplayCase::new(8, 1234, 0.3, 512);
        case.accept_skew = 1;
        case.pair_capacity = Some(16);
        case.corrupt = vec![(3, 1), (5, 0)];
        case.failing_slot = Some(7);
        case.rule = Some("respects".to_owned());
        let parsed = ReplayCase::from_json(&case.to_json()).expect("round trip");
        assert_eq!(parsed, case);
    }

    #[test]
    fn json_round_trips_with_nulls_and_empty_plan() {
        let case = ReplayCase::new(4, 9, 1.0, 64);
        let parsed = ReplayCase::from_json(&case.to_json()).expect("round trip");
        assert_eq!(parsed, case);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(matches!(
            ReplayCase::from_json("{}"),
            Err(ReplayParseError::Field(_))
        ));
        let mut case = ReplayCase::new(4, 9, 1.0, 64);
        case.accept = "sideways".to_owned();
        assert_eq!(
            ReplayCase::from_json(&case.to_json()),
            Err(ReplayParseError::AcceptPolicy("sideways".to_owned()))
        );
        // A version that wraps to 1 when narrowed to u32 is still refused,
        // like any other unsupported version.
        let json = ReplayCase::new(4, 9, 1.0, 64).to_json();
        for v in [2u64, (1 << 32) + 1, u64::MAX] {
            let bad = json.replace("\"version\": 1,", &format!("\"version\": {v},"));
            assert_eq!(
                ReplayCase::from_json(&bad),
                Err(ReplayParseError::UnsupportedVersion(v))
            );
        }
        let err =
            ReplayCase::from_json(&json.replace("\"version\": 1,", "\"version\": 4294967297,"))
                .expect_err("wrapped version");
        assert_eq!(err.to_string(), "unsupported replay version 4294967297");
    }
}
