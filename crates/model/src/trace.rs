//! The shared replayable trace format.
//!
//! One grammar serves two producers and two consumers:
//!
//! - The explorer renders counterexample schedules in it (see
//!   [`write_counterexample_to`]), so a counterexample is a chaos
//!   artifact that explains and reproduces the violation.
//! - Named conformance traces (`crates/model/traces/*.trace`) are written
//!   in it by hand and replayed against the real `PeerNode` logic by
//!   [`crate::conform::Conductor`].
//!
//! A trace is a line-oriented script. Blank lines and `#` comments are
//! skipped. Every other line is a *step*: a verb followed by
//! `key=value` selectors; one bare word directly after the verb is
//! shorthand for `kind=<word>` (this keeps the explorer's action
//! renderings — `deliver data sid=0 seq=2` — valid steps).
//!
//! ```text
//! # two peers, one query, a duplicated data packet
//! deliver kind=clientquery to=1
//! deliver kind=subplan to=2
//! dup kind=data
//! timer node=2 kind=completion
//! drain
//! expect outcome node=1 qid=1 status=complete
//! expect dedups min=1
//! ```
//!
//! The verbs the conformance replayer executes are `deliver`, `drop`,
//! `dup`, `timer`, `down`, `up`, `advance`, `drain` and `expect`. The peer
//! machine's counterexamples use only these, so each replays on real peers;
//! the stream machine's schedules name its own streams (`sid=`) and replay
//! against the machine itself.

use std::io::Write as _;
use std::path::{Path, PathBuf};

/// One parsed trace line: a verb plus `key=value` selectors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Step {
    pub verb: String,
    pub kv: Vec<(String, String)>,
}

impl Step {
    pub fn get(&self, key: &str) -> Option<&str> {
        self.kv
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Numeric selector, `Err` naming the step when present but invalid.
    pub fn get_u64(&self, key: &str) -> Result<Option<u64>, String> {
        match self.get(key) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("step `{self}`: {key}={v} is not a number")),
        }
    }

    /// Numeric selector with a default.
    pub fn u64_or(&self, key: &str, default: u64) -> Result<u64, String> {
        Ok(self.get_u64(key)?.unwrap_or(default))
    }

    /// Required numeric selector.
    pub fn need_u64(&self, key: &str) -> Result<u64, String> {
        self.get_u64(key)?
            .ok_or_else(|| format!("step `{self}`: missing required {key}=…"))
    }
}

impl std::fmt::Display for Step {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.verb)?;
        for (k, v) in &self.kv {
            write!(f, " {k}={v}")?;
        }
        Ok(())
    }
}

/// A named sequence of steps.
#[derive(Debug, Clone)]
pub struct Trace {
    pub name: String,
    pub steps: Vec<Step>,
}

/// Parses trace text. Errors carry the 1-based line number.
pub fn parse(name: &str, src: &str) -> Result<Trace, String> {
    let mut steps = Vec::new();
    for (lineno, raw) in src.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut words = line.split_whitespace();
        let verb = words.next().expect("non-empty line").to_string();
        let mut kv = Vec::new();
        for (i, word) in words.enumerate() {
            match word.split_once('=') {
                Some((k, v)) if !k.is_empty() && !v.is_empty() => {
                    kv.push((k.to_string(), v.to_string()));
                }
                Some(_) => {
                    return Err(format!(
                        "{name}:{}: malformed selector `{word}`",
                        lineno + 1
                    ));
                }
                None if i == 0 => kv.push(("kind".to_string(), word.to_string())),
                None => {
                    return Err(format!(
                        "{name}:{}: bare word `{word}` only allowed directly after the verb",
                        lineno + 1
                    ));
                }
            }
        }
        steps.push(Step { verb, kv });
    }
    Ok(Trace {
        name: name.to_string(),
        steps,
    })
}

/// Loads and parses a `.trace` file.
pub fn load(path: &Path) -> Result<Trace, String> {
    let name = path
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("trace")
        .to_string();
    let src = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse(&name, &src)
}

/// Renders a counterexample into `dir` as a replayable chaos artifact:
/// `#` header lines explaining the violation, then the schedule in trace
/// grammar. Returns the artifact path.
pub fn write_counterexample_to(
    dir: &Path,
    name: &str,
    cex: &crate::explore::Counterexample,
) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{}.trace", name.replace('/', "-")));
    let mut f = std::fs::File::create(&path)?;
    writeln!(f, "# counterexample: {name}")?;
    writeln!(f, "# violation: {}", cex.kind)?;
    writeln!(f, "# offending state: {}", cex.state)?;
    if !cex.cycle.is_empty() {
        writeln!(f, "# non-terminating cycle through:")?;
        for state in &cex.cycle {
            writeln!(f, "#   {state}")?;
        }
    }
    writeln!(
        f,
        "# schedule ({} steps from the initial state):",
        cex.schedule.len()
    )?;
    for line in &cex.schedule {
        writeln!(f, "{line}")?;
    }
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_verbs_selectors_and_kind_shorthand() {
        let src = "\n# header comment\ndeliver data sid=0 seq=2\ntimer node=1 kind=timeout\ndrain\nexpect outcome node=1 qid=1 status=complete\n";
        let trace = parse("t", src).unwrap();
        assert_eq!(trace.steps.len(), 4);
        assert_eq!(trace.steps[0].verb, "deliver");
        assert_eq!(trace.steps[0].get("kind"), Some("data"));
        assert_eq!(trace.steps[0].get_u64("seq").unwrap(), Some(2));
        assert_eq!(trace.steps[1].need_u64("node").unwrap(), 1);
        assert_eq!(trace.steps[2].kv.len(), 0);
        assert_eq!(trace.steps[3].get("status"), Some("complete"));
        // Round-trip: Display re-renders a parseable line.
        assert_eq!(trace.steps[0].to_string(), "deliver kind=data sid=0 seq=2");
    }

    #[test]
    fn rejects_malformed_lines() {
        let err = parse("t", "deliver data stray").unwrap_err();
        assert!(err.contains("t:1"), "{err}");
        let err = parse("t", "deliver =broken").unwrap_err();
        assert!(err.contains("malformed"), "{err}");
    }

    #[test]
    fn counterexample_artifact_is_replayable_grammar() {
        let cex = crate::explore::Counterexample {
            kind: crate::explore::ViolationKind::Deadlock,
            schedule: vec!["deliver data sid=0 seq=0".into(), "timer q=0".into()],
            state: "Wedged".into(),
            cycle: Vec::new(),
        };
        let dir = std::env::temp_dir().join("sqpeer-model-trace-test");
        let path = write_counterexample_to(&dir, "stream/unit", &cex).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("# violation: deadlock"), "{text}");
        let replay = parse("unit", &text).unwrap();
        assert_eq!(replay.steps.len(), 2);
        assert_eq!(replay.steps[1].verb, "timer");
        std::fs::remove_dir_all(&dir).ok();
    }
}
